"""Socket-transport shard serving: remote workers, registry, failover.

This package turns the serving layer's shard execution from a
single-process affair into a small distributed system:

* :mod:`~repro.serving.remote.transport` -- length-prefixed pickle framing
  over TCP, with a failure taxonomy (clean close vs. torn connection) the
  failover logic keys off.
* :mod:`~repro.serving.remote.worker` -- the shard worker server and the
  ``repro-serve-worker`` CLI entry point, plus a local-spawn helper so tests
  and demos need no manual orchestration.
* :mod:`~repro.serving.remote.registry` -- shard -> endpoint assignment,
  liveness tracking, standby promotion and co-hosting on survivor workers.
* :mod:`~repro.serving.remote.failover` -- replay-tail bookkeeping between
  snapshots and per-recovery reports.
* :mod:`~repro.serving.remote.backend` -- :class:`SocketChannels`, the
  channel kind a ``socket`` :class:`~repro.serving.fleet.BackendPool` runs
  its slot engine over: one connection per slot, heartbeat liveness probes,
  and re-homing of a lost slot so the engine recovers instead of
  fail-stopping.
"""

from repro.serving.remote.backend import SocketChannels
from repro.serving.remote.failover import RecoveryReport, ReplayLog
from repro.serving.remote.registry import (
    NoLiveWorkerError,
    WorkerEndpoint,
    WorkerRegistry,
)
from repro.serving.remote.transport import (
    MAX_FRAME_BYTES,
    Transport,
    TransportClosed,
    TransportError,
)
from repro.serving.remote.worker import (
    LocalWorkerHandle,
    ShardWorkerServer,
    main,
    spawn_local_worker,
)

__all__ = [
    "SocketChannels",
    "RecoveryReport",
    "ReplayLog",
    "NoLiveWorkerError",
    "WorkerEndpoint",
    "WorkerRegistry",
    "MAX_FRAME_BYTES",
    "Transport",
    "TransportClosed",
    "TransportError",
    "LocalWorkerHandle",
    "ShardWorkerServer",
    "main",
    "spawn_local_worker",
]
