"""The socket channel kind: slots of a pool served by TCP shard workers.

:class:`SocketChannels` plugs the framed socket RPC of
:mod:`repro.serving.remote.transport` into the pool's
:class:`~repro.serving.fleet.SlotEngine`: each slot is one connection to a
:class:`~repro.serving.remote.worker.ShardWorkerServer` endpoint.  Workers
are real TCP endpoints: started by hand via ``repro-serve-worker`` and
listed in ``SessionConfig(workers=...)``, or (the zero-orchestration
default) spawned in-process by the channel kind itself.

What distinguishes it from the pipe kind is that a lost slot has somewhere
to go, which turns the engine's failure model from fail-stop into
detect-and-recover:

* **Detect** -- every transport failure on a slot's connection, plus
  rate-limited heartbeat probes (``ping`` with a reply deadline) that run
  before a dispatch when a slot has been quiet for longer than the
  heartbeat interval.
* **Re-home** -- the :class:`~repro.serving.remote.registry.WorkerRegistry`
  moves the slot onto an idle standby, or co-hosts it on the least-loaded
  survivor.
* **Recover** -- the engine (which keeps each hosted shard's snapshot and
  replay tail because this kind can re-home) rehydrates every shard the
  slot hosted and re-runs the interrupted exchange.  A worker kill costs one
  bounded stall; every map stays leaf-for-leaf equal to sequential
  ingestion.

Only when re-homing finds no live worker does the loss surface as the
fail-stop :class:`~repro.serving.backends.ShardBackendError`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.serving.backends import ShardBackendError
from repro.serving.remote.registry import (
    NoLiveWorkerError,
    WorkerEndpoint,
    WorkerRegistry,
)
from repro.serving.remote.transport import Transport, TransportError
from repro.serving.remote.worker import LocalWorkerHandle, spawn_local_worker

__all__ = ["SocketChannels"]

#: Signature of the transport interposer: ``(transport, slot, endpoint) ->
#: transport-like``.  The fault-injection harness wraps every connection the
#: channel kind opens (including post-recovery reconnects).
TransportWrapper = Callable[[Transport, int, WorkerEndpoint], Transport]

#: Blocking-I/O deadline of an ordinary request/reply on a connection.
IO_TIMEOUT_S = 60.0
CONNECT_TIMEOUT_S = 5.0


class _SocketChannel:
    """One slot's framed connection to its current worker endpoint."""

    def __init__(
        self,
        transport: Transport,
        external: bool,
        heartbeat_interval_s: float,
        heartbeat_timeout_s: float,
    ) -> None:
        self.send = transport.send
        self._transport = transport
        self._external = external
        self._heartbeat_interval_s = heartbeat_interval_s
        self._heartbeat_timeout_s = heartbeat_timeout_s
        self._last_contact = time.perf_counter()

    def recv(self):
        reply = self._transport.recv()
        self._last_contact = time.perf_counter()
        return reply

    def check(self, counters: Dict[str, float]) -> None:
        """Probe a quiet connection with a deadline-bounded ping."""
        if time.perf_counter() - self._last_contact < self._heartbeat_interval_s:
            return
        counters["heartbeat_probes"] += 1
        self._transport.settimeout(self._heartbeat_timeout_s)
        try:
            self.send(("ping", None, None))
            self.recv()
        except TransportError:
            counters["heartbeat_failures"] += 1
            raise  # the connection is discarded; its deadline no longer matters
        self._transport.settimeout(IO_TIMEOUT_S)

    def close(self, hosted: Sequence[int]) -> None:
        """Close the connection; first hand an external worker back empty.

        Externally managed workers outlive the pool, so the shards still
        hosted through this connection are released instead of the server
        being stopped (workers the pool spawned are stopped by
        :meth:`SocketChannels.close`).
        """
        if self._external:
            try:
                for gid in hosted:
                    self.send(("detach", gid, None))
                    self.recv()
            except TransportError:
                pass
        self._transport.close()


class SocketChannels:
    """Opens one connection per slot to TCP shard workers; re-homes lost slots.

    Args:
        num_slots: slots to serve.
        endpoints: external ``host:port`` workers -- the first ``num_slots``
            are the slots' primary homes, the rest standbys.  Empty spawns
            ``num_slots + standby_workers`` local in-process workers, reaped
            on close.
        standby_workers: extra local workers to spawn as re-homing targets.
        heartbeat_interval_s / heartbeat_timeout_s: quiet time before a
            connection is probed, and the probe's reply deadline.
        transport_wrapper: interposer applied to every connection opened.
    """

    def __init__(
        self,
        num_slots: int,
        endpoints: Sequence[str] = (),
        standby_workers: int = 1,
        heartbeat_interval_s: float = 1.0,
        heartbeat_timeout_s: float = 5.0,
        transport_wrapper: Optional[TransportWrapper] = None,
    ) -> None:
        if heartbeat_interval_s <= 0.0 or heartbeat_timeout_s <= 0.0:
            raise ValueError("heartbeat interval and timeout must be positive")
        if standby_workers < 0:
            raise ValueError("standby_workers must be non-negative")
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._transport_wrapper = transport_wrapper
        #: workers this pool spawned itself (and must reap on close).
        self.owned_workers: List[LocalWorkerHandle] = []
        if not endpoints:
            self.owned_workers = [
                spawn_local_worker() for _ in range(num_slots + standby_workers)
            ]
            endpoints = [handle.endpoint for handle in self.owned_workers]
        # (Only a caller's endpoint list can be rejected here, and then there
        # are no spawned workers to reap.)
        self.registry = WorkerRegistry(
            [WorkerEndpoint.parse(endpoint) for endpoint in endpoints], num_slots
        )

    def open(self, slot: int) -> _SocketChannel:
        """(Re)connect a slot to the endpoint the registry assigns it."""
        endpoint = self.registry.endpoint_for(slot)
        transport = Transport.connect(
            endpoint.host,
            endpoint.port,
            connect_timeout_s=CONNECT_TIMEOUT_S,
            timeout_s=IO_TIMEOUT_S,
        )
        if self._transport_wrapper is not None:
            transport = self._transport_wrapper(transport, slot, endpoint)
        return _SocketChannel(
            transport,
            external=not self.owned_workers,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
        )

    def worker_id(self, slot: int) -> str:
        return str(self.registry.endpoint_for(slot))

    def rehome(self, slot: int, error: Exception) -> None:
        """Declare the slot's worker dead and move the slot elsewhere."""
        dead = self.registry.endpoint_for(slot)
        self.registry.mark_dead(dead)
        try:
            self.registry.reassign(slot)
        except NoLiveWorkerError as exhausted:
            raise ShardBackendError(
                f"worker {dead} died and no live worker remains to re-home "
                f"it: {error}"
            ) from exhausted

    def close(self) -> None:
        for handle in self.owned_workers:
            try:
                handle.stop()
            except Exception:  # pragma: no cover - best-effort reaping
                pass
