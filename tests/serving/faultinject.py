"""Fault-injection harness for socket backend pools.

A socket :class:`~repro.serving.fleet.BackendPool` exposes a
``transport_wrapper`` seam: every connection it opens (including
post-recovery reconnects) passes through the wrapper before use.  This
module plugs a :class:`ChaosTransport` into that seam -- a transparent proxy
around the real framed transport that consults an armed fault queue on every
send/receive and can, at exactly the chosen protocol step:

* kill the slot's worker *before* an apply reaches it (the slice is lost in
  flight and must be re-sent to the replacement);
* kill the worker *after* it applied but before its ack arrives (the worst
  case: the dead worker's half-advanced state must be discarded and rebuilt
  from snapshot + replay, or the map silently double-applies);
* drop or delay a single reply;
* sever the connection mid-message (torn frame);
* stall a heartbeat past its deadline.

Faults are armed explicitly (:meth:`ChaosHarness.arm`) or generated as a
deterministic seeded plan (:func:`random_fault_plan`), so every chaos test
replays bit-for-bit.  Use the ``chaos`` pytest fixture from ``conftest.py``::

    def test_survives_ack_loss(chaos):
        backend = chaos.make_backend(CONFIG, num_shards=2)
        chaos.arm(Fault(KILL_WORKER, phase="recv", verb="apply", shard_id=1))
        backend.apply_shard_batches(batches)   # recovers under the hood
        assert backend.failover_stats()["failovers"] == 1
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.serving import BackendPool, ShardBackend, make_backend
from repro.serving.remote import LocalWorkerHandle, Transport, TransportError

__all__ = [
    "KILL_WORKER",
    "DROP_REPLY",
    "DELAY_REPLY",
    "SEVER_CONNECTION",
    "STALL_HEARTBEAT",
    "Fault",
    "ChaosTransport",
    "ChaosHarness",
    "random_fault_plan",
]

#: kill the target worker server at the fault point (state gone for good).
KILL_WORKER = "kill_worker"
#: swallow one reply: the worker answered, the client never hears it.
DROP_REPLY = "drop_reply"
#: deliver one reply late by ``delay_s`` (exercises slow-not-dead workers).
DELAY_REPLY = "delay_reply"
#: tear the connection mid-message (the torn-frame TransportError path).
SEVER_CONNECTION = "sever_connection"
#: make one heartbeat miss its deadline without killing anything.
STALL_HEARTBEAT = "stall_heartbeat"

_ACTIONS = (KILL_WORKER, DROP_REPLY, DELAY_REPLY, SEVER_CONNECTION, STALL_HEARTBEAT)


@dataclass
class Fault:
    """One armed fault: what to do, and at which protocol step to do it.

    Attributes:
        action: one of the module's action constants.
        phase: ``"send"`` (just before the request leaves) or ``"recv"``
            (just before the reply is read).  A ``KILL_WORKER`` at ``send``
            kills before the worker can apply; at ``recv`` it kills after
            the apply, losing only the ack.
        verb: only trigger on this RPC verb (``"apply"``, ``"ping"``, ...);
            ``None`` matches any verb.
        shard_id: only trigger on this pool slot's connection (a private
            pool hosts shard N on slot N); ``None`` matches any slot.
        delay_s: sleep length for ``DELAY_REPLY`` / ``STALL_HEARTBEAT``.
    """

    action: str
    phase: str = "recv"
    verb: Optional[str] = None
    shard_id: Optional[int] = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.phase not in ("send", "recv"):
            raise ValueError(f"unknown fault phase {self.phase!r}")

    def matches(self, verb: Optional[str], shard_id: int, phase: str) -> bool:
        if self.phase != phase:
            return False
        if self.verb is not None and self.verb != verb:
            return False
        if self.shard_id is not None and self.shard_id != shard_id:
            return False
        return True


class ChaosTransport:
    """Transparent proxy over a framed transport that injects armed faults."""

    def __init__(
        self, inner: Transport, shard_id: int, endpoint: str, harness: "ChaosHarness"
    ) -> None:
        self.inner = inner
        self.shard_id = shard_id
        self.endpoint = endpoint
        self.harness = harness
        #: verb of the last request sent, so a reply knows what it answers.
        self._last_verb: Optional[str] = None

    # -- faulted paths --------------------------------------------------
    def send(self, message: object) -> None:
        verb = message[0] if isinstance(message, tuple) and message else None
        self._last_verb = verb if isinstance(verb, str) else None
        fault = self.harness._take(self._last_verb, self.shard_id, "send")
        if fault is not None:
            if fault.action == KILL_WORKER:
                # Worker dies before the request can be applied; the send
                # itself may still land in a dead socket buffer.
                self.harness.kill_endpoint(self.endpoint)
            elif fault.action == SEVER_CONNECTION:
                self.inner.close()
                raise TransportError("chaos: connection severed before send")
        self.inner.send(message)

    def recv(self) -> object:
        fault = self.harness._take(self._last_verb, self.shard_id, "recv")
        if fault is None:
            return self.inner.recv()
        if fault.action == SEVER_CONNECTION:
            self.inner.close()
            raise TransportError("chaos: connection severed mid-message")
        if fault.action == STALL_HEARTBEAT:
            time.sleep(fault.delay_s)
            raise TransportError(
                f"chaos: reply stalled {fault.delay_s}s past the deadline"
            )
        if fault.action == DELAY_REPLY:
            time.sleep(fault.delay_s)
            return self.inner.recv()
        # KILL_WORKER / DROP_REPLY at recv: the worker did the work -- let
        # the real reply arrive, then lose it (and, for kill, the worker).
        reply = self.inner.recv()
        if fault.action == KILL_WORKER:
            self.harness.kill_endpoint(self.endpoint)
            raise TransportError("chaos: worker killed after applying, ack lost")
        del reply
        raise TransportError("chaos: reply dropped")

    # -- transparent delegation -----------------------------------------
    def settimeout(self, timeout_s: Optional[float]) -> None:
        self.inner.settimeout(timeout_s)

    def close(self) -> None:
        self.inner.close()


class ChaosHarness:
    """Owns the armed fault queue and the kill switches of spawned workers."""

    def __init__(self) -> None:
        self.handles: Dict[str, LocalWorkerHandle] = {}
        self.faults: Deque[Fault] = deque()
        #: every fault actually fired, in order: (verb, shard_id, fault).
        self.fired: List[Tuple[Optional[str], int, Fault]] = []

    # -- construction ----------------------------------------------------
    def wrap(self, transport: Transport, shard_id: int, endpoint) -> ChaosTransport:
        """The ``transport_wrapper`` a socket pool calls on every connect."""
        return ChaosTransport(transport, shard_id, str(endpoint), self)

    def make_backend(self, config, num_shards: int, **kwargs) -> ShardBackend:
        """The lease of a private, locally spawned socket pool with chaos on
        every connection."""
        backend = make_backend(
            "socket", config, num_shards, transport_wrapper=self.wrap, **kwargs
        )
        self.adopt(backend.pool)
        return backend

    def make_pool(self, fleet_workers: int, **kwargs) -> BackendPool:
        """A shared, locally spawned socket pool with chaos on every connection."""
        pool = BackendPool("socket", fleet_workers, transport_wrapper=self.wrap, **kwargs)
        self.adopt(pool)
        return pool

    def adopt(self, pool: BackendPool) -> None:
        """Register a pool's spawned workers for endpoint-addressed kills."""
        for handle in pool.engine.channels.owned_workers:
            self.handles[handle.endpoint] = handle

    # -- fault control ----------------------------------------------------
    def arm(self, *faults: Fault) -> None:
        """Queue faults; each fires once, at its first matching operation."""
        self.faults.extend(faults)

    def kill_endpoint(self, endpoint: str) -> None:
        """Abruptly kill the worker serving an endpoint (no drain, state lost)."""
        handle = self.handles.get(endpoint)
        if handle is not None:
            handle.kill()

    def _take(self, verb: Optional[str], shard_id: int, phase: str) -> Optional[Fault]:
        """Pop and return the head fault iff this operation matches it.

        Only the queue head is considered, so a plan's faults fire strictly
        in the order they were armed -- that is what makes seeded plans
        deterministic.
        """
        if not self.faults or not self.faults[0].matches(verb, shard_id, phase):
            return None
        fault = self.faults.popleft()
        self.fired.append((verb, shard_id, fault))
        return fault


def random_fault_plan(
    seed: int,
    num_shards: int,
    num_faults: int = 3,
    actions: Tuple[str, ...] = (KILL_WORKER, DROP_REPLY, SEVER_CONNECTION),
) -> List[Fault]:
    """A deterministic, seed-reproducible plan of apply-targeted faults.

    Every fault targets an ``apply`` round-trip on a random shard at a random
    phase, so driving any workload with the plan armed exercises recovery at
    arbitrary protocol steps while staying replayable from the seed alone.
    """
    rng = random.Random(seed)
    plan = []
    for _ in range(num_faults):
        plan.append(
            Fault(
                action=rng.choice(actions),
                phase=rng.choice(("send", "recv")),
                verb="apply",
                shard_id=rng.randrange(num_shards),
            )
        )
    return plan
