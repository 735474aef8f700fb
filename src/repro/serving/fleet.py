"""Backend pools: where shards execute, and the leases sessions hold on them.

The paper's OMU accelerator serves every incoming scan stream from one fixed
set of processing units; the serving layer does the same.  A
:class:`BackendPool` owns one fixed set of execution *slots* (threads,
worker processes, or connections to TCP workers) and every session holds a
:class:`SessionBackendView` -- a lease -- that multiplexes its shards onto
those slots.  A session that shares nothing simply holds the only lease of a
private pool with one slot per shard (that is what
:func:`~repro.serving.backends.make_backend` builds without a shared pool);
a :class:`~repro.serving.manager.MapSessionManager` running a shared fleet
hands hundreds of sessions leases on one pool of W slots, O(W) OS resources
in total.  Both go through the same code, so they give the same guarantees.

**Global shard ids.**  The pool assigns each leased ``(session, shard)``
pair a unique integer ``gid``.  A gid *names* a hosted shard: engines route
by it (``engine.apply([(gid, batch), ...])``, wire ``(verb, gid, payload)``)
and the hosting :class:`~repro.serving.sharding.ShardHost` keys its workers
by it, while the hosted worker and every ``Shard*`` message keep the
session-local shard id end to end.  Generation bookkeeping stays keyed by
``(session, shard)``: each lease owns its parent-side stamps (inherited
from :class:`~repro.serving.backends.ShardBackend`) and hosted workers never
share map state between sessions.

**Engines.**  One engine per transport executes the verbs:

* :class:`_LocalEngine` -- shards hosted in this process, applied in the
  caller (``inline``, the serial reference every other kind must equal) or
  on one shared pool of W threads (``thread``).
* :class:`SlotEngine` -- W slots, each one *channel* to a remote
  :class:`~repro.serving.sharding.ShardHost`: a pipe to a spawned worker
  process (``process``, :class:`PipeChannels`) or a framed TCP connection
  to a ``repro-serve-worker`` endpoint (``socket``,
  :class:`~repro.serving.remote.backend.SocketChannels`).  Flushes from
  sessions sharing a slot serialise on its lock; slots run concurrently.

**Failure model, one per transport.**  A channel kind that has somewhere to
re-home a lost slot (sockets: standby or surviving workers) recovers:
the engine keeps, per gid, the last acknowledged generation, a periodic
snapshot and the replay tail since, and a lost slot is re-homed and *every
gid it hosted* rehydrated before the interrupted exchange runs again -- the
sessions on it see one bounded stall, whether they share the pool or own
it.  A kind with nowhere to go (pipes, or sockets with no live worker left)
surfaces the loss as a structured
:class:`~repro.serving.backends.ShardBackendError` that fail-stops the
leases on that slot; leases on surviving slots keep going.  An exception a
live worker *reports* is never retried: replaying a poisoned request would
fail again.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import OMUConfig
from repro.serving.backends import BACKEND_NAMES, ShardBackend, ShardBackendError
from repro.serving.remote.backend import SocketChannels
from repro.serving.remote.failover import RecoveryReport, ReplayLog
from repro.serving.sharding import MapShardWorker, ShardHost
from repro.serving.types import (
    ShardApplyResult,
    ShardExportResult,
    ShardKeysQuery,
    ShardKeysResult,
    ShardQueryRequest,
    ShardQueryResult,
    ShardSnapshot,
    ShardUpdateBatch,
)

__all__ = ["BackendPool", "SessionBackendView", "SlotEngine", "PipeChannels"]

#: One wire command: ``(verb, gid, payload)``.
_Command = Tuple[str, int, object]

#: What a channel raises when its peer is gone: pipes raise ``EOFError`` /
#: ``BrokenPipeError``, and :class:`~repro.serving.remote.transport.
#: TransportError` is a ``ConnectionError``.
_PEER_GONE = (EOFError, OSError)


# ---------------------------------------------------------------------------
# In-process engine
# ---------------------------------------------------------------------------
class _LocalEngine:
    """Shards hosted in this process; ``thread`` is ``inline`` plus a pool.

    Without the executor every apply runs eagerly in the caller.  With it,
    concurrent flushes from many sessions queue onto the same ``num_slots``
    threads.  No per-worker locking is needed -- each gid belongs to exactly
    one session, and a session drains each apply before it dispatches the
    next, so a worker never sees two concurrent applies.
    """

    def __init__(self, num_slots: int, threaded: bool) -> None:
        self.host = ShardHost()
        self._executor = (
            ThreadPoolExecutor(max_workers=num_slots, thread_name_prefix="fleet")
            if threaded
            else None
        )

    def attach(self, gid: int, shard_id: int, config: OMUConfig) -> None:
        self.host.handle("attach", gid, (shard_id, config))

    def detach(self, gid: int) -> None:
        self.host.handle("detach", gid)

    def slot_of(self, gid: int) -> int:
        return 0

    def apply(self, batches: Sequence[Tuple[int, ShardUpdateBatch]]) -> object:
        if self._executor is None:
            return [self.host.handle("apply", gid, batch) for gid, batch in batches]
        return [
            self._executor.submit(self.host.handle, "apply", gid, batch)
            for gid, batch in batches
        ]

    def collect(self, handle: object) -> List[ShardApplyResult]:
        if self._executor is None:
            return handle
        return [future.result() for future in handle]

    def query(self, gid: int, request: ShardQueryRequest) -> ShardQueryResult:
        return self.host.handle("query", gid, request)

    def query_keys(self, gid: int, request: ShardKeysQuery) -> ShardKeysResult:
        return self.host.handle("query_keys", gid, request)

    def export(self, gids: Sequence[int]) -> List[ShardExportResult]:
        return [self.host.handle("export", gid) for gid in gids]

    def check(self, gids: Sequence[int]) -> None:  # in-process: nothing can die
        pass

    def failover_stats(self, gids: Sequence[int]) -> Dict[str, float]:
        return {}

    def local_workers(self, gids: Sequence[int]) -> List[MapShardWorker]:
        return [self.host.worker(gid) for gid in gids]

    @property
    def attached_shards(self) -> int:
        return len(self.host.hosted())

    def close(self) -> None:
        if self._executor is not None:
            # wait=True also settles an abandoned, undrained slice: the pool
            # threads finish before their workers are released.
            self._executor.shutdown(wait=True)
        self.host.clear()


# ---------------------------------------------------------------------------
# Pipe channels: one spawned host process per slot
# ---------------------------------------------------------------------------
def _pipe_host_main(connection) -> None:
    """Entry point of one worker process: serve a :class:`ShardHost` over a pipe."""
    host = ShardHost()
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):  # parent died: nothing left to serve
            break
        if message == ("stop", None, None):
            connection.send(("ok", None))
            break
        connection.send(host.reply(message))
    connection.close()


class _PipeChannel:
    """The parent's end of one worker process's pipe."""

    def __init__(self, connection, process) -> None:
        self.send = connection.send
        self.recv = connection.recv
        self._connection = connection
        self._process = process

    def check(self, counters: Dict[str, float]) -> None:
        if not self._process.is_alive():
            raise EOFError("the worker process is not alive")

    def close(self, hosted: Sequence[int]) -> None:
        """Stop the worker process (its hosted shards die with it) and reap it."""
        try:
            self._connection.send(("stop", None, None))
        except OSError:
            pass
        self._process.join(timeout=2.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=2.0)
        self._connection.close()


class PipeChannels:
    """Opens a pipe to one spawned worker process per slot.

    The only kind with true CPU parallelism.  There is no standby process to
    re-home a lost slot onto, so worker death is fail-stop.

    Args:
        start_method: ``multiprocessing`` start method; defaults to ``fork``
            where available (fastest startup, works from unguarded scripts
            and the REPL) and the platform default elsewhere.  Caveat of the
            default: forking a process with *running* extra threads can
            deadlock the child on a lock another thread held at fork time --
            a parent that mixes live worker threads with process workers
            should pass ``"forkserver"`` or ``"spawn"`` explicitly (both
            require the importable-``__main__`` discipline of the
            multiprocessing docs).
    """

    def __init__(self, start_method: Optional[str] = None) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._context = multiprocessing.get_context(start_method)
        #: the worker process of each slot, in slot order.
        self.processes: List = []

    def open(self, slot: int) -> _PipeChannel:
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pipe_host_main, args=(child_end,), name=f"fleet-{slot}", daemon=True
        )
        process.start()
        child_end.close()  # the child keeps its own handle
        self.processes.append(process)
        return _PipeChannel(parent_end, process)

    def worker_id(self, slot: int) -> str:
        return f"process:{self.processes[slot].pid}"

    def rehome(self, slot: int, error: Exception) -> None:
        process = self.processes[slot]
        process.join(timeout=1.0)
        raise ShardBackendError(
            f"worker process died (exit code {process.exitcode}): {error}"
        )

    def close(self) -> None:
        pass  # every process is reaped by its channel


# ---------------------------------------------------------------------------
# The slot engine: W channels to remote shard hosts
# ---------------------------------------------------------------------------
@dataclass
class _HostedShard:
    """The engine's parent-side record of one shard hosted on a slot."""

    shard_id: int
    config: OMUConfig
    slot: int
    #: write generation of the last acknowledged apply -- where a recovery
    #: must land the shard again.
    generation: int = 0
    #: the last snapshot image; the replay tail since lives in the log.
    snapshot: Optional[ShardSnapshot] = None
    #: this shard's share of :meth:`ShardBackend.failover_stats`.
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(int))


class SlotEngine:
    """W slots, each a channel to a remote shard host, shared by every lease.

    The parent keeps one channel per slot, guarded by a slot lock: exchanges
    from different sessions landing on the same slot serialise (the pool's
    time-sharing), while different slots proceed concurrently through a
    W-thread dispatch pool.  A slot lock covers one whole send-all/recv-all
    exchange, so concurrent sessions can never desynchronise a channel's
    request/reply stream.

    Args:
        channels: the channel kind -- :class:`PipeChannels` or
            :class:`~repro.serving.remote.backend.SocketChannels`.  It
            ``open``\\ s the channel of a slot, names the slot's
            ``worker_id``, and ``rehome``\\ s a lost slot (or raises, when
            there is nowhere to go); a channel ``send``\\ s and ``recv``\\ s
            messages, ``check``\\ s liveness and ``close``\\ s.
        num_slots: the slot count W.
        snapshot_every_batches: acknowledged batches of one shard between
            two snapshots of it, bounding the replay work (and stall) of a
            recovery.  ``None`` keeps no recovery state at all: the channel
            kind cannot re-home, so there is nothing to rehydrate.
    """

    def __init__(
        self, channels, num_slots: int, snapshot_every_batches: Optional[int] = None
    ) -> None:
        self.channels = channels
        self.num_slots = num_slots
        self.snapshot_every_batches = snapshot_every_batches
        self.replay_log = ReplayLog()
        #: one :class:`RecoveryReport` per rehydrated shard, oldest first.
        self.recoveries: List[RecoveryReport] = []
        self._shards: Dict[int, _HostedShard] = {}
        #: set by :meth:`close`: a lost peer is then the close, not a failure to recover from.
        self._closing = False
        self._slot_load = [0] * num_slots
        self._locks = [threading.Lock() for _ in range(num_slots)]
        self._io = ThreadPoolExecutor(max_workers=num_slots, thread_name_prefix="fleet-io")
        #: the live channel of each slot; ``None`` while its worker is lost.
        self._slots: List[Optional[object]] = [None] * num_slots
        #: ``(when, worker id)`` of each slot's unrecovered loss.
        self._lost: List[Optional[Tuple[float, str]]] = [None] * num_slots
        try:
            for slot in range(num_slots):
                self._slots[slot] = channels.open(slot)
            # The executor starts threads lazily, one per submit that finds
            # none idle; start all W here with the workers, so the first
            # flush of a session does not pay for them (measured: 2 ms of a
            # 40 ms two-shard flush).
            started = threading.Barrier(num_slots)
            for future in [self._io.submit(started.wait) for _ in range(num_slots)]:
                future.result()
        except BaseException:
            self.close()
            raise

    # -- exchanges (slot lock held) ---------------------------------------
    def _converse(self, slot: int, commands: Sequence[_Command], channel) -> List:
        """Send every command, then read every reply, on one channel."""
        for command in commands:
            channel.send(command)
        # Drain every reply even when one reports an error: an unread reply
        # would desynchronise the slot's channel for all sessions.
        results: List = []
        first_error: Optional[ShardBackendError] = None
        for _, gid, _ in commands:
            status, payload = channel.recv()
            if status == "ok":
                results.append(payload)
            elif first_error is None:
                # The worker is alive and answering: re-homing would only
                # replay the poisoned request, so this is not recoverable.
                shard_id = self._shards[gid].shard_id
                first_error = ShardBackendError(
                    f"shard {shard_id} worker failed: {payload['message']}",
                    shard_id=shard_id,
                    worker_id=self.channels.worker_id(slot),
                    remote_traceback=payload.get("traceback"),
                )
        if first_error is not None:
            raise first_error
        return results

    def _exchange(self, slot: int, commands: Sequence[_Command]) -> List:
        """:meth:`_converse` that survives the loss of the slot's peer.

        When the peer is gone the slot is re-homed, every shard it hosted is
        rehydrated to its last acknowledged generation, and the commands run
        again from the first: whatever a half-done exchange changed died
        with the worker, so running it again applies each batch exactly
        once.  The replacement can die too, hence the loop; it ends when an
        attempt succeeds or re-homing raises because nowhere is left to go.
        """
        while True:
            if self._closing:
                raise ShardBackendError("backend pool is closed")
            try:
                if self._slots[slot] is None:
                    self._rehydrate(slot)
                return self._converse(slot, commands, self._slots[slot])
            except _PEER_GONE as error:
                self._rehome(slot, self._shards[commands[0][1]].shard_id, error)

    def _rehome(self, slot: int, shard_id: int, error: Exception) -> None:
        """Move a lost slot to its next worker, or raise the loss -- under
        ``shard_id``'s name -- when there is nowhere left to go."""
        worker_id = self.channels.worker_id(slot)
        if self._lost[slot] is None:
            self._lost[slot] = (time.perf_counter(), worker_id)
        try:
            self.channels.rehome(slot, error)
        except ShardBackendError as terminal:
            raise ShardBackendError(
                f"shard {shard_id} {terminal}", shard_id=shard_id, worker_id=worker_id
            ) from error
        channel, self._slots[slot] = self._slots[slot], None
        if channel is not None:
            channel.close(())

    def _on_slot(self, slot: int) -> List[Tuple[int, _HostedShard]]:
        """The shards hosted on ``slot``, in gid order (slot lock held).

        Taken from a copy of the table: other slots' shards come and go
        under their own locks while this one is being walked.
        """
        return sorted(item for item in list(self._shards.items()) if item[1].slot == slot)

    def _rehydrate(self, slot: int) -> None:
        """Open the re-homed slot's channel and rebuild every shard on it.

        Each shard restores its last snapshot (or attaches fresh when it has
        none yet), replays its tail in dispatch order, and must land on the
        generation its last acknowledgement carried -- anything else means
        the recovered map cannot be trusted.
        """
        channel = self.channels.open(slot)
        try:
            rebuilt = []
            for gid, shard in self._on_slot(slot):
                if shard.snapshot is not None:
                    restored = shard.snapshot.generation
                    rebuild = ("restore", gid, (shard.snapshot, shard.config))
                else:
                    restored = 0
                    rebuild = ("attach", gid, (shard.shard_id, shard.config))
                tail = self.replay_log.tail(gid)
                replies = self._converse(
                    slot, [rebuild, *(("apply", gid, batch) for batch in tail)], channel
                )
                generation = replies[-1].generation if tail else restored
                if generation != shard.generation:
                    raise ShardBackendError(
                        f"shard {shard.shard_id} replay ended at generation "
                        f"{generation} but its last acknowledged generation was "
                        f"{shard.generation}; the recovered map cannot be trusted",
                        shard_id=shard.shard_id,
                        worker_id=self.channels.worker_id(slot),
                    )
                rebuilt.append((shard, restored, tail))
        except BaseException:
            channel.close(())
            raise
        self._slots[slot] = channel
        lost_at, dead_worker = self._lost[slot]
        self._lost[slot] = None
        elapsed = time.perf_counter() - lost_at
        for shard, restored, tail in rebuilt:
            report = RecoveryReport(
                shard_id=shard.shard_id,
                from_worker=dead_worker,
                to_worker=self.channels.worker_id(slot),
                restored_generation=restored,
                replayed_batches=len(tail),
                replayed_updates=sum(len(batch) for batch in tail),
                wall_seconds=elapsed,
            )
            self.recoveries.append(report)
            shard.counters["failovers"] += 1
            shard.counters["replayed_batches"] += report.replayed_batches
            shard.counters["replayed_updates"] += report.replayed_updates
            shard.counters["recovery_wall_seconds"] += elapsed

    def _slot_task(self, slot: int, commands: Sequence[_Command]) -> List:
        """One locked exchange on a slot: a fan-out's share, or one request."""
        with self._locks[slot]:
            results = self._exchange(slot, commands)
            # Record every acknowledged apply of the exchange before any
            # snapshot round-trip: a peer lost during a snapshot rehydrates
            # *every* shard on the slot, and each must be rebuilt to what its
            # worker acknowledged in this exchange, not to the one before.
            applied = []
            for (verb, gid, batch), ack in zip(commands, results):
                if verb == "apply":
                    self._shards[gid].generation = ack.generation
                    if self.snapshot_every_batches is not None:
                        self.replay_log.record(gid, batch)
                        applied.append(gid)
            for gid in applied:
                if self.replay_log.tail_length(gid) >= self.snapshot_every_batches:
                    self._take_snapshot(slot, gid)
            return results

    def _take_snapshot(self, slot: int, gid: int) -> None:
        """Replace a shard's snapshot image and drop the replay tail it covers."""
        shard = self._shards[gid]
        # A peer lost right here rehydrates the slot -- the batches just
        # acknowledged included, they are in the tails -- and the snapshot is
        # taken from the replacement.
        (snapshot,) = self._exchange(slot, [("snapshot", gid, None)])
        if snapshot.generation != shard.generation:
            raise ShardBackendError(
                f"shard {shard.shard_id} snapshot carries generation "
                f"{snapshot.generation}, expected {shard.generation}",
                shard_id=shard.shard_id,
                worker_id=self.channels.worker_id(slot),
            )
        shard.snapshot = snapshot
        self.replay_log.truncate(gid)
        shard.counters["snapshots_taken"] += 1

    def _fan_out(self, verb: str, pairs: Sequence[Tuple[int, object]]) -> object:
        by_slot: Dict[int, List[_Command]] = defaultdict(list)
        for gid, payload in pairs:
            by_slot[self._shards[gid].slot].append((verb, gid, payload))
        # One dispatch task per slot: slots fan out concurrently, commands
        # for the same slot share one locked exchange.
        return [
            self._io.submit(self._slot_task, slot, commands) for slot, commands in by_slot.items()
        ]

    # -- engine API -------------------------------------------------------
    def attach(self, gid: int, shard_id: int, config: OMUConfig) -> None:
        # The pool serialises attach/detach, which is what guards
        # ``_slot_load``.  A slot's membership in ``_shards`` changes only
        # under that slot's lock, and before the round-trip: a slot re-homed
        # during it must rehydrate this shard too.
        slot = min(range(self.num_slots), key=self._slot_load.__getitem__)
        with self._locks[slot]:
            self._shards[gid] = _HostedShard(shard_id, config, slot)
            try:
                self._exchange(slot, [("attach", gid, (shard_id, config))])
            except BaseException:
                del self._shards[gid]
                raise
        self._slot_load[slot] += 1

    def detach(self, gid: int) -> None:
        shard = self._shards.get(gid)
        if shard is None:
            return
        with self._locks[shard.slot]:
            try:
                self._exchange(shard.slot, [("detach", gid, None)])
            except ShardBackendError:
                pass  # a dead slot has no state left to detach
            finally:
                del self._shards[gid]
                self.replay_log.truncate(gid)
                self._slot_load[shard.slot] -= 1

    def slot_of(self, gid: int) -> int:
        return self._shards[gid].slot

    def apply(self, batches: Sequence[Tuple[int, ShardUpdateBatch]]) -> object:
        return self._fan_out("apply", batches)

    def collect(self, handle: object) -> List:
        """Wait for every slot's task of a fan-out; the first error is
        re-raised only after all of them have finished."""
        results: List = []
        first_error: Optional[ShardBackendError] = None
        for future in handle:
            try:
                results.extend(future.result())
            except ShardBackendError as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    def query(self, gid: int, request: ShardQueryRequest) -> ShardQueryResult:
        return self._slot_task(self._shards[gid].slot, [("query", gid, request)])[0]

    def query_keys(self, gid: int, request: ShardKeysQuery) -> ShardKeysResult:
        return self._slot_task(self._shards[gid].slot, [("query_keys", gid, request)])[0]

    def export(self, gids: Sequence[int]) -> List[ShardExportResult]:
        return self.collect(self._fan_out("export", [(gid, None) for gid in gids]))

    def check(self, gids: Sequence[int]) -> None:
        """Surface (or recover) a dead worker on any slot hosting ``gids`` *now*,
        even if the current interaction would not touch it: a session missing
        a shard is broken for every future query of that shard's region.

        A slot busy with an exchange is skipped: that exchange is itself the
        liveness signal, and a probe interleaved on its channel would
        desynchronise the request/reply stream.
        """
        checked = set()
        for gid in gids:
            shard = self._shards[gid]
            if shard.slot in checked or not self._locks[shard.slot].acquire(blocking=False):
                continue
            checked.add(shard.slot)
            try:
                channel = self._slots[shard.slot]
                if channel is not None:
                    channel.check(shard.counters)
            except _PEER_GONE as error:
                self._rehome(shard.slot, shard.shard_id, error)
                self._exchange(shard.slot, [("ping", gid, None)])
            finally:
                self._locks[shard.slot].release()

    def failover_stats(self, gids: Sequence[int]) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(int)
        for gid in gids:
            for counter, value in self._shards[gid].counters.items():
                totals[counter] += value
        return totals

    def local_workers(self, gids: Sequence[int]) -> List[MapShardWorker]:
        raise AttributeError(
            "these shard workers are not in-process; use the Shard* message API instead"
        )

    @property
    def attached_shards(self) -> int:
        return len(self._shards)

    def close(self) -> None:
        """Close every slot's channel.  An exchange still queued then finds the
        pool closed: it neither re-homes nor rehydrates, so no channel is
        opened that this walk would miss."""
        self._closing = True
        for slot in range(self.num_slots):
            with self._locks[slot]:
                channel, self._slots[slot] = self._slots[slot], None
                if channel is not None:
                    channel.close([gid for gid, _ in self._on_slot(slot)])
        self._shards.clear()
        self.channels.close()
        self._io.shutdown(wait=True)


# ---------------------------------------------------------------------------
# The pool and its leases
# ---------------------------------------------------------------------------
class BackendPool:
    """A fixed set of execution slots serving any number of session leases.

    Args:
        backend: execution kind (``inline`` / ``thread`` / ``process`` /
            ``socket``).
        fleet_workers: number of slots W.  This is the *total* OS resource
            bound: W pool threads, or W worker processes, or W socket worker
            connections -- independent of how many sessions lease from the
            pool.
        start_method: multiprocessing start method (``process`` only; see
            :class:`PipeChannels`).
        endpoints: external ``host:port`` worker endpoints (``socket``
            only), the first W the slots' primary homes and the rest
            standbys; empty spawns local in-process workers.
        standby_workers: extra local workers spawned as re-homing targets
            when ``endpoints`` is empty (``socket`` only).
        snapshot_every_batches: shard snapshot cadence (``socket`` only; see
            :class:`SlotEngine`).
        heartbeat_interval_s: minimum quiet time on a socket connection
            before it is probed with a liveness ping.
        heartbeat_timeout_s: reply deadline of a liveness ping; a missed
            deadline triggers recovery of the slot.
        transport_wrapper: interposer called as ``(transport, slot,
            endpoint)`` on every socket connection the pool opens,
            reconnects after a recovery included -- the seam
            ``tests/serving/faultinject.py`` substitutes a fake through.
    """

    def __init__(
        self,
        backend: str = "thread",
        fleet_workers: int = 2,
        *,
        start_method: Optional[str] = None,
        endpoints: Sequence[str] = (),
        standby_workers: int = 1,
        snapshot_every_batches: int = 8,
        heartbeat_interval_s: float = 1.0,
        heartbeat_timeout_s: float = 5.0,
        transport_wrapper=None,
    ) -> None:
        if fleet_workers < 1:
            raise ValueError("fleet_workers must be at least 1")
        if endpoints and backend != "socket":
            raise ValueError("worker endpoints only apply to the socket backend")
        if snapshot_every_batches < 1:
            raise ValueError("snapshot_every_batches must be at least 1")
        self.backend = backend
        self.fleet_workers = fleet_workers
        self.closed = False
        if backend in ("inline", "thread"):
            self.engine = _LocalEngine(fleet_workers, threaded=backend == "thread")
        elif backend == "process":
            self.engine = SlotEngine(PipeChannels(start_method), fleet_workers)
        elif backend == "socket":
            self.engine = SlotEngine(
                SocketChannels(
                    fleet_workers,
                    endpoints,
                    standby_workers,
                    heartbeat_interval_s,
                    heartbeat_timeout_s,
                    transport_wrapper,
                ),
                fleet_workers,
                snapshot_every_batches,
            )
        else:
            raise ValueError(
                f"unknown shard backend {backend!r}; choose from {', '.join(BACKEND_NAMES)}"
            )
        self._lock = threading.Lock()
        self._next_gid = 0
        self._leases: Dict[int, "SessionBackendView"] = {}
        self._next_lease_id = 0

    # -- leasing --------------------------------------------------------
    def lease(
        self, session_id: str, config: OMUConfig, num_shards: int, *, owns_pool: bool = False
    ) -> "SessionBackendView":
        """Attach ``num_shards`` fresh shards for one session; return its view.

        Each call allocates fresh gids, so a session id may be reused (churn)
        while an earlier lease under the same id is still draining -- the
        hosted workers never collide.  ``owns_pool`` marks the single lease
        of a private pool: closing it closes the pool.
        """
        with self._lock:
            if self.closed:
                raise ShardBackendError("backend pool is closed")
            lease_id = self._next_lease_id
            self._next_lease_id += 1
            gids = tuple(range(self._next_gid, self._next_gid + num_shards))
            self._next_gid += num_shards
            attached = []
            try:
                for shard_id, gid in enumerate(gids):
                    self.engine.attach(gid, shard_id, config)
                    attached.append(gid)
            except Exception:
                for gid in attached:
                    try:
                        self.engine.detach(gid)
                    except Exception:  # pragma: no cover - engine already down
                        pass
                raise
            view = SessionBackendView(
                self, lease_id, session_id, config, num_shards, gids, owns_pool
            )
            self._leases[lease_id] = view
            return view

    def _release(self, view: "SessionBackendView") -> None:
        with self._lock:
            if self._leases.pop(view.lease_id, None) is None:
                return
            if self.closed:
                return  # the engine (and all hosted state) is already gone
            for gid in view.gids:
                try:
                    self.engine.detach(gid)
                except Exception:  # pragma: no cover - dead slot, nothing to free
                    pass

    # -- observability --------------------------------------------------
    @property
    def active_leases(self) -> int:
        """Sessions currently holding a lease on this pool."""
        with self._lock:
            return len(self._leases)

    @property
    def attached_shards(self) -> int:
        """Shard workers currently hosted across the whole pool."""
        return self.engine.attached_shards

    @property
    def num_slots(self) -> int:
        """The fixed slot count W (never changes over the pool's life)."""
        return self.fleet_workers

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down.  Idempotent.

        Outstanding leases are not closed here -- their sessions own that --
        but any later use of one raises, and their eventual ``close()``
        degrades to pure bookkeeping.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            engine, self.engine = self.engine, _ClosedEngine()
        engine.close()

    def __enter__(self) -> "BackendPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ClosedEngine:
    """Stand-in engine after pool close: every operation raises."""

    attached_shards = 0

    def __getattr__(self, name: str):
        def _raise(*args, **kwargs):
            raise ShardBackendError("backend pool is closed")

        return _raise


class SessionBackendView(ShardBackend):
    """One session's lease on a :class:`BackendPool`: *the* shard backend.

    The ingestion pipeline, query engine and stats layers see only the
    :class:`~repro.serving.backends.ShardBackend` contract.  ``close()``
    releases this session's hosted shards and leaves a shared pool running
    (the single lease of a private pool closes the pool with it), and a
    worker failure the engine cannot recover fail-stops only the sessions
    leasing slots on it.

    The base class's ticket/generation/accounting machinery and every
    ``Shard*`` message operate purely in session-local shard ids
    (``0..num_shards-1``); the lease passes the matching gid *beside* each
    message, which is all the engine routes by.
    """

    def __init__(
        self,
        pool: BackendPool,
        lease_id: int,
        session_id: str,
        config: OMUConfig,
        num_shards: int,
        gids: Tuple[int, ...],
        owns_pool: bool,
    ) -> None:
        super().__init__(config, num_shards)
        #: the bare kind for a private pool, ``<kind>+fleet`` on a shared one.
        self.name = pool.backend if owns_pool else f"{pool.backend}+fleet"
        self.pool = pool
        self.lease_id = lease_id
        self.session_id = session_id
        self.gids = gids
        self.owns_pool = owns_pool

    def slot_of(self, shard_id: int) -> int:
        """Pool slot currently hosting one of this session's shards."""
        return self.pool.engine.slot_of(self.gids[shard_id])

    def _apply_begin(self, batches: Sequence[ShardUpdateBatch]) -> object:
        pending = self.pool.engine.apply(
            [(self.gids[batch.shard_id], batch) for batch in batches]
        )
        return [batch.shard_id for batch in batches], pending

    def _apply_collect(self, handle: object) -> List[ShardApplyResult]:
        order, pending = handle
        # The engine gathers slot by slot; hand the acks back in dispatch order.
        acks = {ack.shard_id: ack for ack in self.pool.engine.collect(pending)}
        return [acks[shard_id] for shard_id in order]

    def _query(self, request: ShardQueryRequest) -> ShardQueryResult:
        # The public query_key refuses to run while a ticket is outstanding,
        # so the channel cannot hold a pending apply acknowledgement that
        # this request/reply round-trip would desynchronise.
        self._health_check()
        return self.pool.engine.query(self.gids[request.shard_id], request)

    def _query_keys(self, request: ShardKeysQuery) -> ShardKeysResult:
        # Guarded by the public query_keys, like _query.
        self._health_check()
        return self.pool.engine.query_keys(self.gids[request.shard_id], request)

    def _export(self) -> List[ShardExportResult]:
        self._health_check()
        return self.pool.engine.export(self.gids)

    def _health_check(self) -> None:
        try:
            self.pool.engine.check(self.gids)
        except ShardBackendError as error:
            # A loss the engine could not recover took this lease's shards
            # with it for good: fail-stop, whichever interaction found out.
            self.failed = str(error)
            raise

    def _close(self) -> None:
        if self.owns_pool:
            self.pool.close()
        self.pool._release(self)

    def failover_stats(self) -> Dict[str, float]:
        """The recovery counters of this lease's own shards."""
        return {**super().failover_stats(), **self.pool.engine.failover_stats(self.gids)}

    @property
    def workers(self) -> List[MapShardWorker]:
        """This session's hosted workers, in shard order.

        Only the in-process kinds (``inline`` / ``thread``) have them;
        elsewhere this raises AttributeError (not
        :class:`~repro.serving.backends.ShardBackendError`), so
        ``hasattr``/``getattr`` probing keeps its usual semantics.
        """
        return self.pool.engine.local_workers(self.gids)
