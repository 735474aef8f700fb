"""The shard execution contract: what a session may ask of its shards.

:class:`ShardBackend` is the only interface the ingestion pipeline, the
query engine and the stats layers see.  It is one session's lease on a
:class:`~repro.serving.fleet.BackendPool`, whose engine executes ``inline``,
on a ``thread`` pool, in worker ``process``\\ es or on ``socket`` workers,
and it owns everything that must be identical no matter where the shards
run: the ticket protocol, fail-stop, and the parent-side generation stamps
the query cache validates against.  :func:`make_backend` hands out such a
lease -- on a shared pool when given one, else on a private pool sized to
the session.

Every engine speaks the same pickle-safe ``Shard*`` message vocabulary from
:mod:`repro.serving.types` and routes it through the same
:class:`~repro.serving.sharding.ShardHost` verb handler, which is what keeps
the execution paths byte-identical (the serving equivalence property is
tested over all of them).

Cache correctness across process boundaries: the generation-stamped query
cache needs the *parent* to know each shard's write generation.  Shard state
only ever changes inside an ``apply`` round-trip, and every
:class:`~repro.serving.types.ShardApplyResult` carries the worker's
generation after the apply; the backend adopts that value as the parent-side
stamp when the round-trip settles.  Queries therefore validate against
exactly the generation the owning worker reported last, no matter which side
of a process boundary it lives on.

One apply, two halves: :meth:`ShardBackend.apply_shard_batches` is
:meth:`ShardBackend.apply_async` (hand each shard its slice, return an
:class:`~repro.serving.types.ApplyTicket`) followed by
:meth:`ShardBackend.drain` (wait for the acknowledgements, then adopt the
workers' write generations).  The ingestion pipeline calls the two halves
back to back under the session lock, so no ticket is outstanding when a read
runs; a read, an export or ``generation_of`` issued between the halves is a
caller bug and raises :class:`ShardBackendError` instead of interleaving its
reply with a pending apply acknowledgement on a pipe or socket.

A failure the engine could not recover from (a worker process that died, a
socket worker lost with no live worker left to re-home onto, an exception
reported by a worker) surfaces as a structured :class:`ShardBackendError`
instead of a hang and fail-stops the backend, and :meth:`ShardBackend.close`
always reaps what the lease owns, so no orphan worker outlives the session.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OMUConfig
from repro.octomap.octree import OccupancyOcTree
from repro.serving.types import (
    ApplyTicket,
    ShardApplyResult,
    ShardKeysQuery,
    ShardKeysResult,
    ShardQueryRequest,
    ShardQueryResult,
    ShardUpdateBatch,
)

if TYPE_CHECKING:
    from repro.serving.fleet import BackendPool
    from repro.serving.sharding import MapShardWorker

__all__ = [
    "BACKEND_NAMES",
    "ApplyTicket",
    "ShardBackend",
    "ShardBackendError",
    "make_backend",
]


class ShardBackendError(RuntimeError):
    """A shard execution backend failed (worker crash, use after close).

    Carries enough structure for callers to tell *which* shard died and
    where it lived, instead of parsing the message:

    Attributes:
        shard_id: index of the failed shard, or ``None`` when the failure is
            not attributable to one shard (close/fail-stop guards, dispatch
            protocol violations).
        worker_id: identity of the worker that served the shard (e.g.
            ``"process:12345"`` or ``"127.0.0.1:41234"``), or ``None``.
        remote_traceback: the worker-side traceback string when the failure
            was an exception reported across the process/socket boundary.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: Optional[int] = None,
        worker_id: Optional[str] = None,
        remote_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback

    def describe(self) -> str:
        """The message annotated with the shard/worker identity when known."""
        message = str(self)
        details = []
        if self.shard_id is not None:
            details.append(f"shard {self.shard_id}")
        if self.worker_id is not None:
            details.append(f"worker {self.worker_id}")
        if details:
            return f"{message} [{', '.join(details)}]"
        return message


class ShardBackend:
    """One session's lease on a pool: the session's only way to touch shards.

    The write path applies one flushed ingestion batch at a time, one
    :class:`ShardUpdateBatch` per shard slice: :meth:`apply_async` then
    :meth:`drain`, or both in one call with :meth:`apply_shard_batches`.
    The read path calls :meth:`query_key` (one voxel) or :meth:`query_keys`
    (an array of them); export stitching calls :meth:`export_all`.  Each
    call goes to the pool's engine; the lease keeps the parent-side
    accounting (generations, per-shard update counts, the outstanding
    ticket), so every execution kind reports identically.

    Every ``Shard*`` message and all of that accounting use session-local
    shard ids (``0..num_shards-1``); the lease passes the matching pool-wide
    gid *beside* each message, which is all the engine routes by.
    ``close()`` releases this session's hosted shards and leaves a shared
    pool running (the single lease of a private pool closes the pool with
    it), and a worker failure the engine cannot recover fail-stops only the
    sessions leasing slots on it.  Leases are built by
    :meth:`~repro.serving.fleet.BackendPool.lease`.
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
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        #: registry name: the bare kind (``"process"``) for a private pool,
        #: ``<kind>+fleet`` on a shared one; used by config / CLI / stats.
        self.name = pool.backend if owns_pool else f"{pool.backend}+fleet"
        self.pool = pool
        self.lease_id = lease_id
        self.session_id = session_id
        self.config = config
        self.num_shards = num_shards
        self.gids = gids
        self.owns_pool = owns_pool
        self.closed = False
        #: set to the failure description once a shard apply failed; the
        #: backend then refuses further use (fail-stop) because a partially
        #: applied flush leaves the sharded map inconsistent.
        self.failed: Optional[str] = None
        self._generations = [0] * num_shards
        self._updates_applied = [0] * num_shards
        self._next_ticket_id = 0
        #: the ticket between :meth:`apply_async` and :meth:`drain`, paired
        #: with the engine's pending handle (``None`` for a flush whose
        #: slices were all empty).
        self._outstanding: Optional[Tuple[ApplyTicket, object]] = None

    def apply_shard_batches(
        self, batches: Sequence[ShardUpdateBatch]
    ) -> List[ShardApplyResult]:
        """Fan one flush's per-shard slices out to the workers and gather.

        ``apply_async`` immediately followed by ``drain``.  Empty slices are
        filtered out before dispatch; results come back in ``batches``
        order.  Parent-side accounting (generation stamps, per-shard
        counters) is updated from the acknowledgements.

        An apply failure on any shard is fail-stop: some shards may already
        have mutated their map region while others have not, so the backend
        marks itself failed and every later interaction raises
        :class:`ShardBackendError` instead of silently serving a map that no
        longer matches the sequential reference.
        """
        return self.drain(self.apply_async(batches))

    def apply_async(self, batches: Sequence[ShardUpdateBatch]) -> ApplyTicket:
        """First half of an apply: hand each shard its slice.

        Returns the :class:`~repro.serving.types.ApplyTicket` that
        :meth:`drain` redeems.  Generation stamps and per-shard counters are
        adopted at the drain, so they never describe a half-applied flush.
        A second dispatch before the drain raises: per-shard apply order
        must stay the dispatch order.
        """
        self._ensure_open()
        # Health check before the empty-slice filter: a flush whose slices
        # are all empty must still surface a dead worker rather than report
        # success on a session that has lost a shard.
        self._health_check()
        if self._outstanding is not None:
            raise ShardBackendError(
                f"{self.name} backend already has ticket "
                f"{self._outstanding[0].ticket_id} outstanding; drain it first"
            )
        live = [batch for batch in batches if len(batch)]
        ticket = ApplyTicket(
            ticket_id=self._next_ticket_id,
            shard_ids=tuple(batch.shard_id for batch in live),
        )
        self._next_ticket_id += 1
        pending = None
        if live:
            # A thread or slot engine dispatches and returns without waiting
            # (futures, pipe sends); the inline engine applies eagerly and
            # returns the finished acknowledgements.
            try:
                pending = self.pool.engine.apply(
                    [(self.gids[batch.shard_id], batch) for batch in live]
                )
            except ShardBackendError as error:
                self.failed = str(error)
                raise
            except Exception as error:
                self.failed = f"{type(error).__name__}: {error}"
                raise ShardBackendError(
                    f"shard dispatch failed on the {self.name} backend: {self.failed}"
                ) from error
        self._outstanding = (ticket, pending)
        return ticket

    def drain(self, ticket: ApplyTicket) -> List[ShardApplyResult]:
        """Second half of an apply: wait for the ticket's acknowledgements.

        Adopts the workers' write generations and update counts.  A ticket
        is drained exactly once; any other raises.  A worker that died with
        the batch in flight surfaces here as :class:`ShardBackendError` and
        fail-stops the backend.
        """
        self._ensure_open()
        # Identity, not equality: another backend's ticket can carry the same
        # id and shards, and redeeming it here would adopt this one's acks.
        if self._outstanding is None or self._outstanding[0] is not ticket:
            raise ShardBackendError(
                f"ticket {ticket.ticket_id} is not outstanding on the "
                f"{self.name} backend (already drained, or never issued here)"
            )
        pending = self._outstanding[1]
        self._outstanding = None
        if pending is None:
            return []
        try:
            # The engine gathers slot by slot; hand the acks back in dispatch order.
            acks = {ack.shard_id: ack for ack in self.pool.engine.collect(pending)}
            results = [acks[shard_id] for shard_id in ticket.shard_ids]
        except ShardBackendError as error:
            self.failed = str(error)
            raise
        except Exception as error:
            self.failed = f"{type(error).__name__}: {error}"
            raise ShardBackendError(
                f"shard apply failed on the {self.name} backend: {self.failed}"
            ) from error
        for result in results:
            self._generations[result.shard_id] = result.generation
            self._updates_applied[result.shard_id] += result.updates_applied
        return results

    def query_key(self, request: ShardQueryRequest) -> ShardQueryResult:
        """Serve one voxel-key lookup from the owning shard worker."""
        # Refused while a ticket is outstanding, so the channel cannot hold a
        # pending apply acknowledgement that this round trip would desynchronise.
        self._ensure_readable()
        self._health_check()
        return self.pool.engine.query(self.gids[request.shard_id], request)

    def query_keys(
        self, shard_id: int, keys: np.ndarray, stop_at_occupied: bool = False
    ) -> ShardKeysResult:
        """Serve ``(N, 3)`` voxel keys of one shard in a single worker round trip.

        The keys travel as given (the query engine sends ``uint16``
        columns); a component outside the key space is the worker's
        ``ValueError``.  With ``stop_at_occupied`` the worker answers in key
        order up to and including the first occupied key (a collision ray's
        run).  A reply that is not that -- another shard's, other dtypes, or
        other rows -- raises :class:`ShardBackendError` naming the shard.
        """
        self._ensure_readable()
        self._health_check()
        result = self.pool.engine.query_keys(
            self.gids[shard_id], ShardKeysQuery(shard_id, keys, stop_at_occupied)
        )
        problem = _keys_reply_problem(result, shard_id, len(keys), stop_at_occupied)
        if problem:
            raise ShardBackendError(
                f"shard {shard_id} sent a malformed query_keys reply on the "
                f"{self.name} backend: {problem}",
                shard_id=shard_id,
            )
        return result

    def export_all(self) -> List[OccupancyOcTree]:
        """Gather every shard's exported subtree (concurrently where possible)."""
        self._ensure_readable()
        self._health_check()
        exports = self.pool.engine.export(self.gids)
        return [export.tree for export in sorted(exports, key=lambda e: e.shard_id)]

    def generation_of(self, shard_id: int) -> int:
        """Parent-side write-generation stamp of one shard (cache validity).

        Guarded like every other interaction: a cache *hit* never does a
        worker round-trip, so this is the only gate that keeps cached reads
        from silently outliving a closed or fail-stopped backend, or from
        validating against a flush that is dispatched but not yet drained.
        """
        self._ensure_readable()
        return self._generations[shard_id]

    def shard_load(self) -> Tuple[int, ...]:
        """Updates applied per shard (parent-side accounting)."""
        return tuple(self._updates_applied)

    def failover_stats(self) -> Dict[str, float]:
        """Liveness/recovery counters of this lease's own shards.

        Zero unless the pool's engine counted something for them (only the
        socket engine snapshots, probes and recovers).  The ingestion
        pipeline copies the dict into
        :class:`~repro.serving.stats.SessionStats` after every applied
        batch, the same way it adopts ``shard_load``.
        """
        return {**_NO_FAILOVERS, **self.pool.engine.failover_stats(self.gids)}

    def slot_of(self, shard_id: int) -> int:
        """Pool slot currently hosting one of this session's shards."""
        return self.pool.engine.slot_of(self.gids[shard_id])

    @property
    def workers(self) -> List[MapShardWorker]:
        """This session's hosted workers, in shard order.

        Only the in-process kinds (``inline`` / ``thread``) have them;
        elsewhere this raises AttributeError (not :class:`ShardBackendError`),
        so ``hasattr``/``getattr`` probing keeps its usual semantics.
        """
        return self.pool.engine.local_workers(self.gids)

    def close(self) -> None:
        """Release this lease's shards (and a private pool).  Idempotent.

        Safe to call with a ticket outstanding: the ticket is abandoned (its
        results are never adopted) and every child is still reaped -- a
        crashing session must not leak worker processes.
        """
        if not self.closed:
            self._outstanding = None
            if self.owns_pool:
                self.pool.close()
            self.pool._release(self)
            self.closed = True

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    def _health_check(self) -> None:
        """Surface (or let the engine recover) a dead worker; fail-stop on a loss."""
        try:
            self.pool.engine.check(self.gids)
        except ShardBackendError as error:
            # A loss the engine could not recover took this lease's shards
            # with it for good: fail-stop, whichever interaction found out.
            self.failed = str(error)
            raise

    def _ensure_open(self) -> None:
        if self.closed:
            raise ShardBackendError(f"{self.name} backend is closed")
        if self.failed is not None:
            raise ShardBackendError(
                f"{self.name} backend failed earlier and is fail-stopped: {self.failed}"
            )

    def _ensure_readable(self) -> None:
        self._ensure_open()
        if self._outstanding is not None:
            raise ShardBackendError(
                f"{self.name} backend has ticket {self._outstanding[0].ticket_id} "
                "outstanding; drain it before reading"
            )


#: What :meth:`ShardBackend.failover_stats` reports for shards that never
#: needed a recovery.
_NO_FAILOVERS: Dict[str, float] = {
    "snapshots_taken": 0,
    "failovers": 0,
    "replayed_batches": 0,
    "replayed_updates": 0,
    "recovery_wall_seconds": 0.0,
    "heartbeat_probes": 0,
    "heartbeat_failures": 0,
}


#: Names accepted by :class:`~repro.serving.session.SessionConfig` / the CLI.
BACKEND_NAMES: Tuple[str, ...] = ("inline", "process", "socket", "thread")


def _keys_reply_problem(
    result: ShardKeysResult, shard_id: int, rows: int, stop_at_occupied: bool
) -> str:
    """What is wrong with a bulk read's reply, or ``""`` when it is the
    answer :meth:`ShardBackend.query_keys` promises."""
    if not isinstance(result, ShardKeysResult):
        return f"a {type(result).__name__}, not a ShardKeysResult"
    if result.shard_id != shard_id:
        return f"answered as shard {result.shard_id}"
    statuses, raws = result.statuses, result.raws
    if not (isinstance(statuses, np.ndarray) and isinstance(raws, np.ndarray)):
        return f"statuses {type(statuses).__name__}, raws {type(raws).__name__}"
    if not (
        statuses.dtype == np.uint8
        and raws.dtype == np.int16
        and statuses.ndim == 1
        and raws.shape == statuses.shape
    ):
        return f"statuses {statuses.dtype}{statuses.shape}, raws {raws.dtype}{raws.shape}"
    answered = len(statuses)
    if answered and int(statuses.max()) > 2:
        return f"status code {int(statuses.max())}"
    if not stop_at_occupied:
        return "" if answered == rows else f"{answered} rows for {rows} keys"
    # The answered prefix: every row, or the rows up to the first occupied one.
    occupied = np.flatnonzero(statuses == 2).tolist()
    if occupied:
        prefix = answered <= rows and occupied == [answered - 1]
    else:
        prefix = answered == rows
    return "" if prefix else f"{answered} rows for {rows} keys, occupied at rows {occupied}"


def make_backend(
    name: str,
    config: OMUConfig,
    num_shards: int,
    fleet=None,
    session_id: str = "",
    **pool_options,
) -> ShardBackend:
    """Lease shard execution of the named kind for one session.

    With a shared ``fleet`` (a :class:`~repro.serving.fleet.BackendPool`,
    which must run ``name`` workers -- mixing a thread fleet into a
    process-backend session would silently change the execution substrate)
    the session gets one more lease on it.  Without one it gets the single
    lease of a *private* pool of ``num_shards`` slots, built from
    ``pool_options`` (the keyword arguments of
    :class:`~repro.serving.fleet.BackendPool`); closing that lease closes
    the pool with it.
    """
    # Imported here: the fleet module builds its leases from the class above.
    from repro.serving.fleet import BackendPool

    if fleet is not None:
        if fleet.backend != name:
            raise ValueError(
                f"session wants the {name!r} backend but the shared fleet "
                f"runs {fleet.backend!r} workers"
            )
        if pool_options:
            raise ValueError(
                f"pool options {sorted(pool_options)} shape a private pool; "
                "a shared fleet was built with its own"
            )
        return fleet.lease(session_id, config, num_shards)
    pool = BackendPool(name, num_shards, **pool_options)
    try:
        return pool.lease(session_id, config, num_shards, owns_pool=True)
    except BaseException:
        pool.close()
        raise
