"""Asyncio admission front end: non-blocking submit/flush/query coroutines.

The synchronous :class:`~repro.serving.manager.MapSessionManager` front door
has one structural flaw for a network service: admission *is* ingestion.  A
``submit`` that triggers a flush holds the caller for the whole ray-casting
front end plus the shard apply, so one slow client (or one slow shard) stalls
every other client of the process.  :class:`AsyncMapService` decouples the
two:

* **Admission is queueing.**  :meth:`AsyncMapService.submit` stamps the
  request id and drops the request into a *bounded* per-session
  :class:`asyncio.Queue` (depth ``SessionConfig.admission_queue_limit``).
  A full queue exerts backpressure -- the submitter either awaits space
  (the wait is metered into
  :attr:`~repro.serving.stats.SessionStats.admission_wait_seconds`) or, with
  ``wait=False``, gets an immediate :class:`AdmissionQueueFull` and a bumped
  :attr:`~repro.serving.stats.SessionStats.queue_rejects` counter.  Nothing
  here touches the session, so admission latency is queue latency.

* **Ingestion is background work.**  One flusher task per session pulls
  admitted requests, coalesces up to ``batch_size`` of them, and drives the
  session's :class:`~repro.serving.batching.IngestionPipeline` inside
  ``loop.run_in_executor`` -- the event loop never blocks on ray casting or
  shard applies, and sessions ingest concurrently with each other (the GIL
  permitting; the process backend's shard applies genuinely overlap).  A
  session occupies at most one executor thread for ingestion, so a heavy
  session cannot starve its neighbours on a shared fleet.

* **Reads share the executor.**  :meth:`query` / :meth:`query_batch` /
  :meth:`raycast` / :meth:`query_bbox` run the session's query engine on the
  executor under the same per-session lock the flusher holds, so the
  non-thread-safe session internals (backend pipes, LRU cache) are only ever
  touched by one executor thread at a time while different sessions still
  proceed in parallel.

Equivalence: each session preserves submit order (one FIFO queue, one
consumer), so async multi-client ingestion of a request sequence produces a
map equivalent to sequential insertion in dispatch order -- the same
property the synchronous serving layer guarantees, verified by
``tests/serving/test_aio.py`` across the execution backends.

Worker-process caveat: with ``backend="process"`` and the default ``fork``
start method, create the sessions *before* the first await that touches the
executor (e.g. via :meth:`AsyncMapService.get_or_create_session` or an eager
``manager.get_or_create_session``) so shard workers are forked while no
executor threads are running; or pick ``mp_start_method="spawn"``.
Session creation deliberately happens on the event-loop thread for this
reason.

Usage::

    async with AsyncMapService(default_config=SessionConfig(num_shards=4)) as service:
        receipt = await service.submit(request)          # returns immediately
        await service.flush(request.session_id)          # drain this session
        response = await service.query(request.session_id, 1.0, 0.0, 0.5)
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Optional, Sequence

from repro.serving.backends import ShardBackendError
from repro.serving.manager import MapSessionManager
from repro.serving.metrics import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    DeadlineShed,
    DeadlineShedPolicy,
    MetricsStore,
    TenantQuotaExceeded,
    TenantQuotaRegistry,
)
from repro.serving.session import MapSession, SessionConfig
from repro.serving.stats import ServiceStats
from repro.serving.types import (
    BatchReport,
    BboxChunk,
    BoxOccupancySummary,
    IngestReceipt,
    QueryResponse,
    RaycastResponse,
    ScanRequest,
)

__all__ = ["AdmissionQueueFull", "AsyncMapService", "submit_interleaved_stream"]


def _describe_failure(failure: BaseException) -> str:
    """Render a stored ingestion failure for a surfaced RuntimeError.

    Backend errors know which shard and worker died
    (:meth:`ShardBackendError.describe`); everything else falls back to
    ``repr``.
    """
    if isinstance(failure, ShardBackendError):
        return failure.describe()
    return repr(failure)


class AdmissionQueueFull(RuntimeError):
    """A ``wait=False`` submit found the session's admission queue full."""

    def __init__(self, session_id: str, limit: int) -> None:
        super().__init__(
            f"admission queue of session {session_id!r} is full "
            f"({limit} requests); retry later or submit with wait=True"
        )
        self.session_id = session_id
        self.limit = limit


@dataclass
class _SessionEntry:
    """Per-session async state: the admission queue and its flusher task."""

    session: MapSession
    queue: "asyncio.Queue[ScanRequest]"
    #: the one consumer task of the queue (set right after construction).
    flusher: Optional["asyncio.Task"] = None
    #: serialises executor access to the (non-thread-safe) session between
    #: the flusher and the query coroutines.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: first ingestion failure; the entry is fail-stopped once set.
    failure: Optional[BaseException] = None
    #: deadline-miss shedding: EMA of per-request ingest cost, fed by the
    #: flusher, consulted at admission (see repro.serving.metrics.qos).
    shed_policy: DeadlineShedPolicy = field(default_factory=DeadlineShedPolicy)


class AsyncMapService:
    """Non-blocking front end over a :class:`MapSessionManager`.

    Args:
        manager: service instance to front; a fresh one is created when
            omitted.  The manager's *read-only* surface (stats, session
            lookup, rendered tables) stays usable at any time, but
            synchronous writes (``manager.submit``/``flush``/``ingest``) or
            queries against a session must not run concurrently with async
            activity on that same session: they would bypass the per-session
            lock that keeps the non-thread-safe session internals
            single-threaded.  Mixing is safe sequentially -- e.g. sync
            ingestion before the service starts, or after :meth:`close`.
        default_config: forwarded to the created manager (ignored when
            ``manager`` is given).

    Each session's admission queue is ``config.admission_queue_limit``
    deep.  Flushers and queries share one executor of the stdlib's default
    size (``min(32, cpu_count + 4)`` threads); sessions needing concurrent
    ingestion beyond that run fine but time-share the pool.

    Must be constructed (and used) inside a running event loop; flusher
    tasks are spawned lazily per session.  Always :meth:`close` (or use
    ``async with``) -- that cancels the flushers and releases the manager's
    execution backends, leaving no orphan tasks or worker processes.
    """

    def __init__(
        self,
        manager: Optional[MapSessionManager] = None,
        *,
        default_config: Optional[SessionConfig] = None,
    ) -> None:
        self.manager = manager if manager is not None else MapSessionManager(default_config)
        #: one token bucket per tenant, shared by every session billing to
        #: it; consulted (and lazily created) at submit admission.
        self.quotas = TenantQuotaRegistry()
        self._entries: Dict[str, _SessionEntry] = {}
        # Sized up front (the stdlib default) rather than from the session
        # count, which is unknowable at construction time; the pool only
        # *creates* threads on demand, so process-backend sessions made
        # before the first executor use still fork thread-free.
        self._executor = ThreadPoolExecutor(thread_name_prefix="aio-serve")
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AsyncMapService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Stop the flushers and release the manager's execution backends.

        With ``drain=True`` (default) every admission queue is emptied
        first, so all accepted requests reach their maps; ``drain=False``
        abandons queued requests (the graceful-cancellation path).  Either
        way every flusher task is awaited to completion and every backend
        worker is reaped -- no orphan tasks, threads or processes survive.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if drain:
                for entry in list(self._entries.values()):
                    if entry.failure is None:
                        await entry.queue.join()
                        # Apply what the synchronous path admitted, so it is
                        # in the map before the backend goes away.
                        if entry.failure is None and entry.session.pipeline.pending() > 0:
                            await self._run_locked(entry, entry.session.flush_all)
            for entry in self._entries.values():
                entry.flusher.cancel()
            await asyncio.gather(
                *(entry.flusher for entry in self._entries.values()),
                return_exceptions=True,
            )
            # Empty the dead queues: each get wakes any submitter still
            # parked in queue.put(), whose submit then observes the closed
            # flag and raises instead of blocking forever.
            for entry in self._entries.values():
                while True:
                    try:
                        entry.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
        finally:
            # All flushers are done, so no work is pending; this returns
            # promptly and guarantees the worker threads are gone.
            self._executor.shutdown(wait=True)
            # Releases pool-backend worker processes/threads.  Runs on the
            # loop thread; by now nothing else can touch the sessions.
            self.manager.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._closed

    # ------------------------------------------------------------------
    # Session plumbing
    # ------------------------------------------------------------------
    def get_or_create_session(
        self, session_id: str, config: Optional[SessionConfig] = None
    ) -> MapSession:
        """Create (or look up) a session and its admission machinery.

        Runs synchronously on the event-loop thread on purpose: process
        backends fork their shard workers at session construction, and
        forking from the loop thread before executor threads pile up is the
        safe default (see the module docstring).
        """
        self._ensure_open()
        # Validate through the manager even when the async entry already
        # exists: a conflicting config must raise, not silently hand back a
        # session with different settings.
        self.manager.get_or_create_session(session_id, config)
        return self._entry(session_id, config=config, create=True).session

    def _entry(
        self,
        session_id: str,
        config: Optional[SessionConfig] = None,
        create: bool = False,
    ) -> _SessionEntry:
        entry = self._entries.get(session_id)
        if entry is not None:
            if entry.failure is not None:
                raise RuntimeError(
                    f"session {session_id!r} fail-stopped after an ingestion "
                    f"error: {_describe_failure(entry.failure)}"
                ) from entry.failure
            return entry
        if create:
            session = self.manager.get_or_create_session(session_id, config)
        else:
            session = self.manager.get_session(session_id)
        entry = _SessionEntry(
            session=session, queue=asyncio.Queue(maxsize=session.config.admission_queue_limit)
        )
        entry.flusher = asyncio.get_running_loop().create_task(
            self._flusher_loop(entry), name=f"aio-flusher-{session_id}"
        )
        self._entries[session_id] = entry
        return entry

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("AsyncMapService is closed")

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsStore:
        """The fronted manager's metrics store (one sink per service)."""
        return self.manager.metrics

    def _timer(self):
        """Operation start on (store clock, perf clock), for :meth:`_record`."""
        return (self.manager.metrics.clock(), time.perf_counter())

    def _record(
        self,
        entry: _SessionEntry,
        operation: str,
        outcome: str,
        timer,
        *,
        num_bytes: int = 0,
        batch_size: int = 1,
        queue_depth: int = 0,
        request_id: int = -1,
    ) -> None:
        """Emit one request record for an instrumented coroutine."""
        started_s, started_pc = timer
        self.manager.metrics.observe(
            tenant=entry.session.tenant,
            session_id=entry.session.session_id,
            operation=operation,
            outcome=outcome,
            started_s=started_s,
            duration_s=time.perf_counter() - started_pc,
            num_bytes=num_bytes,
            batch_size=batch_size,
            queue_depth=queue_depth,
            request_id=request_id,
        )

    async def _instrumented(self, entry: _SessionEntry, operation: str, fn, *args):
        """Run session work under the lock, recording outcome and latency."""
        timer = self._timer()
        try:
            result = await self._run_locked(entry, fn, *args)
        except Exception:
            self._record(entry, operation, OUTCOME_ERROR, timer)
            raise
        self._record(entry, operation, OUTCOME_OK, timer)
        return result

    async def _run_locked(self, entry: _SessionEntry, fn, *args):
        """Run session work on the executor under the session's lock."""
        loop = asyncio.get_running_loop()
        async with entry.lock:
            return await loop.run_in_executor(self._executor, fn, *args)

    # ------------------------------------------------------------------
    # Background flusher
    # ------------------------------------------------------------------
    async def _flusher_loop(self, entry: _SessionEntry) -> None:
        """Drain the admission queue into the session, batch by batch."""
        batch_size = entry.session.config.batch_size
        stats = entry.session.stats
        while True:
            request = await entry.queue.get()
            batch = [request]
            while len(batch) < batch_size and not entry.queue.empty():
                batch.append(entry.queue.get_nowait())
            ingest_started = time.perf_counter()
            try:
                await self._run_locked(entry, self._ingest_batch, entry.session, batch)
            except asyncio.CancelledError:
                for _ in batch:
                    entry.queue.task_done()
                raise
            except Exception as error:  # noqa: BLE001 - fail-stop the session
                entry.failure = error
                for _ in batch:
                    entry.queue.task_done()
                # Keep consuming (and discarding) so nothing can deadlock on
                # this queue: a submitter parked in queue.put() is woken by
                # the drain and must not leave an orphaned item behind that
                # would hang a later queue.join().  The requests are lost,
                # but so is the session (the backend fail-stopped) --
                # submit/flush surface the stored failure from here on.
                while True:
                    await entry.queue.get()
                    entry.queue.task_done()
            else:
                stats.flusher_cycles += 1
                # Feed the shed policy's per-request cost estimate so the
                # admission-time feasibility check tracks observed capacity.
                entry.shed_policy.observe_batch(
                    time.perf_counter() - ingest_started, len(batch)
                )
                for _ in batch:
                    entry.queue.task_done()

    @staticmethod
    def _ingest_batch(session: MapSession, batch: Sequence[ScanRequest]) -> None:
        """Executor-side ingestion: admit the batch and apply it."""
        for request in batch:
            session.submit(request)
        session.flush_all()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: ScanRequest,
        *,
        wait: bool = True,
        auto_create: bool = True,
    ) -> IngestReceipt:
        """Admit one scan request without blocking on ingestion.

        Returns as soon as the request sits in the session's bounded
        admission queue.  A full queue backpressures: with ``wait=True``
        (default) the coroutine awaits a slot -- and the wait is recorded in
        the session's admission-wait counters -- while ``wait=False`` raises
        :class:`AdmissionQueueFull` immediately and bumps the reject
        counter.  The returned receipt's ``queue_depth`` is the queue depth
        observed right after admission.

        Two QoS gates run *before* queueing, so refused work never costs
        backend time:

        * a session whose config sets ``quota_points_per_s`` charges
          ``len(request.cloud)`` points against its tenant's token bucket;
          an exhausted bucket raises
          :class:`~repro.serving.metrics.qos.TenantQuotaExceeded` (counted
          as ``quota_rejects`` / metrics outcome ``rejected``);
        * a request with a finite ``deadline_s`` that already cannot be met
          -- given the queue depth and the observed per-request ingest cost
          -- is dropped with
          :class:`~repro.serving.metrics.qos.DeadlineShed` (counted as
          ``shed_requests`` / metrics outcome ``shed``).
        """
        self._ensure_open()
        entry = self._entry(request.session_id, create=auto_create)
        # Before the quota charge and the queue: the flusher must never pop
        # a request its pipeline would refuse.
        entry.session.pipeline.validate(request)
        stats = entry.session.stats
        config = entry.session.config
        timer = self._timer()
        num_points = len(request.cloud)
        if config.quota_points_per_s > 0.0:
            try:
                self.quotas.charge(
                    entry.session.tenant,
                    float(num_points),
                    config.quota_points_per_s,
                    burst_s=config.quota_burst_s,
                )
            except TenantQuotaExceeded:
                stats.quota_rejects += 1
                self._record(
                    entry,
                    "submit",
                    OUTCOME_REJECTED,
                    timer,
                    num_bytes=num_points,
                    queue_depth=entry.queue.qsize(),
                )
                raise
        try:
            entry.shed_policy.check(
                request.session_id, request.deadline_s, entry.queue.qsize()
            )
        except DeadlineShed:
            stats.shed_requests += 1
            self._record(
                entry,
                "submit",
                OUTCOME_SHED,
                timer,
                num_bytes=num_points,
                queue_depth=entry.queue.qsize(),
            )
            raise
        stamped = self.manager.stamp_request(request)
        try:
            entry.queue.put_nowait(stamped)
        except asyncio.QueueFull:
            if not wait:
                stats.queue_rejects += 1
                self._record(
                    entry,
                    "submit",
                    OUTCOME_REJECTED,
                    timer,
                    num_bytes=num_points,
                    queue_depth=entry.queue.qsize(),
                    request_id=stamped.request_id,
                )
                raise AdmissionQueueFull(
                    request.session_id, entry.queue.maxsize
                ) from None
            started = time.perf_counter()
            await entry.queue.put(stamped)
            stats.admission_waits += 1
            stats.admission_wait_seconds += time.perf_counter() - started
        if self._closed:
            # The service closed while we were parked on the full queue; the
            # flushers are gone, so the request just enqueued will never be
            # ingested -- fail the submit rather than hand out a receipt for
            # a dropped request.
            raise RuntimeError(
                "AsyncMapService closed while the submit was waiting for "
                f"admission-queue space in session {request.session_id!r}"
            )
        if entry.failure is not None:
            # The session fail-stopped while we were parked on the full
            # queue; the request was (or will be) discarded by the failure
            # drain -- surface that instead of returning a receipt for a
            # request that will never be ingested.
            raise RuntimeError(
                f"session {request.session_id!r} fail-stopped after an "
                f"ingestion error: {_describe_failure(entry.failure)}"
            ) from entry.failure
        stats.async_submits += 1
        depth = entry.queue.qsize()
        stats.admission_queue_high_water = max(stats.admission_queue_high_water, depth)
        self._record(
            entry,
            "submit",
            OUTCOME_OK,
            timer,
            num_bytes=num_points,
            queue_depth=depth,
            request_id=stamped.request_id,
        )
        return IngestReceipt(
            request_id=stamped.request_id,
            session_id=stamped.session_id,
            num_points=len(stamped.cloud),
            queue_depth=depth,
        )

    async def flush(self, session_id: str) -> List[BatchReport]:
        """Wait until the session's admitted requests are in the map.

        Drains the admission queue (the flusher does the work), then runs a
        final pipeline ``flush_all`` for anything admitted through the
        synchronous path, and returns the batch reports produced since the
        call began.
        """
        self._ensure_open()
        entry = self._entry(session_id)
        timer = self._timer()
        already = len(entry.session.pipeline.reports)
        try:
            await entry.queue.join()
            # Surface a flusher failure that happened during the drain.
            self._entry(session_id)
            if entry.session.pipeline.pending() > 0:
                await self._run_locked(entry, entry.session.flush_all)
        except Exception:
            self._record(entry, "flush", OUTCOME_ERROR, timer)
            raise
        reports = list(entry.session.pipeline.reports[already:])
        self._record(entry, "flush", OUTCOME_OK, timer, batch_size=len(reports))
        return reports

    async def flush_all(self) -> List[BatchReport]:
        """Drain every async session's admission queue; gather the reports."""
        reports: List[BatchReport] = []
        for session_id in sorted(self._entries):
            reports.extend(await self.flush(session_id))
        return reports

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    async def query(self, session_id: str, x: float, y: float, z: float) -> QueryResponse:
        """Point occupancy query served off the event loop."""
        self._ensure_open()
        entry = self._entry(session_id)
        return await self._instrumented(entry, "query", entry.session.query, x, y, z)

    async def query_batch(
        self, session_id: str, points: Sequence[Sequence[float]]
    ) -> Sequence[QueryResponse]:
        """Batch point query served off the event loop."""
        self._ensure_open()
        entry = self._entry(session_id)
        return await self._instrumented(
            entry, "query_batch", entry.session.query_batch, points
        )

    async def query_bbox(
        self, session_id: str, minimum: Sequence[float], maximum: Sequence[float]
    ) -> BoxOccupancySummary:
        """Bounding-box sweep served off the event loop."""
        self._ensure_open()
        entry = self._entry(session_id)
        return await self._instrumented(
            entry, "query_bbox", entry.session.query_bbox, minimum, maximum
        )

    async def raycast(
        self,
        session_id: str,
        origin: Sequence[float],
        direction: Sequence[float],
        max_range: float,
    ) -> RaycastResponse:
        """Collision raycast served off the event loop."""
        self._ensure_open()
        entry = self._entry(session_id)
        return await self._instrumented(
            entry, "raycast", entry.session.raycast, origin, direction, max_range
        )

    async def stream_bbox(
        self,
        session_id: str,
        minimum: Sequence[float],
        maximum: Sequence[float],
        *,
        chunk_voxels: int = 1024,
        include_voxels: bool = True,
    ) -> AsyncIterator[BboxChunk]:
        """Stream a bounding-box sweep as bounded-size classified chunks.

        The async-generator variant of :meth:`query_bbox`: each
        :class:`~repro.serving.types.BboxChunk` is computed on the executor
        under the session lock, but the lock is *released between chunks*, so
        a long sweep interleaves with ingestion instead of stalling it (and a
        network front end can relay each chunk as one chunked-transfer frame
        without materialising the whole box).  Consequence: unlike
        :meth:`query_bbox`, a streamed sweep is not a point-in-time snapshot
        -- chunks observe any flushes that landed between them, though each
        chunk is individually consistent (no flush is half applied while a
        chunk reads).

        Validation (inverted box, the ``max_box_voxels`` guardrail) raises
        before the first chunk is yielded.
        """
        self._ensure_open()
        entry = self._entry(session_id)
        iterator = entry.session.query_engine.iter_bbox(
            minimum, maximum, chunk_voxels=chunk_voxels, include_voxels=include_voxels
        )
        sentinel = object()
        timer = self._timer()
        chunks = 0
        try:
            while True:
                self._ensure_open()
                chunk = await self._run_locked(entry, next, iterator, sentinel)
                if chunk is sentinel:
                    # One record per completed stream, chunks as batch size.
                    self._record(
                        entry, "stream_bbox", OUTCOME_OK, timer, batch_size=chunks
                    )
                    return
                chunks += 1
                yield chunk
        except (GeneratorExit, asyncio.CancelledError):
            # The consumer walked away; not the service's error to report.
            raise
        except Exception:
            self._record(entry, "stream_bbox", OUTCOME_ERROR, timer, batch_size=chunks)
            raise

    async def export_octree(self, session_id: str):
        """Stitch the session's shards into one software octree, off the loop.

        Runs :meth:`MapSession.export_octree` on the executor under the
        session lock; callers that need every *admitted* request in the
        export should :meth:`flush` first (the export sees every batch
        already applied, not what still waits in the admission queue).
        """
        self._ensure_open()
        entry = self._entry(session_id)
        return await self._instrumented(entry, "export", entry.session.export_octree)

    async def close_session(self, session_id: str, drain: bool = True) -> None:
        """Retire one session: stop its flusher and release its backend.

        With ``drain=True`` (default) the admission queue is flushed into
        the map first; ``drain=False`` abandons queued requests.  The
        session is removed from the manager (its stats stop aggregating) and
        its execution backend is closed -- no orphan task, thread or worker
        process survives.  Unknown sessions raise ``KeyError``.
        """
        self._ensure_open()
        if session_id not in self._entries:
            # Known to the manager but never touched asynchronously: retire
            # the synchronous way.  (Raises KeyError when fully unknown.)
            session = self.manager.close_session(session_id)
            session.close()
            return
        entry = self._entries[session_id]
        if drain and entry.failure is None:
            try:
                await self.flush(session_id)
            except RuntimeError:
                # Fail-stopped while draining: nothing more can reach the
                # map; proceed to teardown.
                pass
        entry.flusher.cancel()
        await asyncio.gather(entry.flusher, return_exceptions=True)
        if entry.failure is None:
            # A submitter still parked on a full queue must surface an error
            # when its put lands in the retired queue, not receive a receipt
            # for a request that can never be ingested.
            entry.failure = RuntimeError(f"session {session_id!r} was closed")
        while True:  # wake any submitter parked on a full queue
            try:
                entry.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
        del self._entries[session_id]
        session = self.manager.close_session(session_id)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, session.close)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def service_stats(self) -> ServiceStats:
        """The fronted manager's aggregated per-session counters."""
        return self.manager.service_stats

    def session_ids(self) -> Sequence[str]:
        """Names of the sessions with live async admission machinery."""
        return tuple(sorted(self._entries))

    def admission_queue_depth(self, session_id: str) -> int:
        """Requests currently waiting in a session's admission queue."""
        return self._entries[session_id].queue.qsize()

    def pending_requests(self) -> int:
        """Requests admitted (queued or scheduled) but not yet in a map."""
        queued = sum(entry.queue.qsize() for entry in self._entries.values())
        return queued + self.manager.pending_requests()

    def render_stats(self) -> str:
        """The aggregated counter tables, admission table included."""
        return self.manager.render_stats()


async def submit_interleaved_stream(service: AsyncMapService, events) -> int:
    """Replay a multi-client scan stream as concurrent submitter coroutines.

    The async driver of ``repro-serve --async``: ``events`` is an iterable
    of :class:`~repro.datasets.streams.StreamEvent`-shaped records (anything
    with ``client_id`` / ``session_id`` / ``scan`` / ``max_range_m``); each
    client becomes one coroutine submitting its own events in order and
    yielding between submits, so clients genuinely interleave with each
    other and with the flusher tasks.
    Returns the number of requests submitted; does not flush.
    """
    per_client: Dict[str, List] = {}
    for event in events:
        per_client.setdefault(event.client_id, []).append(event)

    async def run_client(client_events) -> None:
        for event in client_events:
            request = ScanRequest.from_scan_node(
                event.session_id,
                event.scan,
                max_range=event.max_range_m,
                client_id=event.client_id,
            )
            await service.submit(request)
            await asyncio.sleep(0)

    await asyncio.gather(*(run_client(ev) for ev in per_client.values()))
    return sum(len(ev) for ev in per_client.values())
