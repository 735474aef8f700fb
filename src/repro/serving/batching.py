"""Batched ingestion: coalesce scan requests into per-shard update streams.

The pipeline sits between request admission and the shard workers:

1. admitted :class:`~repro.serving.types.ScanRequest`\\ s wait in the
   pluggable scheduler (FIFO / priority / deadline);
2. a *flush* pops up to ``batch_size`` requests in scheduler order,
   ray-casts each scan once in the shared front end and de-duplicates
   overlapping rays within the scan (occupied beats free, each voxel at most
   one update per scan -- the exact OctoMap ``insertPointCloud`` policy);
3. the surviving updates are concatenated in dispatch order, partitioned
   into per-shard streams, and fanned out to every shard at once through the
   session's :class:`~repro.serving.backends.ShardBackend` (serially for the
   inline reference backend, concurrently for the pool backends).

The front end is the batched numpy pipeline of
:mod:`repro.octomap.raycast_vec`: all rays of *every scan in the flush* step
through one batched DDA as arrays (a scan-id lane keeps de-duplication per
scan) and de-duplicate with one ``np.unique`` per scan.  The per-ray scalar
kernel (:mod:`repro.octomap.scan_insertion`) is not reachable from here; the
front-end equivalence suite computes the expected per-shard streams with it
and compares them with what this pipeline dispatched.

De-duplication is deliberately *per scan*, not per batch: the clamped
log-odds update saturates, so collapsing two same-voxel updates from
different scans into one would change the map whenever a value sits at a
clamp bound.  Keeping each scan's single update per voxel, in scan order,
makes batched + sharded ingestion bit-equivalent to sequential insertion of
the same request sequence (the property the serving tests verify).

Pipelined (double-buffered) mode: with ``pipelined=True`` the pipeline keeps
one dispatched batch *in flight* on the backend while it ray-casts the next
one, so the serial front end and the shard apply overlap instead of
alternating.  Internally every flush is split into three phases -- *prepare*
(pop + ray-cast + partition), *dispatch*
(:meth:`~repro.serving.backends.ShardBackend.apply_async`), and *finalize*
(:meth:`~repro.serving.backends.ShardBackend.drain` + report + accounting).
Blocking mode runs the three phases back to back; pipelined mode prepares
batch N+1 *before* finalizing batch N, which is exactly the overlap window.
Each :meth:`IngestionPipeline.flush` still returns one completed
:class:`~repro.serving.types.BatchReport` (the previously in-flight batch's),
so callers that loop ``flush()`` until ``None`` -- including the session
manager's round-robin -- drain pipelined sessions without changes.  The
first pipelined flush primes the pipe by dispatching one batch and
preparing the next, so it may consume up to ``2 * batch_size`` requests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.octomap.counters import OperationCounters
from repro.octomap.raycast_vec import compute_batch_update_arrays, unpack_key_array
from repro.serving.backends import ShardBackend
from repro.serving.schedulers import IngestScheduler
from repro.serving.sharding import ShardRouter
from repro.serving.stats import SessionStats
from repro.serving.types import (
    ApplyTicket,
    BatchReport,
    IngestReceipt,
    ScanRequest,
    ShardUpdateBatch,
)

__all__ = ["IngestionPipeline"]


@dataclass
class _PreparedBatch:
    """Front-end output of one batch: everything known before the apply."""

    request_ids: List[int]
    scans: int
    points: int
    rays: int
    visits: int
    voxel_updates: int
    shard_updates: Tuple[int, ...]
    batches: List[ShardUpdateBatch]
    frontend_seconds: float
    #: True when the front end ran while a previous batch was still in
    #: flight on the workers -- the overlap the pipelined mode exists for.
    overlapped: bool
    #: requests already past their deadline when popped for this batch.
    deadline_misses: int


@dataclass
class _InFlightBatch:
    """A dispatched batch awaiting its drain (at most one exists)."""

    prepared: _PreparedBatch
    ticket: ApplyTicket
    batch_id: int
    dispatch_seconds: float


class IngestionPipeline:
    """Admission queue + shared ray-casting front end + shard dispatcher."""

    def __init__(
        self,
        session_id: str,
        router: ShardRouter,
        backend: ShardBackend,
        scheduler: IngestScheduler,
        stats: SessionStats,
        batch_size: int = 8,
        pipelined: bool = False,
        metrics=None,
        tenant: Optional[str] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if backend.num_shards != router.num_shards:
            raise ValueError(
                f"router expects {router.num_shards} shards but the backend "
                f"executes {backend.num_shards}"
            )
        self.session_id = session_id
        self.router = router
        self.backend = backend
        self.scheduler = scheduler
        self.stats = stats
        self.batch_size = batch_size
        self.pipelined = pipelined
        #: optional :class:`~repro.serving.metrics.MetricsStore`; every
        #: finalized batch emits one ``batch_apply`` record into it.
        self.metrics = metrics
        self.tenant = tenant if tenant is not None else session_id
        # The key converter is derived from the router once per session, not
        # once per flush; the stats counter makes a regression back to
        # per-flush derivation visible.
        self.converter = router.converter
        stats.frontend_converter_builds += 1
        self.batches_flushed = 0
        self.reports: List[BatchReport] = []
        self._inflight: Optional[_InFlightBatch] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def validate(self, request: ScanRequest) -> None:
        """Refuse a scan the front end could not ray-cast.

        A sensor origin outside the mappable volume (non-finite included)
        makes the batched DDA raise once the scan is popped, which would take
        every co-batched scan down with it -- so it is refused here, before
        anything is queued.

        Raises:
            ValueError: if the origin lies outside the mappable volume.
        """
        if not self.converter.is_coordinate_in_range(*request.origin):
            raise ValueError(
                f"scan origin {tuple(request.origin)!r} outside the mappable volume "
                f"(+/- {self.converter.max_coordinate} m)"
            )

    def submit(self, request: ScanRequest) -> IngestReceipt:
        """Admit one scan request into the scheduler."""
        self.validate(request)
        self.scheduler.push(request)
        depth = len(self.scheduler)
        self.stats.queue_high_water = max(self.stats.queue_high_water, depth)
        return IngestReceipt(
            request_id=request.request_id,
            session_id=self.session_id,
            num_points=len(request.cloud),
            queue_depth=depth,
        )

    def pending(self) -> int:
        """Requests admitted but not yet dispatched (excludes in-flight)."""
        return len(self.scheduler)

    def in_flight_requests(self) -> int:
        """Requests dispatched to the workers but not yet acknowledged."""
        return len(self._inflight.prepared.request_ids) if self._inflight else 0

    @property
    def has_inflight(self) -> bool:
        """True when a dispatched batch still awaits its drain (pipelined).

        Callers that drive the pipeline incrementally (the asyncio flusher)
        use this to decide whether a final :meth:`flush_all` is needed to
        drain the tail before the session can be considered quiescent.
        """
        return self._inflight is not None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def flush(self, max_requests: Optional[int] = None) -> Optional[BatchReport]:
        """Dispatch one batch (up to ``batch_size`` requests); None if idle.

        Blocking mode returns the report of the batch just dispatched.
        Pipelined mode returns the report of the *previously* in-flight
        batch (finalized after the new batch's front end overlapped its
        apply) and leaves the new batch in flight; once the admission queue
        is empty, one final ``flush()`` drains the tail.  Either way a
        ``None`` return means no progress was possible.
        """
        budget = self.batch_size if max_requests is None else max_requests
        if not self.pipelined:
            if budget < 1 or not self.scheduler:
                return None
            return self._finalize(self._dispatch(self._prepare(budget)))
        if budget < 1 or not self.scheduler:
            return self._finalize_tail()
        if self._inflight is None:
            # Prime the pipe: dispatch the first batch without waiting.
            self._inflight = self._dispatch(self._prepare(budget))
            if not self.scheduler:
                return self._finalize_tail()
        # Steady state: front-end of batch N+1 runs while batch N applies.
        prepared = self._prepare(budget)
        inflight, self._inflight = self._inflight, None
        report = self._finalize(inflight)
        self._inflight = self._dispatch(prepared)
        return report

    def flush_all(self) -> List[BatchReport]:
        """Dispatch batches until the admission queue and the pipe are empty."""
        reports: List[BatchReport] = []
        while self.scheduler:
            report = self.flush()
            if report is None:
                break
            reports.append(report)
        tail = self.flush()  # pipelined mode: drain the final in-flight batch
        if tail is not None:
            reports.append(tail)
        return reports

    # ------------------------------------------------------------------
    # Flush phases
    # ------------------------------------------------------------------
    def _prepare(self, budget: int) -> _PreparedBatch:
        """Pop up to ``budget`` requests and run the ray-casting front end."""
        # Overlap means apply work was *actually* in flight on the backend
        # while this front end ran -- ask the backend, not our own dispatch
        # record: a query barrier between flushes settles the apply early,
        # and crediting front-end time as overlapped after that would
        # inflate the overlap ratio the stats exist to report.
        overlapped = self.backend.in_flight is not None
        started = time.perf_counter()
        requests: List[ScanRequest] = []
        request_ids: List[int] = []
        scans = points = rays = 0
        converter = self.converter
        dda_counters = OperationCounters()
        deadline_misses = 0
        while self.scheduler and len(request_ids) < budget:
            request = self.scheduler.pop()
            # Missed-deadline accounting: a finite deadline (time.monotonic
            # clock) that has passed by the time the scheduler hands the
            # request over counts as a miss, whatever the policy -- the
            # deadline scheduler minimises this figure, the others expose it.
            if request.deadline_s != math.inf and request.deadline_s < time.monotonic():
                deadline_misses += 1
            request_ids.append(request.request_id)
            requests.append(request)
            scans += 1
            points += len(request.cloud)
            rays += len(request.cloud)

        # All popped scans ride one batched DDA: the loop overhead of the
        # traversal is paid once per flush, not once per scan.
        scan_arrays = compute_batch_update_arrays(
            converter,
            [(request.cloud.points, request.origin, request.max_range) for request in requests],
            counters=dda_counters,
        )
        # Pre-dedup visits: every DDA step is one free-voxel visit, and each
        # surviving endpoint voxel is one occupied visit.
        visits = dda_counters.ray_steps
        segments: List[np.ndarray] = []
        segment_flags: List[np.ndarray] = []
        for scan in scan_arrays:
            visits += int(scan.occupied_packed.size)
            # The per-scan segment mirrors the accelerator's own issue order:
            # free voxels first, occupied voxels last, both in sorted key
            # order (packed codes sort exactly like OcTreeKeys, np.unique
            # already sorted both halves, and occupied keys were already
            # removed from the free set).
            segments.append(np.concatenate((scan.free_packed, scan.occupied_packed)))
            flags = np.zeros(segments[-1].size, dtype=bool)
            flags[scan.free_packed.size :] = True
            segment_flags.append(flags)

        if segments:
            keys = unpack_key_array(np.concatenate(segments))
            flags = np.concatenate(segment_flags)
        else:
            keys = np.empty((0, 3), dtype=np.int64)
            flags = np.empty(0, dtype=bool)
        per_shard_arrays = self.router.partition_key_arrays(keys, flags)
        batches = [
            ShardUpdateBatch.from_key_arrays(shard_id, shard_keys, shard_flags)
            for shard_id, (shard_keys, shard_flags) in enumerate(per_shard_arrays)
        ]
        voxel_updates = int(keys.shape[0])
        shard_updates = tuple(int(shard_keys.shape[0]) for shard_keys, _ in per_shard_arrays)
        return _PreparedBatch(
            request_ids=request_ids,
            scans=scans,
            points=points,
            rays=rays,
            visits=visits,
            voxel_updates=voxel_updates,
            shard_updates=shard_updates,
            batches=batches,
            frontend_seconds=time.perf_counter() - started,
            overlapped=overlapped,
            deadline_misses=deadline_misses,
        )

    def _dispatch(self, prepared: _PreparedBatch) -> _InFlightBatch:
        """Hand a prepared batch to the backend without waiting for acks."""
        started = time.perf_counter()
        ticket = self.backend.apply_async(prepared.batches)
        inflight = _InFlightBatch(
            prepared=prepared,
            ticket=ticket,
            batch_id=self.batches_flushed,
            dispatch_seconds=time.perf_counter() - started,
        )
        self.batches_flushed += 1
        return inflight

    def _finalize(self, inflight: _InFlightBatch) -> BatchReport:
        """Drain a dispatched batch, build its report, account the stats."""
        wait_started = time.perf_counter()
        results = self.backend.drain(inflight.ticket)
        drain_wait = time.perf_counter() - wait_started
        shard_cycles = [result.critical_path_cycles for result in results]
        prepared = inflight.prepared
        report = BatchReport(
            session_id=self.session_id,
            batch_id=inflight.batch_id,
            request_ids=tuple(prepared.request_ids),
            scans=prepared.scans,
            rays_cast=prepared.rays,
            ray_voxels_visited=prepared.visits,
            voxel_updates=prepared.voxel_updates,
            duplicates_removed=prepared.visits - prepared.voxel_updates,
            shard_updates=prepared.shard_updates,
            modelled_cycles=max(shard_cycles, default=0),
            wall_seconds=prepared.frontend_seconds + inflight.dispatch_seconds + drain_wait,
            fanout_seconds=inflight.dispatch_seconds + drain_wait,
            frontend_seconds=prepared.frontend_seconds,
            drain_wait_seconds=drain_wait,
            pipelined=self.pipelined,
            overlapped=prepared.overlapped,
            backend=self.backend.name,
            deadline_misses=prepared.deadline_misses,
        )
        self.reports.append(report)
        self._account(report, prepared.points)
        return report

    def _finalize_tail(self) -> Optional[BatchReport]:
        """Drain the in-flight batch when the admission queue has emptied."""
        if self._inflight is None:
            return None
        inflight, self._inflight = self._inflight, None
        return self._finalize(inflight)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _account(self, report: BatchReport, points: int) -> None:
        self.stats.scans_ingested += report.scans
        self.stats.points_ingested += points
        self.stats.rays_cast += report.rays_cast
        self.stats.ray_voxels_visited += report.ray_voxels_visited
        self.stats.voxel_updates += report.voxel_updates
        self.stats.duplicates_removed += report.duplicates_removed
        self.stats.deadline_misses += report.deadline_misses
        self.stats.batches_dispatched += 1
        self.stats.modelled_ingest_cycles += report.modelled_cycles
        self.stats.ingest_wall_seconds += report.wall_seconds
        self.stats.fanout_wall_seconds += report.fanout_seconds
        self.stats.frontend_wall_seconds += report.frontend_seconds
        self.stats.drain_wait_seconds += report.drain_wait_seconds
        if report.pipelined:
            self.stats.pipelined_batches += 1
            if report.overlapped:
                self.stats.overlapped_frontend_seconds += report.frontend_seconds
        self.stats.shard_updates = list(self.backend.shard_load())
        # Absolute counters owned by the backend (non-zero on the socket
        # backend only), mirrored into the stats block like shard_updates.
        for counter, value in self.backend.failover_stats().items():
            setattr(self.stats, counter, value)
        if self.metrics is not None and self.metrics.enabled:
            # One record per dispatched batch: the apply/drain leg of the
            # ingest path, on the store's clock (finalize time minus wall).
            self.metrics.observe(
                tenant=self.tenant,
                session_id=self.session_id,
                operation="batch_apply",
                outcome="ok",
                started_s=self.metrics.clock() - report.wall_seconds,
                duration_s=report.wall_seconds,
                num_bytes=report.voxel_updates,
                batch_size=report.scans,
                queue_depth=len(self.scheduler),
            )
