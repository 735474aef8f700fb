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

The front end is :func:`repro.octomap.raycast_vec.compute_batch_update_arrays`:
all rays of *every scan in the flush* go to the native DDA kernel in one call,
which walks them, then sorts and de-duplicates each scan's keys, with the
interpreter lock released.  The per-ray scalar
kernel (:mod:`repro.octomap.scan_insertion`) is not reachable from here; the
front-end equivalence suite computes the expected per-shard streams with it
and compares them with what this pipeline dispatched.

De-duplication is deliberately *per scan*, not per batch: the clamped
log-odds update saturates, so collapsing two same-voxel updates from
different scans into one would change the map whenever a value sits at a
clamp bound.  Keeping each scan's single update per voxel, in scan order,
makes batched + sharded ingestion bit-equivalent to sequential insertion of
the same request sequence (the property the serving tests verify).

Each :meth:`IngestionPipeline.flush` is one serial cycle: *prepare* (pop +
ray-cast + partition), :meth:`~repro.serving.backends.ShardBackend.apply_async`,
:meth:`~repro.serving.backends.ShardBackend.drain`, then the report and the
stats accounting.  Nothing is left on the backend between flushes, so a read
always sees every batch a flush returned.
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
    #: requests already past their deadline when popped for this batch.
    deadline_misses: int


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
        #: optional :class:`~repro.serving.metrics.MetricsStore`; every
        #: applied batch emits one ``batch_apply`` record into it.
        self.metrics = metrics
        self.tenant = tenant if tenant is not None else session_id
        # The key converter is derived from the router once per session, not
        # once per flush; the stats counter makes a regression back to
        # per-flush derivation visible.
        self.converter = router.converter
        stats.frontend_converter_builds += 1
        self.batches_flushed = 0
        self.reports: List[BatchReport] = []

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
        """Requests admitted but not yet dispatched."""
        return len(self.scheduler)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def flush(self) -> Optional[BatchReport]:
        """Apply one batch (up to ``batch_size`` requests); None if idle."""
        if not self.scheduler:
            return None
        prepared = self._prepare()
        dispatch_started = time.perf_counter()
        ticket = self.backend.apply_async(prepared.batches)
        wait_started = time.perf_counter()
        results = self.backend.drain(ticket)
        drain_wait = time.perf_counter() - wait_started
        fanout = (wait_started - dispatch_started) + drain_wait
        report = BatchReport(
            session_id=self.session_id,
            batch_id=self.batches_flushed,
            request_ids=tuple(prepared.request_ids),
            scans=prepared.scans,
            rays_cast=prepared.rays,
            ray_voxels_visited=prepared.visits,
            voxel_updates=prepared.voxel_updates,
            duplicates_removed=prepared.visits - prepared.voxel_updates,
            shard_updates=prepared.shard_updates,
            modelled_cycles=max((result.critical_path_cycles for result in results), default=0),
            wall_seconds=prepared.frontend_seconds + fanout,
            fanout_seconds=fanout,
            frontend_seconds=prepared.frontend_seconds,
            drain_wait_seconds=drain_wait,
            backend=self.backend.name,
            deadline_misses=prepared.deadline_misses,
        )
        self.batches_flushed += 1
        self.reports.append(report)
        self._account(report, prepared.points)
        return report

    def flush_all(self) -> List[BatchReport]:
        """Apply batches until the admission queue is empty."""
        reports: List[BatchReport] = []
        while self.scheduler:
            reports.append(self.flush())
        return reports

    # ------------------------------------------------------------------
    # Front end
    # ------------------------------------------------------------------
    def _prepare(self) -> _PreparedBatch:
        """Pop up to ``batch_size`` requests and run the ray-casting front end."""
        started = time.perf_counter()
        requests: List[ScanRequest] = []
        request_ids: List[int] = []
        scans = points = rays = 0
        converter = self.converter
        dda_counters = OperationCounters()
        deadline_misses = 0
        while self.scheduler and len(request_ids) < self.batch_size:
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

        # All popped scans ride one native call: the foreign-call overhead is
        # paid once per flush, not once per scan.
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
            deadline_misses=deadline_misses,
        )

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
        self.stats.shard_updates = list(self.backend.shard_load())
        # Absolute counters owned by the backend (non-zero on the socket
        # backend only), mirrored into the stats block like shard_updates.
        for counter, value in self.backend.failover_stats().items():
            setattr(self.stats, counter, value)
        if self.metrics is not None and self.metrics.enabled:
            # One record per dispatched batch: the apply/drain leg of the
            # ingest path, on the store's clock (drain time minus wall).
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
