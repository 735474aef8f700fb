"""Service statistics: per-session latency / throughput / cache counters.

Every map session owns a :class:`SessionStats` block that the ingestion
pipeline and query engine update in place; :class:`ServiceStats` aggregates
the blocks of all live sessions and renders them through the same
:mod:`repro.analysis.tables` helpers the paper-reproduction experiment
drivers use, so service dashboards and paper tables share one look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.tables import render_table
from repro.serving.cache import CacheStats

__all__ = ["SessionStats", "ServiceStats"]


@dataclass
class SessionStats:
    """Counters of one map session.

    Ingestion counters are updated per dispatched batch; query counters per
    served query.  ``modelled_*`` figures come from the accelerator cycle
    model (what the hardware would take), ``wall_seconds`` measures the
    Python host process.
    """

    session_id: str = ""
    backend_name: str = "inline"
    num_shards: int = 0
    # --- ingestion ---
    scans_ingested: int = 0
    points_ingested: int = 0
    rays_cast: int = 0
    ray_voxels_visited: int = 0
    voxel_updates: int = 0
    duplicates_removed: int = 0
    batches_dispatched: int = 0
    modelled_ingest_cycles: int = 0
    ingest_wall_seconds: float = 0.0
    fanout_wall_seconds: float = 0.0
    frontend_wall_seconds: float = 0.0
    drain_wait_seconds: float = 0.0
    shard_updates: List[int] = field(default_factory=list)
    #: key-converter derivations by the ingestion front end; exactly 1 per
    #: session (the pipeline hoists the converter out of the batch loop), so
    #: any larger value flags a regression back to per-flush derivation.
    frontend_converter_builds: int = 0
    queue_high_water: int = 0
    #: requests whose ``deadline_s`` (``time.monotonic`` clock) had already
    #: passed when the scheduler popped them for a flush -- the QoS figure
    #: the deadline scheduler is meant to minimise.
    deadline_misses: int = 0
    # --- async admission (filled by repro.serving.aio) ---
    #: requests accepted through the asyncio front end.
    async_submits: int = 0
    #: submits that found their admission queue full and had to wait.
    admission_waits: int = 0
    #: total time submitters spent blocked on a full admission queue.
    admission_wait_seconds: float = 0.0
    #: submits rejected outright (``wait=False`` against a full queue).
    queue_rejects: int = 0
    #: submits refused because the session's tenant was over its ingest
    #: budget (:class:`repro.serving.metrics.qos.TenantQuotaExceeded`).
    quota_rejects: int = 0
    #: submits dropped by deadline-miss shedding before any backend work
    #: (:class:`repro.serving.metrics.qos.DeadlineShed`).
    shed_requests: int = 0
    #: deepest the bounded asyncio admission queue ever got.
    admission_queue_high_water: int = 0
    #: flush cycles completed by the session's background flusher task.
    flusher_cycles: int = 0
    # --- failover (socket backend; copied from ShardBackend.failover_stats) ---
    #: shard snapshots taken at the snapshot cadence.
    snapshots_taken: int = 0
    #: completed shard recoveries (dead worker re-homed, map replayed).
    failovers: int = 0
    #: un-snapshotted batches replayed onto replacement workers.
    replayed_batches: int = 0
    #: voxel updates inside those replayed batches.
    replayed_updates: int = 0
    #: total kill-detection to recovered wall-clock time.
    recovery_wall_seconds: float = 0.0
    #: liveness pings sent to quiet shard connections.
    heartbeat_probes: int = 0
    #: pings that missed their deadline and triggered recovery.
    heartbeat_failures: int = 0
    # --- queries ---
    point_queries: int = 0
    batch_queries: int = 0
    bbox_queries: int = 0
    raycast_queries: int = 0
    modelled_query_cycles: int = 0
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def dedup_fraction(self) -> float:
        """Share of ray-voxel visits removed by de-duplication."""
        if self.ray_voxels_visited == 0:
            return 0.0
        return self.duplicates_removed / self.ray_voxels_visited

    @property
    def updates_per_scan(self) -> float:
        """Mean voxel updates dispatched per ingested scan."""
        if self.scans_ingested == 0:
            return 0.0
        return self.voxel_updates / self.scans_ingested

    def modelled_ingest_seconds(self, clock_hz: float) -> float:
        """Modelled hardware ingestion time at a given clock."""
        return self.modelled_ingest_cycles / clock_hz

    def modelled_updates_per_second(self, clock_hz: float) -> float:
        """Modelled sustained voxel-update throughput."""
        seconds = self.modelled_ingest_seconds(clock_hz)
        if seconds <= 0.0:
            return 0.0
        return self.voxel_updates / seconds

    @property
    def fanout_fraction(self) -> float:
        """Share of ingest wall time spent inside the execution backend."""
        if self.ingest_wall_seconds <= 0.0:
            return 0.0
        return self.fanout_wall_seconds / self.ingest_wall_seconds

    @property
    def frontend_fraction(self) -> float:
        """Share of ingest wall time spent in the ray-casting front end."""
        if self.ingest_wall_seconds <= 0.0:
            return 0.0
        return self.frontend_wall_seconds / self.ingest_wall_seconds

    @property
    def shard_utilization(self) -> float:
        """Worker utilization: mean shard load over the busiest shard's load.

        1.0 means perfectly balanced shards (every worker as busy as the
        critical one); ``1/num_shards`` means one shard did all the work.
        0.0 when nothing was ingested yet.
        """
        if not self.shard_updates:
            return 0.0
        busiest = max(self.shard_updates)
        if busiest == 0:
            return 0.0
        mean = sum(self.shard_updates) / len(self.shard_updates)
        return mean / busiest

    @property
    def wall_updates_per_second(self) -> float:
        """Host-side sustained voxel-update throughput (wall clock)."""
        if self.ingest_wall_seconds <= 0.0:
            return 0.0
        return self.voxel_updates / self.ingest_wall_seconds

    @property
    def mean_admission_wait_seconds(self) -> float:
        """Mean time a backpressured async submit waited for queue space."""
        if self.admission_waits == 0:
            return 0.0
        return self.admission_wait_seconds / self.admission_waits

    def to_dict(self) -> dict:
        """This session's counters as machine-readable JSON.

        The single source of truth shared by the rendered ASCII tables, the
        HTTP stats routes (``/v1/stats``, ``/v1/sessions/{sid}``) and the
        ``--metrics-json`` dump -- same counters, three surfaces.
        """
        return {
            "session_id": self.session_id,
            "backend": self.backend_name,
            "num_shards": self.num_shards,
            "ingest": {
                "scans": self.scans_ingested,
                "points": self.points_ingested,
                "rays_cast": self.rays_cast,
                "voxel_updates": self.voxel_updates,
                "duplicates_removed": self.duplicates_removed,
                "batches": self.batches_dispatched,
                "deadline_misses": self.deadline_misses,
                "modelled_cycles": self.modelled_ingest_cycles,
                "wall_seconds": self.ingest_wall_seconds,
                "updates_per_second_wall": self.wall_updates_per_second,
                "shard_updates": list(self.shard_updates),
            },
            "admission": {
                "async_submits": self.async_submits,
                "waits": self.admission_waits,
                "wait_seconds": self.admission_wait_seconds,
                "rejects": self.queue_rejects,
                "quota_rejects": self.quota_rejects,
                "shed_requests": self.shed_requests,
                "queue_high_water": self.admission_queue_high_water,
                "flusher_cycles": self.flusher_cycles,
            },
            "failover": {
                "snapshots_taken": self.snapshots_taken,
                "failovers": self.failovers,
                "replayed_batches": self.replayed_batches,
                "replayed_updates": self.replayed_updates,
                "recovery_wall_seconds": self.recovery_wall_seconds,
                "heartbeat_probes": self.heartbeat_probes,
                "heartbeat_failures": self.heartbeat_failures,
            },
            "queries": {
                "point": self.point_queries,
                "batch": self.batch_queries,
                "bbox": self.bbox_queries,
                "raycast": self.raycast_queries,
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_hit_rate": self.cache.hit_rate,
                "bbox_cache_hits": self.cache.bbox_hits,
                "bbox_cache_misses": self.cache.bbox_misses,
                "bbox_cache_hit_rate": self.cache.bbox_hit_rate,
            },
        }


class ServiceStats:
    """Aggregated view over every session's counter block."""

    INGEST_HEADERS: Tuple[str, ...] = (
        "Session",
        "Scans",
        "Points",
        "Updates",
        "Dedup (%)",
        "Batches",
        "Deadline misses",
        "Modelled cycles",
        "Wall (s)",
    )
    QUERY_HEADERS: Tuple[str, ...] = (
        "Session",
        "Point queries",
        "Raycasts",
        "Bbox",
        "Cache hits",
        "Cache misses",
        "Hit rate (%)",
        "Stale drops",
        "Bbox hits",
    )
    ADMISSION_HEADERS: Tuple[str, ...] = (
        "Session",
        "Async submits",
        "Waits",
        "Wait (s)",
        "Mean wait (ms)",
        "Rejects",
        "Quota rejects",
        "Shed",
        "Queue high-water",
    )
    FAILOVER_HEADERS: Tuple[str, ...] = (
        "Session",
        "Snapshots",
        "Failovers",
        "Replayed batches",
        "Replayed updates",
        "Recovery wall (ms)",
        "Heartbeats",
        "Missed",
    )
    BACKEND_HEADERS: Tuple[str, ...] = (
        "Session",
        "Backend",
        "Shards",
        "Fan-out (s)",
        "Fan-out (% wall)",
        "Front end (% wall)",
        "Utilization (%)",
        "Updates/s (wall)",
    )

    def __init__(self) -> None:
        self._sessions: Dict[str, SessionStats] = {}

    def register(self, stats: SessionStats) -> SessionStats:
        """Track one session's counter block (idempotent by session id)."""
        self._sessions[stats.session_id] = stats
        return stats

    def forget(self, session_id: str) -> None:
        """Stop tracking a closed session."""
        self._sessions.pop(session_id, None)

    def __iter__(self):
        return iter(self._sessions.values())

    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, session_id: str) -> SessionStats:
        """Counter block of one session."""
        return self._sessions[session_id]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_voxel_updates(self) -> int:
        """Voxel updates dispatched across all sessions."""
        return sum(stats.voxel_updates for stats in self)

    def total_queries(self) -> int:
        """Point queries served across all sessions."""
        return sum(stats.point_queries for stats in self)

    def overall_hit_rate(self) -> float:
        """Cache hit rate pooled over all sessions."""
        hits = sum(stats.cache.hits for stats in self)
        lookups = sum(stats.cache.lookups for stats in self)
        if lookups == 0:
            return 0.0
        return hits / lookups

    def to_dict(self) -> dict:
        """Every session's counters plus service totals, JSON-ready.

        The same numbers :meth:`render` draws as ASCII tables -- the stats
        half of the ``--metrics-json`` dump and the ``/v1/stats`` body, so
        tables, HTTP, and dashboards read one source of truth.
        """
        sessions = [
            stats.to_dict() for stats in sorted(self, key=lambda s: s.session_id)
        ]
        return {
            "sessions": sessions,
            "totals": {
                "num_sessions": len(self),
                "voxel_updates": self.total_voxel_updates(),
                "point_queries": self.total_queries(),
                "cache_hit_rate": self.overall_hit_rate(),
                "deadline_misses": sum(stats.deadline_misses for stats in self),
                "queue_rejects": sum(stats.queue_rejects for stats in self),
                "quota_rejects": sum(stats.quota_rejects for stats in self),
                "shed_requests": sum(stats.shed_requests for stats in self),
                "snapshots_taken": sum(stats.snapshots_taken for stats in self),
                "failovers": sum(stats.failovers for stats in self),
            },
        }

    # ------------------------------------------------------------------
    # Rendering (plugs into the repro.analysis table style)
    # ------------------------------------------------------------------
    @staticmethod
    def _ingest_row(stats: SessionStats) -> Tuple[object, ...]:
        return (
            stats.session_id,
            stats.scans_ingested,
            stats.points_ingested,
            stats.voxel_updates,
            100.0 * stats.dedup_fraction,
            stats.batches_dispatched,
            stats.deadline_misses,
            stats.modelled_ingest_cycles,
            stats.ingest_wall_seconds,
        )

    @staticmethod
    def _query_row(stats: SessionStats) -> Tuple[object, ...]:
        return (
            stats.session_id,
            stats.point_queries,
            stats.raycast_queries,
            stats.bbox_queries,
            stats.cache.hits,
            stats.cache.misses,
            100.0 * stats.cache.hit_rate,
            stats.cache.stale_hits,
            stats.cache.bbox_hits,
        )

    @staticmethod
    def _admission_row(stats: SessionStats) -> Tuple[object, ...]:
        return (
            stats.session_id,
            stats.async_submits,
            stats.admission_waits,
            stats.admission_wait_seconds,
            1e3 * stats.mean_admission_wait_seconds,
            stats.queue_rejects,
            stats.quota_rejects,
            stats.shed_requests,
            stats.admission_queue_high_water,
        )

    @staticmethod
    def _failover_row(stats: SessionStats) -> Tuple[object, ...]:
        return (
            stats.session_id,
            stats.snapshots_taken,
            stats.failovers,
            stats.replayed_batches,
            stats.replayed_updates,
            1e3 * stats.recovery_wall_seconds,
            stats.heartbeat_probes,
            stats.heartbeat_failures,
        )

    @staticmethod
    def _backend_row(stats: SessionStats) -> Tuple[object, ...]:
        return (
            stats.session_id,
            stats.backend_name,
            stats.num_shards,
            stats.fanout_wall_seconds,
            100.0 * stats.fanout_fraction,
            100.0 * stats.frontend_fraction,
            100.0 * stats.shard_utilization,
            stats.wall_updates_per_second,
        )

    @staticmethod
    def _has_admission_traffic(stats: SessionStats) -> bool:
        return bool(
            stats.async_submits
            or stats.queue_rejects
            or stats.quota_rejects
            or stats.shed_requests
        )

    @staticmethod
    def _has_failover_traffic(stats: SessionStats) -> bool:
        return bool(stats.snapshots_taken or stats.failovers or stats.heartbeat_probes)

    def ingest_rows(self) -> List[Tuple[object, ...]]:
        """Table rows of the ingestion-side counters (all sessions)."""
        return [self._ingest_row(s) for s in sorted(self, key=lambda s: s.session_id)]

    def query_rows(self) -> List[Tuple[object, ...]]:
        """Table rows of the query-side counters (all sessions)."""
        return [self._query_row(s) for s in sorted(self, key=lambda s: s.session_id)]

    def admission_rows(self) -> List[Tuple[object, ...]]:
        """Table rows of the asyncio admission counters (async sessions only)."""
        return [
            self._admission_row(s)
            for s in sorted(self, key=lambda s: s.session_id)
            if self._has_admission_traffic(s)
        ]

    def failover_rows(self) -> List[Tuple[object, ...]]:
        """Table rows of snapshot/failover counters (sessions that used them)."""
        return [
            self._failover_row(s)
            for s in sorted(self, key=lambda s: s.session_id)
            if self._has_failover_traffic(s)
        ]

    def backend_rows(self) -> List[Tuple[object, ...]]:
        """Table rows of the execution-backend counters (all sessions)."""
        return [self._backend_row(s) for s in sorted(self, key=lambda s: s.session_id)]

    # ------------------------------------------------------------------
    # Top-K selection (render() stays readable at hundreds of sessions)
    # ------------------------------------------------------------------
    @staticmethod
    def _select(
        stats_list: List[SessionStats], traffic, top_sessions: int
    ) -> Tuple[List[SessionStats], List[SessionStats]]:
        """Split into (shown, folded): top-K by traffic, id-sorted for display."""
        if top_sessions <= 0 or len(stats_list) <= top_sessions:
            return stats_list, []
        ranked = sorted(stats_list, key=traffic, reverse=True)
        top = {id(s) for s in ranked[:top_sessions]}
        shown = [s for s in stats_list if id(s) in top]
        folded = [s for s in stats_list if id(s) not in top]
        return shown, folded

    @staticmethod
    def _ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    def _ingest_aggregate(self, folded: List[SessionStats]) -> Tuple[object, ...]:
        visited = sum(s.ray_voxels_visited for s in folded)
        removed = sum(s.duplicates_removed for s in folded)
        return (
            f"(+{len(folded)} more)",
            sum(s.scans_ingested for s in folded),
            sum(s.points_ingested for s in folded),
            sum(s.voxel_updates for s in folded),
            100.0 * self._ratio(removed, visited),
            sum(s.batches_dispatched for s in folded),
            sum(s.deadline_misses for s in folded),
            sum(s.modelled_ingest_cycles for s in folded),
            sum(s.ingest_wall_seconds for s in folded),
        )

    def _query_aggregate(self, folded: List[SessionStats]) -> Tuple[object, ...]:
        hits = sum(s.cache.hits for s in folded)
        lookups = sum(s.cache.lookups for s in folded)
        return (
            f"(+{len(folded)} more)",
            sum(s.point_queries for s in folded),
            sum(s.raycast_queries for s in folded),
            sum(s.bbox_queries for s in folded),
            hits,
            sum(s.cache.misses for s in folded),
            100.0 * self._ratio(hits, lookups),
            sum(s.cache.stale_hits for s in folded),
            sum(s.cache.bbox_hits for s in folded),
        )

    def _admission_aggregate(self, folded: List[SessionStats]) -> Tuple[object, ...]:
        waits = sum(s.admission_waits for s in folded)
        wait_seconds = sum(s.admission_wait_seconds for s in folded)
        return (
            f"(+{len(folded)} more)",
            sum(s.async_submits for s in folded),
            waits,
            wait_seconds,
            1e3 * self._ratio(wait_seconds, waits),
            sum(s.queue_rejects for s in folded),
            sum(s.quota_rejects for s in folded),
            sum(s.shed_requests for s in folded),
            max(s.admission_queue_high_water for s in folded),
        )

    def _failover_aggregate(self, folded: List[SessionStats]) -> Tuple[object, ...]:
        return (
            f"(+{len(folded)} more)",
            sum(s.snapshots_taken for s in folded),
            sum(s.failovers for s in folded),
            sum(s.replayed_batches for s in folded),
            sum(s.replayed_updates for s in folded),
            1e3 * sum(s.recovery_wall_seconds for s in folded),
            sum(s.heartbeat_probes for s in folded),
            sum(s.heartbeat_failures for s in folded),
        )

    def _backend_aggregate(self, folded: List[SessionStats]) -> Tuple[object, ...]:
        wall = sum(s.ingest_wall_seconds for s in folded)
        fanout = sum(s.fanout_wall_seconds for s in folded)
        frontend = sum(s.frontend_wall_seconds for s in folded)
        return (
            f"(+{len(folded)} more)",
            "-",
            sum(s.num_shards for s in folded),
            fanout,
            100.0 * self._ratio(fanout, wall),
            100.0 * self._ratio(frontend, wall),
            100.0 * self._ratio(
                sum(s.shard_utilization for s in folded), len(folded)
            ),
            self._ratio(sum(s.voxel_updates for s in folded), wall),
        )

    def _table(
        self,
        title: str,
        headers: Tuple[str, ...],
        stats_list: List[SessionStats],
        row,
        aggregate,
        traffic,
        top_sessions: int,
    ) -> str:
        shown, folded = self._select(stats_list, traffic, top_sessions)
        rows = [row(s) for s in shown]
        if folded:
            rows.append(aggregate(folded))
            title = f"{title} (top {len(shown)} of {len(stats_list)} by traffic)"
        return render_table(title, headers, rows)

    def render(self, top_sessions: int = 10) -> str:
        """All counter tables as one printable block.

        At high session counts a flat dump is unreadable, so each table
        shows at most ``top_sessions`` rows -- the busiest sessions by that
        table's traffic metric -- plus one aggregate row folding the rest
        (sums, with rates pooled over the folded sessions).
        :meth:`to_dict` is unaffected and always carries every session.
        ``top_sessions <= 0`` disables the folding.
        """
        sessions = sorted(self, key=lambda s: s.session_id)
        block = self._table(
            "Serving: ingestion per session",
            self.INGEST_HEADERS,
            sessions,
            self._ingest_row,
            self._ingest_aggregate,
            lambda s: s.scans_ingested,
            top_sessions,
        )
        block += "\n\n" + self._table(
            "Serving: queries per session",
            self.QUERY_HEADERS,
            sessions,
            self._query_row,
            self._query_aggregate,
            lambda s: s.point_queries + s.raycast_queries + s.bbox_queries,
            top_sessions,
        )
        block += "\n\n" + self._table(
            "Serving: execution backend per session",
            self.BACKEND_HEADERS,
            sessions,
            self._backend_row,
            self._backend_aggregate,
            lambda s: s.voxel_updates,
            top_sessions,
        )
        admission_sessions = [s for s in sessions if self._has_admission_traffic(s)]
        if admission_sessions:
            block += "\n\n" + self._table(
                "Serving: async admission per session",
                self.ADMISSION_HEADERS,
                admission_sessions,
                self._admission_row,
                self._admission_aggregate,
                lambda s: s.async_submits,
                top_sessions,
            )
        failover_sessions = [s for s in sessions if self._has_failover_traffic(s)]
        if failover_sessions:
            block += "\n\n" + self._table(
                "Serving: snapshots and failover per session",
                self.FAILOVER_HEADERS,
                failover_sessions,
                self._failover_row,
                self._failover_aggregate,
                lambda s: s.failovers + s.snapshots_taken + s.heartbeat_probes,
                top_sessions,
            )
        return block
