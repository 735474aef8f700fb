"""Service statistics: per-session latency / throughput / cache counters.

Every map session owns a :class:`SessionStats` block that the ingestion
pipeline and query engine update in place; :class:`ServiceStats` holds the
blocks of all live sessions and draws each :class:`Table` of :data:`TABLES`
through the :mod:`repro.analysis.tables` helpers the paper drivers use.  The
``(+N more)`` rows and the service totals read the same declarations off one
pooled block (:func:`pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.tables import render_table
from repro.serving.cache import CacheStats

__all__ = ["SessionStats", "ServiceStats"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


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
    shard_updates: List[int] = field(default_factory=list)
    #: key-converter derivations by the front end: 1 per session; more flags a per-flush one.
    frontend_converter_builds: int = 0
    #: requests popped for a flush after their ``deadline_s`` (``time.monotonic``)
    #: had passed: queued too long behind earlier arrivals.
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
    #: submits refused over the tenant's ingest budget (``TenantQuotaExceeded``).
    quota_rejects: int = 0
    #: submits shed for a missed deadline before any backend work (``DeadlineShed``).
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
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def dedup_fraction(self) -> float:
        """Share of ray-voxel visits removed by de-duplication."""
        return _ratio(self.duplicates_removed, self.ray_voxels_visited)

    @property
    def fanout_fraction(self) -> float:
        """Share of ingest wall time spent inside the execution backend."""
        return _ratio(self.fanout_wall_seconds, self.ingest_wall_seconds)

    @property
    def frontend_fraction(self) -> float:
        """Share of ingest wall time spent in the ray-casting front end."""
        return _ratio(self.frontend_wall_seconds, self.ingest_wall_seconds)

    @property
    def shard_utilization(self) -> float:
        """Mean shard load over the busiest shard's: 1.0 is perfectly balanced,
        ``1/num_shards`` is one shard doing all the work, 0.0 is no work yet."""
        loads = self.shard_updates
        return _ratio(_ratio(sum(loads), len(loads)), max(loads, default=0))

    @property
    def wall_updates_per_second(self) -> float:
        """Host-side sustained voxel-update throughput (wall clock)."""
        return _ratio(self.voxel_updates, self.ingest_wall_seconds)

    @property
    def mean_admission_wait_seconds(self) -> float:
        """Mean time a backpressured async submit waited for queue space."""
        return _ratio(self.admission_wait_seconds, self.admission_waits)

    def to_dict(self) -> dict:
        """This session's counters as JSON: the ``/v1/sessions/{sid}`` body and
        one entry of ``/v1/stats`` and the ``--metrics-json`` dump."""
        cache = self.cache
        return {
            "session_id": self.session_id, "backend": self.backend_name, "num_shards": self.num_shards,
            "ingest": {
                "scans": self.scans_ingested, "points": self.points_ingested, "rays_cast": self.rays_cast,
                "voxel_updates": self.voxel_updates, "duplicates_removed": self.duplicates_removed,
                "batches": self.batches_dispatched, "deadline_misses": self.deadline_misses,
                "modelled_cycles": self.modelled_ingest_cycles, "wall_seconds": self.ingest_wall_seconds,
                "updates_per_second_wall": self.wall_updates_per_second,
                "shard_updates": list(self.shard_updates),
            },
            "admission": {
                "async_submits": self.async_submits, "waits": self.admission_waits,
                "wait_seconds": self.admission_wait_seconds, "rejects": self.queue_rejects,
                "quota_rejects": self.quota_rejects, "shed_requests": self.shed_requests,
                "queue_high_water": self.admission_queue_high_water, "flusher_cycles": self.flusher_cycles,
            },
            "failover": {
                "snapshots_taken": self.snapshots_taken, "failovers": self.failovers,
                "replayed_batches": self.replayed_batches, "replayed_updates": self.replayed_updates,
                "recovery_wall_seconds": self.recovery_wall_seconds,
                "heartbeat_probes": self.heartbeat_probes, "heartbeat_failures": self.heartbeat_failures,
            },
            "queries": {
                "point": self.point_queries, "batch": self.batch_queries,
                "bbox": self.bbox_queries, "raycast": self.raycast_queries,
                "cache_hits": cache.hits, "cache_misses": cache.misses, "cache_hit_rate": cache.hit_rate,
                "bbox_cache_hits": cache.bbox_hits, "bbox_cache_misses": cache.bbox_misses,
                "bbox_cache_hit_rate": cache.bbox_hit_rate,
            },
        }


@dataclass
class _PooledStats(SessionStats):
    """The block :func:`pool` returns."""

    #: the pooled sessions' mean: loads of different shard counts make no one vector.
    shard_utilization: float = 0.0


def pool(blocks: List[SessionStats]) -> SessionStats:
    """``blocks`` as one block labelled ``(+N more)``, backend ``-``.

    Every numeric counter is summed (in ``blocks`` order), the cache's too, so
    each rate read off the block is pooled -- except the admission queue
    high-water (the max) and shard utilization (the mean).
    """
    def total(items, f):
        return sum((getattr(item, f.name) for item in items), f.default)

    counters = {f.name: total(blocks, f) for f in fields(SessionStats) if type(f.default) in (int, float)}
    counters["admission_queue_high_water"] = max((b.admission_queue_high_water for b in blocks), default=0)
    return _PooledStats(
        session_id=f"(+{len(blocks)} more)",
        backend_name="-",
        cache=CacheStats(**{f.name: total([b.cache for b in blocks], f) for f in fields(CacheStats)}),
        shard_utilization=_ratio(sum(b.shard_utilization for b in blocks), len(blocks)),
        **counters,
    )


def _cell(stats: SessionStats, attribute: str, scale: Optional[float] = None) -> object:
    value = attrgetter(attribute)(stats)
    return value if scale is None else scale * value


class Table(NamedTuple):
    """One rendered table, declared as data.

    After the session id, each column is ``(header, attribute[, scale])``: the
    cell is the (dotted) attribute of a block, times ``scale``.  Sessions rank
    by the sum of their ``traffic`` counters.  With ``shows``, the table lists
    only sessions with one of those counters non-zero, and none means no table.
    """

    title: str
    traffic: Tuple[str, ...]
    columns: Tuple[tuple, ...]
    shows: Tuple[str, ...] = ()

    def row(self, stats: SessionStats) -> Tuple[object, ...]:
        """The cells of one block: a session's, or a :func:`pool` of several."""
        return (stats.session_id, *(_cell(stats, *column[1:]) for column in self.columns))


#: ``ServiceStats.to_dict()["totals"]`` after ``num_sessions``: key -> attribute of the pooled block.
TOTALS: Dict[str, str] = {
    "voxel_updates": "voxel_updates", "point_queries": "point_queries", "cache_hit_rate": "cache.hit_rate",
    "deadline_misses": "deadline_misses", "queue_rejects": "queue_rejects", "quota_rejects": "quota_rejects",
    "shed_requests": "shed_requests", "snapshots_taken": "snapshots_taken", "failovers": "failovers",
}

TABLES: Tuple[Table, ...] = (
    Table("Serving: ingestion per session", ("scans_ingested",), (
        ("Scans", "scans_ingested"), ("Points", "points_ingested"), ("Updates", "voxel_updates"),
        ("Dedup (%)", "dedup_fraction", 100.0), ("Batches", "batches_dispatched"),
        ("Deadline misses", "deadline_misses"), ("Modelled cycles", "modelled_ingest_cycles"),
        ("Wall (s)", "ingest_wall_seconds"),
    )),
    Table("Serving: queries per session", ("point_queries", "raycast_queries", "bbox_queries"), (
        ("Point queries", "point_queries"), ("Raycasts", "raycast_queries"), ("Bbox", "bbox_queries"),
        ("Cache hits", "cache.hits"), ("Cache misses", "cache.misses"),
        ("Hit rate (%)", "cache.hit_rate", 100.0), ("Stale drops", "cache.stale_hits"),
        ("Bbox hits", "cache.bbox_hits"),
    )),
    Table("Serving: execution backend per session", ("voxel_updates",), (
        ("Backend", "backend_name"), ("Shards", "num_shards"), ("Fan-out (s)", "fanout_wall_seconds"),
        ("Fan-out (% wall)", "fanout_fraction", 100.0), ("Front end (% wall)", "frontend_fraction", 100.0),
        ("Utilization (%)", "shard_utilization", 100.0), ("Updates/s (wall)", "wall_updates_per_second"),
    )),
    Table("Serving: async admission per session", ("async_submits",), (
        ("Async submits", "async_submits"), ("Waits", "admission_waits"),
        ("Wait (s)", "admission_wait_seconds"), ("Mean wait (ms)", "mean_admission_wait_seconds", 1e3),
        ("Rejects", "queue_rejects"), ("Quota rejects", "quota_rejects"), ("Shed", "shed_requests"),
        ("Queue high-water", "admission_queue_high_water"),
    ), shows=("async_submits", "queue_rejects", "quota_rejects", "shed_requests")),
    Table("Serving: snapshots and failover per session", ("failovers", "snapshots_taken", "heartbeat_probes"), (
        ("Snapshots", "snapshots_taken"), ("Failovers", "failovers"),
        ("Replayed batches", "replayed_batches"), ("Replayed updates", "replayed_updates"),
        ("Recovery wall (ms)", "recovery_wall_seconds", 1e3),
        ("Heartbeats", "heartbeat_probes"), ("Missed", "heartbeat_failures"),
    ), shows=("snapshots_taken", "failovers", "heartbeat_probes")),
)


class ServiceStats:
    """Aggregated view over every session's counter block."""

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
        """Every session's block, in session-id order."""
        return iter(sorted(self._sessions.values(), key=lambda s: s.session_id))

    def __len__(self) -> int:
        return len(self._sessions)

    def totals(self) -> SessionStats:
        """Every session's counters pooled into one block (see :func:`pool`)."""
        return pool(list(self))

    def to_dict(self) -> dict:
        """Every session's counters plus the :meth:`totals`, JSON-ready: the
        ``/v1/stats`` body and the stats half of the ``--metrics-json`` dump."""
        totals = self.totals()
        return {
            "sessions": [stats.to_dict() for stats in self],
            "totals": {"num_sessions": len(self), **{key: _cell(totals, name) for key, name in TOTALS.items()}},
        }

    def render(self, top_sessions: int = 10) -> str:
        """Every table of :data:`TABLES` as one printable block.

        Each table shows at most ``top_sessions`` rows -- its busiest sessions
        by traffic, in id order -- plus one ``(+N more)`` row pooling the rest;
        ``top_sessions <= 0`` shows every session.
        """
        block = []
        for table in TABLES:
            listed = [s for s in self if not table.shows or any(getattr(s, name) for name in table.shows)]
            if table.shows and not listed:
                continue
            title, rows = table.title, listed
            if 0 < top_sessions < len(listed):
                ranked = sorted(listed, key=lambda s: sum(getattr(s, name) for name in table.traffic), reverse=True)
                top = {id(s) for s in ranked[:top_sessions]}
                rows = [s for s in listed if id(s) in top]
                rows.append(pool([s for s in listed if id(s) not in top]))
                title = f"{title} (top {top_sessions} of {len(listed)} by traffic)"
            headers = ("Session", *(column[0] for column in table.columns))
            block.append(render_table(title, headers, [table.row(s) for s in rows]))
        return "\n\n".join(block)
