"""Map sessions: one tenant's map, sharded over an execution backend.

A :class:`MapSession` is the unit of multi-tenancy: it holds a lease on a
pool of shard workers behind the :class:`~repro.serving.backends.
ShardBackend` contract (inline, thread pool, worker processes, or TCP
workers with live failover), partitioned by octree-key
prefix, an ingestion pipeline feeding them, a cached query engine reading
them, and a stats block recording everything.  Sessions never share map
state: every shard of every session is its own hosted worker, whether the
pool executing it is private to the session or shared by a whole
:class:`~repro.serving.manager.MapSessionManager`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DEFAULT_CONFIG, OMUConfig
from repro.octomap.merge import merge_trees
from repro.octomap.octree import OccupancyOcTree
from repro.serving.backends import BACKEND_NAMES, ShardBackend, make_backend
from repro.serving.batching import IngestionPipeline
from repro.serving.cache import GenerationLRUCache
from repro.serving.query_engine import QueryEngine
from repro.serving.sharding import MapShardWorker, ShardRouter
from repro.serving.stats import SessionStats
from repro.serving.types import BatchReport, IngestReceipt, ScanRequest

__all__ = ["SessionConfig", "MapSession"]


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one map session.

    Not settings: the shard routing prefix (derived from the tree depth),
    the query cache sizes (4096 points, 64 box sweeps) and the beam
    truncation (a request's own ``max_range``; none when it sets none).

    Attributes:
        num_shards: map shard workers in the session's pool.  Keys are
            routed by their 16x16x16-voxel block (the prefix depth follows
            from ``accelerator.tree_depth``, see
            :class:`~repro.serving.sharding.ShardRouter`), so a shallow tree
            caps how many shards it can feed.
        backend: shard execution backend -- ``"inline"`` (serial reference),
            ``"thread"`` (concurrent fan-out, GIL-bound), ``"process"``
            (one worker process per shard, true CPU parallelism) or
            ``"socket"`` (one TCP worker per shard with snapshots and live
            failover).  See :mod:`repro.serving.backends` for when to pick
            each.
        mp_start_method: ``multiprocessing`` start method for the process
            backend (``None`` picks ``fork`` where available).
        batch_size: scans coalesced per ingestion batch.
        accelerator: configuration of every shard's accelerator (resolution,
            PE count, fixed point, ...).
        admission_queue_limit: depth of the bounded per-session admission
            queue of the asyncio front end (:mod:`repro.serving.aio`).  A
            submit against a full queue either waits (backpressure) or is
            rejected, never grows the queue without bound; the synchronous
            path ignores this knob.
        tenant: accounting principal this session bills to.  Sessions
            sharing a tenant share one quota bucket and roll up together in
            the metrics pipeline; empty (the default) means "the session is
            its own tenant" -- per-session isolation.
        quota_points_per_s: sustained per-tenant ingest budget in scan
            points per second, enforced at async admission
            (:class:`repro.serving.metrics.qos.TenantQuotaRegistry`).
            ``0`` (the default) disables the quota.
        quota_burst_s: quota bucket capacity as seconds of budget -- after
            idling, a tenant may burst ``quota_points_per_s * quota_burst_s``
            points at once.
        workers: ``host:port`` endpoints of ``repro-serve-worker`` processes
            for the ``"socket"`` backend, in shard order; endpoints beyond
            ``num_shards`` are standbys for failover.  Empty (the default)
            spawns local in-process workers automatically.  Ignored by the
            other backends.
        standby_workers: extra local workers to spawn as failover targets
            when ``workers`` is empty (socket backend only).
        snapshot_every_batches: shard snapshot cadence of the socket
            backend -- after this many acknowledged update batches a shard's
            subtree is snapshotted and its replay tail truncated, bounding
            the replay work (and stall) of a failover.
        heartbeat_interval_s: minimum quiet time on a shard connection
            before the socket backend probes it with a liveness ping.
        heartbeat_timeout_s: reply deadline of a liveness ping; a missed
            deadline triggers shard recovery.
        fleet_workers: size of the *shared* backend fleet.  ``0`` (the
            default) means not shared -- every session leases from a private
            pool of ``num_shards`` slots, so N sessions cost N x num_shards
            workers.  A positive value makes the owning
            :class:`~repro.serving.manager.MapSessionManager` run one
            :class:`~repro.serving.fleet.BackendPool` of this many execution
            slots per backend kind and hand each session a lease on it
            (a :class:`~repro.serving.backends.ShardBackend`) instead, so
            any number of sessions share O(fleet_workers) OS resources.
    """

    num_shards: int = 2
    backend: str = "inline"
    mp_start_method: Optional[str] = None
    batch_size: int = 8
    accelerator: OMUConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    admission_queue_limit: int = 64
    tenant: str = ""
    quota_points_per_s: float = 0.0
    quota_burst_s: float = 1.0
    workers: Tuple[str, ...] = ()
    standby_workers: int = 1
    snapshot_every_batches: int = 8
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 5.0
    fleet_workers: int = 0

    def __post_init__(self) -> None:
        # NaN passes every range check below, so non-finite values go first.
        for name in (
            "quota_points_per_s",
            "quota_burst_s",
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.fleet_workers < 0:
            raise ValueError("fleet_workers must be non-negative (0 = private pool)")
        if self.admission_queue_limit < 1:
            raise ValueError("admission_queue_limit must be at least 1")
        if self.quota_points_per_s < 0.0:
            raise ValueError("quota_points_per_s must be non-negative (0 disables)")
        if self.quota_burst_s <= 0.0:
            raise ValueError("quota_burst_s must be positive")
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {', '.join(BACKEND_NAMES)}"
            )
        if self.standby_workers < 0:
            raise ValueError("standby_workers must be non-negative")
        if self.snapshot_every_batches < 1:
            raise ValueError("snapshot_every_batches must be at least 1")
        if self.heartbeat_interval_s <= 0.0 or self.heartbeat_timeout_s <= 0.0:
            raise ValueError("heartbeat interval and timeout must be positive")
        if self.workers and self.backend != "socket":
            raise ValueError("workers endpoints are only meaningful with backend='socket'")

    def with_resolution(self, resolution_m: float) -> "SessionConfig":
        """Copy with a different map resolution on every shard."""
        return replace(self, accelerator=self.accelerator.with_resolution(resolution_m))

    def pool_options(self) -> Dict[str, object]:
        """The fields that shape a :class:`~repro.serving.fleet.BackendPool`
        of this config's backend kind, as its keyword arguments -- used alike
        for the session's private pool and a manager's shared one.

        Only what the kind consumes: configs that differ in a field their
        backend ignores describe the same pool (and share one fleet).
        """
        if self.backend == "process":
            return {"start_method": self.mp_start_method}
        if self.backend == "socket":
            return {
                "endpoints": self.workers,
                "standby_workers": self.standby_workers,
                "snapshot_every_batches": self.snapshot_every_batches,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "heartbeat_timeout_s": self.heartbeat_timeout_s,
            }
        return {}

    def resolved_tenant(self, session_id: str) -> str:
        """The accounting principal: ``tenant``, or the session id when unset."""
        return self.tenant or session_id


class MapSession:
    """One named occupancy map served by a sharded worker pool."""

    def __init__(
        self,
        session_id: str,
        config: Optional[SessionConfig] = None,
        metrics=None,
        backend_pool=None,
    ) -> None:
        if not session_id:
            raise ValueError("session_id must be a non-empty string")
        self.session_id = session_id
        self.config = config if config is not None else SessionConfig()
        #: accounting principal (``config.tenant`` or the session id).
        self.tenant = self.config.resolved_tenant(session_id)
        #: optional :class:`~repro.serving.metrics.MetricsStore` shared with
        #: the owning manager; ``None`` runs without instrumentation.
        self.metrics = metrics
        self.stats = SessionStats(
            session_id=session_id,
            backend_name=self.config.backend,
            num_shards=self.config.num_shards,
        )
        self.router = ShardRouter(self.config.accelerator, self.config.num_shards)
        # A lease either way: on the shared pool handed in (close() releases
        # this session's hosted shards and leaves the pool serving everyone
        # else), or on a private pool shaped by this config.
        self.backend: ShardBackend = make_backend(
            self.config.backend,
            self.config.accelerator,
            self.config.num_shards,
            fleet=backend_pool,
            session_id=session_id,
            **({} if backend_pool is not None else self.config.pool_options()),
        )
        self.pipeline = IngestionPipeline(
            session_id,
            self.router,
            self.backend,
            self.stats,
            batch_size=self.config.batch_size,
            metrics=metrics,
            tenant=self.tenant,
        )
        self.cache = GenerationLRUCache()
        self.query_engine = QueryEngine(self.router, self.backend, self.cache, self.stats)
        self.stats.cache = self.cache.stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's lease (and a private pool's workers).  Idempotent.

        When the session leases from a shared fleet, this releases only its
        lease -- the fleet (and every other session on it) keeps running.
        """
        self.backend.close()

    @property
    def closed(self) -> bool:
        """True once the session's backend has been released."""
        return self.backend.closed

    def __enter__(self) -> "MapSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def workers(self) -> List[MapShardWorker]:
        """The in-process shard workers (inline / thread backends only).

        The process and socket backends keep their workers elsewhere;
        inspect those through the backend's message API instead.
        """
        return self.backend.workers

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def submit(self, request: ScanRequest) -> IngestReceipt:
        """Admit a scan request (dispatch happens on the next flush)."""
        if request.session_id != self.session_id:
            raise ValueError(
                f"request for session {request.session_id!r} submitted to "
                f"session {self.session_id!r}"
            )
        return self.pipeline.submit(request)

    def flush(self) -> Optional[BatchReport]:
        """Apply one batch of admitted requests; None when idle."""
        return self.pipeline.flush()

    def flush_all(self) -> List[BatchReport]:
        """Apply batches until the admission queue is empty."""
        return self.pipeline.flush_all()

    def pending_requests(self) -> int:
        """Admitted requests not yet integrated into the map."""
        return self.pipeline.pending()

    # ------------------------------------------------------------------
    # Read path (delegates to the query engine)
    # ------------------------------------------------------------------
    def query(self, x: float, y: float, z: float):
        """Point occupancy query; see :meth:`QueryEngine.query`."""
        return self.query_engine.query(x, y, z)

    def query_batch(self, points: Sequence[Sequence[float]]):
        """Batch point query; see :meth:`QueryEngine.query_batch`."""
        return self.query_engine.query_batch(points)

    def query_bbox(self, minimum: Sequence[float], maximum: Sequence[float]):
        """Bounding-box sweep; see :meth:`QueryEngine.query_bbox`."""
        return self.query_engine.query_bbox(minimum, maximum)

    def raycast(self, origin: Sequence[float], direction: Sequence[float], max_range: float):
        """Collision raycast; see :meth:`QueryEngine.raycast`."""
        return self.query_engine.raycast(origin, direction, max_range)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_octree(self) -> OccupancyOcTree:
        """Stitch every shard's exported subtree into one software octree.

        Shard exports are gathered through the backend -- concurrently for
        the process backend, where every worker serialises its subtree in
        parallel -- and stitched with one shared propagate/prune pass by
        :func:`repro.octomap.merge.merge_trees`.
        """
        accelerator = self.config.accelerator
        return merge_trees(
            self.backend.export_all(),
            resolution=accelerator.resolution_m,
            tree_depth=accelerator.tree_depth,
            params=accelerator.quantized_params().as_float_params(),
        )
