"""Multi-session occupancy-mapping service layer.

The paper's accelerator maps one scene for one caller; this package turns it
into a *service*: many named map sessions, each sharded over a pool of
:class:`~repro.core.accelerator.OMUAccelerator` workers, behind a batched
ingestion pipeline and a cached query engine.

* :mod:`repro.serving.types` -- request / response dataclasses
  (:class:`ScanRequest`, :class:`QueryResponse`, ...) plus the pickle-safe
  ``Shard*`` messages the execution backends exchange with shard workers.
* :mod:`repro.serving.sharding` -- octree-key-prefix shard routing and the
  :class:`MapShardWorker` accelerator wrapper.
* :mod:`repro.serving.backends` -- the shard execution contract: a
  :class:`ShardBackend` is one session's lease on a pool (tickets,
  fail-stop, generation stamps), and :func:`make_backend` hands one out.
* :mod:`repro.serving.fleet` -- where shards execute: a :class:`BackendPool`
  owns one fixed set of execution slots (inline, threads, worker processes
  or socket workers) and hands each session a :class:`ShardBackend` lease
  -- the only lease of a private pool, or one of hundreds sharing O(pool
  size) OS resources.
* :mod:`repro.serving.remote` -- the socket channel kind: shard workers
  behind TCP endpoints (``repro-serve-worker``), with heartbeat liveness
  probes and re-homing of lost slots onto standby or surviving workers, so
  the pool's engine recovers from snapshots and replay tails.
* :mod:`repro.serving.batching` -- the ingestion pipeline: FIFO admission
  queue, shared ray-casting front end, overlapping-ray de-duplication,
  per-shard dispatch.
* :mod:`repro.serving.cache` -- the generation-stamped LRU query cache with
  per-shard invalidation, and whole box-sweep result caching keyed by the
  shard generation vector.
* :mod:`repro.serving.query_engine` -- the read side, on two lanes: point
  queries and collision raycasts one voxel at a time through the cache,
  pose batches and bounding-box sweeps as one bulk read per shard.
* :mod:`repro.serving.stats` -- per-session latency, throughput and cache
  counters, rendered in the :mod:`repro.analysis` table style.
* :mod:`repro.serving.metrics` -- the queryable metrics pipeline: per-request
  records, fixed-bucket latency histograms (p50/p95/p99 without raw-sample
  sorting), the bounded windowed-rollup store behind ``GET /v1/metrics`` and
  ``repro-serve --metrics-json``, and the admission QoS policies (per-tenant
  token-bucket quotas, deadline-miss shedding).
* :mod:`repro.serving.session` -- :class:`MapSession`, one tenant's sharded
  map.
* :mod:`repro.serving.manager` -- :class:`MapSessionManager`, the service
  front door.
* :mod:`repro.serving.aio` -- :class:`AsyncMapService`, the asyncio
  admission front end: bounded per-session admission queues with
  backpressure, background flusher tasks driving ingestion off the event
  loop, and non-blocking query coroutines.
* :mod:`repro.serving.http` -- the network API: a stdlib-asyncio HTTP/1.1
  server over :class:`AsyncMapService` (REST routes and background jobs
  with polling) plus a small client.
* :mod:`repro.serving.cli` -- the ``repro-serve`` demo driver (``--async``
  runs the asyncio front end under a multi-client driver; ``--http`` serves
  the network API until SIGINT/SIGTERM).

Execution backends
------------------

Every session executes its shard work through the
:class:`~repro.serving.backends.ShardBackend` contract, on a pool of the
kind selected by ``SessionConfig(backend=...)`` (or ``repro-serve --backend
...``) -- private to the session, or shared when ``fleet_workers > 0``:

* ``"inline"`` (default) -- workers run serially in the calling thread.
  Zero overhead and fully deterministic scheduling: pick it for tests,
  debugging, single-shard sessions, and latency-sensitive small batches
  where fan-out overhead would dominate.
* ``"thread"`` -- shard slices are applied concurrently on a thread pool.
  Each slice is one native PE-kernel call that releases the GIL; pick it for
  concurrent fan-out without process isolation.
* ``"process"`` -- worker processes, each hosting shards' accelerators;
  flushes fan update batches out to all of them at once and exports gather
  in parallel.  Pick it for throughput: sustained multi-scan ingestion on
  multi-core hosts (compare the ``ingest_inline`` and ``ingest_process``
  workloads of ``python3 benchmarks/e2e/run.py``).  Worker start-up
  and per-batch pickling make it a poor fit for tiny maps or one-scan
  sessions.  Worker death is fail-stop.
* ``"socket"`` -- TCP worker endpoints (``repro-serve-worker``), reachable
  across process or machine boundaries over a length-prefixed socket RPC.
  The only kind that survives worker loss: heartbeat probes detect dead
  workers, periodic shard snapshots plus a replay tail bound the state at
  risk, and a lost slot re-homes onto a standby (or surviving) worker with a
  bounded stall instead of killing the sessions on it.  See
  :mod:`repro.serving.remote`.

All four produce leaf-for-leaf identical maps (a property-based test pins
this, including across a mid-ingest worker kill on the socket backend, for
private pools and shared fleets alike), and the generation-stamped query
cache stays correct across process boundaries because every apply
acknowledgement carries the worker's write generation.

Ingestion
---------

A flush is one serial cycle per session: ray-cast and route the batch, hand
each shard its slice (:meth:`~repro.serving.backends.ShardBackend.apply_async`),
wait for every acknowledgement (:meth:`~repro.serving.backends.ShardBackend.drain`),
then report.  Per-shard apply order is therefore exactly the dispatch
order, which is what the sequential-equivalence property rests on, and
generation stamps are adopted only when the acknowledgements are in.  A read
never runs between the two halves: the backend refuses one with
:class:`ShardBackendError`.  A worker process that dies mid-apply surfaces
as :class:`ShardBackendError` on the drain (or the next interaction) and
fail-stops the backend.

Quickstart::

    from repro.serving import MapSessionManager, ScanRequest, SessionConfig

    manager = MapSessionManager(SessionConfig(num_shards=4, batch_size=4))
    manager.ingest(ScanRequest.from_scan_node("warehouse", scan, max_range=15.0))
    if manager.query("warehouse", 1.0, 0.0, 0.5).occupied:
        ...
    manager.shutdown()  # releases every pool's workers
"""

from repro.serving.aio import AdmissionQueueFull, AsyncMapService, submit_interleaved_stream
from repro.serving.backends import (
    BACKEND_NAMES,
    ApplyTicket,
    ShardBackend,
    ShardBackendError,
    make_backend,
)
from repro.serving.batching import IngestionPipeline
from repro.serving.fleet import BackendPool
from repro.serving.http import HttpMapServer, MapServiceClient
from repro.serving.cache import BboxResultCache, CacheStats, GenerationLRUCache
from repro.serving.manager import MapSessionManager
from repro.serving.metrics import (
    DeadlineShed,
    DeadlineShedPolicy,
    LatencyHistogram,
    MetricsStore,
    OperationRollup,
    RequestRecord,
    TenantQuota,
    TenantQuotaExceeded,
    TenantQuotaRegistry,
    write_metrics_json,
)
from repro.serving.query_engine import QueryEngine
from repro.serving.remote import (
    LocalWorkerHandle,
    ShardWorkerServer,
    WorkerRegistry,
    spawn_local_worker,
)
from repro.serving.session import MapSession, SessionConfig
from repro.serving.sharding import MapShardWorker, ShardHost, ShardRouter
from repro.serving.stats import ServiceStats, SessionStats
from repro.serving.types import (
    BatchReport,
    BboxChunk,
    BoxOccupancySummary,
    IngestReceipt,
    QueryResponse,
    RaycastResponse,
    ScanRequest,
    ShardApplyResult,
    ShardExportResult,
    ShardKeysQuery,
    ShardKeysResult,
    ShardQueryRequest,
    ShardQueryResult,
    ShardSnapshot,
    ShardUpdateBatch,
)

__all__ = [
    "AdmissionQueueFull",
    "ApplyTicket",
    "AsyncMapService",
    "BACKEND_NAMES",
    "BackendPool",
    "BatchReport",
    "BboxChunk",
    "BboxResultCache",
    "BoxOccupancySummary",
    "CacheStats",
    "DeadlineShed",
    "DeadlineShedPolicy",
    "GenerationLRUCache",
    "HttpMapServer",
    "IngestReceipt",
    "IngestionPipeline",
    "LatencyHistogram",
    "LocalWorkerHandle",
    "MapSession",
    "MapSessionManager",
    "MapServiceClient",
    "MapShardWorker",
    "MetricsStore",
    "OperationRollup",
    "QueryEngine",
    "RequestRecord",
    "QueryResponse",
    "RaycastResponse",
    "ScanRequest",
    "ServiceStats",
    "SessionConfig",
    "SessionStats",
    "ShardApplyResult",
    "ShardBackend",
    "ShardBackendError",
    "ShardExportResult",
    "ShardHost",
    "ShardKeysQuery",
    "ShardKeysResult",
    "ShardQueryRequest",
    "ShardQueryResult",
    "ShardRouter",
    "ShardSnapshot",
    "ShardUpdateBatch",
    "ShardWorkerServer",
    "TenantQuota",
    "TenantQuotaExceeded",
    "TenantQuotaRegistry",
    "WorkerRegistry",
    "make_backend",
    "spawn_local_worker",
    "submit_interleaved_stream",
    "write_metrics_json",
]
