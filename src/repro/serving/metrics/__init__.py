"""Queryable metrics pipeline + per-tenant accounting for the serving stack.

Before this package, the serving layer's only observability surface was
:class:`~repro.serving.stats.ServiceStats` -- process-local counters rendered
as ASCII tables at exit.  An operator of the HTTP front end could not answer
"what is p99 submit latency for session X over the last minute, and who is
eating the backend?".  This package is that answer, in four pieces:

* :mod:`~repro.serving.metrics.records` -- :class:`RequestRecord`, the
  compact per-request outcome record every instrumented entry point emits
  (monotonic start/duration, tenant/session, operation, outcome
  ok/rejected/shed/error, bytes, batch size, queue depth at admission).
* :mod:`~repro.serving.metrics.histogram` -- :class:`LatencyHistogram`, a
  fixed log-bucket histogram answering p50/p95/p99 without raw-sample
  sorting on the hot path.
* :mod:`~repro.serving.metrics.store` -- :class:`MetricsStore`, the bounded
  in-memory sink: windowed rollups keyed by
  ``(tenant, session, operation, window)`` and never-evicted cumulative
  totals, all queryable as plain dicts / JSON (``GET /v1/metrics``,
  ``repro-serve --metrics-json``).
* :mod:`~repro.serving.metrics.qos` -- the admission QoS policies the
  pipeline accounts for: per-tenant token-bucket quotas
  (:class:`TenantQuotaRegistry` -> :class:`TenantQuotaExceeded`) and
  deadline-miss shedding (:class:`DeadlineShedPolicy` ->
  :class:`DeadlineShed`).

Instrumentation points: :class:`~repro.serving.manager.MapSessionManager`
owns the store and records its synchronous ``ingest``/``submit`` door; the
:class:`~repro.serving.batching.IngestionPipeline` records every dispatched
batch's apply/drain (operation ``batch_apply``);
:class:`~repro.serving.aio.AsyncMapService` records submit / flush / query /
stream coroutines and enforces the QoS policies at admission; and the HTTP
server's middleware records every request under an ``http:<handler>``
operation tag while echoing an ``X-Request-Id`` header.
"""

from repro.serving.metrics.histogram import LatencyHistogram, default_bounds
from repro.serving.metrics.qos import (
    DeadlineShed,
    DeadlineShedPolicy,
    TenantQuota,
    TenantQuotaExceeded,
    TenantQuotaRegistry,
)
from repro.serving.metrics.records import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    OUTCOMES,
    RequestRecord,
)
from repro.serving.metrics.store import MetricsStore, OperationRollup, write_metrics_json

__all__ = [
    "DeadlineShed",
    "DeadlineShedPolicy",
    "LatencyHistogram",
    "MetricsStore",
    "OperationRollup",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_REJECTED",
    "OUTCOME_SHED",
    "OUTCOMES",
    "RequestRecord",
    "TenantQuota",
    "TenantQuotaExceeded",
    "TenantQuotaRegistry",
    "default_bounds",
    "write_metrics_json",
]
