"""Bounded in-memory metrics store: windowed rollups plus cumulative totals.

The store is the queryable half of the metrics pipeline.  Instrumentation
hooks push :class:`~repro.serving.metrics.records.RequestRecord`\\ s in;
operators (the ``/v1/metrics`` routes, ``repro-serve --metrics-json``, the
benchmark drivers) read two things out, both as plain dicts:

* **windowed rollups** -- per ``(tenant, session, operation)`` and per
  :data:`WINDOW_S`-second time window: request count, outcome counts (ok /
  rejected / shed / error), bytes, and a fixed-bucket latency histogram
  answering p50/p95/p99 without storing raw samples.  Old windows are
  evicted once more than :data:`MAX_WINDOWS` exist per key, so memory stays
  bounded no matter how long the service runs;
* **cumulative totals** -- the same rollup shape, never evicted, so totals
  stay consistent with the :class:`~repro.serving.stats.ServiceStats`
  counters for the life of the process.

Everything is synchronous and lock-free on purpose: records are produced
either on the event-loop thread or under the per-session executor lock, and
a metrics read racing a write can at worst observe one record more or less
-- acceptable for an observability surface, and the price of keeping the
hot path to "bump a few ints".
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.serving.metrics.histogram import LatencyHistogram
from repro.serving.metrics.records import OUTCOMES, RequestRecord

__all__ = ["MetricsStore", "OperationRollup", "write_metrics_json"]

#: Length of one rollup window in seconds.
WINDOW_S = 10.0
#: Windows kept per ``(tenant, session, operation)`` key; older ones are evicted.
MAX_WINDOWS = 6


class OperationRollup:
    """Aggregate of one ``(tenant, session, operation)`` stream of records."""

    __slots__ = ("tenant", "session_id", "operation", "outcomes", "num_bytes",
                 "batched_requests", "queue_depth_peak", "latency")

    def __init__(self, tenant: str, session_id: str, operation: str) -> None:
        self.tenant = tenant
        self.session_id = session_id
        self.operation = operation
        self.outcomes: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        self.num_bytes = 0
        self.batched_requests = 0
        self.queue_depth_peak = 0
        self.latency = LatencyHistogram()

    def add(self, record: RequestRecord) -> None:
        """Fold one record in."""
        self.outcomes[record.outcome] = self.outcomes.get(record.outcome, 0) + 1
        self.num_bytes += record.num_bytes
        self.batched_requests += record.batch_size
        if record.queue_depth > self.queue_depth_peak:
            self.queue_depth_peak = record.queue_depth
        self.latency.observe(record.duration_s)

    @property
    def count(self) -> int:
        """Records folded into this rollup."""
        return sum(self.outcomes.values())

    @property
    def error_rate(self) -> float:
        """Share of records with outcome ``error`` (0.0 when empty)."""
        count = self.count
        return self.outcomes.get("error", 0) / count if count else 0.0

    @property
    def shed_rate(self) -> float:
        """Share of records rejected or shed before reaching the backend."""
        count = self.count
        if not count:
            return 0.0
        return (self.outcomes.get("rejected", 0) + self.outcomes.get("shed", 0)) / count

    def to_dict(self) -> dict:
        """Plain-dict view (the JSON rollup shape)."""
        return {
            "tenant": self.tenant,
            "session_id": self.session_id,
            "operation": self.operation,
            "count": self.count,
            "outcomes": dict(self.outcomes),
            "error_rate": self.error_rate,
            "shed_rate": self.shed_rate,
            "bytes": self.num_bytes,
            "batched_requests": self.batched_requests,
            "queue_depth_peak": self.queue_depth_peak,
            "latency": self.latency.to_dict(),
        }


_Key = Tuple[str, str, str]  # (tenant, session_id, operation)


class MetricsStore:
    """Request-record sink with bounded memory and windowed rollups.

    Args:
        clock: monotonic time source (tests inject a fake).
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        #: key -> window start (a multiple of WINDOW_S) -> rollup, insertion
        #: ordered by window start because records arrive in clock order.
        self._windows: Dict[_Key, Dict[float, OperationRollup]] = {}
        self._totals: Dict[_Key, OperationRollup] = {}
        self._records_seen = 0

    # ------------------------------------------------------------------
    # Write side (the hot path)
    # ------------------------------------------------------------------
    def record(self, record: RequestRecord) -> None:
        """Fold one record into its window rollup and the totals."""
        self._records_seen += 1
        key = (record.tenant, record.session_id, record.operation)
        totals = self._totals.get(key)
        if totals is None:
            totals = self._totals[key] = OperationRollup(*key)
        totals.add(record)
        window_start = (record.started_s // WINDOW_S) * WINDOW_S
        windows = self._windows.get(key)
        if windows is None:
            windows = self._windows[key] = {}
        rollup = windows.get(window_start)
        if rollup is None:
            rollup = windows[window_start] = OperationRollup(*key)
            while len(windows) > MAX_WINDOWS:
                # Records arrive in clock order, so the first key is oldest.
                del windows[next(iter(windows))]
        rollup.add(record)

    def observe(
        self,
        *,
        tenant: str,
        session_id: str,
        operation: str,
        outcome: str,
        started_s: float,
        duration_s: float,
        num_bytes: int = 0,
        batch_size: int = 1,
        queue_depth: int = 0,
        request_id: int = -1,
    ) -> None:
        """Convenience: build the :class:`RequestRecord` and :meth:`record` it."""
        self.record(
            RequestRecord(
                tenant=tenant,
                session_id=session_id,
                operation=operation,
                outcome=outcome,
                started_s=started_s,
                duration_s=duration_s,
                num_bytes=num_bytes,
                batch_size=batch_size,
                queue_depth=queue_depth,
                request_id=request_id,
            )
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def session_ids(self) -> Tuple[str, ...]:
        """Sessions that produced at least one record, sorted."""
        return tuple(sorted({key[1] for key in self._totals if key[1]}))

    def totals(self, session_id: Optional[str] = None) -> List[OperationRollup]:
        """Cumulative per-operation rollups, optionally for one session."""
        rollups = [
            rollup
            for key, rollup in self._totals.items()
            if session_id is None or key[1] == session_id
        ]
        return sorted(rollups, key=lambda r: (r.tenant, r.session_id, r.operation))

    def windows(self, session_id: Optional[str] = None) -> List[Tuple[float, OperationRollup]]:
        """Live ``(window_start, rollup)`` pairs, oldest window first."""
        pairs = [
            (start, rollup)
            for key, windows in self._windows.items()
            if session_id is None or key[1] == session_id
            for start, rollup in windows.items()
        ]
        return sorted(pairs, key=lambda p: (p[0], p[1].tenant, p[1].session_id, p[1].operation))

    def outcome_counts(self) -> Dict[str, int]:
        """Cumulative record counts per outcome, pooled over every key."""
        pooled = dict.fromkeys(OUTCOMES, 0)
        for rollup in self._totals.values():
            for outcome, count in rollup.outcomes.items():
                pooled[outcome] = pooled.get(outcome, 0) + count
        return pooled

    def total_requests(self) -> int:
        """Records folded in since the store was created."""
        return self._records_seen

    def _session_payload(self, session_id: str) -> dict:
        rollups = self.totals(session_id)
        tenant = rollups[0].tenant if rollups else session_id
        return {
            "session_id": session_id,
            "tenant": tenant,
            "operations": {r.operation: r.to_dict() for r in rollups},
            "windows": [
                {"window_start_s": start, **rollup.to_dict()}
                for start, rollup in self.windows(session_id)
            ],
        }

    def snapshot(self) -> dict:
        """The whole store as one JSON-ready dict (the ``/v1/metrics`` body)."""
        service_rollups = self.totals("")
        return {
            "generated_at_s": self.clock(),
            "window_seconds": WINDOW_S,
            "max_windows": MAX_WINDOWS,
            "totals": {
                "requests": self._records_seen,
                "by_outcome": self.outcome_counts(),
            },
            "sessions": {sid: self._session_payload(sid) for sid in self.session_ids()},
            "service": {r.operation: r.to_dict() for r in service_rollups},
        }

    def session_snapshot(self, session_id: str) -> dict:
        """One session's rollups (the ``/v1/metrics/sessions/{id}`` body).

        Raises ``KeyError`` when the session never produced a record.
        """
        if session_id not in self.session_ids():
            raise KeyError(f"no metrics recorded for session {session_id!r}")
        return self._session_payload(session_id)


def write_metrics_json(path, store: MetricsStore, service_stats=None) -> Path:
    """Dump the final metrics snapshot (plus the stats counters) as JSON.

    The file ``repro-serve --metrics-json`` writes on clean exit / SIGTERM:
    the store snapshot under ``"metrics"`` and, when given, the
    :class:`~repro.serving.stats.ServiceStats` counter block under
    ``"service_stats"`` -- the same numbers the ASCII tables render, so a
    dashboard ingests one file.
    """
    path = Path(path)
    payload = {"metrics": store.snapshot()}
    if service_stats is not None:
        payload["service_stats"] = service_stats.to_dict()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
