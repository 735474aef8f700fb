"""The unit of observability: one per-request outcome record.

Every instrumented entry point of the serving stack -- the asyncio front
end's submit/flush/query coroutines, the synchronous
:meth:`~repro.serving.manager.MapSessionManager.ingest` door, the shard
backend apply/drain path, and the HTTP middleware -- emits one
:class:`RequestRecord` per request into the session-manager's
:class:`~repro.serving.metrics.store.MetricsStore`.  Records are deliberately
flat and cheap to construct (one dataclass, no nested objects), because they
are produced on the hot path; everything heavier (windowing, histograms,
percentiles) happens inside the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_REJECTED",
    "OUTCOME_SHED",
    "OUTCOMES",
    "RequestRecord",
]

#: the request reached its map / produced its answer.
OUTCOME_OK = "ok"
#: the request was refused at admission (full queue or tenant over quota).
OUTCOME_REJECTED = "rejected"
#: the request was dropped by deadline-miss shedding (it could not have met
#: its deadline, so no backend time was spent on it).
OUTCOME_SHED = "shed"
#: the request failed inside the stack (backend crash, handler exception).
OUTCOME_ERROR = "error"

OUTCOMES: Tuple[str, ...] = (OUTCOME_OK, OUTCOME_REJECTED, OUTCOME_SHED, OUTCOME_ERROR)


@dataclass(frozen=True)
class RequestRecord:
    """One request's outcome, as seen by an instrumentation hook.

    Attributes:
        tenant: accounting principal the request is billed to
            (``SessionConfig.tenant``, defaulting to the session id).
        session_id: map session the request addressed (``""`` for
            service-level operations such as ``flush_all`` or HTTP routes
            that target no session).
        operation: bounded-cardinality operation name -- the serving-layer
            verbs (``submit`` / ``flush`` / ``query`` / ``query_batch`` /
            ``query_bbox`` / ``raycast`` / ``stream_bbox`` / ``export`` /
            ``ingest`` / ``batch_apply``) or an ``http:<handler>`` route tag
            stamped by the middleware.
        outcome: one of :data:`OUTCOMES`.
        started_s: ``time.monotonic``-clock start of the request.
        duration_s: wall-clock seconds the request spent inside the stack.
        num_bytes: payload size the request carried (scan points for
            submits, voxel updates for batch applies, body bytes for HTTP).
        batch_size: requests coalesced when the record covers a batch
            (1 for single-request operations).
        queue_depth: admission-queue depth observed when the request was
            admitted (0 when the operation has no queue).
        request_id: service-assigned id, or ``-1`` when none was stamped.
    """

    tenant: str
    session_id: str
    operation: str
    outcome: str
    started_s: float
    duration_s: float
    num_bytes: int = 0
    batch_size: int = 1
    queue_depth: int = 0
    request_id: int = -1
