"""Background jobs: long-running service operations with polling handles.

Map export and service-wide flushes can take arbitrarily long (they drain
admission queues and wait for every shard), so the HTTP layer must not
hold a connection open for them.  Instead a handler *starts* a job -- an
asyncio task wrapped in a :class:`JobRecord` -- and returns its id at once;
the client polls ``GET /v1/jobs/{id}`` until the record reports ``done`` or
``failed``, then fetches any byte artifact from ``GET /v1/jobs/{id}/result``.

Records keep a stage ``history`` (``pending`` -> ``running`` -> custom
stages -> ``done``/``failed``) so a test or dashboard can verify the whole
progression even when it polls too slowly to catch each stage live.
Completed records stay queryable for a TTL and are purged lazily, keeping
the registry bounded without a sweeper task.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

__all__ = ["JobRecord", "JobManager", "PENDING", "RUNNING", "DONE", "FAILED"]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: statuses a record can never leave.
TERMINAL = (DONE, FAILED)


@dataclass
class JobRecord:
    """State of one background job, safe to snapshot at any time.

    Attributes:
        job_id: registry-assigned identifier (``"job-<n>"``).
        kind: what the job does (``"export"``, ``"flush_all"``, ...).
        status: ``pending`` / ``running`` / ``done`` / ``failed``.
        stage: free-form progress marker set by the job body (e.g.
            ``"serialize"``); mirrors ``status`` at the transitions.
        detail: human-readable progress note for the current stage.
        history: every ``(stage, monotonic timestamp)`` transition in order,
            so the full progression stays observable after the fact.
        result: JSON-serialisable outcome of a finished job.
        artifact: optional byte payload (e.g. a serialised octree) served
            through the job-result endpoint; kept out of ``result`` so
            polling responses stay small.
        error: stringified exception of a failed job.
        finished_at: monotonic completion time (drives TTL purging).
    """

    job_id: str
    kind: str
    status: str = PENDING
    stage: str = PENDING
    detail: str = ""
    history: List[Tuple[str, float]] = field(default_factory=list)
    result: Optional[dict] = None
    artifact: Optional[bytes] = None
    artifact_content_type: str = "application/octet-stream"
    error: Optional[str] = None
    finished_at: Optional[float] = None

    def payload(self) -> dict:
        """The polling-endpoint JSON view (artifact bytes excluded)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "stage": self.stage,
            "detail": self.detail,
            "history": [stage for stage, _ in self.history],
            "result": self.result,
            "error": self.error,
            "has_artifact": self.artifact is not None,
        }


class JobHandle:
    """What a job body receives: stage reporting bound to one record."""

    def __init__(self, record: JobRecord, clock: Callable[[], float]) -> None:
        self._record = record
        self._clock = clock

    @property
    def job_id(self) -> str:
        return self._record.job_id

    def stage(self, stage: str, detail: str = "") -> None:
        """Advance the record to a named progress stage."""
        self._record.stage = stage
        self._record.detail = detail
        self._record.history.append((stage, self._clock()))

    def set_artifact(
        self, data: bytes, content_type: str = "application/octet-stream"
    ) -> None:
        """Attach the byte payload the result endpoint will serve."""
        self._record.artifact = data
        self._record.artifact_content_type = content_type


class JobManager:
    """Registry of background jobs with TTL'd completed records.

    Args:
        completed_ttl_s: how long a finished record stays pollable; expired
            records are purged lazily on the next registry access.
        clock: injectable monotonic clock (tests pass a fake to step time).
    """

    def __init__(
        self,
        completed_ttl_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if completed_ttl_s < 0:
            raise ValueError("completed_ttl_s must be non-negative")
        self.completed_ttl_s = completed_ttl_s
        self._clock = clock
        self._counter = itertools.count(1)
        self._records: Dict[str, JobRecord] = {}
        self._tasks: Dict[str, "asyncio.Task"] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def start(
        self,
        kind: str,
        body: Callable[[JobHandle], Awaitable[Optional[dict]]],
    ) -> JobRecord:
        """Register a job and schedule its body as an asyncio task.

        ``body`` receives a :class:`JobHandle` for stage reporting; its
        return value (a JSON-serialisable dict or ``None``) becomes the
        record's ``result``.  An exception fails the job and is captured as
        its ``error`` -- nothing propagates into the event loop.
        """
        self._purge()
        record = JobRecord(job_id=f"job-{next(self._counter)}", kind=kind)
        record.history.append((PENDING, self._clock()))
        handle = JobHandle(record, self._clock)

        async def run() -> None:
            # One scheduling round between registration and the running
            # transition, so a prompt poll can still observe ``pending``.
            await asyncio.sleep(0)
            record.status = RUNNING
            handle.stage(RUNNING)
            try:
                record.result = await body(handle)
            except asyncio.CancelledError:
                record.status = FAILED
                record.error = "cancelled"
                handle.stage(FAILED, "cancelled at shutdown")
                raise
            except Exception as error:  # noqa: BLE001 - job bodies fail the record
                record.status = FAILED
                record.error = f"{type(error).__name__}: {error}"
                handle.stage(FAILED, record.error)
            else:
                record.status = DONE
                handle.stage(DONE)
            finally:
                record.finished_at = self._clock()

        task = asyncio.get_running_loop().create_task(run(), name=f"job-{kind}")
        self._records[record.job_id] = record
        self._tasks[record.job_id] = task
        task.add_done_callback(lambda _: self._tasks.pop(record.job_id, None))
        return record

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record of a job, or ``None`` when unknown / TTL-expired."""
        self._purge()
        return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        """Every live record, oldest first."""
        self._purge()
        return list(self._records.values())

    def __len__(self) -> int:
        self._purge()
        return len(self._records)

    def _purge(self) -> None:
        now = self._clock()
        expired = [
            job_id
            for job_id, record in self._records.items()
            if record.status in TERMINAL
            and record.finished_at is not None
            and now - record.finished_at > self.completed_ttl_s
        ]
        for job_id in expired:
            del self._records[job_id]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def wait(self, job_id: str) -> JobRecord:
        """Await a job's task (tests use this instead of polling loops)."""
        task = self._tasks.get(job_id)
        if task is not None:
            await asyncio.gather(task, return_exceptions=True)
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record

    async def close(self) -> None:
        """Cancel every in-flight job task and await them (idempotent)."""
        tasks = list(self._tasks.values())
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._tasks.clear()
