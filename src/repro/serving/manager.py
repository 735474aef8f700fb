"""The service front door: many named map sessions behind one manager.

:class:`MapSessionManager` is what a network front end (REST, gRPC or the
future asyncio layer) would hold: it creates and looks up named
:class:`~repro.serving.session.MapSession` instances, assigns globally unique
request ids, routes scan requests and queries to the right session, and
aggregates every session's counters into one
:class:`~repro.serving.stats.ServiceStats` view.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving.fleet import BackendPool
from repro.serving.metrics import MetricsStore
from repro.serving.session import MapSession, SessionConfig
from repro.serving.stats import ServiceStats
from repro.serving.types import BatchReport, IngestReceipt, ScanRequest

__all__ = ["MapSessionManager"]


class MapSessionManager:
    """Owns the map sessions of one service instance.

    Fleet lifecycle: when a session's config sets ``fleet_workers > 0``, the
    manager lazily stands up one shared :class:`~repro.serving.fleet.
    BackendPool` per distinct pool shape -- backend kind, ``fleet_workers``
    and every field of :meth:`SessionConfig.pool_options` -- and every such
    session leases execution from it instead of a private pool.  The fleets
    live for the manager's whole life -- session churn attaches and releases
    leases without spawning or reaping a single OS resource -- and
    :meth:`shutdown` closes them after the last session released its lease.
    """

    def __init__(
        self,
        default_config: Optional[SessionConfig] = None,
        metrics: Optional[MetricsStore] = None,
    ) -> None:
        self.default_config = default_config if default_config is not None else SessionConfig()
        self.service_stats = ServiceStats()
        #: the service's single metrics sink; sessions, the asyncio front
        #: end, and the HTTP middleware all record into this one store.
        self.metrics = metrics if metrics is not None else MetricsStore()
        self._sessions: Dict[str, MapSession] = {}
        self._fleets: Dict[tuple, BackendPool] = {}
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _fleet_for(self, config: SessionConfig) -> Optional[BackendPool]:
        """The shared fleet this config leases from (created on first use)."""
        if config.fleet_workers < 1:
            return None
        options = config.pool_options()
        # Keyed on everything that shapes a pool of this kind: a config naming
        # other workers or other recovery settings must not join this one's
        # fleet, and one differing only in a field the kind ignores must.
        key = (config.backend, config.fleet_workers, *options.values())
        fleet = self._fleets.get(key)
        if fleet is None:
            fleet = BackendPool(config.backend, config.fleet_workers, **options)
            self._fleets[key] = fleet
        return fleet

    @property
    def fleets(self) -> Tuple[BackendPool, ...]:
        """The shared backend fleets this manager stood up (observability)."""
        return tuple(self._fleets.values())

    def create_session(
        self, session_id: str, config: Optional[SessionConfig] = None
    ) -> MapSession:
        """Create a named session; raises if the name is taken."""
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already exists")
        resolved = config if config is not None else self.default_config
        session = MapSession(
            session_id,
            resolved,
            metrics=self.metrics,
            backend_pool=self._fleet_for(resolved),
        )
        self._sessions[session_id] = session
        self.service_stats.register(session.stats)
        return session

    def get_session(self, session_id: str) -> MapSession:
        """Look up a session by name; raises KeyError when absent."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(
                f"unknown session {session_id!r}; live sessions: {sorted(self._sessions)}"
            ) from None

    def get_or_create_session(
        self, session_id: str, config: Optional[SessionConfig] = None
    ) -> MapSession:
        """Look up a session, creating it on first use.

        Raises:
            ValueError: when the session already exists and ``config`` names
                *different* settings than it was created with.  Silently
                returning the existing session would hand the caller a map
                with a different resolution / shard count / backend than the
                one it asked for; a caller that does not care passes
                ``config=None``.
        """
        if session_id not in self._sessions:
            return self.create_session(session_id, config)
        session = self._sessions[session_id]
        if config is not None and config != session.config:
            raise ValueError(
                f"session {session_id!r} already exists with a different "
                f"config; close it first or pass config=None to adopt the "
                f"existing settings (existing: {session.config}, requested: {config})"
            )
        return session

    def close_session(self, session_id: str) -> MapSession:
        """Remove a session from the service and return it to the caller.

        The session object stays usable (e.g. for a final export) -- its
        execution backend is *not* released; call
        :meth:`MapSession.close` when done with it.  It is just no longer
        served or aggregated.
        """
        session = self.get_session(session_id)
        del self._sessions[session_id]
        self.service_stats.forget(session_id)
        return session

    def shutdown(self) -> None:
        """Release every live session's execution backend (worker processes).

        Sessions stay registered and queryable-in-principle is *not*
        guaranteed afterwards; this is the service's end-of-life hook (and
        what the context-manager exit calls).  Idempotent.

        Sessions close first (each releasing its fleet lease, if any), then
        the shared fleets themselves are torn down.
        """
        for session in self._sessions.values():
            session.close()
        for fleet in self._fleets.values():
            fleet.close()
        # Drop the closed pools: a later create_session builds a fresh fleet
        # instead of leasing on a dead one.
        self._fleets.clear()

    def __enter__(self) -> "MapSessionManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def session_ids(self) -> Tuple[str, ...]:
        """Names of every live session, sorted."""
        return tuple(sorted(self._sessions))

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def stamp_request(self, request: ScanRequest) -> ScanRequest:
        """Assign the next globally unique request id to a request.

        Shared by the synchronous :meth:`submit` path and the asyncio front
        end (:class:`repro.serving.aio.AsyncMapService`), which stamps at
        admission time so receipts can be issued before the background
        flusher ever touches the session.
        """
        stamped = request.with_request_id(self._next_request_id)
        self._next_request_id += 1
        return stamped

    def submit(self, request: ScanRequest, auto_create: bool = True) -> IngestReceipt:
        """Stamp a request id and admit the request into its session."""
        session = (
            self.get_or_create_session(request.session_id)
            if auto_create
            else self.get_session(request.session_id)
        )
        return session.submit(self.stamp_request(request))

    def flush(self, session_id: str) -> Optional[BatchReport]:
        """Dispatch one batch of one session."""
        return self.get_session(session_id).flush()

    def flush_all(self) -> List[BatchReport]:
        """Drain every session's admission queue (round-robin by session)."""
        reports: List[BatchReport] = []
        # Round-robin one batch at a time so no session starves another.
        progressed = True
        while progressed:
            progressed = False
            for session_id in self.session_ids():
                report = self._sessions[session_id].flush()
                if report is not None:
                    reports.append(report)
                    progressed = True
        return reports

    def ingest(self, request: ScanRequest, auto_create: bool = True) -> BatchReport:
        """Submit one request and dispatch its session immediately."""
        started_s = self.metrics.clock()
        started_pc = time.perf_counter()
        outcome = "ok"
        try:
            return self._ingest(request, auto_create=auto_create)
        except Exception:
            outcome = "error"
            raise
        finally:
            session = self._sessions.get(request.session_id)
            self.metrics.observe(
                tenant=session.tenant if session else request.session_id,
                session_id=request.session_id,
                operation="ingest",
                outcome=outcome,
                started_s=started_s,
                duration_s=time.perf_counter() - started_pc,
                num_bytes=len(request.cloud),
                request_id=request.request_id,
            )

    def _ingest(self, request: ScanRequest, auto_create: bool = True) -> BatchReport:
        receipt = self.submit(request, auto_create=auto_create)
        session = self.get_session(request.session_id)
        reports = session.flush_all()
        if not reports:
            # Not an assert: under ``python -O`` an assert vanishes and the
            # caller would get an IndexError off the empty list instead of a
            # diagnosis of the broken dispatch invariant.
            raise RuntimeError(
                f"submit produced receipt {receipt} but flush dispatched nothing"
            )
        return reports[-1]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def query(self, session_id: str, x: float, y: float, z: float):
        """Point occupancy query against one session's map."""
        return self.get_session(session_id).query(x, y, z)

    def query_batch(self, session_id: str, points: Sequence[Sequence[float]]):
        """Batch point query against one session's map."""
        return self.get_session(session_id).query_batch(points)

    def query_bbox(self, session_id: str, minimum: Sequence[float], maximum: Sequence[float]):
        """Bounding-box sweep against one session's map."""
        return self.get_session(session_id).query_bbox(minimum, maximum)

    def raycast(
        self,
        session_id: str,
        origin: Sequence[float],
        direction: Sequence[float],
        max_range: float,
    ):
        """Collision raycast against one session's map."""
        return self.get_session(session_id).raycast(origin, direction, max_range)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_requests(self) -> int:
        """Admitted-but-undispatched requests across all sessions."""
        return sum(session.pending_requests() for session in self._sessions.values())

    def render_stats(self) -> str:
        """The aggregated per-session counter tables, ready to print."""
        return self.service_stats.render()
