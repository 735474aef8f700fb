"""The HTTP/1.1 map server: REST routing over one :class:`AsyncMapService`.

One ``asyncio.start_server`` acceptor, one handler task per connection
(keep-alive supported), every route delegating to the async service -- the
server adds *no* concurrency semantics of its own beyond what
:mod:`repro.serving.aio` already guarantees (bounded admission, per-session
locking, fail-stop).  The ``API`` tuple below is the machine-readable route
table; the README mirrors it with curl examples.

Error mapping is centralised in the connection handler: ``HttpError``
carries its status, ``KeyError`` -> 404 unknown resource, ``ValueError`` ->
400, ``AdmissionQueueFull`` -> 429 with a Retry-After hint,
``TenantQuotaExceeded`` -> 429 ``quota_exceeded``, ``DeadlineShed`` -> 503
``deadline_shed``, anything else -> 500 with the exception class name (no
traceback leaks).  A handler crash therefore never kills the
connection loop, and a connection crash never kills the acceptor.

Observability middleware: every request is stamped with a monotonically
increasing id, echoed back as an ``X-Request-Id`` response header (error
responses included), and recorded into the service's
:class:`~repro.serving.metrics.MetricsStore` under an ``http:<handler>``
operation tag -- handler names, not raw paths, so metric cardinality stays
bounded -- with the outcome derived from the response status (``<400`` ok,
429 rejected, 503 shed, everything else error).
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.octomap.serialization import serialize_tree
from repro.serving.aio import AdmissionQueueFull, AsyncMapService
from repro.serving.http.jobs import JobManager
from repro.serving.metrics import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    DeadlineShed,
    TenantQuotaExceeded,
)
from repro.serving.http.wire import (
    HttpError,
    HttpRequest,
    bbox_chunk_payload,
    bbox_payload,
    end_chunked_response,
    flag,
    json_body,
    number,
    point3,
    query_payload,
    raycast_payload,
    read_request,
    receipt_payload,
    report_payload,
    require_field,
    scan_request_from_payload,
    session_config_from_payload,
    start_chunked_response,
    write_chunk,
    write_response,
)

__all__ = ["HttpMapServer", "API"]

#: route table: (method, path template) -> purpose.  Kept as data so the
#: README, the 404 hint and the tests enumerate the same surface.
API: Tuple[Tuple[str, str, str], ...] = (
    ("GET", "/healthz", "liveness probe"),
    ("GET", "/v1/stats", "service-wide counters (all sessions)"),
    ("GET", "/v1/metrics", "metrics snapshot: totals + per-session windowed rollups"),
    ("GET", "/v1/metrics/sessions/{sid}", "one session's metrics rollups"),
    ("GET", "/v1/sessions", "list sessions"),
    ("POST", "/v1/sessions", "create (or validate) a session"),
    ("GET", "/v1/sessions/{sid}", "one session's counters"),
    ("DELETE", "/v1/sessions/{sid}", "retire a session (drains first)"),
    ("POST", "/v1/sessions/{sid}/scans", "submit one scan for ingestion"),
    ("POST", "/v1/sessions/{sid}/flush", "drain the session's admitted scans"),
    ("POST", "/v1/sessions/{sid}/query", "point occupancy query"),
    ("POST", "/v1/sessions/{sid}/query/batch", "batch point query"),
    ("POST", "/v1/sessions/{sid}/query/bbox", "bounding-box sweep (stream=true for NDJSON chunks)"),
    ("POST", "/v1/sessions/{sid}/raycast", "collision raycast"),
    ("POST", "/v1/sessions/{sid}/export", "start a map-export job (202 + job id)"),
    ("POST", "/v1/flush_all", "start a flush-all job (202 + job id)"),
    ("GET", "/v1/jobs", "list background jobs"),
    ("GET", "/v1/jobs/{id}", "poll one job (status, stage history)"),
    ("GET", "/v1/jobs/{id}/result", "download a finished job's artifact"),
)


class HttpMapServer:
    """Serves the REST + background-job API over one async map service.

    Args:
        service: the :class:`AsyncMapService` to front.  The server never
            closes it -- the owner (CLI, test fixture) controls the service
            lifecycle, so several front ends can share one service.
        host / port: bind address; port 0 picks a free port (the bound one
            is in :attr:`address` after :meth:`start`).
        max_body_bytes: request-body cap of every route.
        jobs: injectable job manager; a fresh default otherwise.
    """

    def __init__(
        self,
        service: AsyncMapService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = 256 * 1024,
        jobs: Optional[JobManager] = None,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")
        self.service = service
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.jobs = jobs if jobs is not None else JobManager()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        #: connections accepted since start; next to ``_http_requests`` it
        #: tells an operator whether clients reuse their connections.
        self._connections_accepted = 0
        #: monotonically increasing request counter; echoed to clients as
        #: the ``X-Request-Id`` response header by the middleware.
        self._http_requests = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "HttpMapServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    async def close(self) -> None:
        """Stop accepting, drop live connections, cancel in-flight jobs.

        Does *not* close the fronted service -- the owner does that (and
        decides whether to drain).  Idempotent.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()  # stop accepting
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if server is not None:
            # Last: since Python 3.12.1 this waits for every accepted
            # connection, so an idle keep-alive client would hold it forever.
            await server.wait_closed()
        await self.jobs.close()

    async def __aenter__(self) -> "HttpMapServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        """Block until the acceptor is closed (the CLI's main await)."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._server is None:
            writer.close()  # accepted while close() was already tearing down
            return
        self._connections_accepted += 1
        task = asyncio.get_running_loop().create_task(
            self._connection_loop(reader, writer), name="http-conn"
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body_bytes)
                except HttpError as error:
                    # Framing errors: answer and drop the connection (the
                    # stream position is unreliable after a bad head and an
                    # over-limit body was never read).
                    await write_response(
                        writer, error.status, error.payload(), keep_alive=False
                    )
                    return
                if request is None:
                    return
                keep_alive = request.keep_alive
                handled = await self._dispatch(request, writer, keep_alive)
                if not handled or not keep_alive:
                    return
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Middleware + routing; returns False when the connection must close.

        Stamps the request id (echoed as ``X-Request-Id`` on every response,
        errors included), routes, and records one metrics record for the
        request -- the operation tag is the handler name, the outcome is
        derived from the response status.  Streaming handlers (bbox with
        ``stream=true``) write the response themselves; everything else
        returns ``(status, payload)`` through the common error mapping.
        """
        self._http_requests += 1
        request_id = self._http_requests
        headers = {"X-Request-Id": str(request_id)}
        store = self.service.metrics
        timer = (store.clock(), time.perf_counter())
        operation = "http:unknown"
        status = 500
        try:
            try:
                route = self._route(request)
                if route is None:
                    raise HttpError(
                        404,
                        "unknown_route",
                        f"no route {request.method} {request.path}",
                        detail={"api": [f"{m} {p}" for m, p, _ in API]},
                    )
                handler, args = route
                operation = "http:" + handler.__name__.removeprefix("_handle_")
                is_bbox = getattr(handler, "__func__", None) is HttpMapServer._handle_bbox
                if is_bbox and self._wants_stream(request):
                    await self._stream_bbox(
                        request, writer, keep_alive, *args, extra_headers=headers
                    )
                    status = 200
                    return True
                status, payload = await handler(request, *args)
                if isinstance(payload, _Raw):
                    await write_response(
                        writer,
                        status,
                        payload.data,
                        content_type=payload.content_type,
                        keep_alive=keep_alive,
                        extra_headers=headers,
                    )
                else:
                    await write_response(
                        writer, status, payload, keep_alive=keep_alive,
                        extra_headers=headers,
                    )
                return True
            except HttpError:
                raise
            except AdmissionQueueFull as error:
                raise HttpError(429, "admission_queue_full", str(error)) from None
            except TenantQuotaExceeded as error:
                raise HttpError(
                    429,
                    "quota_exceeded",
                    str(error),
                    detail={"retry_after_s": error.retry_after_s},
                ) from None
            except DeadlineShed as error:
                raise HttpError(503, "deadline_shed", str(error)) from None
            except KeyError as error:
                raise HttpError(404, "unknown_resource", f"unknown resource: {error}") from None
            except ValueError as error:
                raise HttpError(400, "bad_value", str(error)) from None
            except ConnectionError:
                raise
            except Exception as error:  # noqa: BLE001 - map to 500, keep serving
                raise HttpError(
                    500, "internal_error", f"{type(error).__name__}: {error}"
                ) from None
        except HttpError as error:
            status = error.status
            await write_response(
                writer, error.status, error.payload(), keep_alive=keep_alive,
                extra_headers=headers,
            )
            return True
        finally:
            self._record_http(request, operation, status, timer, request_id)

    def _record_http(
        self,
        request: HttpRequest,
        operation: str,
        status: int,
        timer: Tuple[float, float],
        request_id: int,
    ) -> None:
        """Emit the middleware's metrics record for one served request."""
        started_s, started_pc = timer
        session_id = self._session_from_path(request.path)
        tenant = session_id
        if session_id:
            try:
                tenant = self.service.manager.get_session(session_id).tenant
            except KeyError:
                pass
        if status < 400:
            outcome = OUTCOME_OK
        elif status == 429:
            outcome = OUTCOME_REJECTED
        elif status == 503:
            outcome = OUTCOME_SHED
        else:
            outcome = OUTCOME_ERROR
        self.service.metrics.observe(
            tenant=tenant,
            session_id=session_id,
            operation=operation,
            outcome=outcome,
            started_s=started_s,
            duration_s=time.perf_counter() - started_pc,
            num_bytes=len(request.body),
            request_id=request_id,
        )

    @staticmethod
    def _session_from_path(path: str) -> str:
        """The ``{sid}`` segment of a ``/v1/sessions/...`` path ('' if none)."""
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] in ("sessions",):
            return parts[2]
        if len(parts) >= 4 and parts[:3] == ["v1", "metrics", "sessions"]:
            return parts[3]
        return ""

    def _route(
        self, request: HttpRequest
    ) -> Optional[Tuple[Callable[..., Awaitable[Tuple[int, object]]], tuple]]:
        method = request.method
        parts = [part for part in request.path.split("/") if part]
        if parts == ["healthz"] and method == "GET":
            return self._handle_healthz, ()
        if not parts or parts[0] != "v1":
            return None
        parts = parts[1:]
        if parts == ["stats"] and method == "GET":
            return self._handle_stats, ()
        if parts == ["metrics"] and method == "GET":
            return self._handle_metrics, ()
        if (
            len(parts) == 3
            and parts[0] == "metrics"
            and parts[1] == "sessions"
            and method == "GET"
        ):
            return self._handle_metrics_session, (parts[2],)
        if parts == ["flush_all"] and method == "POST":
            return self._handle_flush_all, ()
        if parts and parts[0] == "jobs" and method == "GET":
            if len(parts) == 1:
                return self._handle_jobs_list, ()
            if len(parts) == 2:
                return self._handle_job_get, (parts[1],)
            if len(parts) == 3 and parts[2] == "result":
                return self._handle_job_result, (parts[1],)
            return None
        if parts and parts[0] == "sessions":
            if len(parts) == 1:
                if method == "GET":
                    return self._handle_sessions_list, ()
                if method == "POST":
                    return self._handle_session_create, ()
                return None
            sid = parts[1]
            rest = parts[2:]
            if not rest:
                if method == "GET":
                    return self._handle_session_get, (sid,)
                if method == "DELETE":
                    return self._handle_session_delete, (sid,)
                return None
            if rest == ["scans"] and method == "POST":
                return self._handle_scan_submit, (sid,)
            if rest == ["flush"] and method == "POST":
                return self._handle_flush, (sid,)
            if rest == ["query"] and method == "POST":
                return self._handle_query, (sid,)
            if rest == ["query", "batch"] and method == "POST":
                return self._handle_query_batch, (sid,)
            if rest == ["query", "bbox"] and method == "POST":
                return self._handle_bbox, (sid,)
            if rest == ["raycast"] and method == "POST":
                return self._handle_raycast, (sid,)
            if rest == ["export"] and method == "POST":
                return self._handle_export, (sid,)
        return None

    @staticmethod
    def _wants_stream(request: HttpRequest) -> bool:
        token = request.query.get("stream", "")
        if token:
            return token.lower() in ("1", "true", "yes")
        if request.body:
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except ValueError:
                return False  # the handler answers the malformed body
            if isinstance(payload, dict) and "stream" in payload:
                return flag(payload["stream"], "stream")
        return False

    # ------------------------------------------------------------------
    # Handlers: service + sessions
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: HttpRequest) -> Tuple[int, dict]:
        return 200, {
            "status": "ok",
            "sessions": len(self.service.manager.session_ids()),
            "pending_requests": self.service.pending_requests(),
            "jobs": len(self.jobs),
            "http": {
                "connections_accepted": self._connections_accepted,
                "connections_open": len(self._connections),
                "requests": self._http_requests,
            },
        }

    async def _handle_stats(self, request: HttpRequest) -> Tuple[int, dict]:
        return 200, self.service.service_stats.to_dict()

    async def _handle_metrics(self, request: HttpRequest) -> Tuple[int, dict]:
        return 200, self.service.metrics.snapshot()

    async def _handle_metrics_session(
        self, request: HttpRequest, sid: str
    ) -> Tuple[int, dict]:
        # KeyError from an unrecorded session maps to 404 in _dispatch.
        return 200, self.service.metrics.session_snapshot(sid)

    async def _handle_sessions_list(self, request: HttpRequest) -> Tuple[int, dict]:
        return 200, {"sessions": sorted(self.service.manager.session_ids())}

    async def _handle_session_create(self, request: HttpRequest) -> Tuple[int, dict]:
        payload = json_body(request)
        session_id = str(require_field(payload, "session_id"))
        if not session_id:
            raise HttpError(400, "bad_session_id", "session_id must be non-empty")
        config = session_config_from_payload(
            self.service.manager.default_config, payload.get("config")
        )
        existed = session_id in self.service.manager
        session = self.service.get_or_create_session(session_id, config)
        return (200 if existed else 201), {
            "session_id": session_id,
            "created": not existed,
            "backend": session.config.backend,
            "num_shards": session.config.num_shards,
        }

    async def _handle_session_get(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        session = self.service.manager.get_session(sid)
        return 200, session.stats.to_dict()

    async def _handle_session_delete(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        await self.service.close_session(sid, drain=True)
        return 200, {"session_id": sid, "closed": True}

    # ------------------------------------------------------------------
    # Handlers: ingestion
    # ------------------------------------------------------------------
    async def _handle_scan_submit(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        payload = json_body(request)
        scan = scan_request_from_payload(sid, payload)
        wait = flag(payload.get("wait", True), "wait")
        receipt = await self.service.submit(scan, wait=wait, auto_create=False)
        return 202, receipt_payload(receipt)

    async def _handle_flush(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        reports = await self.service.flush(sid)
        return 200, {"reports": [report_payload(report) for report in reports]}

    # ------------------------------------------------------------------
    # Handlers: queries
    # ------------------------------------------------------------------
    async def _handle_query(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        payload = json_body(request)
        x, y, z = point3(require_field(payload, "point"), "point")
        response = await self.service.query(sid, x, y, z)
        return 200, query_payload(response)

    async def _handle_query_batch(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        payload = json_body(request)
        points = require_field(payload, "points")
        if not isinstance(points, list):
            raise HttpError(400, "bad_points", "points must be a list of [x, y, z] triples")
        coords = [point3(point, f"points[{i}]") for i, point in enumerate(points)]
        responses = await self.service.query_batch(sid, coords)
        return 200, {"responses": [query_payload(r) for r in responses]}

    async def _handle_bbox(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        payload = json_body(request)
        minimum = point3(require_field(payload, "min"), "min")
        maximum = point3(require_field(payload, "max"), "max")
        summary = await self.service.query_bbox(sid, minimum, maximum)
        return 200, bbox_payload(summary)

    async def _stream_bbox(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
        sid: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """NDJSON chunked-transfer variant of the bbox sweep."""
        payload = json_body(request)
        minimum = point3(require_field(payload, "min"), "min")
        maximum = point3(require_field(payload, "max"), "max")
        chunk_voxels = payload.get("chunk_voxels", 1024)
        if type(chunk_voxels) is not int or chunk_voxels < 1:
            raise HttpError(400, "bad_field", "field 'chunk_voxels' must be an integer of at least 1")
        include_voxels = flag(payload.get("include_voxels", True), "include_voxels")
        stream = self.service.stream_bbox(
            sid,
            minimum,
            maximum,
            chunk_voxels=chunk_voxels,
            include_voxels=include_voxels,
        )
        # Pull the first chunk before committing to a 200: validation errors
        # (inverted box, guardrail, unknown session) must still map to their
        # JSON error response, which is impossible mid-stream.
        try:
            first = await stream.__anext__()
        except StopAsyncIteration:
            first = None
        await start_chunked_response(
            writer, 200, keep_alive=keep_alive, extra_headers=extra_headers
        )
        if first is not None:
            await write_chunk(writer, bbox_chunk_payload(first, include_voxels))
            async for chunk in stream:
                await write_chunk(writer, bbox_chunk_payload(chunk, include_voxels))
        await end_chunked_response(writer)

    async def _handle_raycast(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        payload = json_body(request)
        origin = point3(require_field(payload, "origin"), "origin")
        direction = point3(require_field(payload, "direction"), "direction")
        max_range = number(require_field(payload, "max_range"), "max_range")
        response = await self.service.raycast(sid, origin, direction, max_range)
        return 200, raycast_payload(response)

    # ------------------------------------------------------------------
    # Handlers: background jobs
    # ------------------------------------------------------------------
    async def _handle_export(self, request: HttpRequest, sid: str) -> Tuple[int, dict]:
        # Resolve the session now: an unknown id must 404 on the submit,
        # not fail the job after a 202.
        self.service.manager.get_session(sid)
        service = self.service

        async def body(handle) -> dict:
            handle.stage("flush", f"draining session {sid!r}")
            await service.flush(sid)
            handle.stage("export", "stitching shard subtrees")
            tree = await service.export_octree(sid)
            handle.stage("serialize", "encoding the octree")
            data = serialize_tree(tree)
            handle.set_artifact(data, "application/octet-stream")
            return {
                "session_id": sid,
                "leaf_nodes": tree.num_leaf_nodes(),
                "occupied_leafs": sum(1 for _ in tree.iter_occupied()),
                "artifact_bytes": len(data),
            }

        record = self.jobs.start("export", body)
        return 202, record.payload()

    async def _handle_flush_all(self, request: HttpRequest) -> Tuple[int, dict]:
        service = self.service

        async def body(handle) -> dict:
            handle.stage("flush", "draining every session")
            reports = await service.flush_all()
            return {
                "batches": len(reports),
                "scans": sum(report.scans for report in reports),
                "voxel_updates": sum(report.voxel_updates for report in reports),
            }

        record = self.jobs.start("flush_all", body)
        return 202, record.payload()

    async def _handle_jobs_list(self, request: HttpRequest) -> Tuple[int, dict]:
        return 200, {"jobs": [record.payload() for record in self.jobs.records()]}

    async def _handle_job_get(self, request: HttpRequest, job_id: str) -> Tuple[int, dict]:
        record = self.jobs.get(job_id)
        if record is None:
            raise HttpError(404, "unknown_job", f"no job {job_id!r} (expired or never started)")
        return 200, record.payload()

    async def _handle_job_result(self, request: HttpRequest, job_id: str):
        record = self.jobs.get(job_id)
        if record is None:
            raise HttpError(404, "unknown_job", f"no job {job_id!r} (expired or never started)")
        if record.status == "failed":
            raise HttpError(409, "job_failed", f"job {job_id!r} failed: {record.error}")
        if record.status != "done":
            raise HttpError(
                409, "job_not_done", f"job {job_id!r} is still {record.status}; poll until done"
            )
        if record.artifact is None:
            return 200, record.result or {}
        return 200, _Raw(record.artifact, record.artifact_content_type)


class _Raw:
    """Marker wrapper: a handler result that is raw bytes, not JSON."""

    def __init__(self, data: bytes, content_type: str) -> None:
        self.data = data
        self.content_type = content_type
