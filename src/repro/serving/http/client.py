"""A small asyncio HTTP/1.1 client for the map-server API.

Stdlib-only counterpart of :mod:`repro.serving.http.server`, built on one
primitive: :func:`_exchange` writes one request on an open connection, reads
the response head and hands back the body (plain or chunked-transfer) with
the answer to "may this connection carry another request?".

* :func:`http_request` is that primitive plus open/close: one independent
  connection per request, sent with ``Connection: close`` -- what framing
  tests and one-off probes want.
* :class:`MapServiceClient` wraps the REST surface (job polling and the
  NDJSON bbox stream included) and keeps its connections: a call reuses an
  idle keep-alive connection or opens one, and puts it back only after a
  complete exchange (reply not ``Connection: close``, body read to its end).
  Concurrent calls each hold their own, so the idle stack never outgrows the
  caller's peak concurrency and there is nothing to size.

A request is written **at most once**: if a connection fails mid-exchange the
error (``ConnectionError`` / ``asyncio.IncompleteReadError``) reaches the
caller and nothing is re-sent -- a scan must never be submitted twice.  A
server restart *between* two calls stays invisible because an idle
connection whose peer has closed is skipped before reuse.
"""

from __future__ import annotations

import asyncio
import json
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Tuple

__all__ = ["HttpResponse", "ServerError", "http_request", "MapServiceClient"]


class ServerError(Exception):
    """A non-2xx response, surfaced with its status and decoded error body."""

    def __init__(self, status: int, payload: Any) -> None:
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        super().__init__(
            f"HTTP {status}: {error.get('code', 'error')}: "
            f"{error.get('message', payload)}"
        )
        self.status = status
        self.payload = payload
        self.code = error.get("code", "")
        self.detail = error.get("detail")


@dataclass
class HttpResponse:
    """One complete (non-streamed) response."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8")) if self.body else None

    def raise_for_status(self) -> None:
        """Raise :class:`ServerError` for a 4xx/5xx answer."""
        if self.status < 400:
            return
        try:
            decoded = self.json()
        except (ValueError, UnicodeDecodeError):
            decoded = {"error": {"message": self.body.decode("latin-1")}}
        raise ServerError(self.status, decoded)


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str]]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _read_chunked(reader: asyncio.StreamReader) -> AsyncIterator[bytes]:
    """Yield the data of each chunked-transfer frame until the terminator."""
    while True:
        size_line = await reader.readuntil(b"\r\n")
        size = int(size_line.strip(), 16)
        if size == 0:
            await reader.readexactly(2)  # trailing CRLF of the terminator
            return
        data = await reader.readexactly(size)
        await reader.readexactly(2)  # frame CRLF
        yield data


def _request_bytes(method: str, target: str, host: str, payload: Any, keep_alive: bool) -> bytes:
    """Head + JSON-encoded body of one request."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class _Exchange:
    """The response side of one exchange: status, headers, then the body."""

    def __init__(self, reader: asyncio.StreamReader, status: int, headers: Dict[str, str]) -> None:
        self.status = status
        self.headers = headers
        #: set once the body was read to its end and the reply did not say
        #: ``Connection: close``: only then may the connection be used again.
        self.reusable = False
        self._reader = reader

    async def frames(self) -> AsyncIterator[bytes]:
        """The body: one piece, or one per chunked-transfer frame."""
        if self.headers.get("transfer-encoding") == "chunked":
            async for frame in _read_chunked(self._reader):
                yield frame
        else:
            yield await self._reader.readexactly(int(self.headers.get("content-length", "0")))
        self.reusable = "close" not in self.headers.get("connection", "").lower()

    async def read(self) -> HttpResponse:
        """Drain the body into one buffered response."""
        body = b"".join([frame async for frame in self.frames()])
        return HttpResponse(status=self.status, headers=self.headers, body=body)


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> _Exchange:
    """Write one request on an open connection and read the response head."""
    writer.write(request)
    await writer.drain()
    status, headers = await _read_head(reader)
    return _Exchange(reader, status, headers)


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any = None,
) -> HttpResponse:
    """One request on a connection of its own; returns the buffered response.

    Open, send with ``Connection: close``, close -- independent of every
    other request (:class:`MapServiceClient` is the one that keeps
    connections).  ``payload`` is JSON-encoded.  Chunked responses are
    drained and concatenated.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request = _request_bytes(method, path, f"{host}:{port}", payload, keep_alive=False)
        return await (await _exchange(reader, writer, request)).read()
    finally:
        await _close(writer)


class MapServiceClient:
    """Typed wrapper over the REST API of one map server.

    Every call raises :class:`ServerError` on a non-2xx answer, so tests
    assert on ``error.status`` / ``error.code`` instead of parsing bodies.
    ``async with MapServiceClient(host, port) as client`` (or :meth:`close`)
    releases the kept connections; a client that is never closed, or is used
    again under a later ``asyncio.run``, stays harmless.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _idle_connections(self) -> List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """The idle stack of the running event loop."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            # Connections opened on another loop can be neither used nor
            # closed from this one (theirs is usually finished): forget them,
            # the transport's finalizer closes the socket.
            self._idle, self._loop = [], loop
        return self._idle

    async def _connection(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """The most recently used idle connection that is still up, else a new one."""
        idle = self._idle_connections()
        while idle:
            reader, writer = idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            await _close(writer)  # the server hung up while it sat idle
        return await asyncio.open_connection(self.host, self.port)

    @asynccontextmanager
    async def _request(self, method: str, target: str, payload: Any = None) -> AsyncIterator[_Exchange]:
        """One exchange on a kept connection, which is kept again only if it completes."""
        reader, writer = await self._connection()
        exchange = None
        try:
            request = _request_bytes(method, target, f"{self.host}:{self.port}", payload, keep_alive=True)
            exchange = await _exchange(reader, writer, request)
            yield exchange
        finally:
            if exchange is not None and exchange.reusable:
                self._idle_connections().append((reader, writer))
            else:
                await _close(writer)

    async def _call(self, method: str, path: str, payload: Any = None) -> Any:
        async with self._request(method, path, payload) as exchange:
            response = await exchange.read()
        response.raise_for_status()
        if response.headers.get("content-type", "").startswith("application/json"):
            return response.json()
        return response.body

    async def close(self) -> None:
        """Close the idle connections (call it with no request in flight)."""
        idle = self._idle_connections()
        while idle:
            await _close(idle.pop()[1])

    async def __aenter__(self) -> "MapServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    async def healthz(self) -> dict:
        return await self._call("GET", "/healthz")

    async def stats(self) -> dict:
        return await self._call("GET", "/v1/stats")

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    async def create_session(self, session_id: str, config: Optional[dict] = None) -> dict:
        payload: Dict[str, Any] = {"session_id": session_id}
        if config:
            payload["config"] = config
        return await self._call("POST", "/v1/sessions", payload)

    async def list_sessions(self) -> List[str]:
        return (await self._call("GET", "/v1/sessions"))["sessions"]

    async def session_stats(self, session_id: str) -> dict:
        return await self._call("GET", f"/v1/sessions/{session_id}")

    async def delete_session(self, session_id: str) -> dict:
        return await self._call("DELETE", f"/v1/sessions/{session_id}")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def submit_scan(
        self,
        session_id: str,
        points: Sequence[Sequence[float]],
        origin: Sequence[float],
        *,
        max_range: float = -1.0,
        deadline_in_s: Optional[float] = None,
        client_id: str = "",
    ) -> dict:
        payload: Dict[str, Any] = {
            "points": [list(point) for point in points],
            "origin": list(origin),
            "max_range": max_range,
            "client_id": client_id,
        }
        if deadline_in_s is not None:
            payload["deadline_in_s"] = deadline_in_s
        return await self._call("POST", f"/v1/sessions/{session_id}/scans", payload)

    async def flush(self, session_id: str) -> List[dict]:
        return (await self._call("POST", f"/v1/sessions/{session_id}/flush"))["reports"]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def query(self, session_id: str, x: float, y: float, z: float) -> dict:
        return await self._call(
            "POST", f"/v1/sessions/{session_id}/query", {"point": [x, y, z]}
        )

    async def query_batch(
        self, session_id: str, points: Sequence[Sequence[float]]
    ) -> List[dict]:
        payload = {"points": [list(point) for point in points]}
        return (
            await self._call("POST", f"/v1/sessions/{session_id}/query/batch", payload)
        )["responses"]

    async def query_bbox(
        self, session_id: str, minimum: Sequence[float], maximum: Sequence[float]
    ) -> dict:
        payload = {"min": list(minimum), "max": list(maximum)}
        return await self._call("POST", f"/v1/sessions/{session_id}/query/bbox", payload)

    async def stream_bbox(
        self,
        session_id: str,
        minimum: Sequence[float],
        maximum: Sequence[float],
        *,
        chunk_voxels: int = 1024,
        include_voxels: bool = True,
    ) -> AsyncIterator[dict]:
        """Consume the NDJSON chunked-transfer bbox sweep frame by frame."""
        payload = {
            "min": list(minimum),
            "max": list(maximum),
            "chunk_voxels": chunk_voxels,
            "include_voxels": include_voxels,
        }
        target = f"/v1/sessions/{session_id}/query/bbox?stream=true"
        async with self._request("POST", target, payload) as exchange:
            if exchange.status >= 400:
                (await exchange.read()).raise_for_status()
            buffer = b""
            async for frame in exchange.frames():
                buffer += frame
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
            if buffer.strip():
                yield json.loads(buffer.decode("utf-8"))

    async def raycast(
        self,
        session_id: str,
        origin: Sequence[float],
        direction: Sequence[float],
        max_range: float,
    ) -> dict:
        payload = {
            "origin": list(origin),
            "direction": list(direction),
            "max_range": max_range,
        }
        return await self._call("POST", f"/v1/sessions/{session_id}/raycast", payload)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    async def start_export(self, session_id: str) -> dict:
        return await self._call("POST", f"/v1/sessions/{session_id}/export")

    async def start_flush_all(self) -> dict:
        return await self._call("POST", "/v1/flush_all")

    async def get_job(self, job_id: str) -> dict:
        return await self._call("GET", f"/v1/jobs/{job_id}")

    async def list_jobs(self) -> List[dict]:
        return (await self._call("GET", "/v1/jobs"))["jobs"]

    async def job_result(self, job_id: str) -> Any:
        """The finished job's artifact bytes (or its JSON result)."""
        return await self._call("GET", f"/v1/jobs/{job_id}/result")

    async def wait_job(
        self, job_id: str, *, timeout_s: float = 30.0, poll_s: float = 0.02
    ) -> dict:
        """Poll a job until it reaches ``done``/``failed`` (or time out)."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            record = await self.get_job(job_id)
            if record["status"] in ("done", "failed"):
                return record
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(f"job {job_id!r} still {record['status']} after {timeout_s}s")
            await asyncio.sleep(poll_s)
