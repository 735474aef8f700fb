"""HTTP/1.1 framing and the JSON wire codecs of the network API.

Two halves, both stdlib-only:

* **Framing** -- a minimal, strict HTTP/1.1 reader/writer over asyncio
  streams: request-head parsing with a size cap, bounded body reads keyed on
  ``Content-Length`` (chunked *request* bodies are rejected), plain and
  chunked-transfer response writers, and :class:`HttpError`, the exception
  handlers raise to produce a JSON error response with the right status
  code.

* **Codecs** -- the JSON representations of the serving-layer dataclasses
  (:class:`~repro.serving.types.ScanRequest` in,
  receipts/reports/query/raycast/bbox/stats payloads out).  These pin the
  network wire format the same way ``serving/types.py`` pins the in-process
  one: every later front end (observability middleware, cross-machine
  sharding) speaks these shapes.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.octomap.pointcloud import PointCloud
from repro.serving.session import SessionConfig
from repro.serving.types import (
    BatchReport,
    BboxChunk,
    BoxOccupancySummary,
    IngestReceipt,
    QueryResponse,
    RaycastResponse,
    ScanRequest,
)

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "write_response",
    "start_chunked_response",
    "write_chunk",
    "end_chunked_response",
    "json_body",
    "require_field",
    "number",
    "flag",
    "point3",
    "scan_request_from_payload",
    "session_config_from_payload",
    "receipt_payload",
    "report_payload",
    "query_payload",
    "bbox_payload",
    "bbox_chunk_payload",
    "raycast_payload",
]

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_HEADER_BYTES = 16 * 1024


class HttpError(Exception):
    """A handler failure that maps to one HTTP error response.

    Args:
        status: HTTP status code of the response.
        code: short machine-readable error identifier (stable; clients and
            tests match on it, not on the message).
        message: human-readable explanation.
        detail: optional extra JSON-serialisable context (e.g. the route
            table of a 404, or the retry delay of a quota refusal).
    """

    def __init__(
        self, status: int, code: str, message: str, detail: Optional[dict] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail

    def payload(self) -> dict:
        """The JSON body of the error response."""
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            error["detail"] = self.detail
        return {"error": error}


@dataclass
class HttpRequest:
    """One parsed request: head fields plus the (bounded) body."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection stays open after the response.

        ``Connection`` is a case-insensitive token list.  HTTP/1.1 persists
        unless it says ``close``; an HTTP/1.0 client reads until the server
        closes, so 1.0 persists only when it asks for ``keep-alive``.
        """
        tokens = {token.strip() for token in self.headers.get("connection", "").lower().split(",")}
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens
        return "close" not in tokens

    def json(self) -> Any:
        """The body parsed as JSON; raises :class:`HttpError` 400 on junk."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, "bad_json", f"request body is not valid JSON: {error}") from None


# ---------------------------------------------------------------------------
# Framing: read one request, write one response
# ---------------------------------------------------------------------------
async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int,
) -> Optional[HttpRequest]:
    """Read one HTTP/1.1 request off a stream; ``None`` on a clean EOF.

    ``max_body_bytes`` caps the body of every route.  An over-limit
    ``Content-Length`` raises :class:`HttpError` 413 before any body byte is
    read, so oversized requests are refused cheaply.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between requests (keep-alive close)
        raise HttpError(400, "bad_request", "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "bad_request", "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "bad_request", "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "bad_request", f"malformed request line: {lines[0]!r}")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    split = urlsplit(target)
    path = unquote(split.path)
    query = dict(parse_qsl(split.query))

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpError(
            411,
            "length_required",
            "chunked request bodies are not supported; send the body "
            "with a Content-Length header",
        )
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise HttpError(400, "bad_request", f"bad Content-Length: {length_header!r}") from None
    if length < 0:
        raise HttpError(400, "bad_request", f"bad Content-Length: {length_header!r}")
    if length > max_body_bytes:
        raise HttpError(
            413,
            "body_too_large",
            f"request body of {length} bytes exceeds the {max_body_bytes}-byte "
            "limit; split large scan batches into several scan requests",
        )
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(
        method=method, path=path, query=query, headers=headers, body=body, version=version
    )


def _head_bytes(
    status: int,
    content_type: str,
    length: Optional[int],
    keep_alive: bool,
    chunked: bool,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {length or 0}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any = None,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> None:
    """Write one complete response; dict payloads are JSON-encoded."""
    if payload is None:
        body = b""
    elif isinstance(payload, (bytes, bytearray)):
        body = bytes(payload)
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    head = _head_bytes(
        status, content_type, len(body), keep_alive, chunked=False, extra_headers=extra_headers
    )
    # One write: head and body leave in one send and wake the client once.
    writer.write(head + body)
    await writer.drain()


async def start_chunked_response(
    writer: asyncio.StreamWriter,
    status: int = 200,
    *,
    content_type: str = "application/x-ndjson",
    keep_alive: bool = True,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> None:
    """Open a chunked-transfer response (follow with :func:`write_chunk`)."""
    writer.write(
        _head_bytes(
            status, content_type, None, keep_alive, chunked=True,
            extra_headers=extra_headers,
        )
    )
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, data: Any) -> None:
    """Write one chunked-transfer frame; dicts become one NDJSON line."""
    if isinstance(data, (bytes, bytearray)):
        raw = bytes(data)
    else:
        raw = (json.dumps(data) + "\n").encode("utf-8")
    if not raw:
        return  # an empty frame would terminate the chunked stream
    writer.write(f"{len(raw):x}\r\n".encode("latin-1") + raw + b"\r\n")
    await writer.drain()


async def end_chunked_response(writer: asyncio.StreamWriter) -> None:
    """Terminate a chunked-transfer response."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()


# ---------------------------------------------------------------------------
# Payload access helpers
# ---------------------------------------------------------------------------
def json_body(request: HttpRequest) -> dict:
    """The request body as a JSON object (400 unless it is a dict)."""
    if not request.body:
        return {}
    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "bad_json", "request body must be a JSON object")
    return payload


def require_field(payload: Mapping, field: str) -> Any:
    """Fetch a required field; raises :class:`HttpError` 400 when absent."""
    try:
        return payload[field]
    except KeyError:
        raise HttpError(400, "missing_field", f"missing required field {field!r}") from None


def _as_float(value: Any) -> Optional[float]:
    """A JSON number as a float; ``None`` for anything else.

    Types are compared exactly: ``bool`` is an ``int`` subclass but not a
    JSON number, and a string of digits is a string.  An integer literal past
    the float range is not a number either.
    """
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            return None
    return None


def number(value: Any, field: str) -> float:
    """A JSON number as a float (400 on anything else)."""
    result = _as_float(value)
    if result is None:
        raise HttpError(400, "bad_field", f"field {field!r} must be a number")
    return result


def flag(value: Any, field: str) -> bool:
    """A JSON boolean (400 on anything else: the string ``"false"`` is truthy)."""
    if type(value) is not bool:
        raise HttpError(400, "bad_field", f"field {field!r} must be true or false")
    return value


def point3(value: Any, field: str) -> Tuple[float, float, float]:
    """A JSON array of three numbers as an ``(x, y, z)`` float triple (400 on anything else)."""
    if type(value) is list and len(value) == 3:
        x, y, z = (_as_float(component) for component in value)
        if None not in (x, y, z):
            return (x, y, z)
    raise HttpError(400, "bad_point", f"field {field!r} must be a [x, y, z] number triple")


# ---------------------------------------------------------------------------
# Domain codecs
# ---------------------------------------------------------------------------
def scan_request_from_payload(session_id: str, payload: Mapping) -> ScanRequest:
    """Build a :class:`ScanRequest` from its JSON representation.

    Expected shape::

        {"points": [[x, y, z], ...],      # world-frame scan points
         "origin": [x, y, z],             # sensor origin, world frame
         "max_range": 15.0,               # optional, -1 disables truncation
         "deadline_in_s": 0.25,           # optional, relative seconds from
                                          # arrival (converted to the
                                          # service's monotonic clock)
         "client_id": "drone-7"}          # optional

    Raises :class:`HttpError` 400 on any shape violation.
    """
    points = require_field(payload, "points")
    try:
        cloud = PointCloud(points)
    except (TypeError, ValueError) as error:
        raise HttpError(400, "bad_points", f"bad scan points: {error}") from None
    origin = point3(require_field(payload, "origin"), "origin")
    max_range = number(payload.get("max_range", -1.0), "max_range")
    deadline_s = float("inf")
    if payload.get("deadline_in_s") is not None:
        deadline_s = time.monotonic() + number(payload["deadline_in_s"], "deadline_in_s")
    client_id = str(payload.get("client_id", ""))
    return ScanRequest(
        session_id=session_id,
        cloud=cloud,
        origin=origin,
        max_range=max_range,
        deadline_s=deadline_s,
        client_id=client_id,
    )


#: The session fields a client may set.  The execution backend (``backend``,
#: ``mp_start_method``) and the shard count, which sizes a private pool's
#: threads or processes, are the operator's choice, made once for the server
#: (``repro-serve --backend`` / ``--shards``).
_CONFIG_FIELDS = (
    "batch_size",
    "admission_queue_limit",
    "tenant",
    "quota_points_per_s",
    "quota_burst_s",
)


def _require_json_type(name: str, value, default) -> None:
    """Refuse a JSON value whose type differs from the default field's.

    ``replace`` would take anything: the string ``"false"`` is truthy and a
    fractional ``batch_size`` survives until something indexes with it.  A
    float field takes any JSON number; ``bool`` is never a number here.
    """
    if isinstance(default, float):
        accepted: Tuple[type, ...] = (int, float)
    else:
        accepted = (type(default),)
    if type(value) not in accepted:
        raise TypeError(
            f"{name} must be {' or '.join(kind.__name__ for kind in accepted)}, "
            f"got {type(value).__name__} {value!r}"
        )


def session_config_from_payload(
    default: SessionConfig, payload: Optional[Mapping]
) -> Optional[SessionConfig]:
    """Derive a session config from the service default plus JSON overrides.

    ``None``/empty payload means "adopt the service default" (returns
    ``None`` so ``get_or_create_session`` skips the conflict check).  The
    overridable fields are ``batch_size``, ``admission_queue_limit``, the
    tenant and its quota, plus ``resolution_m``; the execution backend and
    the shard count stay the server's.  Unknown
    keys and invalid values raise :class:`HttpError` 400 ``bad_config``.
    """
    if not payload:
        return None
    overrides = dict(payload)
    resolution = overrides.pop("resolution_m", None)
    unknown = sorted(set(overrides) - set(_CONFIG_FIELDS))
    if unknown:
        raise HttpError(
            400,
            "bad_config",
            f"unknown session config field(s) {unknown}; "
            f"allowed: {sorted(_CONFIG_FIELDS + ('resolution_m',))}",
        )
    try:
        for name, value in overrides.items():
            _require_json_type(name, value, getattr(default, name))
        config = replace(default, **overrides)
        if resolution is not None:
            _require_json_type("resolution_m", resolution, default.accelerator.resolution_m)
            config = config.with_resolution(float(resolution))
    except (TypeError, ValueError) as error:
        raise HttpError(400, "bad_config", f"bad session config: {error}") from None
    return config


def receipt_payload(receipt: IngestReceipt) -> dict:
    return {
        "request_id": receipt.request_id,
        "session_id": receipt.session_id,
        "num_points": receipt.num_points,
        "queue_depth": receipt.queue_depth,
    }


def report_payload(report: BatchReport) -> dict:
    return {
        "session_id": report.session_id,
        "batch_id": report.batch_id,
        "request_ids": list(report.request_ids),
        "scans": report.scans,
        "rays_cast": report.rays_cast,
        "voxel_updates": report.voxel_updates,
        "duplicates_removed": report.duplicates_removed,
        "shard_updates": list(report.shard_updates),
        "modelled_cycles": report.modelled_cycles,
        "wall_seconds": report.wall_seconds,
        "backend": report.backend,
        "deadline_misses": report.deadline_misses,
    }


def query_payload(response: QueryResponse) -> dict:
    return {
        "status": response.status,
        "probability": response.probability,
        "shard_id": response.shard_id,
        "cached": response.cached,
        "cycles": response.cycles,
    }


def bbox_payload(summary: BoxOccupancySummary) -> dict:
    return {
        "occupied": summary.occupied,
        "free": summary.free,
        "unknown": summary.unknown,
        "voxels_scanned": summary.voxels_scanned,
    }


def bbox_chunk_payload(chunk: BboxChunk, include_voxels: bool = True) -> dict:
    payload = {
        "chunk": chunk.index,
        "occupied": chunk.occupied,
        "free": chunk.free,
        "unknown": chunk.unknown,
        "voxels_total": chunk.voxels_total,
    }
    if include_voxels:
        payload["voxels"] = [list(voxel) for voxel in chunk.voxels]
    return payload


def raycast_payload(response: RaycastResponse) -> dict:
    return {
        "hit": response.hit,
        "hit_point": list(response.hit_point) if response.hit_point else None,
        "distance": response.distance,
        "voxels_traversed": response.voxels_traversed,
        "cache_hits": response.cache_hits,
    }


def _list_payloads(items: Sequence, codec) -> List[dict]:
    return [codec(item) for item in items]
