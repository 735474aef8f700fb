"""Unit tests for the HTTP subsystem's transport-free pieces.

Covers the two modules that need no socket: the background-job registry
(:mod:`repro.serving.http.jobs`) and the JSON wire codecs
(:mod:`repro.serving.http.wire`), plus the framing decision of which requests
keep their connection.  The socket-level integration tests live in
``test_http.py`` and ``test_http_keepalive.py``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import time

import pytest

from repro.serving.http.jobs import DONE, FAILED, PENDING, RUNNING, JobManager
from repro.serving.http.server import HttpMapServer
from repro.serving.http.wire import (
    HttpError,
    HttpRequest,
    json_body,
    point3,
    read_request,
    require_field,
    scan_request_from_payload,
    session_config_from_payload,
)
from repro.serving.session import SessionConfig


def async_test(coroutine):
    @functools.wraps(coroutine)
    def runner(*args, **kwargs):
        return asyncio.run(coroutine(*args, **kwargs))

    return runner


class FakeClock:
    """Steppable monotonic clock for TTL tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# JobManager
# ---------------------------------------------------------------------------
@async_test
async def test_job_history_records_the_full_progression():
    jobs = JobManager()

    async def body(handle):
        handle.stage("flush", "draining queues")
        handle.stage("export")
        return {"leafs": 7}

    record = jobs.start("export", body)
    assert record.status == PENDING, "observable before the first await"
    finished = await jobs.wait(record.job_id)
    assert finished.status == DONE
    assert finished.result == {"leafs": 7}
    assert [stage for stage, _ in finished.history] == [
        PENDING,
        RUNNING,
        "flush",
        "export",
        DONE,
    ]
    timestamps = [timestamp for _, timestamp in finished.history]
    assert timestamps == sorted(timestamps)


@async_test
async def test_failed_job_captures_the_exception_and_keeps_the_loop_alive():
    jobs = JobManager()

    async def body(handle):
        handle.stage("flush")
        raise RuntimeError("shard worker died")

    record = jobs.start("export", body)
    finished = await jobs.wait(record.job_id)
    assert finished.status == FAILED
    assert finished.error == "RuntimeError: shard worker died"
    assert finished.history[-1][0] == FAILED
    assert finished.result is None


@async_test
async def test_job_artifact_is_kept_out_of_the_polling_payload():
    jobs = JobManager()

    async def body(handle):
        handle.set_artifact(b"\x00\x01octree", content_type="application/x-octree")
        return {"bytes": 8}

    record = jobs.start("export", body)
    finished = await jobs.wait(record.job_id)
    payload = finished.payload()
    assert payload["has_artifact"] is True
    assert "artifact" not in payload
    assert finished.artifact == b"\x00\x01octree"
    assert finished.artifact_content_type == "application/x-octree"


@async_test
async def test_completed_jobs_purge_after_the_ttl():
    clock = FakeClock()
    jobs = JobManager(completed_ttl_s=60.0, clock=clock)

    async def body(handle):
        return None

    record = jobs.start("flush_all", body)
    await jobs.wait(record.job_id)
    clock.advance(59.0)
    assert jobs.get(record.job_id) is not None
    clock.advance(2.0)
    assert jobs.get(record.job_id) is None
    assert len(jobs) == 0


@async_test
async def test_running_jobs_survive_the_ttl_until_they_finish():
    clock = FakeClock()
    jobs = JobManager(completed_ttl_s=1.0, clock=clock)
    release = asyncio.Event()

    async def body(handle):
        await release.wait()
        return None

    record = jobs.start("export", body)
    await asyncio.sleep(0)
    clock.advance(1_000.0)
    assert jobs.get(record.job_id) is not None, "in-flight jobs never expire"
    release.set()
    await jobs.wait(record.job_id)
    clock.advance(2.0)
    assert jobs.get(record.job_id) is None


@async_test
async def test_close_cancels_in_flight_jobs():
    jobs = JobManager()
    started = asyncio.Event()

    async def body(handle):
        started.set()
        await asyncio.sleep(3600)

    record = jobs.start("export", body)
    await started.wait()
    await jobs.close()
    assert record.status == FAILED
    assert record.error == "cancelled"
    # Idempotent: a second close with nothing in flight is a no-op.
    await jobs.close()


# ---------------------------------------------------------------------------
# Framing: which requests keep the connection open
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "version, connection, expected",
    [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "keep-alive", True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Close", False),  # regression: the comparison was case-sensitive
        ("HTTP/1.1", "keep-alive, Close", False),  # a token list
        ("HTTP/1.1", "Upgrade", True),
        ("HTTP/1.0", None, False),  # regression: a 1.0 client waits for the close
        ("HTTP/1.0", "Keep-Alive", True),
        ("HTTP/1.0", "close", False),
    ],
)
@async_test
async def test_keep_alive_follows_the_http_version_and_the_connection_tokens(
    version, connection, expected
):
    head = f"GET /healthz {version}\r\nHost: h\r\n"
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    reader = asyncio.StreamReader()
    reader.feed_data(head.encode() + b"\r\n")
    reader.feed_eof()
    request = await read_request(reader, max_body_bytes=1024)
    assert request.version == version
    assert request.keep_alive is expected


@async_test
async def test_a_chunked_request_body_is_a_411_that_asks_for_a_content_length():
    reader = asyncio.StreamReader()
    reader.feed_data(b"POST /v1/sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
    reader.feed_eof()
    with pytest.raises(HttpError) as excinfo:
        await read_request(reader, max_body_bytes=1024)
    assert (excinfo.value.status, excinfo.value.code) == (411, "length_required")
    assert "Content-Length" in excinfo.value.message


@pytest.mark.parametrize(
    "method, path",
    [
        ("POST", "/v1/sessions/map/scans"),
        ("PUT", "/v1/sessions/map/uploads/u1/chunks/0"),  # once capped by the chunk size
        ("POST", "/v1/sessions/map/export"),
    ],
)
@async_test
async def test_max_body_bytes_is_the_one_cap_on_every_route(method, path):
    cap = 64
    at_cap = asyncio.StreamReader()
    at_cap.feed_data(f"{method} {path} HTTP/1.1\r\nContent-Length: {cap}\r\n\r\n".encode())
    at_cap.feed_data(b"x" * cap)
    at_cap.feed_eof()
    request = await read_request(at_cap, max_body_bytes=cap)
    assert (request.method, request.path, request.body) == (method, path, b"x" * cap)

    # One byte over: refused from the head alone -- no body follows the
    # head here, so an attempt to read one would fail differently.
    over = asyncio.StreamReader()
    over.feed_data(f"{method} {path} HTTP/1.1\r\nContent-Length: {cap + 1}\r\n\r\n".encode())
    over.feed_eof()
    with pytest.raises(HttpError) as excinfo:
        await read_request(over, max_body_bytes=cap)
    assert (excinfo.value.status, excinfo.value.code) == (413, "body_too_large")
    assert f"request body of {cap + 1} bytes exceeds the {cap}-byte limit" in excinfo.value.message


@async_test
async def test_a_connection_handed_over_after_close_is_closed_and_gets_no_task():
    """An accept can complete while ``close()`` runs; nothing would ever cancel its task."""
    class Writer:
        closed = False

        def close(self) -> None:
            self.closed = True

    server = HttpMapServer(service=None)
    await server.close()
    writer = Writer()
    server._handle_connection(asyncio.StreamReader(), writer)
    assert writer.closed
    assert server._connections == set() and server._connections_accepted == 0


# ---------------------------------------------------------------------------
# Wire codecs
# ---------------------------------------------------------------------------
def _request(body: bytes = b"") -> HttpRequest:
    return HttpRequest(method="POST", path="/", query={}, headers={}, body=body)


def test_json_body_rejects_junk_and_non_objects():
    assert json_body(_request(b"")) == {}
    assert json_body(_request(b'{"a": 1}')) == {"a": 1}
    with pytest.raises(HttpError) as excinfo:
        json_body(_request(b"{not json"))
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_json")
    with pytest.raises(HttpError) as excinfo:
        json_body(_request(b"[1, 2, 3]"))
    assert excinfo.value.code == "bad_json"


def test_require_field_and_point3_map_to_400():
    with pytest.raises(HttpError) as excinfo:
        require_field({}, "points")
    assert (excinfo.value.status, excinfo.value.code) == (400, "missing_field")
    assert point3([1, 2, 3.5], "origin") == (1.0, 2.0, 3.5)
    for junk in (None, [1, 2], [1, 2, "x"], "abc"):
        with pytest.raises(HttpError) as excinfo:
            point3(junk, "origin")
        assert excinfo.value.code == "bad_point"


@pytest.mark.parametrize(
    "value",
    [
        "123",  # a string iterates to three digits
        [True, False, True],  # bool is an int subclass, not a JSON number
        [1, "2", 3],
        [1, 2, 3, 4],
        {"x": 1, "y": 2, "z": 3},
        [10**400, 0, 0],  # an integer literal past the float range
    ],
)
def test_point3_takes_only_an_array_of_three_json_numbers(value):
    with pytest.raises(HttpError) as excinfo:
        point3(value, "point")
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_point")


def test_scan_request_payload_roundtrip_and_deadline_conversion():
    before = time.monotonic()
    request = scan_request_from_payload(
        "map",
        {
            "points": [[1.0, 0.0, 0.2], [0.5, 0.5, 0.2]],
            "origin": [0.0, 0.0, 0.2],
            "max_range": 12.5,
            "deadline_in_s": 0.25,
            "client_id": "drone-7",
        },
    )
    after = time.monotonic()
    assert request.session_id == "map"
    assert len(request.cloud) == 2
    assert request.origin == (0.0, 0.0, 0.2)
    assert request.max_range == 12.5
    assert request.client_id == "drone-7"
    # deadline_in_s is relative; the wire codec anchors it to the service's
    # monotonic clock at decode time.
    assert before + 0.25 <= request.deadline_s <= after + 0.25


def test_scan_request_defaults_leave_the_deadline_unbounded():
    request = scan_request_from_payload(
        "map", {"points": [[1.0, 0.0, 0.0]], "origin": [0, 0, 0]}
    )
    assert math.isinf(request.deadline_s)
    assert request.max_range == -1.0


def test_scan_request_shape_violations_are_400s():
    good = {"points": [[1.0, 0.0, 0.0]], "origin": [0.0, 0.0, 0.0]}
    cases = [
        ({}, "missing_field"),
        ({"points": [[1.0, 0.0, 0.0]]}, "missing_field"),
        ({**good, "points": "junk"}, "bad_points"),
        ({**good, "origin": [1.0]}, "bad_point"),
        ({**good, "max_range": "far"}, "bad_field"),
        ({**good, "deadline_in_s": "soon"}, "bad_field"),
    ]
    for payload, code in cases:
        with pytest.raises(HttpError) as excinfo:
            scan_request_from_payload("map", payload)
        assert excinfo.value.status == 400, payload
        assert excinfo.value.code == code, payload


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("origin", "000", "bad_point"),
        ("origin", [True, False, True], "bad_point"),
        ("max_range", "12", "bad_field"),
        ("max_range", True, "bad_field"),
        ("deadline_in_s", "0.25", "bad_field"),
    ],
)
def test_a_scan_field_of_the_wrong_json_type_is_a_400(field, value, code):
    payload = {"points": [[1.0, 0.0, 0.0]], "origin": [0.0, 0.0, 0.0], field: value}
    with pytest.raises(HttpError) as excinfo:
        scan_request_from_payload("map", payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, code)


# The handlers check their fields before they touch the service, so a server
# without one answers a malformed field and fails on anything it would accept.
BOX = '"min": [0, 0, 0], "max": [1, 1, 1]'
RAY = '"origin": [0, 0, 0], "direction": [1, 0, 0]'
SCAN = '"points": [[1, 0, 0]], "origin": [0, 0, 0]'


@pytest.mark.parametrize(
    "handler, body, code",
    [
        ("_handle_query", '{"point": "123"}', "bad_point"),
        ("_handle_query", '{"point": [true, false, true]}', "bad_point"),
        ("_handle_scan_submit", '{"points": [[1, 0, 0]], "origin": "000"}', "bad_point"),
        ("_handle_scan_submit", '{%s, "wait": "false"}' % SCAN, "bad_field"),
        ("_handle_scan_submit", '{%s, "max_range": "12"}' % SCAN, "bad_field"),
        ("_handle_raycast", '{%s, "max_range": "12"}' % RAY, "bad_field"),
        ("_handle_raycast", '{%s, "max_range": true}' % RAY, "bad_field"),
        ("_stream_bbox", '{%s, "chunk_voxels": Infinity}' % BOX, "bad_field"),
        ("_stream_bbox", '{%s, "chunk_voxels": 1e400}' % BOX, "bad_field"),
        ("_stream_bbox", '{%s, "chunk_voxels": 2.7}' % BOX, "bad_field"),
        ("_stream_bbox", '{%s, "chunk_voxels": "12"}' % BOX, "bad_field"),
        ("_stream_bbox", '{%s, "chunk_voxels": 0}' % BOX, "bad_field"),
        ("_stream_bbox", '{%s, "include_voxels": "false"}' % BOX, "bad_field"),
    ],
)
@async_test
async def test_a_malformed_field_is_a_400_before_the_service_is_reached(handler, body, code):
    server = HttpMapServer(service=None)
    request = _request(body.encode())
    args = (None, True, "map") if handler == "_stream_bbox" else ("map",)
    with pytest.raises(HttpError) as excinfo:
        await getattr(server, handler)(request, *args)
    assert (excinfo.value.status, excinfo.value.code) == (400, code)


@pytest.mark.parametrize(
    "query, body, expected",
    [
        ({}, b'{"stream": true}', True),
        ({}, b'{"stream": false}', False),
        ({}, b"{}", False),
        ({}, b"not json", False),  # the handler answers the malformed body
        ({"stream": "yes"}, b"", True),
        ({"stream": "no"}, b'{"stream": true}', False),  # the query token wins
        ({"stream": "true"}, b'{"stream": "false"}', True),
        ({}, b'{"stream": "false"}', HttpError),
        ({}, b'{"stream": 1}', HttpError),
    ],
)
def test_the_body_stream_flag_is_a_json_boolean(query, body, expected):
    request = HttpRequest(method="POST", path="/", query=query, headers={}, body=body)
    if expected is HttpError:
        with pytest.raises(HttpError) as excinfo:
            HttpMapServer._wants_stream(request)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_field")
    else:
        assert HttpMapServer._wants_stream(request) is expected


def test_session_config_overrides_apply_on_top_of_the_default():
    default = SessionConfig(num_shards=1, batch_size=8)
    assert session_config_from_payload(default, None) is None
    assert session_config_from_payload(default, {}) is None
    config = session_config_from_payload(default, {"admission_queue_limit": 8})
    assert config.admission_queue_limit == 8
    assert config.batch_size == 8, "unspecified knobs keep the service default"


def test_the_shard_count_is_not_a_client_setting():
    """``num_shards`` sizes a private pool's threads or processes: the operator's
    ``repro-serve --shards``, so a client naming it gets the unknown-field 400."""
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(num_shards=1), {"num_shards": 4, "admission_queue_limit": 8})
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert "['num_shards']" in excinfo.value.message


def test_session_config_resolution_override_and_unknown_keys():
    default = SessionConfig(num_shards=1)
    config = session_config_from_payload(default, {"resolution_m": 0.1})
    assert config.accelerator.resolution_m == pytest.approx(0.1)
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(default, {"num_shard": 4})
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert "num_shard" in excinfo.value.message
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(default, {"num_shards": "many"})
    assert excinfo.value.code == "bad_config"


@pytest.mark.parametrize(
    "payload",
    [
        {"pipelined": True},
        {"flusher_concurrency": 2},
        {"negative_ttl_s": 1.0},
        {"scheduler_policy": "fifo"},
    ],
)
def test_removed_ingestion_knobs_are_unknown_config_fields(payload):
    """Ingestion has one mode and one order: the old overlap, negative-cache
    and scheduler knobs are unknown fields, not silently ignored ones."""
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(num_shards=1), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert next(iter(payload)) in excinfo.value.message


@pytest.mark.parametrize(
    "payload",
    [
        {"shard_prefix_levels": 8},
        {"cache_capacity": 128},
        {"bbox_cache_capacity": 0},
        {"default_max_range": 5.0},
    ],
)
def test_removed_session_settings_are_unknown_config_fields(payload):
    """The shard prefix follows from the tree depth, the cache sizes and the
    beam truncation are fixed: naming one is an unknown field."""
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(num_shards=1), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert f"[{next(iter(payload))!r}]" in excinfo.value.message


@pytest.mark.parametrize(
    "payload",
    [
        {"backend": "process"},
        {"backend": "inline"},
        {"mp_start_method": "spawn"},
        {"mp_start_method": None},
    ],
)
def test_the_execution_backend_is_not_a_client_setting(payload):
    """A client must not pick the backend: ``"process"`` would fork workers
    on the event-loop thread of an inline server."""
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(num_shards=1), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert f"[{next(iter(payload))!r}]" in excinfo.value.message


@pytest.mark.parametrize(
    "payload",
    [
        {"batch_size": 2.5},
        {"batch_size": True},  # bool is never a number here
        {"num_shards": False},
        {"num_shards": "2"},
        {"quota_points_per_s": "100"},
        {"quota_burst_s": True},
        {"tenant": 7},
        {"resolution_m": "0.1"},
        {"resolution_m": True},
        {"admission_queue_limit": "64"},
    ],
)
def test_session_config_rejects_a_value_of_the_wrong_json_type(payload):
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config"), payload
    assert next(iter(payload)) in excinfo.value.message


@pytest.mark.parametrize(
    "field",
    ["quota_points_per_s", "quota_burst_s", "resolution_m"],
)
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_session_config_rejects_a_non_finite_number(field, literal):
    """``json.loads`` parses these literals; a NaN quota would pass every
    range check and leave the tenant's quota silently unenforced."""
    payload = json.loads(f'{{"{field}": {literal}}}')
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert field in excinfo.value.message and "finite" in excinfo.value.message


def test_session_config_accepts_every_matching_json_type():
    config = session_config_from_payload(
        SessionConfig(),
        {
            "batch_size": 3,
            "quota_points_per_s": 100,  # any JSON number fits a float field
            "quota_burst_s": 0.5,
            "tenant": "fleet-a",
            "resolution_m": 1,
        },
    )
    assert config.batch_size == 3
    assert config.quota_points_per_s == 100
    assert config.tenant == "fleet-a"
    assert config.accelerator.resolution_m == pytest.approx(1.0)
