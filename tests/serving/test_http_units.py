"""Unit tests for the HTTP subsystem's transport-free pieces.

Covers the three modules that need no socket: the background-job registry
(:mod:`repro.serving.http.jobs`), the chunked-upload state machine
(:mod:`repro.serving.http.uploads`) and the JSON wire codecs
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
from repro.serving.http.uploads import UploadError, UploadManager
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
# UploadManager
# ---------------------------------------------------------------------------
def _scan_blob(scans) -> bytes:
    return json.dumps({"scans": scans}).encode("utf-8")


def test_upload_init_validates_shape_and_quota():
    uploads = UploadManager(max_chunks=8, max_upload_bytes=1024)
    with pytest.raises(UploadError) as excinfo:
        uploads.init("map", total_chunks=0)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_upload")
    with pytest.raises(UploadError) as excinfo:
        uploads.init("map", total_chunks=9)
    assert excinfo.value.status == 400
    with pytest.raises(UploadError) as excinfo:
        uploads.init("map", total_chunks=2, total_bytes=2048)
    assert (excinfo.value.status, excinfo.value.code) == (413, "upload_too_large")
    record = uploads.init("map", total_chunks=2, total_bytes=512)
    assert record.missing_chunks == [0, 1]
    assert len(uploads) == 1


def test_upload_lookup_is_session_scoped():
    uploads = UploadManager()
    record = uploads.init("map-a", total_chunks=1)
    with pytest.raises(UploadError) as excinfo:
        uploads.get("map-b", record.upload_id)
    assert (excinfo.value.status, excinfo.value.code) == (404, "unknown_upload")
    with pytest.raises(UploadError):
        uploads.get("map-a", "upload-999")
    assert uploads.get("map-a", record.upload_id) is record


def test_oversized_chunk_is_refused_with_413():
    uploads = UploadManager(max_chunk_bytes=16)
    record = uploads.init("map", total_chunks=1)
    with pytest.raises(UploadError) as excinfo:
        uploads.put_chunk("map", record.upload_id, 0, b"x" * 17)
    assert (excinfo.value.status, excinfo.value.code) == (413, "chunk_too_large")
    # The refused chunk was not stored.
    assert record.missing_chunks == [0]


def test_out_of_range_chunk_index_is_a_400():
    uploads = UploadManager()
    record = uploads.init("map", total_chunks=2)
    for index in (-1, 2):
        with pytest.raises(UploadError) as excinfo:
            uploads.put_chunk("map", record.upload_id, index, b"data")
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_chunk_index")


def test_chunk_retry_is_idempotent_but_conflicts_on_different_bytes():
    uploads = UploadManager()
    record = uploads.init("map", total_chunks=2)
    uploads.put_chunk("map", record.upload_id, 0, b"alpha")
    uploads.put_chunk("map", record.upload_id, 0, b"alpha")  # retry: fine
    assert record.received_bytes == 5, "retry did not double-count"
    with pytest.raises(UploadError) as excinfo:
        uploads.put_chunk("map", record.upload_id, 0, b"OTHER")
    assert (excinfo.value.status, excinfo.value.code) == (409, "chunk_conflict")


def test_commit_with_missing_chunks_names_them():
    uploads = UploadManager()
    record = uploads.init("map", total_chunks=3)
    uploads.put_chunk("map", record.upload_id, 1, b'"mid"')
    with pytest.raises(UploadError) as excinfo:
        uploads.commit("map", record.upload_id)
    assert (excinfo.value.status, excinfo.value.code) == (409, "upload_incomplete")
    assert excinfo.value.detail == {"missing_chunks": [0, 2]}
    # The upload is still pending -- the client can resume.
    assert uploads.get("map", record.upload_id) is record


def test_commit_checks_the_declared_total_bytes():
    uploads = UploadManager()
    blob = _scan_blob([{"points": [[1.0, 0.0, 0.0]], "origin": [0.0, 0.0, 0.0]}])
    record = uploads.init("map", total_chunks=1, total_bytes=len(blob) + 1)
    uploads.put_chunk("map", record.upload_id, 0, blob)
    with pytest.raises(UploadError) as excinfo:
        uploads.commit("map", record.upload_id)
    assert (excinfo.value.status, excinfo.value.code) == (409, "size_mismatch")


def test_commit_decodes_and_releases_the_upload():
    uploads = UploadManager()
    scans = [
        {"points": [[1.0, 0.0, 0.0]], "origin": [0.0, 0.0, 0.0]},
        {"points": [[0.0, 1.0, 0.0]], "origin": [0.0, 0.0, 0.0]},
    ]
    blob = _scan_blob(scans)
    half = len(blob) // 2
    record = uploads.init("map", total_chunks=2, total_bytes=len(blob))
    # Out-of-order arrival is fine.
    uploads.put_chunk("map", record.upload_id, 1, blob[half:])
    uploads.put_chunk("map", record.upload_id, 0, blob[:half])
    assert uploads.commit("map", record.upload_id) == scans
    assert uploads.pending_bytes() == 0
    with pytest.raises(UploadError):
        uploads.get("map", record.upload_id)


def test_commit_rejects_non_scan_documents():
    uploads = UploadManager()
    for blob, note in (
        (b"\xff\xfe", "not utf-8"),
        (b"{truncated", "not json"),
        (b"[1, 2]", "not an object"),
        (b'{"scans": 3}', "scans not a list"),
        (b'{"scans": [1]}', "scan not an object"),
    ):
        record = uploads.init("map", total_chunks=1)
        uploads.put_chunk("map", record.upload_id, 0, blob)
        with pytest.raises(UploadError) as excinfo:
            uploads.commit("map", record.upload_id)
        assert excinfo.value.code == "bad_upload_json", note


def test_per_upload_and_server_wide_quotas():
    uploads = UploadManager(max_chunk_bytes=64, max_upload_bytes=100, max_total_bytes=150)
    first = uploads.init("map", total_chunks=3)
    uploads.put_chunk("map", first.upload_id, 0, b"x" * 60)
    with pytest.raises(UploadError) as excinfo:
        uploads.put_chunk("map", first.upload_id, 1, b"x" * 50)
    assert (excinfo.value.status, excinfo.value.code) == (413, "upload_too_large")
    # A second upload pushes the *server-wide* buffer over 150 bytes.
    second = uploads.init("map", total_chunks=2)
    uploads.put_chunk("map", second.upload_id, 0, b"y" * 60)
    with pytest.raises(UploadError) as excinfo:
        uploads.put_chunk("map", second.upload_id, 1, b"y" * 40)
    assert (excinfo.value.status, excinfo.value.code) == (429, "upload_quota")
    # Aborting the first releases its bytes and unblocks the second.
    uploads.abort("map", first.upload_id)
    uploads.put_chunk("map", second.upload_id, 1, b"y" * 40)


def test_stale_uploads_are_purged_by_ttl():
    clock = FakeClock()
    uploads = UploadManager(stale_ttl_s=30.0, clock=clock)
    record = uploads.init("map", total_chunks=2)
    uploads.put_chunk("map", record.upload_id, 0, b"data")
    clock.advance(29.0)
    assert uploads.get("map", record.upload_id) is record
    # Any activity refreshes the idle timer.
    uploads.put_chunk("map", record.upload_id, 0, b"data")
    clock.advance(29.0)
    assert uploads.get("map", record.upload_id) is record
    clock.advance(2.0)
    with pytest.raises(UploadError) as excinfo:
        uploads.get("map", record.upload_id)
    assert excinfo.value.status == 404
    assert uploads.pending_bytes() == 0


def test_abort_session_discards_only_that_sessions_uploads():
    uploads = UploadManager()
    doomed_a = uploads.init("map-a", total_chunks=1)
    doomed_b = uploads.init("map-a", total_chunks=1)
    kept = uploads.init("map-b", total_chunks=1)
    assert uploads.abort_session("map-a") == 2
    for record in (doomed_a, doomed_b):
        with pytest.raises(UploadError):
            uploads.get("map-a", record.upload_id)
    assert uploads.get("map-b", kept.upload_id) is kept


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
    assert point3([1, "2", 3.5], "origin") == (1.0, 2.0, 3.5)
    for junk in (None, [1, 2], [1, 2, "x"], "abc"):
        with pytest.raises(HttpError) as excinfo:
            point3(junk, "origin")
        assert excinfo.value.code == "bad_point"


def test_scan_request_payload_roundtrip_and_deadline_conversion():
    before = time.monotonic()
    request = scan_request_from_payload(
        "map",
        {
            "points": [[1.0, 0.0, 0.2], [0.5, 0.5, 0.2]],
            "origin": [0.0, 0.0, 0.2],
            "max_range": 12.5,
            "priority": 3,
            "deadline_in_s": 0.25,
            "client_id": "drone-7",
        },
    )
    after = time.monotonic()
    assert request.session_id == "map"
    assert len(request.cloud) == 2
    assert request.origin == (0.0, 0.0, 0.2)
    assert request.max_range == 12.5
    assert request.priority == 3
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
    assert request.priority == 0


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


def test_session_config_overrides_apply_on_top_of_the_default():
    default = SessionConfig(num_shards=1, batch_size=8)
    assert session_config_from_payload(default, None) is None
    assert session_config_from_payload(default, {}) is None
    config = session_config_from_payload(
        default, {"num_shards": 4, "scheduler_policy": "deadline"}
    )
    assert config.num_shards == 4
    assert config.scheduler_policy == "deadline"
    assert config.batch_size == 8, "unspecified knobs keep the service default"


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
    [{"pipelined": True}, {"flusher_concurrency": 2}, {"negative_ttl_s": 1.0}],
)
def test_removed_ingestion_knobs_are_unknown_config_fields(payload):
    """Ingestion has one mode: the old overlap and negative-cache knobs are
    unknown fields, not silently ignored ones."""
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(num_shards=1), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
    assert next(iter(payload)) in excinfo.value.message


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
        {"mp_start_method": 1},
        {"resolution_m": "0.1"},
        {"resolution_m": True},
        {"cache_capacity": "4096"},
    ],
)
def test_session_config_rejects_a_value_of_the_wrong_json_type(payload):
    with pytest.raises(HttpError) as excinfo:
        session_config_from_payload(SessionConfig(), payload)
    assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config"), payload
    assert next(iter(payload)) in excinfo.value.message


@pytest.mark.parametrize(
    "field",
    ["quota_points_per_s", "quota_burst_s", "default_max_range", "resolution_m"],
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
            "mp_start_method": None,
            "resolution_m": 1,
        },
    )
    assert config.batch_size == 3
    assert config.quota_points_per_s == 100
    assert config.tenant == "fleet-a"
    assert config.accelerator.resolution_m == pytest.approx(1.0)
    spawn = session_config_from_payload(SessionConfig(), {"mp_start_method": "spawn"})
    assert spawn.mp_start_method == "spawn"
