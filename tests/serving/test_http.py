"""Socket-level integration tests for the HTTP network API.

Every test runs a real :class:`HttpMapServer` on an ephemeral loopback port
and talks to it through :class:`MapServiceClient` (or raw sockets for the
framing error paths), so the whole stack -- framing, routing, codecs,
jobs, and the :class:`AsyncMapService` underneath -- is exercised
exactly as a network caller sees it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import multiprocessing
import threading

import numpy as np
import pytest

from repro.core.verification import compare_trees
from repro.octomap import PointCloud
from repro.octomap.serialization import deserialize_tree
from repro.serving import AsyncMapService, ScanRequest, SessionConfig
from repro.serving.http import HttpMapServer, MapServiceClient, ServerError, http_request
from test_aio import _reference_tree

pytestmark = pytest.mark.filterwarnings(
    "error:coroutine .* was never awaited:RuntimeWarning"
)


def async_test(coro):
    """Run a coroutine test function on a fresh event loop."""

    @functools.wraps(coro)
    def wrapper(*args, **kwargs):
        return asyncio.run(coro(*args, **kwargs))

    return wrapper


class serve:
    """``async with serve() as (server, client):`` -- a live server + client.

    Owns the :class:`AsyncMapService` too: the server never closes the
    service, so the fixture drains it after the server stops accepting.  The
    client's kept connections are closed first: a leaked one fails the suite
    under ``-W error::ResourceWarning``.
    """

    def __init__(self, config: SessionConfig = None, **server_kwargs) -> None:
        self.config = config or SessionConfig(num_shards=2, batch_size=4)
        self.server_kwargs = server_kwargs

    async def __aenter__(self):
        self.service = AsyncMapService(default_config=self.config)
        self.server = HttpMapServer(self.service, port=0, **self.server_kwargs)
        await self.server.start()
        self.client = MapServiceClient(*self.server.address)
        return self.server, self.client

    async def __aexit__(self, *exc_info):
        await self.client.close()
        await self.server.close()
        await self.service.close(drain=True)


def _scan_payloads(count: int, seed: int = 7):
    """JSON scan payloads mirroring ``test_aio._requests`` geometry."""
    rng = np.random.default_rng(seed)
    return [
        {
            "points": rng.uniform(-3.0, 3.0, size=(20, 3)).tolist(),
            "origin": [0.0, 0.1 * index, 0.2],
            "max_range": 5.0,
        }
        for index in range(count)
    ]


def _as_request(payload: dict, session_id: str = "map") -> ScanRequest:
    """The in-process twin of a JSON scan payload (for reference trees)."""
    return ScanRequest(
        session_id=session_id,
        cloud=PointCloud(payload["points"]),
        origin=tuple(payload["origin"]),
        max_range=payload.get("max_range", -1.0),
    )


async def _submit_then_flush(server, client, session_id: str, submit):
    """``(await submit(), POST /flush reports)``, the reports covering the scans.

    ``flush`` answers with the reports produced *since the call began*, so a
    background flusher that drains first leaves it nothing to report.  The
    session's ingestion lock is therefore held (as in ``test_aio``'s
    slow-session test) until the server-side flush has taken its mark.
    """
    service = server.service
    started = asyncio.Event()
    flush = service.flush

    async def observed_flush(sid):
        started.set()  # the waiter resumes only once flush() first suspends
        return await flush(sid)

    service.flush = observed_flush
    try:
        async with service._entries[session_id].lock:
            submitted = await submit()
            pending = asyncio.ensure_future(client.flush(session_id))
            await started.wait()
        return submitted, await pending
    finally:
        del service.flush


def _other_tasks() -> list:
    """Every live task but the caller's: what a clean shutdown leaves empty."""
    return [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task() and not task.done()
    ]


async def _raw_exchange(host: str, port: int, raw: bytes) -> bytes:
    """Send raw bytes, return the full response (framing error paths)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        return await reader.read(65536)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


# ---------------------------------------------------------------------------
# Health, sessions, round trip
# ---------------------------------------------------------------------------
@async_test
async def test_healthz_and_session_lifecycle():
    async with serve() as (server, client):
        health = await client.healthz()
        assert health["status"] == "ok"
        assert health["sessions"] == 0

        created = await client.create_session("map", {"batch_size": 2})
        assert created["created"] is True
        assert server.service.manager.get_session("map").config.batch_size == 2
        again = await client.create_session("map")
        assert again["created"] is False
        assert await client.list_sessions() == ["map"]

        closed = await client.delete_session("map")
        assert closed["closed"] is True
        assert await client.list_sessions() == []
        with pytest.raises(ServerError) as excinfo:
            await client.delete_session("map")
        assert excinfo.value.status == 404


@async_test
async def test_submit_flush_query_roundtrip_over_the_wire():
    async with serve() as (server, client):
        await client.create_session("map")
        payloads = _scan_payloads(3)

        async def submit():
            return [
                await client.submit_scan("map", p["points"], p["origin"], max_range=5.0)
                for p in payloads
            ]

        receipts, reports = await _submit_then_flush(server, client, "map", submit)
        assert [r["request_id"] for r in receipts] == sorted(
            r["request_id"] for r in receipts
        )
        assert sum(report["scans"] for report in reports) == 3

        # The map over HTTP equals sequential in-process insertion.
        session = server.service.manager.get_session("map")
        reference = _reference_tree(session, [_as_request(p) for p in payloads])
        tolerance = session.config.accelerator.fixed_point.scale / 2.0
        diff = compare_trees(reference, session.export_octree(), tolerance)
        assert diff.equivalent, diff.summary()

        box = await client.query_bbox("map", (-3.0, -3.0, -3.0), (3.0, 3.0, 3.0))
        assert box["occupied"] > 0
        batch = await client.query_batch("map", [[0.0, 0.0, 0.2], [1.0, 0.1, 0.2]])
        assert len(batch) == 2 and all(
            r["status"] in ("occupied", "free", "unknown") for r in batch
        )
        ray = await client.raycast("map", [0.0, 0.0, 0.2], [1.0, 0.0, 0.0], 6.0)
        assert isinstance(ray["hit"], bool)

        stats = await client.session_stats("map")
        assert stats["ingest"]["scans"] == 3
        assert stats["queries"]["bbox"] == 1


@async_test
async def test_streamed_bbox_frames_match_the_aggregate():
    async with serve() as (server, client):
        await client.create_session("map")
        for payload in _scan_payloads(3):
            await client.submit_scan(
                "map", payload["points"], payload["origin"], max_range=5.0
            )
        await client.flush("map")
        minimum, maximum = (-1.0, -1.0, 0.0), (1.0, 1.0, 0.4)
        aggregate = await client.query_bbox("map", minimum, maximum)
        frames = [
            frame
            async for frame in client.stream_bbox(
                "map", minimum, maximum, chunk_voxels=16
            )
        ]
        assert len(frames) > 1, "the sweep actually chunked"
        assert all(len(frame["voxels"]) <= 16 for frame in frames)
        assert sum(len(frame["voxels"]) for frame in frames) == aggregate["voxels_scanned"]
        assert sum(frame["occupied"] for frame in frames) == aggregate["occupied"]
        assert sum(frame["free"] for frame in frames) == aggregate["free"]
        # Streaming an inverted box fails before the head is committed.
        with pytest.raises(ServerError) as excinfo:
            async for _ in client.stream_bbox("map", (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)):
                raise AssertionError("no frame expected")
        assert excinfo.value.status == 400


@async_test
async def test_deadline_misses_surface_in_http_stats():
    async with serve(SessionConfig(num_shards=1, batch_size=4)) as (server, client):
        await client.create_session("map")
        payload = _scan_payloads(1)[0]
        # A deadline that is live at admission (so the shed gate passes) but
        # expired by dispatch must be counted as a miss.  Hold the session
        # lock so the flusher cannot ingest until the deadline has lapsed.
        entry = server.service._entries["map"]
        async with entry.lock:
            await client.submit_scan(
                "map",
                payload["points"],
                payload["origin"],
                max_range=5.0,
                deadline_in_s=0.05,
            )
            await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
            await asyncio.sleep(0.1)
        await client.flush("map")
        stats = await client.session_stats("map")
        assert stats["ingest"]["deadline_misses"] == 1
        totals = (await client.stats())["totals"]
        assert totals["deadline_misses"] == 1
        # An *already*-expired deadline never reaches dispatch any more: the
        # admission shed gate drops it with a typed 503 and counts it.
        with pytest.raises(ServerError) as excinfo:
            await client.submit_scan(
                "map",
                payload["points"],
                payload["origin"],
                max_range=5.0,
                deadline_in_s=-1.0,
            )
        assert excinfo.value.status == 503
        assert excinfo.value.code == "deadline_shed"
        totals = (await client.stats())["totals"]
        assert totals["shed_requests"] == 1
        assert totals["deadline_misses"] == 1  # the shed one never dispatched


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------
@async_test
async def test_malformed_json_is_a_400_with_a_stable_code():
    async with serve() as (server, client):
        await client.create_session("map")
        host, port = server.address
        body = b"{this is not json"
        raw = (
            f"POST /v1/sessions/map/scans HTTP/1.1\r\nHost: h\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body
        response = await _raw_exchange(host, port, raw)
        head, _, payload = response.partition(b"\r\n\r\n")
        assert b"400 Bad Request" in head
        assert json.loads(payload)["error"]["code"] == "bad_json"


@pytest.mark.parametrize(
    "config", [{"backend": "process", "num_shards": 8}, {"mp_start_method": "fork"}]
)
@async_test
async def test_a_client_cannot_choose_the_execution_backend(config):
    """Regression: ``"backend": "process"`` made an inline server fork one
    worker per shard, on the event-loop thread."""
    async with serve() as (server, client):
        before = len(multiprocessing.active_children())
        with pytest.raises(ServerError) as excinfo:
            await client.create_session("map", config)
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
        assert len(multiprocessing.active_children()) == before
        assert await client.list_sessions() == []


@async_test
async def test_a_client_cannot_size_the_worker_pool():
    """Regression: ``num_shards`` in a create sized the session's private pool,
    so a client chose how many workers the server started.  One more than the
    server's default is refused, and nothing is started for it."""
    default = SessionConfig(num_shards=2, batch_size=4, backend="thread")
    async with serve(default) as (server, client):
        workers = {thread.name for thread in threading.enumerate() if thread.name.startswith("fleet")}
        with pytest.raises(ServerError) as excinfo:
            await client.create_session("map", {"num_shards": default.num_shards + 1})
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_config")
        assert "num_shards" in str(excinfo.value)
        assert await client.list_sessions() == []
        assert server.service.manager.session_ids() == ()
        assert {thread.name for thread in threading.enumerate() if thread.name.startswith("fleet")} == workers


@async_test
async def test_read_arguments_that_are_not_finite_are_answered_or_refused_never_a_500():
    """Regression: ``Infinity`` in a point was an ``OverflowError`` (HTTP 500);
    in a box corner or a ray it was a 500 or a cryptic message."""
    infinity, nan = float("inf"), float("nan")
    async with serve() as (server, client):
        await client.create_session("map")
        payload = _scan_payloads(1)[0]
        await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        await client.flush("map")

        # A point with no voxel is unknown space, on both read lanes.
        for value in (infinity, -infinity, nan, 1e300):
            assert (await client.query("map", value, 0.0, 0.2))["status"] == "unknown"
            batch = await client.query_batch("map", [[0.0, 0.0, 0.2], [0.0, value, 0.2]])
            assert batch[1] == {
                "status": "unknown", "probability": None, "shard_id": -1, "cached": False, "cycles": 0
            }

        # A box or a ray with no extent to sweep is the caller's mistake.
        refused = [
            client.query_bbox("map", (infinity, 0.0, 0.0), (1.0, 1.0, 1.0)),
            client.query_bbox("map", (0.0, 0.0, 0.0), (1.0, nan, 1.0)),
            client.query_bbox("map", (0.0, 0.0, 0.0), (1e300, 1.0, 1.0)),
            client.raycast("map", [0.0, 0.0, 0.2], [nan, 0.0, 0.0], 2.0),
            client.raycast("map", [0.0, 0.0, 0.2], [1.0, 0.0, 0.0], infinity),
            client.raycast("map", [infinity, 0.0, 0.2], [1.0, 0.0, 0.0], 2.0),
        ]
        for call in refused:
            with pytest.raises(ServerError) as excinfo:
                await call
            assert (excinfo.value.status, excinfo.value.code) == (400, "bad_value")
        with pytest.raises(ServerError) as excinfo:
            async for _ in client.stream_bbox("map", (0.0, -infinity, 0.0), (1.0, 1.0, 1.0)):
                raise AssertionError("no frame expected")
        assert excinfo.value.status == 400


@async_test
async def test_a_ray_from_a_hair_inside_a_face_of_the_volume_is_answered():
    """Regression: a ray whose origin lies within 1e-12 m of a face, with a
    direction component of order 1e-13 towards it, was clipped to an end
    just outside the volume and refused with a 400 ``bad_value``."""
    async with serve() as (server, client):
        await client.create_session("map")
        converter = server.service._entries["map"].session.router.converter
        face = converter.max_coordinate
        for origin, direction in (
            ([0.0, 0.0, math.nextafter(face, 0.0)], [1.0, 0.0, 1e-13]),
            ([-face, 0.1, 0.2], [-1e-13, 1.0, 0.0]),
        ):
            ray = await client.raycast("map", origin, direction, 5.0)
            assert ray["hit"] is False
            assert ray["voxels_traversed"] == 25 and ray["distance"] == pytest.approx(5.0)


@async_test
async def test_a_ray_from_the_outer_margin_of_a_face_travels_along_it():
    """Regression: a ray whose origin lies between the clip limit (0.999 of
    the face) and the face, with a component of 1e-12 or more towards it,
    was answered with its origin voxel alone and a distance of 0."""
    async with serve() as (server, client):
        await client.create_session("map")
        face = server.service._entries["map"].session.router.converter.max_coordinate
        for origin, direction in (
            ([math.nextafter(face, 0.0), 0.1, 0.2], [1e-10, 1.0, 0.0]),
            ([0.1, -face * 0.9995, 0.2], [0.0, -0.05, 1.0]),
        ):
            ray = await client.raycast("map", origin, direction, 5.0)
            assert ray["hit"] is False
            assert ray["voxels_traversed"] == 25 and ray["distance"] == pytest.approx(5.0)


@async_test
async def test_a_malformed_bulk_reply_is_a_500_naming_the_shard_not_a_400():
    """Regression: a ``query_keys`` reply one row short reached the client as
    numpy's shape-mismatch ``ValueError``, i.e. 400 ``bad_value``."""
    async with serve() as (server, client):
        await client.create_session("map")
        payload = _scan_payloads(1)[0]
        await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        await client.flush("map")
        engine = server.service._entries["map"].session.backend.pool.engine
        query_keys = engine.query_keys

        def one_row_short(gid, request):
            result = query_keys(gid, request)
            return type(result)(
                result.shard_id, result.statuses[:-1], result.raws[:-1], result.cycles, result.generation
            )

        engine.query_keys = one_row_short
        for call in (
            client.query_batch("map", [[0.0, 0.0, 0.2], [0.4, 0.0, 0.2]]),
            client.raycast("map", [0.0, 0.0, 0.2], [1.0, 0.0, 0.0], 4.0),
        ):
            with pytest.raises(ServerError) as excinfo:
                await call
            assert (excinfo.value.status, excinfo.value.code) == (500, "internal_error")
            assert "malformed query_keys reply" in str(excinfo.value)
            assert "shard" in str(excinfo.value)


@async_test
async def test_scan_with_an_unmappable_origin_is_a_400_and_spares_the_batch():
    async with serve(SessionConfig(num_shards=2, batch_size=2)) as (server, client):
        await client.create_session("map")
        good, other = _scan_payloads(2)

        async def submit_good_then_unmappable():
            await client.submit_scan("map", good["points"], good["origin"], max_range=5.0)
            with pytest.raises(ServerError) as excinfo:
                await client.submit_scan("map", other["points"], [1e9, 0.0, 0.0])
            return excinfo

        excinfo, reports = await _submit_then_flush(
            server, client, "map", submit_good_then_unmappable
        )
        assert (excinfo.value.status, excinfo.value.code) == (400, "bad_value")
        assert "outside the mappable volume" in str(excinfo.value)
        # The scan it would have been batched with is ingested; the session
        # did not fail-stop.
        assert sum(report["scans"] for report in reports) == 1
        assert sum(report["voxel_updates"] for report in reports) > 0
        ingest = (await client.session_stats("map"))["ingest"]
        assert ingest["scans"] == 1 and ingest["voxel_updates"] > 0

        async def submit_mappable():
            await client.submit_scan("map", other["points"], other["origin"], max_range=5.0)

        _, reports = await _submit_then_flush(server, client, "map", submit_mappable)
        assert sum(report["scans"] for report in reports) == 1
        assert (await client.session_stats("map"))["ingest"]["scans"] == 2


@async_test
async def test_unknown_session_job_and_route_are_404s():
    async with serve() as (server, client):
        payload = _scan_payloads(1)[0]
        with pytest.raises(ServerError) as excinfo:
            await client.submit_scan("ghost", payload["points"], payload["origin"])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_resource"
        with pytest.raises(ServerError) as excinfo:
            await client.get_job("job-999")
        assert (excinfo.value.status, excinfo.value.code) == (404, "unknown_job")
        for method, path in (("GET", "/v1/nonsense"), ("PATCH", "/v1/sessions")):
            with pytest.raises(ServerError) as excinfo:
                await client._call(method, path)
            assert (excinfo.value.status, excinfo.value.code) == (404, "unknown_route")
            # The error body advertises the API surface.
            assert any("/v1/sessions" in route for route in excinfo.value.detail["api"])


@pytest.mark.parametrize(
    "method, path",
    [
        ("POST", "/v1/sessions/map/uploads"),
        ("GET", "/v1/sessions/map/uploads/u1"),
        ("PUT", "/v1/sessions/map/uploads/u1/chunks/0"),
        ("POST", "/v1/sessions/map/uploads/u1/commit"),
        ("DELETE", "/v1/sessions/map/uploads/u1"),
    ],
)
@async_test
async def test_the_chunked_upload_routes_are_unknown_routes(method, path):
    """Scans arrive one per ``POST .../scans``; no upload route survives, and
    the 404 body advertises none."""
    async with serve() as (server, client):
        await client.create_session("map")
        with pytest.raises(ServerError) as excinfo:
            await client._call(method, path, {"total_chunks": 1} if method != "GET" else None)
        assert (excinfo.value.status, excinfo.value.code) == (404, "unknown_route")
        assert not any("upload" in route for route in excinfo.value.detail["api"])


@async_test
async def test_a_legacy_priority_field_is_ignored_and_scans_apply_in_arrival_order():
    """Old clients may still send ``priority``: it neither fails the submit
    nor reorders the queue, so the map is the arrival-order map."""
    async with serve() as (server, client):
        await client.create_session("map", {"batch_size": 2})
        payloads = _scan_payloads(5, seed=11)
        for payload, priority in zip(payloads, (0, 9, 5, 9, 1)):
            payload["priority"] = priority

        async def submit():
            return [await client._call("POST", "/v1/sessions/map/scans", p) for p in payloads]

        receipts, reports = await _submit_then_flush(server, client, "map", submit)
        dispatched = [rid for report in reports for rid in report["request_ids"]]
        assert dispatched == [receipt["request_id"] for receipt in receipts]
        session = server.service.manager.get_session("map")
        reference = _reference_tree(session, [_as_request(p) for p in payloads])
        tolerance = session.config.accelerator.fixed_point.scale / 2.0
        diff = compare_trees(reference, session.export_octree(), tolerance)
        assert diff.equivalent, diff.summary()


@async_test
async def test_health_and_session_delete_replies_carry_no_upload_fields():
    async with serve() as (server, client):
        await client.create_session("map")
        health = await client.healthz()
        assert set(health) == {"status", "sessions", "pending_requests", "jobs", "http"}
        assert await client.delete_session("map") == {"session_id": "map", "closed": True}


@async_test
async def test_oversized_body_is_refused_with_413_before_reading_it():
    async with serve(max_body_bytes=512) as (server, client):
        await client.create_session("map")
        big = _scan_payloads(1, seed=3)[0]
        big["points"] = (np.zeros((200, 3)) + 1.0).tolist()  # >512 bytes of JSON
        with pytest.raises(ServerError) as excinfo:
            await client.submit_scan("map", big["points"], big["origin"])
        assert (excinfo.value.status, excinfo.value.code) == (413, "body_too_large")
        assert "exceeds the 512-byte limit; split large scan batches" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
@async_test
async def test_export_job_runs_to_done_and_serves_the_artifact():
    async with serve() as (server, client):
        await client.create_session("map")
        for payload in _scan_payloads(3):
            await client.submit_scan(
                "map", payload["points"], payload["origin"], max_range=5.0
            )
        started = await client.start_export("map")
        assert started["status"] in ("pending", "running")
        job_id = started["job_id"]

        record = await client.wait_job(job_id)
        assert record["status"] == "done"
        # The full progression is observable from the history even though
        # polling may have missed the live stages.
        assert record["history"][:2] == ["pending", "running"]
        assert record["history"][-1] == "done"
        assert {"flush", "export", "serialize"} <= set(record["history"])
        assert record["result"]["occupied_leafs"] > 0
        assert record["has_artifact"] is True

        artifact = await client.job_result(job_id)
        assert isinstance(artifact, bytes)
        tree = deserialize_tree(artifact)
        direct = server.service.manager.get_session("map").export_octree()
        diff = compare_trees(tree, direct, 1e-9)
        assert diff.equivalent, diff.summary()
        assert any(job["job_id"] == job_id for job in await client.list_jobs())


@async_test
async def test_export_of_unknown_session_is_a_404_not_a_failed_job():
    async with serve() as (server, client):
        with pytest.raises(ServerError) as excinfo:
            await client.start_export("ghost")
        assert excinfo.value.status == 404
        assert await client.list_jobs() == []


@async_test
async def test_job_result_of_an_unfinished_job_is_a_409():
    async with serve() as (server, client):
        await client.create_session("map")
        started = await client.start_flush_all()
        record = await client.wait_job(started["job_id"])
        assert record["status"] == "done"
        # flush_all has no artifact: the result endpoint serves the JSON result.
        result = await client.job_result(started["job_id"])
        assert isinstance(result, dict)


# ---------------------------------------------------------------------------
# Multi-client equivalence across backends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["inline", "thread", "process"])
@async_test
async def test_concurrent_http_clients_match_sequential_insertion(backend):
    config = SessionConfig(
        num_shards=2,
        batch_size=3,
        backend=backend,
        mp_start_method=(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        ),
    )
    async with serve(config) as (server, client):
        # Create before any executor thread exists (process-backend rule).
        await client.create_session("map")
        payloads = _scan_payloads(9, seed=23)

        async def run_client(worker: int):
            receipts = {}
            async with MapServiceClient(*server.address) as own:
                for payload in payloads[worker::3]:
                    receipt = await own.submit_scan(
                        "map",
                        payload["points"],
                        payload["origin"],
                        max_range=5.0,
                        client_id=f"client-{worker}",
                    )
                    receipts[receipt["request_id"]] = payload
            return receipts

        by_id = {}
        for receipts in await asyncio.gather(*(run_client(w) for w in range(3))):
            by_id.update(receipts)
        await client.flush("map")

        session = server.service.manager.get_session("map")
        dispatched = [
            rid for report in session.pipeline.reports for rid in report.request_ids
        ]
        assert sorted(dispatched) == sorted(by_id), "every submit dispatched once"
        reference = _reference_tree(
            session, [_as_request(by_id[rid]) for rid in dispatched]
        )
        tolerance = session.config.accelerator.fixed_point.scale / 2.0
        diff = compare_trees(reference, session.export_octree(), tolerance)
        assert diff.equivalent, diff.summary()


# ---------------------------------------------------------------------------
# Metrics pipeline + request-id middleware
# ---------------------------------------------------------------------------
@async_test
async def test_request_id_header_is_echoed_on_success_and_error():
    async with serve() as (server, client):
        ok = await http_request(*server.address, "GET", "/healthz")
        assert ok.status == 200
        first_id = int(ok.headers["x-request-id"])
        assert first_id >= 1
        # Errors carry the header too -- the middleware wraps the whole
        # dispatch, not just the happy path.
        missing = await http_request(*server.address, "GET", "/v1/sessions/nope")
        assert missing.status == 404
        assert int(missing.headers["x-request-id"]) == first_id + 1


@async_test
async def test_metrics_endpoint_reports_windowed_rollups():
    async with serve() as (server, client):
        await client.create_session("map")
        for payload in _scan_payloads(3):
            await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        await client.flush("map")
        await client.query("map", 1.0, 0.0, 0.5)

        snapshot = await client._call("GET", "/v1/metrics")
        assert snapshot["totals"]["requests"] > 0
        assert snapshot["totals"]["by_outcome"]["ok"] > 0
        operations = snapshot["sessions"]["map"]["operations"]
        # Both layers report: the HTTP middleware and the async service.
        assert operations["http:scan_submit"]["count"] == 3
        assert operations["submit"]["count"] == 3
        assert operations["http:flush"]["count"] == 1
        assert operations["batch_apply"]["count"] >= 1
        for rollup in operations.values():
            latency = rollup["latency"]
            assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
            assert latency["count"] == rollup["count"]
        assert snapshot["sessions"]["map"]["windows"], "no windowed rollups"

        # The per-session route serves the same payload; unknown ids are 404.
        session_view = await client._call("GET", "/v1/metrics/sessions/map")
        assert session_view["operations"]["submit"]["count"] == 3
        with pytest.raises(ServerError) as excinfo:
            await client._call("GET", "/v1/metrics/sessions/never-seen")
        assert excinfo.value.status == 404

        # A /v1/metrics read is itself recorded (as a service-level request,
        # no session in the path) -- visible on the *next* snapshot.
        again = await client._call("GET", "/v1/metrics")
        assert again["service"]["http:metrics"]["count"] >= 1


@async_test
async def test_quota_reject_is_a_429_and_counted_in_metrics_and_stats():
    config = {"tenant": "acme", "quota_points_per_s": 1.0, "quota_burst_s": 1.0}
    async with serve() as (server, client):
        await client.create_session("map", config)
        payload = _scan_payloads(1)[0]
        await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        with pytest.raises(ServerError) as excinfo:
            await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "quota_exceeded"
        assert excinfo.value.detail["retry_after_s"] > 0.0

        stats = await client.stats()
        assert stats["totals"]["quota_rejects"] == 1
        snapshot = await client._call("GET", "/v1/metrics")
        operations = snapshot["sessions"]["map"]["operations"]
        assert operations["submit"]["outcomes"]["rejected"] == 1
        assert operations["http:scan_submit"]["outcomes"]["rejected"] == 1
        assert snapshot["totals"]["by_outcome"]["rejected"] == 2


# ---------------------------------------------------------------------------
# Shutdown hygiene
# ---------------------------------------------------------------------------
@async_test
async def test_server_close_leaves_no_orphan_tasks():
    service = AsyncMapService(default_config=SessionConfig(num_shards=1, batch_size=2))
    server = await HttpMapServer(service, port=0).start()
    client = MapServiceClient(*server.address)
    await client.create_session("map")
    payload = _scan_payloads(1)[0]
    await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
    await server.close()
    await service.close(drain=True)
    assert service.manager.get_session("map").stats.scans_ingested == 1, "drained"
    assert _other_tasks() == [], "orphan tasks after close"
    # The port is actually released (the kept connection is at EOF, so the
    # client dials again instead of writing into a dead socket).
    with pytest.raises((ConnectionRefusedError, OSError)):
        await client.healthz()
    await client.close()
