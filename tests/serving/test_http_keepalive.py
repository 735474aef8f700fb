"""Socket-level tests of the keep-alive lane, both ends.

:class:`MapServiceClient` keeps its connections and the server's connection
loop serves request after request on them; these tests pin what that adds
to ``test_http.py`` (whose three-client equivalence property now runs over
kept connections too): how many connections a client opens, when one goes
back on the idle stack and when it must not, that nothing is ever sent
twice, and that the server can always be closed.  Connection counts are read
where an operator reads them: the ``http`` block of ``/healthz``.
"""

from __future__ import annotations

import asyncio
import gc
import warnings

import pytest

from repro.serving import AsyncMapService, SessionConfig
from repro.serving.http import HttpMapServer, MapServiceClient, ServerError, http_request
from repro.serving.http.client import _close
from test_http import _other_tasks, _scan_payloads, async_test, serve

pytestmark = pytest.mark.filterwarnings(
    "error:coroutine .* was never awaited:RuntimeWarning"
)


async def _http_counters(client: MapServiceClient, settle_open: int = 0) -> dict:
    """The server's connection counters, read over the client's own lane.

    ``settle_open`` polls until at most that many connections are open: the
    server notices that a client hung up a few loop turns after it happened.
    """
    counters = (await client.healthz())["http"]
    deadline = asyncio.get_running_loop().time() + 2.0
    while settle_open and counters["connections_open"] > settle_open:
        assert asyncio.get_running_loop().time() < deadline, counters
        await asyncio.sleep(0.005)
        counters = (await client.healthz())["http"]
    return counters


async def _ingest_map(client: MapServiceClient, scans: int = 3) -> None:
    await client.create_session("map")
    for payload in _scan_payloads(scans):
        await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
    await client.flush("map")


# ---------------------------------------------------------------------------
# Reuse
# ---------------------------------------------------------------------------
@async_test
async def test_sequential_calls_of_mixed_verbs_share_one_connection():
    async with serve() as (server, client):
        await client.create_session("map")  # POST
        payload = _scan_payloads(1)[0]
        await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        await client.flush("map")
        await client.query("map", 0.5, 0.0, 0.2)
        await client.stats()  # GET
        frames = [frame async for frame in client.stream_bbox("map", (-1, -1, 0), (1, 1, 0.4))]
        assert frames, "a chunked response travelled on the kept connection too"
        await client.delete_session("map")  # DELETE
        sent = 7

        async with client._request("GET", "/healthz") as exchange:
            response = await exchange.read()
        assert int(response.headers["x-request-id"]) == sent + 1, "ids keep counting on one connection"
        assert response.headers["connection"] == "keep-alive"
        assert response.json()["http"] == {
            "connections_accepted": 1,
            "connections_open": 1,
            "requests": sent + 1,
        }


@async_test
async def test_concurrent_calls_each_hold_a_connection_and_get_their_own_answer():
    async with serve() as (server, client):
        await _ingest_map(client)
        session = server.service.manager.get_session("map")
        points = [(0.4 * index - 1.4, 0.1 * index, 0.2) for index in range(6)]
        ray = ((0.0, 0.0, 0.2), (1.0, 0.0, 0.0), 6.0)
        box = ((-1.0, -1.0, 0.0), (1.0, 1.0, 0.4))

        def calls():
            return [
                *(client.query("map", *point) for point in points),
                client.raycast("map", *ray),
                client.query_bbox("map", *box),
            ]

        def check(answers) -> None:
            for point, answer in zip(points, answers):
                expected = session.query(*point)
                assert (answer["status"], answer["probability"], answer["shard_id"]) == (
                    expected.status, expected.probability, expected.shard_id,
                ), point
            expected_ray = session.raycast(*ray)
            assert (answers[6]["hit"], answers[6]["voxels_traversed"]) == (
                expected_ray.hit, expected_ray.voxels_traversed,
            )
            assert answers[7]["voxels_scanned"] == session.query_bbox(*box).voxels_scanned

        assert len({session.query(*point).probability for point in points}) > 1, "answers differ"
        before = server._http_requests
        # Every read needs the session lock: while it is held all eight are
        # in flight at once, so none can borrow another's connection.
        async with server.service._entries["map"].lock:
            pending = asyncio.gather(*calls())
            while server._http_requests < before + 8:
                await asyncio.sleep(0.002)
        check(await asyncio.wait_for(pending, 10.0))
        counters = await _http_counters(client)
        assert counters["connections_accepted"] == counters["connections_open"] == 8

        # All eight went back on the stack: a second burst dials nothing.
        check(await asyncio.gather(*calls()))
        assert (await _http_counters(client))["connections_accepted"] == 8


# ---------------------------------------------------------------------------
# When a connection is kept and when it is dropped
# ---------------------------------------------------------------------------
@async_test
async def test_error_replies_keep_the_connection_and_framing_errors_drop_it():
    config = {"tenant": "acme", "quota_points_per_s": 1.0, "quota_burst_s": 1.0}
    async with serve(max_body_bytes=2048) as (server, client):
        await client.create_session("map", config)
        payload = _scan_payloads(1)[0]
        await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        # The export job's flush waits on the session lock, so while the
        # test holds it the job cannot finish and its result is a 409.  The
        # 400 is refused by the wire codec, before any session work.
        async with server.service._entries["map"].lock:
            export = await client.start_export("map")
            refused = [
                (400, client.query_bbox("map", (1.0, 0.0), (0.0, 0.0, 0.0))),
                (404, client.session_stats("ghost")),
                (404, client._call("GET", "/v1/nonsense")),
                (409, client.job_result(export["job_id"])),
                (429, client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)),
            ]
            for status, call in refused:
                with pytest.raises(ServerError) as excinfo:
                    await call
                assert excinfo.value.status == status
        assert (await _http_counters(client))["connections_accepted"] == 1

        # The server answers a framing error with ``Connection: close`` (the
        # stream position is lost): the client must not keep that socket.
        accepted = 1
        big = [[1.0, 1.0, 1.0]] * 400  # > 2048 bytes of JSON, never read by the server
        framing_errors = [
            (413, client.submit_scan("map", big, payload["origin"])),
            (400, client._call("GET", "/v1/sessions with spaces")),  # malformed request line
        ]
        for status, call in framing_errors:
            with pytest.raises(ServerError) as excinfo:
                await call
            assert excinfo.value.status == status
            accepted += 1  # the next call dials a fresh connection...
            counters = await _http_counters(client, settle_open=1)  # ...and closed the old one
            assert counters["connections_accepted"] == accepted


@async_test
async def test_abandoned_stream_is_not_reused_and_a_drained_one_is():
    async with serve() as (server, client):
        await _ingest_map(client)
        box = ((-1.0, -1.0, 0.0), (1.0, 1.0, 0.4))
        drained = [frame async for frame in client.stream_bbox("map", *box, chunk_voxels=16)]
        assert len(drained) > 2, "the sweep actually chunked"
        assert (await _http_counters(client))["connections_accepted"] == 1

        stream = client.stream_bbox("map", *box, chunk_voxels=16)
        assert await stream.__anext__() == drained[0]
        await stream.aclose()  # the consumer walks away with frames still on the wire
        # A half-read connection on the stack would hand the leftover frames
        # to the next caller as its response head.
        summary = await client.query_bbox("map", *box)
        assert summary["occupied"] == sum(frame["occupied"] for frame in drained)
        assert summary["voxels_scanned"] == sum(len(frame["voxels"]) for frame in drained)
        assert (await _http_counters(client, settle_open=1))["connections_accepted"] == 2


@async_test
async def test_http_request_is_the_independent_connection_helper():
    async with serve() as (server, client):
        seen = []
        dispatch = server._dispatch

        async def recording_dispatch(request, writer, keep_alive):
            seen.append((request.headers.get("connection"), keep_alive))
            return await dispatch(request, writer, keep_alive)

        server._dispatch = recording_dispatch
        for expected_id in (1, 2):
            response = await http_request(*server.address, "GET", "/healthz")
            assert int(response.headers["x-request-id"]) == expected_id
            assert response.headers["connection"] == "close"
            # Its own connection, already closed when the call returns.
            assert response.json()["http"]["connections_accepted"] == expected_id
        assert seen == [("close", False), ("close", False)]
        counters = await _http_counters(client, settle_open=1)
        assert counters["connections_accepted"] == 3


# ---------------------------------------------------------------------------
# At most once
# ---------------------------------------------------------------------------
@async_test
async def test_server_restart_between_two_calls_is_invisible():
    service = AsyncMapService(default_config=SessionConfig(num_shards=1, batch_size=2))
    server = await HttpMapServer(service, port=0).start()
    async with MapServiceClient(*server.address) as client:
        await client.create_session("map")
        await server.close()
        with pytest.raises(OSError):
            await client.healthz()  # nobody listens: dialled afresh, refused
        server = await HttpMapServer(service, port=client.port).start()
        # The kept connection was closed by the old server; the client saw
        # the EOF and dials the new one instead of writing into it.
        assert await client.list_sessions() == ["map"]
        assert (await _http_counters(client))["connections_accepted"] == 1
    await server.close()
    await service.close(drain=True)


@async_test
async def test_a_scan_is_never_sent_twice_when_the_server_hangs_up_after_reading_it():
    async with serve() as (server, client):
        await client.create_session("map")
        dispatch = server._dispatch

        async def admit_then_hang_up(request, writer, keep_alive):
            if request.path.endswith("/scans"):
                await server._handle_scan_submit(request, "map")
                raise ConnectionResetError  # the connection loop closes without a reply
            return await dispatch(request, writer, keep_alive)

        server._dispatch = admit_then_hang_up
        payload = _scan_payloads(1)[0]
        # The client cannot know whether the scan was admitted, so it must
        # report the failure and not decide to send it again.
        with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
            await client.submit_scan("map", payload["points"], payload["origin"], max_range=5.0)
        await client.flush("map")  # the next call works, on a fresh connection
        assert (await client.session_stats("map"))["ingest"]["scans"] == 1
        assert (await _http_counters(client, settle_open=1))["connections_accepted"] == 2


# ---------------------------------------------------------------------------
# Event loops
# ---------------------------------------------------------------------------
def test_one_client_under_two_event_loops_works_and_leaks_no_task():
    """The benchmark harness's pattern: one client per ``asyncio.run``, never closed."""
    client = MapServiceClient("127.0.0.1", 0)

    async def one_run(close_client: bool):
        # Server and service are bound to their loop; only the client straddles two.
        service = AsyncMapService(default_config=SessionConfig(num_shards=1, batch_size=2))
        server = await HttpMapServer(service, port=client.port).start()
        client.port = server.port
        await client.create_session("map")
        assert await client.list_sessions() == ["map"]
        counters = await _http_counters(client)
        assert counters["connections_accepted"] == counters["connections_open"] == 1
        if close_client:
            await client.close()
        await server.close()
        await service.close(drain=True)
        assert _other_tasks() == []

    asyncio.run(one_run(close_client=False))
    with warnings.catch_warnings():
        # The first loop ended with the client's connection open, which is the
        # point: it can no longer be closed through its loop, only collected.
        warnings.simplefilter("ignore", ResourceWarning)
        asyncio.run(one_run(close_client=True))
        gc.collect()


# ---------------------------------------------------------------------------
# Server shutdown with keep-alive connections open
# ---------------------------------------------------------------------------
async def _raw_keep_alive_request(host: str, port: int, path: str, body: bytes = b""):
    """A hand-rolled client that sends one keep-alive request and stays connected."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"POST {path} HTTP/1.1\r\nHost: h\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body)
    await writer.drain()
    return reader, writer


@async_test
async def test_close_returns_with_an_idle_keep_alive_connection_open():
    """Regression: ``close()`` awaited ``wait_closed()`` before dropping the
    connections, which since Python 3.12.1 waits for exactly those."""
    service = AsyncMapService(default_config=SessionConfig(num_shards=1, batch_size=2))
    server = await HttpMapServer(service, port=0).start()
    reader, writer = await _raw_keep_alive_request(*server.address, "/v1/flush_all")
    head = await reader.readuntil(b"\r\n\r\n")
    assert b"202 Accepted" in head and b"Connection: keep-alive" in head
    await reader.readexactly(int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0]))

    await asyncio.wait_for(server.close(), 2.0)
    assert await reader.read() == b"", "the server closed its end"
    await _close(writer)
    await service.close(drain=True)
    assert _other_tasks() == []


@async_test
async def test_close_returns_with_a_request_in_flight():
    service = AsyncMapService(default_config=SessionConfig(num_shards=1, batch_size=2))
    server = await HttpMapServer(service, port=0).start()
    service.get_or_create_session("map")
    before = server._http_requests
    async with service._entries["map"].lock:  # the query handler parks on it
        reader, writer = await _raw_keep_alive_request(
            *server.address, "/v1/sessions/map/query", b'{"point": [0.0, 0.0, 0.2]}'
        )
        while server._http_requests == before:
            await asyncio.sleep(0.002)
        await asyncio.wait_for(server.close(), 2.0)
    assert await reader.read() == b"", "dropped without an answer"
    await _close(writer)
    await service.close(drain=True)
    assert _other_tasks() == []
