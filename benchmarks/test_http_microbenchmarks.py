"""Microbenchmarks of the HTTP lane: what a connection costs per read.

Two legs read the same 200 points from an in-process ``HttpMapServer`` on
loopback: through a :class:`MapServiceClient`, which keeps its connection,
and through one-shot ``http_request`` calls, which pay connect + accept +
close every time.  The gap between them is the share of an HTTP read that is
not the request; it sits next to the kernel legs of
``test_core_microbenchmarks.py`` so it stays visible.  (Client and server
share one event loop here, so both legs also carry the server's work.)
"""

import asyncio

import numpy as np
import pytest

from repro.serving import AsyncMapService, SessionConfig
from repro.serving.http import HttpMapServer, MapServiceClient, http_request

READS = 200


@pytest.fixture(scope="module")
def served_map():
    """``(loop, address, points, expected)``: a small ingested map behind a live server."""
    loop = asyncio.new_event_loop()
    service = AsyncMapService(default_config=SessionConfig(num_shards=2, batch_size=4))
    server = HttpMapServer(service, port=0)
    rng = np.random.default_rng(18)
    points = rng.uniform(-3.0, 3.0, size=(READS, 3)).round(3).tolist()

    async def start():
        await server.start()
        async with MapServiceClient(*server.address) as client:
            await client.create_session("map")
            for index in range(4):
                cloud = rng.uniform(-3.0, 3.0, size=(60, 3)).tolist()
                await client.submit_scan("map", cloud, [0.0, 0.1 * index, 0.2], max_range=5.0)
            await client.flush("map")
        session = service.manager.get_session("map")
        return [(answer.status, answer.probability) for answer in (session.query(*p) for p in points)]

    async def stop():
        await server.close()
        await service.close(drain=True)

    try:
        expected = loop.run_until_complete(start())
        assert len({status for status, _ in expected}) > 1, "the reads do not all answer alike"
        yield loop, server.address, points, expected
    finally:
        loop.run_until_complete(stop())
        loop.close()


def test_point_reads_on_a_kept_connection(benchmark, served_map):
    loop, address, points, expected = served_map
    client = MapServiceClient(*address)

    async def read_all():
        answers = [await client.query("map", *point) for point in points]
        return [(answer["status"], answer["probability"]) for answer in answers]

    try:
        assert benchmark.pedantic(lambda: loop.run_until_complete(read_all()), rounds=3, warmup_rounds=1) == expected
        health = loop.run_until_complete(client.healthz())
    finally:
        loop.run_until_complete(client.close())
    assert health["http"]["connections_open"] == 1, "every read of every round used one connection"


def test_point_reads_on_a_connection_each(benchmark, served_map):
    loop, address, points, expected = served_map

    async def read_all():
        answers = []
        for point in points:
            response = await http_request(*address, "POST", "/v1/sessions/map/query", {"point": point})
            answers.append(response.json())
        return [(answer["status"], answer["probability"]) for answer in answers]

    assert benchmark.pedantic(lambda: loop.run_until_complete(read_all()), rounds=3, warmup_rounds=1) == expected
