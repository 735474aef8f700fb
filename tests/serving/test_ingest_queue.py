"""The one ingest order: admitted scans are applied strictly in arrival order.

Each session's :class:`~repro.serving.batching.IngestionPipeline` keeps its
admitted requests in one FIFO queue; a flush pops up to ``batch_size`` of
them from the front.  These tests hold the queue to that contract at every
layer that feeds it -- the pipeline, the manager and the async front door --
and check that the resulting map is the arrival-order map.
"""

from __future__ import annotations

import asyncio
import math
import time

import pytest

from repro.core.verification import compare_trees
from repro.octomap import PointCloud
from repro.serving import AsyncMapService, MapSession, MapSessionManager, ScanRequest, SessionConfig
from test_aio import _reference_tree


def _request(request_id: int, deadline_s: float = math.inf, session_id: str = "map") -> ScanRequest:
    return ScanRequest(
        session_id=session_id,
        cloud=PointCloud([(1.0, 0.05 * (request_id % 7), 0.2)]),
        origin=(0.0, 0.0, 0.2),
        deadline_s=deadline_s,
        request_id=request_id,
    )


def _dispatched(reports) -> list:
    return [request_id for report in reports for request_id in report.request_ids]


@pytest.mark.parametrize("batch_size", [1, 2, 3, 8])
def test_flush_all_applies_requests_in_arrival_order(batch_size):
    ids = [3, 1, 4, 1_000, 5, 9, 2]
    with MapSession("map", SessionConfig(num_shards=2, batch_size=batch_size)) as session:
        for request_id in ids:
            session.submit(_request(request_id))
        reports = session.flush_all()
    assert _dispatched(reports) == ids
    assert [report.scans for report in reports] == [
        min(batch_size, len(ids) - start) for start in range(0, len(ids), batch_size)
    ]
    assert [report.batch_id for report in reports] == list(range(len(reports)))


def test_interleaved_submit_and_flush_keeps_arrival_order():
    with MapSession("map", SessionConfig(num_shards=1, batch_size=1)) as session:
        session.submit(_request(0))
        session.submit(_request(1))
        assert list(session.flush().request_ids) == [0]
        session.submit(_request(2))
        assert _dispatched(session.flush_all()) == [1, 2]
        assert session.pending_requests() == 0
        assert session.flush() is None


def test_an_idle_queue_flushes_nothing():
    with MapSession("map", SessionConfig(num_shards=1)) as session:
        assert session.flush() is None
        assert session.flush_all() == []
        assert session.pipeline.reports == []
        assert session.stats.batches_dispatched == 0


def test_receipts_and_pending_track_the_queue_depth():
    """Queue depth stays exact through long push/pop runs and refills."""
    with MapSession("map", SessionConfig(num_shards=1, batch_size=1)) as session:
        receipts = [session.submit(_request(request_id)) for request_id in range(130)]
        assert [receipt.queue_depth for receipt in receipts] == list(range(1, 131))
        for popped in range(1, 66):
            assert list(session.flush().request_ids) == [popped - 1]
            assert session.pending_requests() == 130 - popped
        refills = [session.submit(_request(request_id)) for request_id in range(130, 150)]
        assert [receipt.queue_depth for receipt in refills] == list(range(66, 86))
        assert _dispatched(session.flush_all()) == list(range(65, 150))
        assert session.pending_requests() == 0


def test_deadlines_do_not_reorder_the_queue():
    """A deadline is counted, never obeyed: an earlier (or missed) deadline
    submitted later still waits behind every request admitted before it."""
    now = time.monotonic()
    deadlines = [math.inf, now + 60.0, math.inf, now + 5.0, math.inf, now - 1.0]
    with MapSession("map", SessionConfig(num_shards=1, batch_size=4)) as session:
        for request_id, deadline in enumerate(deadlines):
            session.submit(_request(request_id, deadline_s=deadline))
        reports = session.flush_all()
    assert _dispatched(reports) == list(range(len(deadlines)))
    assert [report.deadline_misses for report in reports] == [0, 1]


def test_a_refused_request_is_not_queued_and_later_requests_keep_their_place():
    with MapSession("map", SessionConfig(num_shards=1, batch_size=8)) as session:
        session.submit(_request(0))
        unmappable = ScanRequest(
            session_id="map",
            cloud=PointCloud([(1.0, 0.0, 0.2)]),
            origin=(1e9, 0.0, 0.2),
            request_id=1,
        )
        with pytest.raises(ValueError, match="outside the mappable volume"):
            session.submit(unmappable)
        assert session.pending_requests() == 1
        assert session.submit(_request(2)).queue_depth == 2
        assert _dispatched(session.flush_all()) == [0, 2]


def test_the_manager_keeps_each_sessions_arrival_order():
    manager = MapSessionManager(SessionConfig(num_shards=1, batch_size=2))
    submitted = {"a": [], "b": []}
    for session_id in ("a", "b", "b", "a", "a", "b", "a"):
        receipt = manager.submit(_request(-1, session_id=session_id))
        submitted[session_id].append(receipt.request_id)
    reports = manager.flush_all()
    for session_id, ids in submitted.items():
        ours = [report for report in reports if report.session_id == session_id]
        assert _dispatched(ours) == ids
    assert manager.pending_requests() == 0


def test_async_submits_are_applied_in_arrival_order():
    """The background flusher drains batches while submits keep arriving;
    whatever the interleaving, batches leave in admission order."""

    async def run():
        config = SessionConfig(num_shards=2, batch_size=2)
        async with AsyncMapService(default_config=config) as service:
            receipts = []
            for request_id in range(9):
                receipts.append(await service.submit(_request(request_id)))
                await asyncio.sleep(0)
            await service.flush("map")
            session = service.manager.get_session("map")
            return [receipt.request_id for receipt in receipts], _dispatched(
                session.pipeline.reports
            )

    admitted, dispatched = asyncio.run(run())
    assert dispatched == admitted


def test_the_map_is_the_arrival_order_map_when_order_matters():
    """Log-odds clamping makes the map order-dependent: ten free passes then
    one hit differs from one hit then ten free passes.  Each order gives
    exactly the sequential software map of that order."""
    through = ScanRequest(
        session_id="map", cloud=PointCloud([(2.0, 0.0, 0.2)]), origin=(0.0, 0.0, 0.2)
    )
    onto = ScanRequest(
        session_id="map", cloud=PointCloud([(1.0, 0.0, 0.2)]), origin=(0.0, 0.0, 0.2)
    )
    orders = {"frees-first": [through] * 10 + [onto], "hit-first": [onto] + [through] * 10}
    values = {}
    for name, requests in orders.items():
        with MapSession("map", SessionConfig(num_shards=2, batch_size=3)) as session:
            for request_id, request in enumerate(requests):
                session.submit(request.with_request_id(request_id))
            session.flush_all()
            reference = _reference_tree(session, requests)
            tolerance = session.config.accelerator.fixed_point.scale / 2.0
            report = compare_trees(reference, session.export_octree(), tolerance)
            assert report.equivalent, (name, report.summary())
            values[name] = session.query(1.0, 0.0, 0.2).probability
    assert values["frees-first"] != values["hit-first"]
