"""Asyncio admission front end: equivalence, backpressure, clean shutdown.

The suite runs each coroutine test through ``asyncio.run`` on a fresh event
loop, so it needs no asyncio pytest plugin (pytest-asyncio is in the test
extra for CI convenience, not a requirement).  Unawaited-coroutine warnings
are escalated to errors for every test in this module -- a dropped coroutine
in the serving layer is a bug, not noise -- and CI additionally runs the
module with ``-W error::RuntimeWarning``.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing

import numpy as np
import pytest

from repro.core.verification import compare_trees
from repro.octomap import OccupancyOcTree, PointCloud
from repro.serving import (
    AdmissionQueueFull,
    AsyncMapService,
    MapSessionManager,
    ScanRequest,
    SessionConfig,
)

pytestmark = pytest.mark.filterwarnings(
    "error:coroutine .* was never awaited:RuntimeWarning"
)


def async_test(coro):
    """Run a coroutine test function on a fresh event loop."""

    @functools.wraps(coro)
    def wrapper(*args, **kwargs):
        return asyncio.run(coro(*args, **kwargs))

    return wrapper


def _requests(count: int, session_id: str = "map", seed: int = 7):
    rng = np.random.default_rng(seed)
    return [
        ScanRequest(
            session_id=session_id,
            cloud=PointCloud(rng.uniform(-3.0, 3.0, size=(20, 3))),
            origin=(0.0, 0.1 * index, 0.2),
            max_range=5.0,
        )
        for index in range(count)
    ]


def _reference_tree(session, requests):
    """Sequential software insertion with the session's quantised parameters."""
    accel_config = session.config.accelerator
    tree = OccupancyOcTree(
        accel_config.resolution_m,
        tree_depth=accel_config.tree_depth,
        params=accel_config.quantized_params().as_float_params(),
    )
    for request in requests:
        tree.insert_point_cloud(request.cloud, request.origin, max_range=request.max_range)
    tree.prune()
    return tree


def _assert_session_matches_dispatch_order(service, session_id, submitted):
    """The session's map equals sequential insertion in dispatch order."""
    session = service.manager.get_session(session_id)
    dispatched = [
        rid for report in session.pipeline.reports for rid in report.request_ids
    ]
    by_id = {request.request_id: request for request in submitted}
    assert sorted(dispatched) == sorted(by_id), "every submit dispatched exactly once"
    reference = _reference_tree(session, [by_id[rid] for rid in dispatched])
    tolerance = session.config.accelerator.fixed_point.scale / 2.0
    report = compare_trees(reference, session.export_octree(), tolerance)
    assert report.equivalent, report.summary()
    assert report.max_abs_error <= tolerance


# ---------------------------------------------------------------------------
# Basic flow
# ---------------------------------------------------------------------------
@async_test
async def test_submit_is_admission_only_and_flush_builds_the_map():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=2)
    ) as service:
        requests = _requests(4)
        receipts = [await service.submit(request) for request in requests]
        assert [receipt.request_id for receipt in receipts] == sorted(
            receipt.request_id for receipt in receipts
        )
        reports = await service.flush("map")
        assert reports, "flush returned the drain's batch reports"
        assert service.pending_requests() == 0
        stats = service.manager.get_session("map").stats
        assert stats.async_submits == 4
        assert stats.scans_ingested == 4
        response = await service.query("map", 1.0, 0.1, 0.2)
        assert response.status in ("occupied", "free", "unknown")


@async_test
async def test_query_batch_bbox_and_raycast_coroutines_work():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=4)
    ) as service:
        for request in _requests(3):
            await service.submit(request)
        await service.flush("map")
        batch = await service.query_batch("map", [(0.0, 0.0, 0.2), (1.0, 0.0, 0.2)])
        assert len(batch) == 2
        box = await service.query_bbox("map", (-0.4, -0.4, 0.0), (0.4, 0.4, 0.4))
        assert box.voxels_scanned > 0
        ray = await service.raycast("map", (0.0, 0.0, 0.2), (1.0, 0.0, 0.0), 4.0)
        assert ray.voxels_traversed > 0


# ---------------------------------------------------------------------------
# The acceptance property: async multi-client ingestion == sequential insertion
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["inline", "thread", "process", "socket"])
@async_test
async def test_multi_client_ingestion_equals_sequential_insertion(backend):
    """Concurrent client coroutines submitting a fixed request sequence yield
    a map equivalent to sequential insertion (in the dispatch order the batch
    reports recorded) -- on every execution backend."""
    config = SessionConfig(num_shards=2, batch_size=3, backend=backend)
    async with AsyncMapService(default_config=config) as service:
        # Eager creation: with the process backend the shard workers must
        # fork before the executor threads exist.
        service.get_or_create_session("map")
        requests = _requests(9)
        submitted = []

        async def run_client(chunk):
            for request in chunk:
                receipt = await service.submit(request)
                submitted.append(request.with_request_id(receipt.request_id))
                await asyncio.sleep(0)  # interleave with the other clients

        await asyncio.gather(
            run_client(requests[0:3]), run_client(requests[3:6]), run_client(requests[6:9])
        )
        await service.flush_all()
        _assert_session_matches_dispatch_order(service, "map", submitted)


@async_test
async def test_each_session_runs_exactly_one_flusher_task():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=1, batch_size=2)
    ) as service:
        for session_id in ("east", "west"):
            service.get_or_create_session(session_id)
        service.get_or_create_session("east")  # an existing session gets no second flusher
        flushers = sorted(
            task.get_name()
            for task in asyncio.all_tasks()
            if task.get_name().startswith("aio-flusher-")
        )
        assert flushers == ["aio-flusher-east", "aio-flusher-west"]
        assert service._entries["east"].flusher.get_name() == "aio-flusher-east"


@async_test
async def test_concurrent_sessions_stay_isolated():
    config = SessionConfig(num_shards=2, batch_size=2)
    async with AsyncMapService(default_config=config) as service:
        submitted = {"east": [], "west": []}

        async def run_client(session_id, seed):
            for request in _requests(4, session_id=session_id, seed=seed):
                receipt = await service.submit(request)
                submitted[session_id].append(request.with_request_id(receipt.request_id))
                await asyncio.sleep(0)

        await asyncio.gather(run_client("east", 11), run_client("west", 22))
        await service.flush_all()
        for session_id in ("east", "west"):
            _assert_session_matches_dispatch_order(service, session_id, submitted[session_id])


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------
@async_test
async def test_full_admission_queue_backpressures_and_rejects():
    config = SessionConfig(num_shards=1, batch_size=2, admission_queue_limit=2)
    async with AsyncMapService(default_config=config) as service:
        service.get_or_create_session("map")
        entry = service._entries["map"]
        stats = service.manager.get_session("map").stats
        requests = _requests(6)
        # Holding the session lock stalls the flusher after it pops the
        # first request, making queue occupancy fully deterministic.
        async with entry.lock:
            await service.submit(requests[0])
            for _ in range(200):
                if entry.queue.empty():
                    break
                await asyncio.sleep(0.001)
            assert entry.queue.empty(), "flusher popped the first request"
            await service.submit(requests[1])
            await service.submit(requests[2])  # queue now at its limit of 2
            assert service.admission_queue_depth("map") == 2

            with pytest.raises(AdmissionQueueFull):
                await service.submit(requests[3], wait=False)
            assert stats.queue_rejects == 1

            waiter = asyncio.ensure_future(service.submit(requests[4]))
            await asyncio.sleep(0.02)
            assert not waiter.done(), "wait=True submit backpressured, not rejected"
        receipt = await waiter  # lock released -> flusher drains -> slot frees
        assert receipt.request_id >= 0
        await service.flush("map")
        assert stats.admission_waits == 1
        assert stats.admission_wait_seconds > 0.0
        assert stats.admission_queue_high_water >= 2
        assert stats.scans_ingested == 4  # the reject really was dropped


@async_test
async def test_slow_session_does_not_stall_other_sessions_admission():
    """The point of the async front door: one stalled session's ingestion
    cannot block admission -- or ingestion -- for anyone else."""
    config = SessionConfig(num_shards=1, batch_size=2, admission_queue_limit=4)
    async with AsyncMapService(default_config=config) as service:
        service.get_or_create_session("slow")
        service.get_or_create_session("fast")
        slow_entry = service._entries["slow"]
        async with slow_entry.lock:  # the "slow" session's ingestion hangs
            for request in _requests(3, session_id="slow"):
                await service.submit(request)
            fast_requests = _requests(3, session_id="fast", seed=5)
            for request in fast_requests:
                await service.submit(request)
            reports = await service.flush("fast")  # completes despite "slow"
            assert sum(report.scans for report in reports) == 3
        await service.flush("slow")
        assert service.manager.get_session("slow").stats.scans_ingested == 3


# ---------------------------------------------------------------------------
# Shutdown / cancellation hygiene
# ---------------------------------------------------------------------------
@async_test
async def test_graceful_close_leaves_no_orphan_tasks_or_processes():
    before = set(multiprocessing.active_children())
    service = AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=2, backend="process")
    )
    service.get_or_create_session("map")
    for request in _requests(4):
        await service.submit(request)
    await service.close()  # drains, then releases the worker processes
    assert service.manager.get_session("map").stats.scans_ingested == 4
    assert set(multiprocessing.active_children()) - before == set()
    assert asyncio.all_tasks() == {asyncio.current_task()}
    await service.close()  # idempotent


@async_test
async def test_cancelling_clients_and_abandoning_the_queue_is_clean():
    before = set(multiprocessing.active_children())
    service = AsyncMapService(
        default_config=SessionConfig(
            num_shards=1, batch_size=1, backend="process", admission_queue_limit=2
        )
    )
    service.get_or_create_session("map")

    async def chatty_client():
        for request in _requests(50):
            await service.submit(request)  # will backpressure and be cancelled

    clients = [asyncio.ensure_future(chatty_client()) for _ in range(2)]
    await asyncio.sleep(0.05)
    for client in clients:
        client.cancel()
    results = await asyncio.gather(*clients, return_exceptions=True)
    assert all(isinstance(result, asyncio.CancelledError) for result in results)
    await service.close(drain=False)  # abandon whatever is still queued
    assert set(multiprocessing.active_children()) - before == set()
    assert asyncio.all_tasks() == {asyncio.current_task()}


@async_test
async def test_close_while_submitter_parked_on_full_queue_raises():
    """Regression: close() while a submit is backpressure-parked must fail
    that submit (its request can no longer reach the map) rather than hang
    it forever or hand back a success receipt."""
    config = SessionConfig(num_shards=1, batch_size=1, admission_queue_limit=1)
    service = AsyncMapService(default_config=config)
    service.get_or_create_session("map")
    entry = service._entries["map"]
    requests = _requests(3)
    async with entry.lock:  # stall the flusher so the queue stays full
        await service.submit(requests[0])
        for _ in range(200):
            if entry.queue.empty():
                break
            await asyncio.sleep(0.001)
        await service.submit(requests[1])  # queue full (limit 1)
        waiter = asyncio.ensure_future(service.submit(requests[2]))
        await asyncio.sleep(0.01)
        assert not waiter.done()
        closer = asyncio.ensure_future(service.close())
        await asyncio.sleep(0.01)
    await closer
    with pytest.raises(RuntimeError, match="closed"):
        await asyncio.wait_for(waiter, timeout=5.0)
    assert asyncio.all_tasks() == {asyncio.current_task()}


@async_test
async def test_submit_after_close_raises():
    service = AsyncMapService(default_config=SessionConfig(num_shards=1))
    service.get_or_create_session("map")
    await service.close()
    with pytest.raises(RuntimeError, match="closed"):
        await service.submit(_requests(1)[0])


@async_test
async def test_backpressured_submitter_survives_a_concurrent_fail_stop():
    """Regression: a submitter parked on a full queue while the flusher
    fail-stops must neither deadlock a later flush (orphaned queue item)
    nor receive a success receipt for a request that was discarded."""
    config = SessionConfig(num_shards=1, batch_size=1, admission_queue_limit=1)
    async with AsyncMapService(default_config=config) as service:
        session = service.get_or_create_session("map")
        entry = service._entries["map"]
        requests = _requests(4)
        async with entry.lock:  # stall the flusher mid-cycle
            await service.submit(requests[0])
            for _ in range(200):
                if entry.queue.empty():
                    break
                await asyncio.sleep(0.001)
            await service.submit(requests[1])  # queue full again (limit 1)
            waiter = asyncio.ensure_future(service.submit(requests[2]))
            await asyncio.sleep(0.01)
            assert not waiter.done()
            session.backend.close()  # the resumed flusher will now fail
        # Lock released: the flusher errors, fail-stops, and drains; the
        # parked submitter must surface the failure instead of succeeding.
        with pytest.raises(RuntimeError, match="fail-stopped"):
            await waiter
        with pytest.raises(RuntimeError, match="fail-stopped"):
            await asyncio.wait_for(service.flush("map"), timeout=5.0)


@async_test
async def test_flusher_failure_fail_stops_the_session():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=1, batch_size=1)
    ) as service:
        session = service.get_or_create_session("map")
        session.backend.close()  # simulate a lost execution backend
        await service.submit(_requests(1)[0])
        with pytest.raises(RuntimeError, match="fail-stopped"):
            await service.flush("map")
        with pytest.raises(RuntimeError, match="fail-stopped"):
            await service.submit(_requests(1)[0])


@async_test
async def test_unmappable_origin_is_refused_at_admission_not_in_the_flusher():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=2)
    ) as service:
        good, template = _requests(2)
        await service.submit(good)
        bad = ScanRequest("map", template.cloud, origin=(1e9, 0.0, 0.2))
        with pytest.raises(ValueError, match="outside the mappable volume"):
            await service.submit(bad)
        # The co-batched scan is ingested and the session keeps serving.
        await service.flush("map")
        stats = service.manager.get_session("map").stats
        assert (stats.async_submits, stats.scans_ingested) == (1, 1)
        assert stats.voxel_updates > 0
        await service.submit(template)
        await service.flush("map")
        assert stats.scans_ingested == 2


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------
@async_test
async def test_conflicting_session_config_is_rejected():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2)
    ) as service:
        service.get_or_create_session("map", SessionConfig(num_shards=2))
        with pytest.raises(ValueError, match="different"):
            service.get_or_create_session("map", SessionConfig(num_shards=4))


@async_test
async def test_each_admission_queue_is_its_session_admission_queue_limit_deep():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=1, admission_queue_limit=3)
    ) as service:
        service.get_or_create_session("map")
        service.get_or_create_session("wide", SessionConfig(num_shards=1, admission_queue_limit=5))
        assert service._entries["map"].queue.maxsize == 3
        assert service._entries["wide"].queue.maxsize == 5


def test_session_config_validates_admission_queue_limit():
    with pytest.raises(ValueError, match="admission_queue_limit"):
        SessionConfig(admission_queue_limit=0)


@async_test
async def test_wrapping_an_existing_manager_reuses_its_sessions():
    manager = MapSessionManager(SessionConfig(num_shards=1, batch_size=2))
    manager.get_or_create_session("map")
    async with AsyncMapService(manager) as service:
        for request in _requests(2):
            await service.submit(request, auto_create=False)
        await service.flush("map")
        assert manager.get_session("map").stats.scans_ingested == 2
    assert manager.get_session("map").closed


# ---------------------------------------------------------------------------
# Streaming bounding-box sweeps
# ---------------------------------------------------------------------------
@async_test
async def test_stream_bbox_matches_the_aggregate_sweep():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=4)
    ) as service:
        for request in _requests(3):
            await service.submit(request)
        await service.flush("map")
        minimum, maximum = (-1.0, -1.0, 0.0), (1.0, 1.0, 0.4)
        summary = await service.query_bbox("map", minimum, maximum)
        chunks = [
            chunk
            async for chunk in service.stream_bbox(
                "map", minimum, maximum, chunk_voxels=9
            )
        ]
        assert all(len(chunk.voxels) <= 9 for chunk in chunks)
        assert sum(len(chunk.voxels) for chunk in chunks) == summary.voxels_scanned
        assert sum(chunk.occupied for chunk in chunks) == summary.occupied
        assert sum(chunk.free for chunk in chunks) == summary.free
        assert sum(chunk.unknown for chunk in chunks) == summary.unknown


@async_test
async def test_stream_bbox_validates_before_the_first_chunk():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=1, batch_size=2)
    ) as service:
        service.get_or_create_session("map")
        with pytest.raises(ValueError, match="inverted box"):
            async for _ in service.stream_bbox("map", (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)):
                raise AssertionError("no chunk should be produced")


@async_test
async def test_stream_bbox_interleaves_with_ingestion():
    """The session lock is released between chunks: a submit+flush landing
    mid-stream must neither deadlock nor corrupt the sweep's accounting."""
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=2)
    ) as service:
        requests = _requests(6)
        for request in requests[:3]:
            await service.submit(request)
        await service.flush("map")
        stream = service.stream_bbox(
            "map", (-1.0, -1.0, 0.0), (1.0, 1.0, 0.4), chunk_voxels=5
        )
        total = 0
        first = await stream.__anext__()
        total += len(first.voxels)
        for request in requests[3:]:
            await service.submit(request)
        await service.flush("map")
        async for chunk in stream:
            total += len(chunk.voxels)
        assert total == first.voxels_total


# ---------------------------------------------------------------------------
# Per-session retirement
# ---------------------------------------------------------------------------
@async_test
async def test_close_session_drains_and_retires():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=4)
    ) as service:
        for request in _requests(3):
            await service.submit(request)
        session = service.manager.get_session("map")
        await service.close_session("map")
        assert session.stats.scans_ingested == 3, "drain reached the map"
        assert "map" not in service.manager
        assert "map" not in service.session_ids()
        assert session.closed
        with pytest.raises(KeyError):
            await service.query("map", 0.0, 0.0, 0.2)


@async_test
async def test_close_session_unknown_raises_keyerror():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=1)
    ) as service:
        with pytest.raises(KeyError):
            await service.close_session("never-created")


@async_test
async def test_export_octree_coroutine_matches_session_export():
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=2, batch_size=4)
    ) as service:
        for request in _requests(3):
            await service.submit(request)
        await service.flush("map")
        tree = await service.export_octree("map")
        assert tree.num_leaf_nodes() > 0
        direct = service.manager.get_session("map").export_octree()
        report = compare_trees(tree, direct, 1e-9)
        assert report.equivalent, report.summary()


# ---------------------------------------------------------------------------
# Isolation between sessions
# ---------------------------------------------------------------------------
@async_test
async def test_heavy_session_cannot_starve_others():
    """A flooded session blocks only itself: its flusher parks on its own
    session lock, never on anything the light session needs."""
    config = SessionConfig(num_shards=1, batch_size=2, admission_queue_limit=16)
    async with AsyncMapService(default_config=config) as service:
        service.get_or_create_session("heavy")
        service.get_or_create_session("light")
        heavy_entry = service._entries["heavy"]
        async with heavy_entry.lock:  # the heavy session's ingestion hangs
            for request in _requests(8, session_id="heavy"):
                await service.submit(request)
            light_requests = _requests(3, session_id="light", seed=11)
            for request in light_requests:
                await service.submit(request)
            reports = await service.flush("light")  # progresses regardless
            assert sum(report.scans for report in reports) == 3
        await service.flush("heavy")
        assert service.manager.get_session("heavy").stats.scans_ingested == 8

