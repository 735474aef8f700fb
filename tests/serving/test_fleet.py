"""The shared backend fleet: leasing, O(W) resources, and equivalence.

Three families of guarantees:

* **Pool mechanics** -- leases attach/detach hosted shards, bookkeeping is
  exact, closed pools refuse work, session-id reuse never collides.
* **O(W) OS resources** -- a fleet of W slots serves hundreds of sessions
  with W pool threads / W worker processes, and heavy session churn leaks
  neither threads nor file descriptors.
* **Leaf-for-leaf equivalence** -- a session leasing from a shared fleet
  produces exactly the map a session on its private pool produces, on every
  kind (hypothesis explores inline/thread; deterministic cases pin process
  and socket, which pay real worker start-up per example).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_CONFIG
from repro.core.verification import compare_trees
from repro.octomap import PointCloud
from repro.serving import (
    BackendPool,
    MapSession,
    MapSessionManager,
    ScanRequest,
    SessionConfig,
    ShardBackendError,
)

_OMU_CONFIG = DEFAULT_CONFIG.with_resolution(0.25)


def _requests(num_scans: int = 3, points_per_scan: int = 20, seed: int = 7) -> List[ScanRequest]:
    import numpy as np

    rng = np.random.default_rng(seed)
    return [
        ScanRequest(
            session_id="map",
            cloud=PointCloud(rng.uniform(-3.0, 3.0, size=(points_per_scan, 3))),
            origin=(0.0, 0.1 * index, 0.2),
            max_range=5.0,
            request_id=index,
        )
        for index in range(num_scans)
    ]


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------
def test_lease_and_release_bookkeeping():
    with BackendPool("inline", fleet_workers=2) as pool:
        first = pool.lease("alpha", _OMU_CONFIG, num_shards=3)
        second = pool.lease("beta", _OMU_CONFIG, num_shards=2)
        assert pool.active_leases == 2
        assert pool.attached_shards == 5
        assert first.num_shards == 3
        first.close()
        assert pool.active_leases == 1
        assert pool.attached_shards == 2
        first.close()  # idempotent
        assert pool.active_leases == 1
        second.close()
        assert (pool.active_leases, pool.attached_shards) == (0, 0)


def test_fleet_worker_count_validation():
    with pytest.raises(ValueError):
        BackendPool("inline", fleet_workers=0)


def test_closed_pool_refuses_new_leases_and_use():
    pool = BackendPool("inline", fleet_workers=1)
    view = pool.lease("alpha", _OMU_CONFIG, num_shards=1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(ShardBackendError):
        pool.lease("beta", _OMU_CONFIG, num_shards=1)
    with pytest.raises(ShardBackendError):
        view.export_all()
    view.close()  # bookkeeping only, must not raise


def test_session_id_reuse_allocates_fresh_global_ids():
    with BackendPool("inline", fleet_workers=2) as pool:
        first = pool.lease("robot", _OMU_CONFIG, num_shards=2)
        second = pool.lease("robot", _OMU_CONFIG, num_shards=2)
        assert set(first.gids).isdisjoint(second.gids)
        assert pool.attached_shards == 4
        first.close()
        second.close()


def test_gids_stay_hidden_from_the_session_interface():
    """Nothing a session sees is in gids: shard ids are local end to end."""
    with BackendPool("inline", fleet_workers=2) as pool:
        view = pool.lease("alpha", _OMU_CONFIG, num_shards=3)
        try:
            assert view.num_shards == 3
            assert len(view.export_all()) == 3
            for shard_id in range(3):
                assert view.generation_of(shard_id) == 0
                assert 0 <= view.slot_of(shard_id) < pool.fleet_workers
            # The gids only name where the workers are hosted: the workers
            # themselves (and every message they exchange) keep local ids.
            other = pool.lease("beta", _OMU_CONFIG, num_shards=2)
            assert set(view.gids).isdisjoint(other.gids)
            assert [worker.shard_id for worker in view.workers] == [0, 1, 2]
            assert [worker.shard_id for worker in other.workers] == [0, 1]
            other.close()
        finally:
            view.close()


# ---------------------------------------------------------------------------
# O(W) OS resources under many sessions
# ---------------------------------------------------------------------------
def test_thread_fleet_serves_many_sessions_with_bounded_threads():
    """120 sessions x 2 shards on one 4-slot thread fleet: thread count is
    O(fleet size), never O(sessions)."""
    baseline = threading.active_count()
    config = SessionConfig(num_shards=2, backend="thread", fleet_workers=4, batch_size=4)
    manager = MapSessionManager(default_config=config)
    try:
        for index in range(120):
            manager.create_session(f"tenant-{index:03d}")
        assert len(manager) == 120
        assert len(manager.fleets) == 1
        fleet = manager.fleets[0]
        assert fleet.fleet_workers == 4
        assert fleet.active_leases == 120
        assert fleet.attached_shards == 240
        # A few tenants actually ingest, so the pool threads are exercised.
        for request in _requests(2):
            manager.ingest(replace(request, session_id="tenant-000"))
            manager.ingest(replace(request, session_id="tenant-077"))
        # 4 fleet threads, nothing proportional to the 120 sessions.
        assert threading.active_count() <= baseline + 4 + 2
    finally:
        manager.shutdown()
    assert manager.fleets == ()


@pytest.mark.slow
def test_process_fleet_keeps_worker_process_count_at_fleet_size():
    """30 sessions x 2 shards on one 2-process fleet: exactly 2 children."""
    config = SessionConfig(num_shards=2, backend="process", fleet_workers=2, batch_size=4)
    manager = MapSessionManager(default_config=config)
    try:
        for index in range(30):
            manager.create_session(f"tenant-{index:02d}")
        for request in _requests(2):
            manager.ingest(replace(request, session_id="tenant-00"))
        children = multiprocessing.active_children()
        assert len(children) == 2
        assert manager.fleets[0].attached_shards == 60
    finally:
        manager.shutdown()
    for process in multiprocessing.active_children():
        process.join(timeout=10.0)
    assert multiprocessing.active_children() == []


def test_session_churn_leaks_no_threads_or_descriptors():
    """Hundreds of create/ingest/close cycles against one fleet: thread and
    fd counts end where they started and the fleet keeps its fixed size."""
    threads_before = threading.active_count()
    fds_before = len(os.listdir("/proc/self/fd"))
    config = SessionConfig(num_shards=2, backend="thread", fleet_workers=2, batch_size=4)
    manager = MapSessionManager(default_config=config)
    try:
        request = _requests(1)[0]
        for cycle in range(200):
            session_id = f"churn-{cycle % 7}"  # ids are reused across cycles
            manager.create_session(session_id)
            if cycle % 20 == 0:
                manager.ingest(replace(request, session_id=session_id))
            manager.close_session(session_id).close()  # detach, then release the lease
        fleet = manager.fleets[0]
        assert fleet.fleet_workers == 2
        assert (fleet.active_leases, fleet.attached_shards) == (0, 0)
        assert threading.active_count() <= threads_before + fleet.fleet_workers
    finally:
        manager.shutdown()
    assert threading.active_count() <= threads_before
    # /proc/self/fd fluctuates by a handful (pipes, epoll); a leak of one fd
    # per churned session would show up as hundreds.
    assert len(os.listdir("/proc/self/fd")) <= fds_before + 5


# ---------------------------------------------------------------------------
# Leaf-for-leaf equivalence: shared-fleet lease == private pool
# ---------------------------------------------------------------------------
def _ingest_and_export(config: SessionConfig, requests, backend_pool=None):
    session = MapSession("map", config, backend_pool=backend_pool)
    try:
        for request in requests:
            session.submit(request)
        session.flush_all()
        return session.export_octree()
    finally:
        session.close()


scan_points = st.lists(
    st.tuples(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
)
scans_strategy = st.lists(scan_points, min_size=1, max_size=3)


@given(
    point_lists=scans_strategy,
    fleet_backend=st.sampled_from(["inline", "thread"]),
    num_shards=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=4),
    fleet_workers=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_fleet_lease_is_leaf_for_leaf_identical_to_owned_backend(
    point_lists, fleet_backend, num_shards, batch_size, fleet_workers
):
    """Property: for any workload, any shard count and any fleet size --
    including fleets smaller than the shard count, where slots host several
    shards -- the map of a session leasing from a shared fleet equals the
    map of an inline session on its private pool exactly (zero tolerance)."""
    requests = [
        ScanRequest(
            session_id="map",
            cloud=PointCloud(points),
            origin=(0.3 * math.sin(index), -0.2 * index, 0.2),
            max_range=6.0,
            request_id=index,
        )
        for index, points in enumerate(point_lists)
    ]
    private_config = SessionConfig(num_shards=num_shards, batch_size=batch_size).with_resolution(0.25)
    private = _ingest_and_export(private_config, requests)
    fleet_config = replace(private_config, backend=fleet_backend, fleet_workers=fleet_workers)
    with BackendPool(fleet_backend, fleet_workers=fleet_workers) as pool:
        leased = _ingest_and_export(fleet_config, requests, backend_pool=pool)
    report = compare_trees(private, leased, 0.0)
    assert report.equivalent, f"{fleet_backend} fleet: {report.summary()}"
    assert report.max_abs_error == 0.0


@pytest.mark.parametrize("fleet_backend", ["process", "socket"])
def test_fleet_lease_matches_owned_backend_across_worker_boundaries(fleet_backend):
    """One fixed workload on the process and socket fleets (real worker
    start-up per run keeps these deterministic rather than hypothesis-swept):
    two sessions sharing one 2-slot fleet both match the inline reference."""
    requests = _requests(3)
    private_config = SessionConfig(num_shards=3, batch_size=2).with_resolution(0.25)
    owned = _ingest_and_export(private_config, requests)
    fleet_config = replace(private_config, backend=fleet_backend, fleet_workers=2)
    with BackendPool(fleet_backend, fleet_workers=2) as pool:
        first = _ingest_and_export(fleet_config, requests, backend_pool=pool)
        second = _ingest_and_export(fleet_config, requests, backend_pool=pool)
    for label, exported in (("first", first), ("second", second)):
        report = compare_trees(owned, exported, 0.0)
        assert report.equivalent, f"{fleet_backend} fleet ({label}): {report.summary()}"
        assert report.max_abs_error == 0.0


def test_manager_builds_one_fleet_per_backend_and_size():
    """Sessions with the same (backend, fleet size) share one pool; sessions
    that do not share (fleet_workers=0) create none."""
    manager = MapSessionManager()
    try:
        fleet_2 = SessionConfig(num_shards=2, backend="thread", fleet_workers=2)
        fleet_3 = SessionConfig(num_shards=2, backend="thread", fleet_workers=3)
        owned = SessionConfig(num_shards=2, backend="inline")
        manager.create_session("a", fleet_2)
        manager.create_session("b", fleet_2)
        manager.create_session("c", fleet_3)
        manager.create_session("d", owned)
        # A field the thread kind ignores does not shape its pool: no third
        # set of W threads for it.
        manager.create_session("e", replace(fleet_3, snapshot_every_batches=2, standby_workers=0))
        assert len(manager.fleets) == 2
        sizes = sorted(pool.fleet_workers for pool in manager.fleets)
        assert sizes == [2, 3]
        shared = next(pool for pool in manager.fleets if pool.fleet_workers == 2)
        assert shared.active_leases == 2
    finally:
        manager.shutdown()
    assert manager.fleets == ()


def test_manager_never_joins_sessions_with_differently_shaped_fleets():
    """Regression: the shared pool was keyed on (backend, fleet size) only, so
    a config naming other worker endpoints or other recovery settings silently
    joined the first config's fleet -- running on workers it never named."""
    from repro.serving import spawn_local_worker

    handles = [spawn_local_worker() for _ in range(4)]
    endpoints = [handle.endpoint for handle in handles]
    manager = MapSessionManager()
    try:
        base = SessionConfig(
            num_shards=2, backend="socket", workers=tuple(endpoints[:2]), fleet_workers=2
        )
        manager.create_session("a", base)
        manager.create_session("b", base)  # same shape: same fleet
        assert len(manager.fleets) == 1
        manager.create_session("c", replace(base, workers=tuple(endpoints[2:])))
        manager.create_session("d", replace(base, snapshot_every_batches=2))
        manager.create_session("e", replace(base, heartbeat_timeout_s=1.0, standby_workers=0))
        assert len(manager.fleets) == 4
        assert sorted(pool.active_leases for pool in manager.fleets) == [1, 1, 1, 2]
        # Each fleet runs on the workers its own config named, with the
        # cadence its own config set.
        by_session = {sid: manager.get_session(sid).backend.pool for sid in "acd"}
        registries = {sid: pool.engine.channels.registry for sid, pool in by_session.items()}
        homes = {
            sid: {str(e) for e in registry.standbys()}
            | {str(registry.endpoint_for(slot)) for slot in range(registry.num_shards)}
            for sid, registry in registries.items()
        }
        assert homes["a"] == set(endpoints[:2]) and homes["c"] == set(endpoints[2:])
        assert by_session["a"].engine.snapshot_every_batches == 8
        assert by_session["d"].engine.snapshot_every_batches == 2
    finally:
        manager.shutdown()
        for handle in handles:
            handle.stop()


def test_private_pool_is_sized_to_the_session_and_dies_with_its_lease():
    """fleet_workers=0: the session's backend is the only lease of a pool it
    owns -- one slot per shard, closed (workers reaped) with the lease."""
    config = SessionConfig(num_shards=3, backend="process").with_resolution(0.25)
    session = MapSession("map", config)
    pool = session.backend.pool
    processes = list(pool.engine.channels.processes)
    try:
        assert (pool.fleet_workers, pool.active_leases, session.backend.owns_pool) == (3, 1, True)
        assert [session.backend.slot_of(shard) for shard in range(3)] == [0, 1, 2]
        assert session.backend.name == session.stats.backend_name == "process"
    finally:
        session.close()
    assert pool.closed and pool.active_leases == 0
    assert all(not process.is_alive() for process in processes)
    with pytest.raises(ShardBackendError):
        pool.lease("late", _OMU_CONFIG, num_shards=1)
