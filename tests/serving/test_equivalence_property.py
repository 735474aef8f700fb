"""The serving layer's headline invariant, checked property-based.

For any scan workload, ingesting through the serving layer -- any shard
count >= 1, any batch size -- must produce a stitched map whose
leaf structure, log-odds values and occupied/free classification are
identical to inserting the same scans sequentially into one
:class:`~repro.octomap.octree.OccupancyOcTree` (with the accelerator's
quantised parameters, like the core verification harness uses).

Scan content is generated by hypothesis.  The pipeline applies requests in
arrival order, so the dispatch order its batch reports record must equal the
submission order, and the reference inserts the scans in that order.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import pytest
from conftest import update_batch
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG
from repro.core.verification import compare_trees
from repro.octomap import OccupancyOcTree, PointCloud
from repro.octomap.merge import merge_trees
from repro.serving import (
    BackendPool,
    MapSession,
    ScanRequest,
    SessionConfig,
    ShardBackendError,
    ShardQueryRequest,
    make_backend,
)


def _build_session(
    num_shards: int,
    batch_size: int,
    resolution: float,
    backend: str = "inline",
) -> MapSession:
    config = SessionConfig(
        num_shards=num_shards,
        batch_size=batch_size,
        backend=backend,
    ).with_resolution(resolution)
    return MapSession("map", config)


def _reference_tree(session: MapSession, requests: Sequence[ScanRequest]) -> OccupancyOcTree:
    """Sequential software insertion with the session's quantised parameters."""
    accel_config = session.config.accelerator
    quantized = accel_config.quantized_params()
    tree = OccupancyOcTree(
        accel_config.resolution_m,
        tree_depth=accel_config.tree_depth,
        params=quantized.as_float_params(),
    )
    for request in requests:
        tree.insert_point_cloud(request.cloud, request.origin, max_range=request.max_range)
    tree.prune()
    return tree


def _assert_serving_matches_sequential(
    requests: List[ScanRequest],
    num_shards: int,
    batch_size: int,
    resolution: float,
    backend: str = "inline",
) -> None:
    session = _build_session(num_shards, batch_size, resolution, backend=backend)
    try:
        for request in requests:
            session.submit(request)
        reports = session.flush_all()

        dispatched: List[int] = [rid for report in reports for rid in report.request_ids]
        assert dispatched == [request.request_id for request in requests]
        reference = _reference_tree(session, requests)

        tolerance = session.config.accelerator.fixed_point.scale / 2.0
        report = compare_trees(reference, session.export_octree(), tolerance)
        assert report.equivalent, report.summary()
        # Not just classification: the leaf log-odds agree to fixed-point exactness.
        assert report.max_abs_error <= tolerance
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Hypothesis strategies: small random scans around the origin
# ---------------------------------------------------------------------------
scan_points = st.lists(
    st.tuples(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)
scans_strategy = st.lists(scan_points, min_size=1, max_size=4)


def _requests_from_point_lists(point_lists, deadlines) -> List[ScanRequest]:
    requests = []
    for index, points in enumerate(point_lists):
        origin = (0.3 * math.sin(index), -0.2 * index, 0.2)
        requests.append(
            ScanRequest(
                session_id="map",
                cloud=PointCloud(points),
                origin=origin,
                max_range=6.0,
                deadline_s=deadlines[index % len(deadlines)],
                request_id=index,
            )
        )
    return requests


@given(
    point_lists=scans_strategy,
    num_shards=st.integers(min_value=1, max_value=5),
    batch_size=st.integers(min_value=1, max_value=6),
    deadlines=st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_sharded_batched_ingestion_equals_sequential_insertion(
    point_lists, num_shards, batch_size, deadlines
):
    requests = _requests_from_point_lists(point_lists, deadlines)
    _assert_serving_matches_sequential(requests, num_shards, batch_size, resolution=0.25)


@given(
    num_shards=st.integers(min_value=1, max_value=8),
    batch_size=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=10, deadline=None)
def test_dense_clouds_match_arrival_order_reference(num_shards, batch_size):
    """Three dense random clouds over up to 8 shards match their
    arrival-order insertion."""
    import numpy as np

    rng = np.random.default_rng(12345)
    requests = []
    for index in range(3):
        points = rng.uniform(-3.0, 3.0, size=(30, 3))
        requests.append(
            ScanRequest(
                session_id="map",
                cloud=PointCloud(points),
                origin=(0.0, 0.1 * index, 0.2),
                max_range=5.0,
                request_id=index,
            )
        )
    session = _build_session(num_shards, batch_size, resolution=0.25)
    for request in requests:
        session.submit(request)
    session.flush_all()
    reference = _reference_tree(session, requests)
    tolerance = session.config.accelerator.fixed_point.scale / 2.0
    report = compare_trees(reference, session.export_octree(), tolerance)
    assert report.equivalent, report.summary()


@given(
    point_lists=scans_strategy,
    num_shards=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=8, deadline=None)
def test_pool_backends_are_leaf_for_leaf_identical_to_inline(
    point_lists, num_shards, batch_size
):
    """The headline guarantee of the pluggable execution backends: for any
    workload, the thread-pool and process-pool backends produce *exactly* the
    map the inline reference produces -- same leaves, same depths, same
    fixed-point log-odds, zero tolerance."""
    requests = _requests_from_point_lists(point_lists, deadlines=[math.inf])
    exports = {}
    for backend in ("inline", "thread", "process"):
        session = _build_session(num_shards, batch_size, 0.25, backend=backend)
        try:
            for request in requests:
                session.submit(request)
            session.flush_all()
            exports[backend] = session.export_octree()
        finally:
            session.close()
    for backend in ("thread", "process"):
        report = compare_trees(exports["inline"], exports[backend], 0.0)
        assert report.equivalent, f"{backend}: {report.summary()}"
        assert report.max_abs_error == 0.0


# ---------------------------------------------------------------------------
# Queries between flushes: every backend answers like the inline reference
# ---------------------------------------------------------------------------
_PROBES = (
    (1.0, 0.4, 0.1),
    (1.0, 0.4, 0.1),  # repeated on purpose: the second lookup exercises the cache
    (-0.8, 0.6, -0.2),
    (0.5, -1.2, 0.3),
    (2.0, 2.0, 0.5),
)


@pytest.mark.parametrize("backend", ["inline", "thread", "process", "socket"])
def test_interleaved_queries_match_inline_on_all_backends(backend):
    """Flush one batch at a time on a session and on the inline reference;
    after every flush each probe answers identically on both (the cache
    included), and the final maps are leaf-for-leaf identical."""
    import numpy as np

    rng = np.random.default_rng(2024)
    requests = [
        ScanRequest(
            session_id="map",
            cloud=PointCloud(rng.uniform(-3.0, 3.0, size=(25, 3))),
            origin=(0.0, 0.1 * index, 0.2),
            max_range=5.0,
            request_id=index,
        )
        for index in range(6)
    ]
    session = _build_session(3, 2, 0.25, backend=backend)
    reference = _build_session(3, 2, 0.25, backend="inline")
    try:
        for request in requests:
            session.submit(request)
            reference.submit(request)
        while session.flush() is not None:
            assert reference.flush() is not None
            for probe in _PROBES:
                left = session.query(*probe)
                right = reference.query(*probe)
                assert (left.status, left.probability) == (right.status, right.probability), (
                    f"{backend}: mid-stream query diverged at {probe} after "
                    f"{session.pipeline.batches_flushed} batches"
                )
        assert reference.pending_requests() == 0
        comparison = compare_trees(reference.export_octree(), session.export_octree(), 0.0)
        assert comparison.equivalent, f"{backend}: {comparison.summary()}"
        assert comparison.max_abs_error == 0.0
    finally:
        session.close()
        reference.close()


@pytest.mark.parametrize("backend", ["inline", "thread", "process", "socket"])
def test_repeated_scans_saturate_and_stay_equivalent(backend):
    """Many re-observations drive values into the clamp bounds; the serving
    path must agree with sequential insertion even in saturation, where the
    clamped update is order-sensitive -- on every execution backend."""
    points = [(1.0, 0.4, 0.1), (-0.8, 0.6, -0.2), (0.5, -1.2, 0.3)]
    requests = [
        ScanRequest(
            session_id="map",
            cloud=PointCloud(points),
            origin=(0.0, 0.0, 0.2),
            max_range=5.0,
            request_id=index,
        )
        for index in range(25)
    ]
    _assert_serving_matches_sequential(
        requests, num_shards=3, batch_size=4, resolution=0.25,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# Kill-recovery: the equivalence property must survive a worker death
# ---------------------------------------------------------------------------
_BACKEND_CONFIG = DEFAULT_CONFIG.with_resolution(0.25)


def _kill_socket_primary(backend, shard_id: int) -> str:
    """Abruptly kill the locally owned worker currently serving ``shard_id``."""
    channels = backend.pool.engine.channels
    endpoint = channels.worker_id(backend.slot_of(shard_id))
    for handle in channels.owned_workers:
        if handle.endpoint == endpoint:
            handle.kill()
            return endpoint
    raise AssertionError(f"no owned worker serves endpoint {endpoint}")


def _assert_recovered_onto_adopted_generations(backend, failovers_at_least=1) -> None:
    """Recovery, not fail-stop -- counted on this lease, and every worker it
    re-built answers with exactly the generation the lease had adopted."""
    assert backend.failed is None, "recovery, not fail-stop"
    assert backend.failover_stats()["failovers"] >= failovers_at_least
    for shard in range(backend.num_shards):
        answer = backend.query_key(ShardQueryRequest(shard_id=shard, key=(1, 1, 1)))
        assert answer.generation == backend.generation_of(shard)


def _shard_batch_rounds(num_shards: int, num_rounds: int, seed: int):
    """Deterministic per-shard update rounds (mixed occupied/free keys)."""
    import numpy as np

    converter = AddressGenerator(
        _BACKEND_CONFIG.resolution_m, _BACKEND_CONFIG.tree_depth, _BACKEND_CONFIG.num_pes
    ).converter
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(num_rounds):
        batches = []
        for shard in range(num_shards):
            coords = rng.uniform((-4.0, -4.0, -2.0), (4.0, 4.0, 2.0), size=(6, 3))
            occupied = rng.integers(0, 2, size=len(coords))
            keys = converter.coords_to_key_array(coords)
            batches.append(update_batch(shard, np.column_stack((keys, occupied))))
        rounds.append(batches)
    return rounds


def _assert_ingestion_survives_a_kill(
    point_lists, num_shards, batch_size, kill_after, victim, shared: bool
) -> None:
    """Ingest through socket-backed session(s), kill the worker serving one
    shard at a flush boundary, and hold every session to the sequential map.

    ``shared`` runs two sessions on one fleet of ``num_shards`` slots, so the
    killed worker hosts a shard of each; otherwise one session on its
    private pool."""
    requests = _requests_from_point_lists(point_lists, deadlines=[math.inf])
    config = SessionConfig(
        num_shards=num_shards, batch_size=batch_size, backend="socket"
    ).with_resolution(0.25)
    pool = BackendPool("socket", num_shards, **config.pool_options()) if shared else None
    sessions = [MapSession("map", config, backend_pool=pool) for _ in range(2 if shared else 1)]
    try:
        for session in sessions:
            for request in requests:
                session.submit(request)
        flushes = 0
        killed = False
        reports = [[] for _ in sessions]
        while True:
            if not killed and flushes == kill_after:
                _kill_socket_primary(sessions[0].backend, victim % num_shards)
                killed = True
            flushed = [session.flush() for session in sessions]
            if flushed[0] is None:
                break
            for log, report in zip(reports, flushed):
                log.append(report)
            flushes += 1
        if not killed:  # fewer boundaries than drawn: kill right before export
            _kill_socket_primary(sessions[0].backend, victim % num_shards)

        by_id = {request.request_id: request for request in requests}
        for session, log in zip(sessions, reports):
            exported = session.export_octree()  # export must recover too
            _assert_recovered_onto_adopted_generations(session.backend)
            dispatched = [rid for report in log for rid in report.request_ids]
            assert sorted(dispatched) == sorted(by_id)
            reference = _reference_tree(session, [by_id[rid] for rid in dispatched])
            tolerance = session.config.accelerator.fixed_point.scale / 2.0
            comparison = compare_trees(reference, exported, tolerance)
            assert comparison.equivalent, comparison.summary()
    finally:
        for session in sessions:
            session.close()
        if pool is not None:
            pool.close()


_kill_at_a_flush_boundary = given(
    point_lists=scans_strategy,
    num_shards=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=3),
    kill_after=st.integers(min_value=0, max_value=3),
    victim=st.integers(min_value=0, max_value=2),
)


@_kill_at_a_flush_boundary
@settings(max_examples=8, deadline=None)
def test_socket_ingestion_survives_a_worker_kill_at_any_flush_boundary(
    point_lists, num_shards, batch_size, kill_after, victim
):
    """Property: for any workload, killing a shard worker at *any* flush
    boundary (hypothesis picks which) leaves a socket-backed session alive
    and its final map leaf-for-leaf equal to sequential insertion -- the
    headline equivalence property survives the failover."""
    _assert_ingestion_survives_a_kill(
        point_lists, num_shards, batch_size, kill_after, victim, shared=False
    )


@_kill_at_a_flush_boundary
@settings(max_examples=6, deadline=None)
def test_socket_fleet_ingestion_survives_a_worker_kill_with_a_co_tenant_on_the_slot(
    point_lists, num_shards, batch_size, kill_after, victim
):
    """The same property for two sessions leasing from one shared socket
    fleet: the killed worker hosted a shard of each, and *both* stay
    leaf-for-leaf equal to sequential insertion."""
    _assert_ingestion_survives_a_kill(
        point_lists, num_shards, batch_size, kill_after, victim, shared=True
    )


def _assert_ticket_api_survives_a_kill(num_shards, kill_round, victim, seed, shared: bool) -> None:
    rounds = _shard_batch_rounds(num_shards, num_rounds=5, seed=seed)

    reference_backend = make_backend("inline", _BACKEND_CONFIG, num_shards)
    try:
        for batches in rounds:
            reference_backend.apply_shard_batches(batches)
        reference = merge_trees(reference_backend.export_all())
    finally:
        reference_backend.close()

    if shared:
        pool = BackendPool("socket", num_shards, snapshot_every_batches=2)
        backends = [pool.lease(name, _BACKEND_CONFIG, num_shards) for name in ("a", "b")]
        close = pool.close
    else:
        backends = [make_backend("socket", _BACKEND_CONFIG, num_shards, snapshot_every_batches=2)]
        close = backends[0].close
    try:
        for index, batches in enumerate(rounds):
            tickets = [backend.apply_async(batches) for backend in backends]
            if index == min(kill_round, len(rounds) - 1):
                _kill_socket_primary(backends[0], victim % num_shards)
            for backend, ticket in zip(backends, tickets):
                assert len(backend.drain(ticket)) == num_shards
        for backend in backends:
            merged = merge_trees(backend.export_all())
            # The ack may already have been buffered client-side when the
            # worker died, in which case the *next* interaction (or the
            # export) detects the death -- either way, exactly-once recovery
            # must have happened by now.
            _assert_recovered_onto_adopted_generations(backend)
            comparison = compare_trees(reference, merged, 0.0)
            assert comparison.equivalent, comparison.summary()
            assert comparison.max_abs_error == 0.0
    finally:
        close()


_kill_mid_flight = given(
    num_shards=st.integers(min_value=1, max_value=3),
    kill_round=st.integers(min_value=0, max_value=4),
    victim=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)


@_kill_mid_flight
@settings(max_examples=8, deadline=None)
def test_socket_ticket_api_survives_a_mid_flight_worker_kill(
    num_shards, kill_round, victim, seed
):
    """Property: killing a worker *between* ``apply_async`` and ``drain`` --
    with its slice genuinely in flight -- must recover (discard the dead
    worker's half-advanced state, re-home, replay, re-send) and still land on
    the bit-exact inline-reference map."""
    _assert_ticket_api_survives_a_kill(num_shards, kill_round, victim, seed, shared=False)


@_kill_mid_flight
@settings(max_examples=6, deadline=None)
def test_socket_fleet_ticket_api_survives_a_mid_flight_kill_with_a_co_tenant_on_the_slot(
    num_shards, kill_round, victim, seed
):
    """The same property with two leases of one shared socket fleet both in
    flight on the killed worker."""
    _assert_ticket_api_survives_a_kill(num_shards, kill_round, victim, seed, shared=True)


@pytest.mark.slow
@given(
    num_shards=st.integers(min_value=2, max_value=3),
    kill_round=st.integers(min_value=0, max_value=3),
    victim=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=5, deadline=None)
def test_process_backend_fail_stops_on_worker_kill_at_any_point(
    num_shards, kill_round, victim, seed
):
    """The process pool has no standby fleet: the same kill that the socket
    backend survives must fail-stop here, with the shard and worker named in
    the structured error, at whichever round hypothesis kills the worker."""
    rounds = _shard_batch_rounds(num_shards, num_rounds=4, seed=seed)
    backend = make_backend("process", _BACKEND_CONFIG, num_shards)
    try:
        kill_at = min(kill_round, len(rounds) - 1)
        for batches in rounds[:kill_at]:
            backend.apply_shard_batches(batches)
        ticket = backend.apply_async(rounds[kill_at])
        process = backend.pool.engine.channels.processes[victim % num_shards]
        process.terminate()
        process.join(timeout=10.0)
        with pytest.raises(ShardBackendError, match="died") as info:
            backend.drain(ticket)
            # The acks may already have been in the pipe when the worker
            # died; the next flush must fail-stop regardless.
            backend.apply_shard_batches(rounds[kill_at])
        assert info.value.shard_id is not None
        assert info.value.worker_id is not None
        assert backend.failed is not None
        # Fail-stop is sticky: every later flush errors out too.
        with pytest.raises(ShardBackendError):
            backend.apply_shard_batches(rounds[kill_at])
    finally:
        backend.close()


def test_single_scan_matches_direct_accelerator(small_requests):
    """One scan through the service equals one process_scan on a bare
    accelerator (the serving layer adds no updates of its own)."""
    from repro.core import OMUAccelerator

    session = _build_session(2, 1, resolution=0.2)
    session.submit(small_requests[0])
    session.flush_all()

    accelerator = OMUAccelerator(session.config.accelerator)
    accelerator.process_scan(
        small_requests[0].cloud, small_requests[0].origin, max_range=small_requests[0].max_range
    )
    tolerance = session.config.accelerator.fixed_point.scale / 2.0
    report = compare_trees(accelerator.export_octree(), session.export_octree(), tolerance)
    assert report.equivalent, report.summary()
