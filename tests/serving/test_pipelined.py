"""Pipelined (double-buffered) ingestion: ticket API, barriers, crashes.

The map-level pipelined == serial equivalence lives in
``test_equivalence_property.py``; this module covers the machinery that makes
it true: the ``apply_async``/``drain`` ticket protocol, the one-in-flight
invariant, the read-side barriers, the overlap accounting, and -- the part
that must not regress -- how a worker that dies *with a batch in flight*
surfaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import update_batch
from repro.core import QUERY_STATUSES
from repro.core.config import DEFAULT_CONFIG
from repro.serving import (
    MapSession,
    ScanRequest,
    SessionConfig,
    ShardBackendError,
    ShardQueryRequest,
    make_backend,
)

CONFIG = DEFAULT_CONFIG.with_resolution(0.25)

ALL_BACKENDS = ["inline", "thread", "process"]


def _processes(backend):
    """The worker processes behind a process-kind lease (its pool's seam)."""
    return backend.pool.engine.channels.processes


def _batch_for_shard(backend, shard_id, n=64, occupied=True):
    """A wire batch of ``n`` distinct voxels that route to ``shard_id``."""
    from repro.core.address_gen import AddressGenerator

    generator = AddressGenerator(CONFIG.resolution_m, CONFIG.tree_depth, CONFIG.num_pes)
    converter = generator.converter
    entries = []
    index = 0
    while len(entries) < n and index < 200000:
        x = -7.0 + 0.03 * index
        key = converter.coord_to_key(x, 0.4, 0.2)
        if generator.shard_index(key, backend.num_shards, 12) == shard_id:
            entries.append((key.x, key.y, key.z, occupied))
        index += 1
    assert len(entries) == n, "could not route enough keys to the shard"
    return update_batch(shard_id, entries)


# ---------------------------------------------------------------------------
# Ticket protocol
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_apply_async_drain_matches_blocking_apply(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        batches = [_batch_for_shard(backend, shard, n=8) for shard in range(2)]
        ticket = backend.apply_async(batches)
        assert ticket.shard_ids == (0, 1)
        results = backend.drain(ticket)
        assert sorted(result.shard_id for result in results) == [0, 1]
        for result in results:
            assert result.updates_applied == 8
            assert result.generation == 1
            assert backend.generation_of(result.shard_id) == 1
        assert backend.in_flight is None
        # Exactly what the blocking wrapper produces on a fresh backend.
        with make_backend(name, CONFIG, num_shards=2) as reference:
            blocking = reference.apply_shard_batches(
                [_batch_for_shard(reference, shard, n=8) for shard in range(2)]
            )
        assert [(r.shard_id, r.updates_applied, r.generation) for r in results] == [
            (r.shard_id, r.updates_applied, r.generation) for r in blocking
        ]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_one_in_flight_invariant_enforced(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, 0, n=4)])
        with pytest.raises(ShardBackendError, match="one-in-flight"):
            backend.apply_async([_batch_for_shard(backend, 1, n=4)])
        backend.drain(ticket)
        # Drained: the next dispatch is legal again.
        backend.drain(backend.apply_async([_batch_for_shard(backend, 1, n=4)]))


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_generations_adopted_only_at_drain(name):
    """Parent-side stamps move atomically when the ticket settles, never
    mid-flight -- the 'no half-applied generation' half of the invariant.
    (The inline backend applies eagerly, but its bookkeeping still waits.)"""
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async(
            [_batch_for_shard(backend, shard, n=16) for shard in range(2)]
        )
        # Peek at the raw parent-side stamps without triggering the barrier.
        assert backend._generations == [0, 0]
        backend.drain(ticket)
        assert backend._generations == [1, 1]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_all_empty_async_flush_settles_immediately(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async(
            [update_batch(0, []), update_batch(1, [])]
        )
        assert ticket.shard_ids == ()
        assert backend.in_flight is None
        assert backend.drain(ticket) == []
        assert backend.generation_of(0) == 0


def test_drain_of_unknown_ticket_raises():
    with make_backend("inline", CONFIG, num_shards=1) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, 0, n=4)])
        backend.drain(ticket)
        with pytest.raises(ShardBackendError, match="not in flight"):
            backend.drain(ticket)  # double redemption
        assert backend.drain() == []  # ticketless drain of an idle backend


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_barrier_settled_acks_stay_reserved_for_the_ticket_owner(name):
    """A ticketless drain must not steal acknowledgements a barrier parked
    for a still-outstanding ticket -- the pipelined pipeline finalizes its
    batch later and needs them (a stolen ack would crash its flush)."""
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, 0, n=8)])
        backend.barrier((0,))  # settles and parks the acknowledgements
        assert backend.drain() == []  # ticketless drain leaves them parked
        results = backend.drain(ticket)  # the owner still redeems them
        assert [result.shard_id for result in results] == [0]
        assert results[0].updates_applied == 8
        assert backend._parked is None


def test_abandoned_ticket_acks_are_overwritten_not_leaked():
    """A caller that keeps dispatching without ever draining must not grow
    the parked-acknowledgement store: one slot, latest settle wins."""
    with make_backend("inline", CONFIG, num_shards=1) as backend:
        last = None
        for _ in range(50):
            last = backend.apply_async([update_batch(0, [])])
        assert backend._parked == (last.ticket_id, [])
        assert backend.drain(last) == []


# ---------------------------------------------------------------------------
# Read-side barriers
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_query_barriers_on_inflight_ticket(name):
    """A query touching an in-flight shard settles the whole ticket first,
    so it answers post-apply and generation stamps move atomically."""
    with make_backend(name, CONFIG, num_shards=2) as backend:
        batches = [_batch_for_shard(backend, shard, n=16) for shard in range(2)]
        ticket = backend.apply_async(batches)
        answer = backend.query_key(
            ShardQueryRequest(shard_id=0, key=tuple(batches[0].keys[0].tolist()))
        )
        assert answer.status == "occupied"
        assert answer.generation == 1
        assert backend.in_flight is None
        # The *other* shard's stamp moved in the same settle.
        assert backend._generations == [1, 1]
        # The ticket owner still gets its acknowledgements.
        results = backend.drain(ticket)
        assert sorted(result.shard_id for result in results) == [0, 1]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_bulk_read_barriers_on_inflight_ticket(name):
    """``query_keys`` settles like ``query_key``: it sees the whole flush and
    the generation the flush left behind."""
    with make_backend(name, CONFIG, num_shards=2) as backend:
        batches = [_batch_for_shard(backend, shard, n=16) for shard in range(2)]
        ticket = backend.apply_async(batches)
        answer = backend.query_keys(0, batches[0].keys)
        assert answer.statuses.tolist() == [QUERY_STATUSES.index("occupied")] * 16
        assert answer.generation == 1
        assert backend.in_flight is None
        assert backend._generations == [1, 1]
        assert sorted(result.shard_id for result in backend.drain(ticket)) == [0, 1]
        # A bulk read of the other shard has nothing left to wait for.
        backend.apply_async([_batch_for_shard(backend, 0, n=4, occupied=False)])
        backend.query_keys(1, batches[1].keys)
        assert backend.in_flight is not None


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_barrier_ignores_untouched_shards(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, 0, n=8)])
        backend.barrier((1,))  # shard 1 has nothing in flight
        assert backend.in_flight is not None
        backend.barrier((0,))
        assert backend.in_flight is None
        assert len(backend.drain(ticket)) == 1


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_generation_of_barriers_on_inflight_ticket(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        backend.apply_async([_batch_for_shard(backend, 0, n=8)])
        assert backend.generation_of(0) == 1  # settled by the barrier
        assert backend.in_flight is None


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_export_barriers_on_inflight_ticket(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        backend.apply_async([_batch_for_shard(backend, 0, n=8)])
        trees = backend.export_all()
        assert backend.in_flight is None
        assert sum(sum(1 for _ in tree.iter_leafs()) for tree in trees) > 0


# ---------------------------------------------------------------------------
# Pipelined pipeline behavior (session level)
# ---------------------------------------------------------------------------
def _requests(count, points_per_scan=20, seed=7):
    import numpy as np

    rng = np.random.default_rng(seed)
    from repro.octomap import PointCloud

    return [
        ScanRequest(
            session_id="map",
            cloud=PointCloud(rng.uniform(-3.0, 3.0, size=(points_per_scan, 3))),
            origin=(0.0, 0.1 * index, 0.2),
            max_range=5.0,
            request_id=index,
        )
        for index in range(count)
    ]


def test_pipelined_flush_keeps_one_batch_in_flight_and_reports_in_order():
    config = SessionConfig(
        num_shards=2, backend="inline", pipelined=True, batch_size=1
    ).with_resolution(0.25)
    with MapSession("map", config) as session:
        for request in _requests(4):
            session.submit(request)
        # First flush primes the pipe (dispatches one batch, prepares the
        # next) and returns the first completed report.
        reports = [session.flush()]
        while session.pending_requests() or session.pipeline.in_flight_requests():
            report = session.flush()
            if report is not None:
                reports.append(report)
        assert [report.batch_id for report in reports] == [0, 1, 2, 3]
        assert [rid for report in reports for rid in report.request_ids] == [0, 1, 2, 3]
        assert all(report.pipelined for report in reports)
        # Every front end but the primer's ran during an in-flight apply.
        assert [report.overlapped for report in reports] == [False, True, True, True]
        assert session.stats.pipelined_batches == 4
        assert 0.0 < session.stats.overlap_ratio < 1.0


def test_pipelined_flush_all_drains_the_tail():
    config = SessionConfig(
        num_shards=2, backend="inline", pipelined=True, batch_size=2
    ).with_resolution(0.25)
    with MapSession("map", config) as session:
        for request in _requests(5):
            session.submit(request)
        reports = session.flush_all()
        assert session.pending_requests() == 0
        assert session.pipeline.in_flight_requests() == 0
        assert sorted(rid for report in reports for rid in report.request_ids) == list(range(5))


def test_manager_round_robin_drains_pipelined_sessions():
    from repro.serving import MapSessionManager

    config = SessionConfig(
        num_shards=2, backend="inline", pipelined=True, batch_size=1
    ).with_resolution(0.25)
    with MapSessionManager(default_config=config) as manager:
        for index, request in enumerate(_requests(6)):
            session_id = f"s{index % 2}"
            manager.submit(
                ScanRequest(
                    session_id=session_id,
                    cloud=request.cloud,
                    origin=request.origin,
                    max_range=request.max_range,
                )
            )
        reports = manager.flush_all()
        assert len(reports) == 6
        assert manager.pending_requests() == 0
        for session_id in manager.session_ids():
            assert manager.get_session(session_id).pipeline.in_flight_requests() == 0


# ---------------------------------------------------------------------------
# Crash injection: worker death with a batch in flight
# ---------------------------------------------------------------------------
def test_worker_death_with_batch_in_flight_surfaces_on_next_operation():
    backend = make_backend("process", CONFIG, num_shards=2)
    processes = list(_processes(backend))
    try:
        ticket = backend.apply_async(
            [_batch_for_shard(backend, shard, n=256) for shard in range(2)]
        )
        processes[0].terminate()
        processes[0].join(timeout=5.0)
        # The drain either sees the broken pipe, or -- if the worker's ack
        # raced ahead of the kill -- the very next interaction's health check
        # reports the death.  Either way the error never goes unnoticed.
        with pytest.raises(ShardBackendError, match="worker process died"):
            backend.drain(ticket)
            backend.query_key(ShardQueryRequest(shard_id=1, key=(5, 5, 5)))
        assert backend.failed is not None or not processes[0].is_alive()
    finally:
        backend.close()
    assert all(not process.is_alive() for process in processes)


def test_worker_death_mid_flight_fail_stops_queries_on_every_shard():
    """No query may return a half-applied generation: once the drain failed,
    even shards whose slice *did* apply refuse to answer (fail-stop), because
    the map as a whole no longer matches the sequential reference."""
    backend = make_backend("process", CONFIG, num_shards=2)
    try:
        backend.apply_async(
            [_batch_for_shard(backend, shard, n=256) for shard in range(2)]
        )
        _processes(backend)[0].terminate()
        _processes(backend)[0].join(timeout=5.0)
        with pytest.raises(ShardBackendError):
            backend.drain()
            backend.query_key(ShardQueryRequest(shard_id=0, key=(1, 1, 1)))
        # Both shards now refuse to answer -- the surviving worker's region
        # too.  Which message they refuse with depends on who saw the death:
        # a failed drain fail-stops the backend, while an ack that raced
        # ahead of the kill leaves the health check to report the dead
        # worker on every later interaction.  Either way, no query returns.
        expected = "fail-stop" if backend.failed is not None else "worker process died"
        for shard_id in range(2):
            with pytest.raises(ShardBackendError, match=expected):
                backend.query_key(ShardQueryRequest(shard_id=shard_id, key=(1, 1, 1)))
        if backend.failed is not None:
            # Fail-stop also gates the no-round-trip read (cache validation).
            with pytest.raises(ShardBackendError, match="fail-stop"):
                backend.generation_of(1)
    finally:
        backend.close()


def test_close_with_batch_in_flight_reaps_all_children():
    backend = make_backend("process", CONFIG, num_shards=3)
    processes = list(_processes(backend))
    backend.apply_async([_batch_for_shard(backend, 0, n=256)])
    backend.close()
    assert all(not process.is_alive() for process in processes)
    assert backend.in_flight is None


def test_pipelined_session_surfaces_worker_death_and_reaps_on_close():
    config = SessionConfig(
        num_shards=2, backend="process", pipelined=True, batch_size=1
    ).with_resolution(0.25)
    session = MapSession("map", config)
    try:
        for request in _requests(4, points_per_scan=60):
            session.submit(request)
        session.flush()  # leaves a batch in flight
        assert session.backend.in_flight is not None
        for process in _processes(session.backend):
            process.terminate()
            process.join(timeout=5.0)
        # The in-flight death surfaces on the next operation (here a query,
        # whose barrier settles the dead ticket) -- never a silent answer.
        with pytest.raises(ShardBackendError):
            session.query(0.5, 0.5, 0.2)
        with pytest.raises(ShardBackendError):
            session.flush_all()
    finally:
        processes = list(_processes(session.backend))
        session.close()
    assert all(not process.is_alive() for process in processes)
