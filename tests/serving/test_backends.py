"""Execution backends: equivalence plumbing, lifecycle, crash surfacing.

The leaf-for-leaf map equivalence across backends is property-tested in
``test_equivalence_property.py``; this module covers everything around it:
the message protocol, the ``apply_async``/``drain`` ticket, parent-side
accounting, cache generations across the process boundary, clean shutdown,
and how a dying worker process surfaces.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import update_batch
from repro.core import QUERY_STATUSES
from repro.core.config import DEFAULT_CONFIG
from repro.serving import (
    BACKEND_NAMES,
    MapSession,
    SessionConfig,
    ShardBackend,
    ShardBackendError,
    ShardQueryRequest,
    ShardUpdateBatch,
    make_backend,
)

CONFIG = DEFAULT_CONFIG.with_resolution(0.25)

ALL_BACKENDS = ["inline", "thread", "process", "socket"]


def _processes(backend):
    """The worker processes behind a process-kind lease (its pool's seam)."""
    return backend.pool.engine.channels.processes


def _updates_for(backend, n=16):
    """A small per-shard update batch addressed to every shard."""
    from repro.core.address_gen import AddressGenerator

    generator = AddressGenerator(CONFIG.resolution_m, CONFIG.tree_depth, CONFIG.num_pes)
    converter = generator.converter
    batches = {shard: [] for shard in range(backend.num_shards)}
    index = 0
    while min(len(entries) for entries in batches.values()) < n and index < 100000:
        x = -6.0 + 0.05 * index
        key = converter.coord_to_key(x, 0.3, 0.2)
        shard = generator.shard_index(key, backend.num_shards, 12)
        batches[shard].append((key.x, key.y, key.z, True))
        index += 1
    return [update_batch(shard, entries) for shard, entries in batches.items()]


def _batch_for_shard(backend, shard_id, n=64):
    """A batch of ``n`` distinct occupied voxels that route to ``shard_id``."""
    from repro.core.address_gen import AddressGenerator

    generator = AddressGenerator(CONFIG.resolution_m, CONFIG.tree_depth, CONFIG.num_pes)
    converter = generator.converter
    entries = []
    index = 0
    while len(entries) < n and index < 200000:
        key = converter.coord_to_key(-7.0 + 0.03 * index, 0.4, 0.2)
        if generator.shard_index(key, backend.num_shards, 12) == shard_id:
            entries.append((key.x, key.y, key.z, True))
        index += 1
    assert len(entries) == n, "could not route enough keys to the shard"
    return update_batch(shard_id, entries)


# ---------------------------------------------------------------------------
# Registry / construction
# ---------------------------------------------------------------------------
def test_backend_registry_names():
    assert BACKEND_NAMES == ("inline", "process", "socket", "thread")
    for name in BACKEND_NAMES:
        with make_backend(name, CONFIG, 2) as backend:
            # One implementation: the single lease of a private pool, sized
            # to the session and reported under the bare kind.
            assert isinstance(backend, ShardBackend)
            assert (backend.name, backend.pool.fleet_workers) == (name, 2)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown shard backend"):
        make_backend("rpc", CONFIG, 2)
    with pytest.raises(ValueError, match="unknown backend"):
        SessionConfig(backend="rpc")


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_backend_round_trip_apply_query_export(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        batches = _updates_for(backend, n=8)
        results = backend.apply_shard_batches(batches)
        assert sorted(result.shard_id for result in results) == [0, 1]
        for result in results:
            assert result.updates_applied > 0
            assert result.critical_path_cycles > 0
            assert result.generation == 1
            assert backend.generation_of(result.shard_id) == 1
        # A written voxel answers occupied through the same backend.
        answer = backend.query_key(
            ShardQueryRequest(shard_id=0, key=tuple(batches[0].keys[0].tolist()))
        )
        assert answer.status == "occupied"
        assert answer.generation == 1
        trees = backend.export_all()
        assert len(trees) == 2
        assert sum(sum(1 for _ in tree.iter_leafs()) for tree in trees) > 0
        assert backend.shard_load() == tuple(len(batch) for batch in batches)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_empty_batches_do_not_bump_generations(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        results = backend.apply_shard_batches(
            [update_batch(0, []), update_batch(1, [])]
        )
        assert results == []
        assert backend.generation_of(0) == 0
        assert backend.generation_of(1) == 0
        # An empty (0, 3) slice beside a live one is dropped, not sent.
        empty = update_batch(0, [])
        assert empty.keys.shape == (0, 3) and empty.occupied.shape == (0,)
        results = backend.apply_shard_batches([empty, update_batch(1, [(5, 5, 5, True)])])
        assert [(result.shard_id, result.updates_applied) for result in results] == [(1, 1)]
        assert (backend.generation_of(0), backend.generation_of(1)) == (0, 1)


# ---------------------------------------------------------------------------
# The two halves of an apply: apply_async -> drain
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_apply_async_drain_matches_blocking_apply(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, shard, n=8) for shard in range(2)])
        assert ticket.shard_ids == (0, 1)
        results = backend.drain(ticket)
        with make_backend(name, CONFIG, num_shards=2) as reference:
            blocking = reference.apply_shard_batches(
                [_batch_for_shard(reference, shard, n=8) for shard in range(2)]
            )
        assert [(r.shard_id, r.updates_applied, r.generation) for r in results] == [
            (r.shard_id, r.updates_applied, r.generation) for r in blocking
        ] == [(0, 8, 1), (1, 8, 1)]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_all_empty_flush_drains_to_nothing(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([update_batch(0, []), update_batch(1, [])])
        assert ticket.shard_ids == ()
        assert backend.drain(ticket) == []
        assert backend.generation_of(0) == 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_generations_adopted_only_at_drain(name):
    """Parent-side stamps move when the ticket is drained, never between the
    halves (the inline backend applies eagerly, but its bookkeeping waits)."""
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, shard, n=16) for shard in range(2)])
        assert backend._generations == [0, 0]
        backend.drain(ticket)
        assert backend._generations == [1, 1]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_second_dispatch_before_drain_raises(name):
    with make_backend(name, CONFIG, num_shards=2) as backend:
        ticket = backend.apply_async([_batch_for_shard(backend, 0, n=4)])
        with pytest.raises(ShardBackendError, match="outstanding"):
            backend.apply_async([_batch_for_shard(backend, 1, n=4)])
        assert backend.failed is None  # misuse is refused, not fail-stop
        # The refused dispatch sent nothing: the drain redeems the first only.
        assert [result.shard_id for result in backend.drain(ticket)] == [0]
        assert backend.shard_load() == (4, 0)
        # Drained: the next dispatch is legal again.
        backend.drain(backend.apply_async([_batch_for_shard(backend, 1, n=4)]))
        assert backend.shard_load() == (4, 4)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_drain_of_a_ticket_not_outstanding_raises(name):
    """A ticket is redeemed once, and only by the backend that issued it --
    even when another backend's ticket carries the same id and shards."""
    with make_backend(name, CONFIG, num_shards=2) as backend, make_backend(
        "inline", CONFIG, num_shards=2
    ) as other:
        foreign = other.apply_async([_batch_for_shard(other, 0, n=4)])
        ticket = backend.apply_async([_batch_for_shard(backend, 0, n=4)])
        assert foreign == ticket
        with pytest.raises(ShardBackendError, match="not outstanding"):
            backend.drain(foreign)
        assert [result.updates_applied for result in backend.drain(ticket)] == [4]
        with pytest.raises(ShardBackendError, match="not outstanding"):
            backend.drain(ticket)  # drained twice
        assert [result.updates_applied for result in other.drain(foreign)] == [4]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_ticket_names_only_the_shards_it_touches(name):
    with make_backend(name, CONFIG, num_shards=3) as backend:
        ticket = backend.apply_async(
            [update_batch(0, []), _batch_for_shard(backend, 1, n=8), update_batch(2, [])]
        )
        assert ticket.shard_ids == (1,)
        results = backend.drain(ticket)
        assert [(result.shard_id, result.updates_applied) for result in results] == [(1, 8)]
        assert [backend.generation_of(shard) for shard in range(3)] == [0, 1, 0]
        assert backend.shard_load() == (0, 8, 0)
        # Every dispatch takes the next id, an all-empty one included.
        empty = backend.apply_async([update_batch(0, [])])
        assert (empty.ticket_id, empty.shard_ids) == (ticket.ticket_id + 1, ())
        assert backend.drain(empty) == []


def _read(backend, read, batches):
    """One read of ``read``'s kind over the voxels of ``batches``."""
    if read == "query":
        key = tuple(batches[0].keys[0].tolist())
        return backend.query_key(ShardQueryRequest(shard_id=0, key=key)).status
    if read == "bulk_read":
        return backend.query_keys(1, batches[1].keys).statuses.tolist()
    if read == "export":
        return sum(sum(1 for _ in tree.iter_leafs()) for tree in backend.export_all()) > 0
    return backend.generation_of(0)


#: what each read answers once both shards' 16-voxel slices are applied.
_READ_AFTER_DRAIN = {
    "query": "occupied",
    "bulk_read": [QUERY_STATUSES.index("occupied")] * 16,
    "export": True,
    "generation_of": 1,
}


@pytest.mark.parametrize("read", sorted(_READ_AFTER_DRAIN))
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_reads_refuse_an_outstanding_ticket_and_serve_after_drain(name, read):
    """No read runs between the halves of an apply: a reply would otherwise
    share the pipe with the pending acknowledgements.  Drained, the read
    answers post-apply."""
    with make_backend(name, CONFIG, num_shards=2) as backend:
        batches = [_batch_for_shard(backend, shard, n=16) for shard in range(2)]
        ticket = backend.apply_async(batches)
        with pytest.raises(ShardBackendError, match="outstanding"):
            _read(backend, read, batches)
        assert backend.failed is None  # misuse is refused, not fail-stop
        assert len(backend.drain(ticket)) == 2
        assert _read(backend, read, batches) == _READ_AFTER_DRAIN[read]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_session_flush_is_one_apply_cycle_per_batch(name, small_requests):
    """Each flush dispatches one ticket and drains it before returning, so
    batches apply in admission order and nothing is left outstanding."""
    config = SessionConfig(num_shards=2, backend=name, batch_size=2).with_resolution(0.2)
    with MapSession("map", config) as session:
        for request in small_requests:
            session.submit(request)
        reports = []
        while session.pending_requests():
            reports.append(session.flush())
            assert session.backend._outstanding is None
        assert session.flush() is None
        assert [report.request_ids for report in reports] == [(0, 1), (2,)]
        assert [report.batch_id for report in reports] == [0, 1]
        assert session.backend._next_ticket_id == 2
        for report in reports:
            assert report.backend == name
            assert 0.0 <= report.drain_wait_seconds <= report.fanout_seconds <= report.wall_seconds
        assert session.stats.scans_ingested == 3
        assert session.query(0.0, 0.0, 0.2).status in ("occupied", "free")


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_close_is_idempotent_and_use_after_close_raises(name):
    backend = make_backend(name, CONFIG, num_shards=2)
    backend.close()
    backend.close()  # idempotent
    assert backend.closed
    with pytest.raises(ShardBackendError, match="closed"):
        backend.apply_shard_batches(_updates_for_closed())
    with pytest.raises(ShardBackendError, match="closed"):
        backend.query_key(ShardQueryRequest(shard_id=0, key=(1, 1, 1)))


def _updates_for_closed():
    return [update_batch(0, [(1, 1, 1, True)])]


def test_process_backend_shutdown_leaves_no_orphans():
    backend = make_backend("process", CONFIG, num_shards=3)
    processes = list(_processes(backend))
    assert len(processes) == 3
    assert all(process.is_alive() for process in processes)
    backend.close()
    assert all(not process.is_alive() for process in processes)
    assert all(process.exitcode == 0 for process in processes)


def _children_alive(backend):
    """Liveness of the child processes behind a process- or socket-kind lease."""
    channels = backend.pool.engine.channels
    if backend.name == "socket":
        handles = list(channels.owned_workers)
        return lambda: [handle.alive for handle in handles]
    processes = list(channels.processes)
    return lambda: [process.is_alive() for process in processes]


@pytest.mark.parametrize("name", ["process", "socket"])
def test_close_with_a_ticket_outstanding_reaps_all_children(name):
    backend = make_backend(name, CONFIG, num_shards=3)
    alive = _children_alive(backend)
    assert alive() and all(alive())
    backend.apply_async([_batch_for_shard(backend, 0, n=256)])
    backend.close()
    assert not any(alive())


class _VanishingPeers:
    """A channel kind whose every peer is gone once its channel is closed; counts what it opens."""

    def __init__(self) -> None:
        self.opened = []

    def open(self, slot):
        channel = _VanishingChannel()
        self.opened.append(channel)
        return channel

    def worker_id(self, slot):
        return f"peer:{slot}"

    def rehome(self, slot, error):
        pass  # a standby is always there: only the engine's own state can refuse a re-home

    def close(self):
        pass


class _VanishingChannel:
    def __init__(self) -> None:
        self.closed = False
        self._replies = []

    def send(self, command):
        if self.closed:
            raise BrokenPipeError("closed")
        self._replies.append(("ok", None))

    def recv(self):
        if self.closed:
            raise EOFError("closed")
        return self._replies.pop(0)

    def check(self, counters):
        pass

    def close(self, hosted):
        self.closed = True


def test_an_exchange_reaching_its_slot_after_close_neither_rehomes_nor_opens_a_channel():
    """What an apply still queued on the engine's I/O threads meets once ``close()`` ran."""
    from repro.serving.fleet import SlotEngine

    channels = _VanishingPeers()
    engine = SlotEngine(channels, num_slots=1, snapshot_every_batches=4)
    engine.attach(0, 0, CONFIG)
    engine.close()
    with pytest.raises(ShardBackendError, match="closed"):
        engine._slot_task(0, [("ping", 0, None)])
    assert len(channels.opened) == 1 and channels.opened[0].closed
    assert engine.recoveries == []


def test_session_context_manager_closes_backend():
    config = SessionConfig(num_shards=2, backend="process").with_resolution(0.25)
    with MapSession("map", config) as session:
        assert not session.closed
        processes = list(_processes(session.backend))
    assert session.closed
    assert all(not process.is_alive() for process in processes)


def test_manager_shutdown_closes_every_session():
    from repro.serving import MapSessionManager

    config = SessionConfig(num_shards=2, backend="thread").with_resolution(0.25)
    with MapSessionManager(default_config=config) as manager:
        a = manager.get_or_create_session("a")
        b = manager.get_or_create_session("b")
    assert a.closed and b.closed


# ---------------------------------------------------------------------------
# Worker crash surfacing
# ---------------------------------------------------------------------------
def test_dead_worker_process_surfaces_as_backend_error():
    backend = make_backend("process", CONFIG, num_shards=2)
    processes = list(_processes(backend))
    try:
        dead_pid = processes[1].pid
        processes[1].terminate()
        processes[1].join(timeout=5.0)
        with pytest.raises(ShardBackendError, match="shard 1 worker process died") as info:
            # Killed worker: the round-trip must error out, not hang.
            backend.apply_shard_batches([update_batch(1, [(5, 5, 5, True)])])
        # The error is structured: it names the shard and worker that died.
        assert info.value.shard_id == 1
        assert info.value.worker_id == f"process:{dead_pid}"
        assert f"[shard 1, worker process:{dead_pid}]" in info.value.describe()
    finally:
        backend.close()
    assert all(not process.is_alive() for process in processes)


def test_dead_worker_surfaces_even_when_batch_does_not_touch_it():
    """A session missing a shard is broken for that shard's whole region, so
    a flush must error out even if its update slices all land elsewhere."""
    backend = make_backend("process", CONFIG, num_shards=2)
    try:
        _processes(backend)[0].terminate()
        _processes(backend)[0].join(timeout=5.0)
        with pytest.raises(ShardBackendError, match="shard 0 worker process died"):
            backend.apply_shard_batches([update_batch(1, [(5, 5, 5, True)])])
        with pytest.raises(ShardBackendError, match="shard 0 worker process died"):
            backend.query_key(ShardQueryRequest(shard_id=1, key=(5, 5, 5)))
        # Even a flush whose slices are all empty must report the loss.
        with pytest.raises(ShardBackendError, match="shard 0 worker process died"):
            backend.apply_shard_batches([update_batch(0, []), update_batch(1, [])])
    finally:
        backend.close()


def test_worker_death_with_batch_in_flight_surfaces_on_next_operation():
    backend = make_backend("process", CONFIG, num_shards=2)
    processes = list(_processes(backend))
    try:
        ticket = backend.apply_async([_batch_for_shard(backend, shard, n=256) for shard in range(2)])
        processes[0].terminate()
        processes[0].join(timeout=5.0)
        # The drain either sees the broken pipe, or -- if the worker's ack
        # raced ahead of the kill -- the very next interaction's health check
        # reports the death.  Either way the error never goes unnoticed.
        with pytest.raises(ShardBackendError, match="worker process died"):
            backend.drain(ticket)
            backend.query_key(ShardQueryRequest(shard_id=1, key=(5, 5, 5)))
    finally:
        backend.close()
    assert all(not process.is_alive() for process in processes)


def test_worker_death_mid_flight_fail_stops_queries_on_every_shard():
    """Once the drain failed, even shards whose slice *did* apply refuse to
    answer (fail-stop): the map as a whole no longer matches the sequential
    reference."""
    backend = make_backend("process", CONFIG, num_shards=2)
    try:
        ticket = backend.apply_async([_batch_for_shard(backend, shard, n=256) for shard in range(2)])
        _processes(backend)[0].terminate()
        _processes(backend)[0].join(timeout=5.0)
        with pytest.raises(ShardBackendError):
            backend.drain(ticket)
            backend.query_key(ShardQueryRequest(shard_id=0, key=(1, 1, 1)))
        # Which message the shards refuse with depends on who saw the death:
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


def test_worker_side_exception_is_reported_not_fatal():
    backend = make_backend("process", CONFIG, num_shards=1)
    try:
        # A message addressed to the wrong shard raises inside the worker;
        # the worker must report the error and keep serving.
        bad = ShardQueryRequest(shard_id=9, key=(1, 1, 1))
        with pytest.raises(ShardBackendError, match="shard 0 worker failed") as info:
            backend.pool.engine.query(backend.gids[0], bad)
        # The report carries the worker's own traceback for debugging.
        assert info.value.shard_id == 0
        assert "ValueError" in (info.value.remote_traceback or "")
        # The worker survived and still answers well-formed requests.
        answer = backend.query_key(ShardQueryRequest(shard_id=0, key=(1, 1, 1)))
        assert answer.status == "unknown"
    finally:
        backend.close()


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_apply_error_fail_stops_the_backend(name):
    """A failed apply may leave some shards written and others not -- the
    map no longer matches the sequential reference, so the backend must
    refuse every later interaction rather than serve inconsistent answers."""
    backend = make_backend(name, CONFIG, num_shards=2)
    processes = list(_processes(backend)) if name == "process" else []
    try:
        good = update_batch(1, [(5, 5, 5, True)])
        # Two keys but one flag: the worker that owns shard 0 refuses the
        # batch before it touches its accelerator.
        bad = ShardUpdateBatch(
            shard_id=0, keys=np.array([[5, 5, 5], [6, 6, 6]], dtype=np.uint16), occupied=np.array([True])
        )
        with pytest.raises(ShardBackendError):
            backend.apply_shard_batches([bad, good])
        assert backend.failed is not None
        with pytest.raises(ShardBackendError, match="fail-stop"):
            backend.query_key(ShardQueryRequest(shard_id=1, key=(5, 5, 5)))
        with pytest.raises(ShardBackendError, match="fail-stop"):
            backend.export_all()
    finally:
        backend.close()
    # Close still reaps everything cleanly after a failure.
    if name == "process":
        assert all(not process.is_alive() for process in processes)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_kernel_error_mid_batch_fail_stops_the_session(name):
    """A PE that runs out of rows half way through a batch leaves an image
    the next batch must not be applied to: the session refuses from then on."""
    from repro.octomap import PointCloud
    from repro.serving import ScanRequest

    tiny = SessionConfig(num_shards=2, batch_size=1, backend=name).with_resolution(0.1)
    tiny = replace(tiny, accelerator=replace(tiny.accelerator, bank_kilobytes=1))
    wall = [(6.0, 0.05 * y, 0.1 * z) for y in range(-80, 81) for z in range(-10, 11)]
    with MapSession("map", tiny) as session:
        session.submit(ScanRequest("map", PointCloud(wall), (0.0, 0.0, 0.0)))
        with pytest.raises(ShardBackendError, match="MemoryCapacityError"):
            session.flush_all()
        assert session.backend.failed is not None
        with pytest.raises(ShardBackendError, match="fail-stop"):
            session.query(1.0, 0.0, 0.0)
        with pytest.raises(ShardBackendError, match="fail-stop"):
            session.export_octree()


def test_unknown_verb_is_reported_not_fatal():
    backend = make_backend("process", CONFIG, num_shards=1)
    try:
        engine = backend.pool.engine
        with pytest.raises(ShardBackendError, match="unknown shard command"):
            engine._slot_task(backend.slot_of(0), [("selfdestruct", backend.gids[0], None)])
        assert _processes(backend)[0].is_alive()
        # The pipe stayed in step: a well-formed request still answers.
        assert backend.query_key(ShardQueryRequest(shard_id=0, key=(1, 1, 1))).status == "unknown"
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Cache generations across the process boundary
# ---------------------------------------------------------------------------
def test_cache_invalidation_with_process_backend(small_scans):
    from repro.serving import ScanRequest

    config = SessionConfig(num_shards=2, backend="process", batch_size=2).with_resolution(0.2)
    with MapSession("map", config) as session:
        session.submit(ScanRequest.from_scan_node("map", small_scans[0]).with_request_id(0))
        session.flush_all()
        probe = (2.5, 0.0, 0.2)
        first = session.query(*probe)
        second = session.query(*probe)
        assert not first.cached and second.cached
        # A new scan bumps the written shards' generations in the parent's
        # bookkeeping, so the stale entry is dropped, not served.
        session.submit(ScanRequest.from_scan_node("map", small_scans[1]).with_request_id(1))
        session.flush_all()
        third = session.query(*probe)
        assert not third.cached
        assert session.stats.cache.stale_hits >= 1


def test_thread_and_process_generations_agree(small_scans):
    from repro.serving import ScanRequest

    generations = {}
    for backend in ("inline", "thread", "process"):
        config = SessionConfig(num_shards=2, backend=backend, batch_size=2).with_resolution(0.2)
        with MapSession("map", config) as session:
            for index, scan in enumerate(small_scans):
                session.submit(ScanRequest.from_scan_node("map", scan).with_request_id(index))
            session.flush_all()
            generations[backend] = tuple(
                session.backend.generation_of(shard)
                for shard in range(config.num_shards)
            )
    assert generations["inline"] == generations["thread"] == generations["process"]


def test_thread_pool_backend_has_inspectable_workers():
    with make_backend("thread", CONFIG, 2) as backend:
        assert [worker.shard_id for worker in backend.workers] == [0, 1]
    with make_backend("process", CONFIG, 1) as backend:
        assert not hasattr(backend, "workers")  # they live in another process
