"""Collision rays read in shard runs leave everything the per-voxel walk leaves.

Two sessions on the same backend see the same history: the same scans, the
same point queries, the same writes between rays, the same cache capacity.
One answers each ray with ``QueryEngine.raycast`` (runs of uncached
same-shard voxels, one stopping read each), the other with
``oracle_raycast`` (one point query per voxel).  After every operation the
two must agree on the ``RaycastResponse``, the cache entries and their LRU
order, ``CacheStats``, ``point_queries`` and every accelerator read counter
(on the process backend, whose workers are out of reach, on the modelled
cycles the workers report instead).  Small capacities evict inside a ray,
writes make entries stale, and the map lives in a 6-level tree (+/- 6.4 m)
so that rays leave the volume and origins lie outside it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np
import pytest
from conftest import ring_scan
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_raycast import oracle_raycast

from repro.core.config import OMUConfig
from repro.serving import MapSession, ScanRequest, SessionConfig, ShardBackendError
from repro.serving.sharding import MapShardWorker

SMALL_VOLUME = OMUConfig(resolution_m=0.2, tree_depth=6, bank_kilobytes=8)
LIMIT_M = 6.4

BACKENDS = [
    "inline",
    pytest.param("thread", marks=pytest.mark.slow),
    pytest.param("process", marks=pytest.mark.slow),
    pytest.param("socket", marks=pytest.mark.slow),
]


def session_on(backend: str) -> MapSession:
    """Three ring scans, the last one 0.9 m from the volume's +x face."""
    config = SessionConfig(num_shards=3, batch_size=2, backend=backend, accelerator=SMALL_VOLUME)
    session = MapSession("map", config)
    try:
        for index, origin_x in enumerate((-0.6, 0.6, 5.5)):
            write(session, origin_x, index)
    except BaseException:
        session.close()
        raise
    return session


def write(session: MapSession, origin_x: float, scan_id: int, beams: int = 90) -> None:
    scan = ring_scan(origin_x, scan_id, beams=beams)
    session.submit(ScanRequest.from_scan_node("map", scan).with_request_id(scan_id))
    session.flush_all()


def shard_workers(session: MapSession) -> Optional[List[MapShardWorker]]:
    """The session's shard workers, where they live in this process."""
    backend = session.backend
    engine = backend.pool.engine
    if backend.name == "socket":
        hosts = [handle.server.shards for handle in engine.channels.owned_workers]
        return [next(host.worker(gid) for host in hosts if gid in host.hosted()) for gid in backend.gids]
    if backend.name == "process":
        return None
    return engine.local_workers(backend.gids)


def read_counters(workers: List[MapShardWorker]) -> List[Dict]:
    """Every simulated count a read moves, per shard."""
    return [
        {
            "queries_served": worker.accelerator.query_unit.queries_served,
            "total_cycles": worker.accelerator.query_unit.total_cycles,
            "pes": [
                (
                    pe.counters.queries,
                    pe.stats.bank_reads,
                    pe.query_cycles,
                    [bank.read_accesses for bank in pe.memory.banks],
                )
                for pe in worker.accelerator.pes
            ],
        }
        for worker in workers
    ]


class CycleTally:
    """Sums the modelled cycles every read reply of a session reports."""

    def __init__(self, session: MapSession) -> None:
        self.cycles = 0
        backend = session.backend
        query_key, query_keys = backend.query_key, backend.query_keys

        def point(request):
            result = query_key(request)
            self.cycles += result.cycles
            return result

        def bulk(shard_id, keys, stop_at_occupied=False):
            result = query_keys(shard_id, keys, stop_at_occupied)
            self.cycles += result.cycles
            return result

        backend.query_key, backend.query_keys = point, bulk


def state(session: MapSession, tally: CycleTally) -> Dict:
    workers = shard_workers(session)
    return {
        "entries": list(session.cache._entries.items()),
        "cache": session.cache.stats,
        "point_queries": session.stats.point_queries,
        "raycast_queries": session.stats.raycast_queries,
        "worker_cycles": tally.cycles,
        "counters": read_counters(workers) if workers is not None else None,
    }


#: Rays that share voxels, so later rays hit what earlier ones cached: along
#: and across the corridor of the ring scans, out of the volume's +x face,
#: and in from outside its -x face.
CROSSING_RAYS = [
    ((-2.0, 0.1, 0.2), (1.0, 0.0, 0.0), 6.0),
    ((0.0, 0.1, 0.2), (1.0, 0.02, 0.0), 6.0),
    ((2.0, 0.1, 0.2), (-1.0, 0.0, 0.0), 4.0),
    ((0.1, -1.5, 0.2), (0.0, 1.0, 0.0), 5.0),
    ((-1.0, -1.0, 0.1), (1.0, 1.0, 0.05), 6.0),
    ((5.0, 0.3, 0.2), (1.0, 0.0, 0.0), 4.0),
    ((-9.5, 0.1, 0.2), (1.0, 0.0, 0.0), 10.0),
]
#: Rays from a hair inside a face, with a component of order 1e-13 towards
#: it: the clip once carried their ends through the face, and both walks
#: raised ``ValueError`` for a valid ray.  Then rays from the outer margin
#: between the clip limit (0.999 of the face) and the face, with a component
#: of 1e-12 or more towards it: the clip once cut them to their origin voxel
#: (the third ray: 1.4e-12 m towards the face over 14 m).
NEAR_FACE_RAYS = [
    ((LIMIT_M - 1e-14, 0.1, 0.2), (1e-13, 1.0, 0.0), 4.0),
    ((-LIMIT_M + 1e-14, 0.1, 0.2), (-1e-13, 1.0, 0.0), 4.0),
    ((LIMIT_M - 1e-14, -0.3, 0.2), (1e-13, 0.6, 0.8), 14.0),
    ((LIMIT_M * 0.9995, 0.1, 0.2), (0.05, 1.0, 0.0), 4.0),
    ((0.3, -LIMIT_M * 0.9999, 0.2), (1.0, -1e-3, 0.0), 5.0),
]
inside = st.floats(min_value=-6.3, max_value=6.3)
coordinate = st.one_of(
    inside,
    st.sampled_from([LIMIT_M, -LIMIT_M, LIMIT_M - 0.05, 7.0, -9.5, LIMIT_M - 1e-14, 1e-14 - LIMIT_M]),
    # The outer margin, between the clip limit and the face.
    st.sampled_from([LIMIT_M * 0.999, -LIMIT_M * 0.999, LIMIT_M * 0.9995, -LIMIT_M * 0.9995]),
)
tiny = st.sampled_from([1e-13, -1e-13, 3e-14, 1e-12, -1e-10, 1e-6])
direction = st.tuples(
    st.one_of(st.floats(min_value=-1.0, max_value=1.0), tiny),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(-0.3, 0.3),
).filter(lambda d: math.sqrt(sum(c * c for c in d)) > 1e-3)
ray = st.tuples(
    st.just("ray"),
    st.one_of(
        st.sampled_from(CROSSING_RAYS),
        st.sampled_from(CROSSING_RAYS + NEAR_FACE_RAYS),
        st.tuples(
            st.tuples(coordinate, st.floats(-3.0, 3.0), st.floats(-0.6, 0.8)),
            direction,
            st.floats(min_value=0.05, max_value=14.0),
        ),
    ),
)
point = st.tuples(
    st.just("point"),
    st.one_of(
        st.tuples(st.floats(-2.0, 4.0), st.just(0.1), st.just(0.2)),
        st.tuples(inside, st.floats(-3.0, 3.0), st.floats(-0.6, 0.8)),
    ),
)
scan = st.tuples(st.just("write"), st.sampled_from([-2.0, -0.3, 0.4, 3.0, 5.8]))
operations = st.lists(st.one_of(ray, ray, ray, point, scan), min_size=1, max_size=16)
capacity = st.sampled_from([1, 2, 3, 5, 8, 13, 21, 40, 4096, 4096, 4096])
#: One case that surely evicts inside a ray and finds stale entries.
EVICT_AND_STALE = [("ray", CROSSING_RAYS[0]), ("ray", CROSSING_RAYS[1]), ("write", 0.4), ("ray", CROSSING_RAYS[2])]


@pytest.mark.parametrize("backend", BACKENDS)
def test_ray_runs_leave_what_the_per_voxel_walk_leaves(backend):
    runs, oracle = session_on(backend), session_on(backend)
    tallies = (CycleTally(runs), CycleTally(oracle))
    scan_ids = iter(range(100, 10_000))

    @given(operations=operations, capacity=capacity)
    @example(operations=EVICT_AND_STALE, capacity=13)
    @settings(max_examples=80 if backend == "inline" else 25, deadline=None)
    def check(operations, capacity):
        for session in (runs, oracle):
            session.cache._entries.clear()  # a fresh map for each example; counters carry over
            session.cache.capacity = capacity
        for operation in operations:
            if operation[0] == "write":
                scan_id = next(scan_ids)
                for session in (runs, oracle):
                    write(session, operation[1], scan_id, beams=24)
            elif operation[0] == "point":
                assert runs.query(*operation[1]) == oracle.query(*operation[1])
            else:
                assert runs.raycast(*operation[1]) == oracle_raycast(oracle.query_engine, *operation[1])
            assert state(runs, tallies[0]) == state(oracle, tallies[1])

    try:
        check()
        # The property visited what it is about.
        assert runs.cache.stats.evictions and runs.cache.stats.stale_hits
    finally:
        runs.close()
        oracle.close()


@pytest.fixture
def pair():
    runs, oracle = session_on("inline"), session_on("inline")
    yield runs, oracle
    runs.close()
    oracle.close()


def test_a_ray_reads_a_few_runs_instead_of_every_voxel(pair):
    runs, oracle = pair
    calls = {"point": 0, "runs": 0}
    query_key, query_keys = runs.backend.query_key, runs.backend.query_keys

    def point(request):
        calls["point"] += 1
        return query_key(request)

    def bulk(shard_id, keys, stop_at_occupied=False):
        assert stop_at_occupied
        calls["runs"] += 1
        return query_keys(shard_id, keys, stop_at_occupied)

    runs.backend.query_key, runs.backend.query_keys = point, bulk
    origin, direction = (-5.0, 0.1, 0.2), (1.0, 0.05, 0.0)
    answer = runs.raycast(origin, direction, 4.0)
    assert answer == oracle_raycast(oracle.query_engine, origin, direction, 4.0)
    assert answer.voxels_traversed > 10 and answer.cache_hits == 0
    assert calls["point"] == 0 and 1 <= calls["runs"] < answer.voxels_traversed / 4
    # The same ray again is answered from the cache alone.
    assert runs.raycast(origin, direction, 4.0).cache_hits == answer.voxels_traversed
    assert calls["runs"] < answer.voxels_traversed / 4


@pytest.mark.parametrize("ray", NEAR_FACE_RAYS)
def test_a_ray_from_a_hair_inside_a_face_is_answered_by_both_walks(pair, ray):
    runs, oracle = pair
    answer = runs.raycast(*ray)
    assert answer == oracle_raycast(oracle.query_engine, *ray)
    assert answer.voxels_traversed > 10 and 1.0 < answer.distance <= ray[2]
    assert list(runs.cache._entries.items()) == list(oracle.cache._entries.items())


def test_a_put_that_evicts_a_later_voxel_of_the_ray_is_seen_by_its_lookup(pair):
    """Capacity 2: the held voxel of a ray is evicted by the run before it,
    so it is a plain miss (not a stale hit) and opens the next run."""
    runs, oracle = pair
    origin, direction = (-2.0, 0.1, 0.2), (1.0, 0.0, 0.0)
    far_voxel = (0.0, 0.1, 0.2)
    for session in (runs, oracle):
        session.cache.capacity = 2
        session.query(*far_voxel)
    answer = runs.raycast(origin, direction, 2.5)
    assert answer == oracle_raycast(oracle.query_engine, origin, direction, 2.5)
    assert list(runs.cache._entries.items()) == list(oracle.cache._entries.items())
    assert runs.cache.stats == oracle.cache.stats
    assert runs.cache.stats.stale_hits == 0 and answer.cache_hits == 0


# ---------------------------------------------------------------------------
# Replies the engine refuses
# ---------------------------------------------------------------------------
def _tamper(session: MapSession, edit) -> None:
    engine = session.backend.pool.engine
    query_keys = engine.query_keys

    def tampered(gid, request):
        return edit(query_keys(gid, request))

    engine.query_keys = tampered


def _reply(result, **changes):
    fields = dict(
        shard_id=result.shard_id,
        statuses=result.statuses,
        raws=result.raws,
        cycles=result.cycles,
        generation=result.generation,
    )
    fields.update(changes)
    return type(result)(**fields)


MALFORMED = {
    "one-row-short": lambda r: _reply(r, statuses=r.statuses[:-1], raws=r.raws[:-1]),
    "one-row-long": lambda r: _reply(
        r, statuses=np.append(r.statuses, np.uint8(1)), raws=np.append(r.raws, np.int16(0))
    ),
    "other-shard": lambda r: _reply(r, shard_id=r.shard_id + 1),
    "wide-statuses": lambda r: _reply(r, statuses=r.statuses.astype(np.int64)),
    "float-raws": lambda r: _reply(r, raws=r.raws.astype(np.float32)),
    "list-statuses": lambda r: _reply(r, statuses=r.statuses.tolist()),
    "bad-status-code": lambda r: _reply(r, statuses=np.full_like(r.statuses, 7)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_bulk_reply_is_a_backend_error_naming_the_shard(pair, name):
    runs, _oracle = pair
    _tamper(runs, MALFORMED[name])
    poses = [(-2.5 + 0.25 * step, 0.1, 0.2) for step in range(12)]
    with pytest.raises(ShardBackendError, match=r"shard \d sent a malformed query_keys reply") as info:
        runs.query_batch(poses)
    assert info.value.shard_id in range(3)
    with pytest.raises(ShardBackendError, match="malformed query_keys reply"):
        runs.query_bbox((-1.0, -1.0, 0.0), (1.0, 1.0, 0.4))


RUN_MALFORMED = {
    **MALFORMED,
    # A run that goes on past an occupied voxel, or stops at a free one.
    "goes-past-a-hit": lambda r: _reply(r, statuses=np.array([2, 1], dtype=np.uint8), raws=r.raws[:2]),
    "stops-at-free": lambda r: _reply(r, statuses=np.ones_like(r.statuses)[:1], raws=r.raws[:1]),
}


@pytest.mark.parametrize("name", sorted(RUN_MALFORMED))
def test_a_malformed_run_reply_is_a_backend_error_naming_the_shard(pair, name):
    runs, _oracle = pair
    _tamper(runs, RUN_MALFORMED[name])
    with pytest.raises(ShardBackendError, match="malformed query_keys reply") as info:
        runs.raycast((-5.0, 0.1, 0.2), (1.0, 0.05, 0.0), 8.0)
    assert info.value.shard_id in range(3)
    assert not runs.backend.failed
