"""The bulk read lane answers exactly what the scalar lane answers.

``query_batch`` and the box sweeps build their keys as arrays and read them
with one ``query_keys`` round trip per shard; point queries stay on the
per-voxel lane.  For any points and any box -- inside the map, in unknown
space, straddling the boundary of the addressable volume -- both lanes must
agree on status, probability (float-identical) and owning shard, on every
execution backend.  The map lives in a 6-level tree (a +/- 6.4 m volume) so
that scans, points and boxes reach its boundary.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
import pytest
from conftest import ring_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OMUConfig
from repro.serving import MapSession, ScanRequest, SessionConfig
from repro.serving.query_engine import BULK_SLICE_KEYS

SMALL_VOLUME = OMUConfig(resolution_m=0.2, tree_depth=6, bank_kilobytes=8)
LIMIT_M = 6.4

BACKENDS = [
    "inline",
    pytest.param("thread", marks=pytest.mark.slow),
    pytest.param("process", marks=pytest.mark.slow),
    pytest.param("socket", marks=pytest.mark.slow),
]


def loaded_session(backend: str) -> MapSession:
    """Three ring scans, the last one centred 0.9 m from the volume's +x face."""
    config = SessionConfig(
        num_shards=3, batch_size=2, backend=backend, accelerator=SMALL_VOLUME
    )
    session = MapSession("map", config)
    try:
        for index, origin_x in enumerate((-0.6, 0.6, 5.5)):
            session.submit(ScanRequest.from_scan_node("map", ring_scan(origin_x, index)).with_request_id(index))
        session.flush_all()
    except BaseException:
        session.close()
        raise
    return session


def per_voxel_sweep(session: MapSession, minimum, maximum) -> List[Tuple[float, float, float, str]]:
    """The sweep as the scalar lane defines it: one point query per voxel centre."""
    resolution = session.router.converter.resolution
    ranges = [
        range(math.ceil(low / resolution - 0.5 - 1e-9), math.floor(high / resolution - 0.5 + 1e-9) + 1)
        for low, high in zip(minimum, maximum)
    ]
    voxels = []
    for ix in ranges[0]:
        for iy in ranges[1]:
            for iz in ranges[2]:
                centre = ((ix + 0.5) * resolution, (iy + 0.5) * resolution, (iz + 0.5) * resolution)
                voxels.append((*centre, session.query(*centre).status))
    return voxels


coordinate = st.one_of(
    st.floats(min_value=-3.5, max_value=7.5, allow_nan=False),
    st.sampled_from([LIMIT_M, -LIMIT_M, LIMIT_M - 0.1, 1e300, math.inf, -math.inf, math.nan]),
)
points = st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=24)
corner = st.tuples(
    st.floats(min_value=-3.0, max_value=6.2),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-0.6, max_value=0.6),
)
extent = st.tuples(
    st.floats(min_value=0.0, max_value=1.6),
    st.floats(min_value=0.0, max_value=1.2),
    st.floats(min_value=0.0, max_value=0.8),
)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_and_sweeps_equal_the_per_voxel_loop(backend):
    session = loaded_session(backend)

    @given(points=points, corner=corner, extent=extent, chunk_voxels=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def check(points, corner, extent, chunk_voxels):
        batch = session.query_batch(points)
        single = tuple(session.query(*point) for point in points)
        assert [(r.status, r.probability, r.shard_id) for r in batch] == [
            (r.status, r.probability, r.shard_id) for r in single
        ]

        minimum, maximum = corner, tuple(c + e for c, e in zip(corner, extent))
        expected = per_voxel_sweep(session, minimum, maximum)
        summary = session.query_bbox(minimum, maximum)
        statuses = [voxel[3] for voxel in expected]
        assert (summary.occupied, summary.free, summary.unknown, summary.voxels_scanned) == (
            statuses.count("occupied"), statuses.count("free"), statuses.count("unknown"), len(expected)
        )
        chunks = list(session.query_engine.iter_bbox(minimum, maximum, chunk_voxels=chunk_voxels))
        assert [voxel for chunk in chunks for voxel in chunk.voxels] == expected
        assert all(len(chunk.voxels) <= chunk_voxels for chunk in chunks)
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
        assert {chunk.voxels_total for chunk in chunks} == {len(expected)}

    try:
        # The scans reach the boundary, so the property is not all unknown space there.
        near_face = session.query_bbox((5.0, -3.0, -0.6), (LIMIT_M + 0.6, 3.0, 0.6))
        assert near_face.occupied and near_face.free and near_face.unknown
        check()
    finally:
        session.close()


@pytest.mark.parametrize("backend", ["inline", "thread", "process", "socket"])
def test_both_lanes_agree_on_every_backend(backend):
    """One fixed case per backend in the tier-1 run (the property's pool variants are ``slow``)."""
    session = loaded_session(backend)
    try:
        poses = [(-2.5 + 0.25 * step, 0.1, 0.2) for step in range(40)] + [(LIMIT_M + 1.0, 0.0, 0.0)]
        batch = session.query_batch(poses)
        assert {r.status for r in batch} == {"occupied", "free", "unknown"}
        assert [(r.status, r.probability, r.shard_id) for r in batch] == [
            (r.status, r.probability, r.shard_id) for r in (session.query(*pose) for pose in poses)
        ]
        box = ((4.0, -3.0, -0.4), (LIMIT_M + 0.4, 3.0, 0.6))
        expected = per_voxel_sweep(session, *box)
        chunks = list(session.query_engine.iter_bbox(*box, chunk_voxels=500))
        assert [voxel for chunk in chunks for voxel in chunk.voxels] == expected
    finally:
        session.close()


@pytest.fixture
def warm_session(small_requests):
    session = MapSession("map", SessionConfig(num_shards=2, batch_size=4))
    for request in small_requests:
        session.submit(request)
    session.flush_all()
    return session


# ---------------------------------------------------------------------------
# Bounded slices
# ---------------------------------------------------------------------------
def test_a_guardrail_sized_box_is_swept_in_bounded_slices(warm_session, monkeypatch):
    sizes: List[int] = []
    query_keys = warm_session.backend.query_keys

    def recording(shard_id: int, keys: np.ndarray):
        sizes.append(len(keys))
        return query_keys(shard_id, keys)

    monkeypatch.setattr(warm_session.backend, "query_keys", recording)
    side = 58 * 0.2  # 58**3 = 195,112 voxels, just under the 200,000 guardrail
    summary = warm_session.query_bbox((-side / 2, -side / 2, -side / 2), (side / 2, side / 2, side / 2))
    assert summary.voxels_scanned == 58 ** 3
    assert summary.occupied > 0 and summary.free > 0
    assert sum(sizes) == 58 ** 3
    assert max(sizes) <= BULK_SLICE_KEYS
    # At most one read per shard per slice.
    assert len(sizes) <= 2 * math.ceil(58 ** 3 / BULK_SLICE_KEYS)
    assert warm_session.stats.point_queries == 58 ** 3


def test_a_batch_larger_than_a_slice_is_split(small_requests, monkeypatch):
    session = MapSession("map", SessionConfig(num_shards=1, batch_size=4))
    for request in small_requests:
        session.submit(request)
    session.flush_all()
    sizes: List[int] = []
    query_keys = session.backend.query_keys
    monkeypatch.setattr(
        session.backend, "query_keys", lambda shard_id, keys: sizes.append(len(keys)) or query_keys(shard_id, keys)
    )
    poses = [(0.001 * step, 0.1, 0.2) for step in range(BULK_SLICE_KEYS + 10)]
    assert len(session.query_batch(poses)) == len(poses)
    assert sizes == [BULK_SLICE_KEYS, 10]


# ---------------------------------------------------------------------------
# Arguments that are not finite
# ---------------------------------------------------------------------------
NOT_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", NOT_FINITE + [1e300, -1e300])
def test_a_point_that_has_no_voxel_answers_unknown_on_both_lanes(warm_session, value):
    for point in ((value, 0.0, 0.2), (0.0, value, 0.2), (0.0, 0.0, value)):
        single = warm_session.query(*point)
        (batched,) = warm_session.query_batch([point])
        for response in (single, batched):
            assert (response.status, response.probability, response.shard_id) == ("unknown", None, -1)


@pytest.mark.parametrize("value", NOT_FINITE + [1e308])
def test_a_box_corner_that_is_not_finite_is_a_named_value_error(warm_session, value):
    for minimum, maximum in (((value, 0.0, 0.0), (1.0, 1.0, 1.0)), ((0.0, 0.0, 0.0), (1.0, value, 1.0))):
        with pytest.raises(ValueError, match="box corners must be finite"):
            warm_session.query_bbox(minimum, maximum)
        with pytest.raises(ValueError, match="box corners must be finite"):
            warm_session.query_engine.iter_bbox(minimum, maximum)


def test_a_huge_box_trips_the_guardrail_and_a_far_one_is_unknown(warm_session):
    with pytest.raises(ValueError, match="guardrail"):
        warm_session.query_bbox((0.0, 0.0, 0.0), (1e300, 1.0, 1.0))
    far = warm_session.query_bbox((1e300, 0.0, 0.0), (1e300, 0.3, 0.3))
    assert far.voxels_scanned == far.unknown > 0


@pytest.mark.parametrize("value", NOT_FINITE)
def test_a_ray_that_is_not_finite_is_a_named_value_error(warm_session, value):
    for origin, direction, max_range in (
        ((value, 0.0, 0.2), (1.0, 0.0, 0.0), 2.0),
        ((0.0, 0.0, 0.2), (1.0, value, 0.0), 2.0),
        ((0.0, 0.0, 0.2), (1.0, 0.0, 0.0), value),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            warm_session.raycast(origin, direction, max_range)
    with pytest.raises(ValueError, match="must be finite"):
        warm_session.raycast((0.0, 0.0, 0.2), (1e300, 1e300, 0.0), 2.0)
    # Finite but beyond the volume is still what it was: a clean miss.
    assert not warm_session.raycast((1e300, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0).hit
