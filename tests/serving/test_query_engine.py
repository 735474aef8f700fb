"""Query engine: point, batch, bounding-box and collision-raycast queries."""

from __future__ import annotations

import math

import pytest

from repro.octomap.raycast import compute_ray_keys
from repro.serving import MapSession, SessionConfig


@pytest.fixture
def warm_session(small_requests):
    session = MapSession("map", SessionConfig(num_shards=2, batch_size=4))
    for request in small_requests:
        session.submit(request)
    session.flush_all()
    return session


def test_point_query_matches_exported_tree(warm_session):
    tree = warm_session.export_octree()
    for point in ((1.2, 0.3, 0.2), (0.0, 0.0, 0.2), (-2.0, 1.5, 0.0), (9.0, 9.0, 9.0)):
        assert warm_session.query(*point).status == tree.classify(*point)


def test_out_of_volume_query_is_unknown(warm_session):
    limit = warm_session.router.converter.max_coordinate
    response = warm_session.query(limit * 2.0, 0.0, 0.0)
    assert response.status == "unknown"
    assert response.probability is None
    assert response.shard_id == -1


def test_batch_query_matches_pointwise(warm_session):
    points = [(0.4 * index, 0.1, 0.2) for index in range(-5, 6)]
    batch = warm_session.query_batch(points)
    assert len(batch) == len(points)
    for point, response in zip(points, batch):
        assert response.status == warm_session.query(*point).status


def test_bbox_counts_add_up(warm_session):
    summary = warm_session.query_bbox((-1.0, -1.0, 0.0), (1.0, 1.0, 0.4))
    assert summary.occupied + summary.free + summary.unknown == summary.voxels_scanned
    assert summary.voxels_scanned > 0


def test_bbox_guardrail_and_validation(warm_session):
    warm_session.query_engine.max_box_voxels = 10
    with pytest.raises(ValueError, match="guardrail"):
        warm_session.query_bbox((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0))
    with pytest.raises(ValueError, match="inverted box"):
        warm_session.query_bbox((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))


def test_raycast_hits_the_ring_wall(warm_session):
    # The fixture scans observe a ring of wall points at radius ~2.5 m; a ray
    # fired outwards from the centre must collide with it.
    response = warm_session.raycast((0.0, 0.0, 0.2), (1.0, 0.0, 0.0), 6.0)
    assert response.hit
    assert response.hit_point is not None
    assert 1.5 < response.distance < 3.5
    assert response.voxels_traversed > 0

    # Distance is consistent with the returned hit point.
    dx = [response.hit_point[axis] - (0.0, 0.0, 0.2)[axis] for axis in range(3)]
    assert math.sqrt(sum(d * d for d in dx)) == pytest.approx(response.distance)


def test_raycast_miss_reports_full_range(warm_session):
    response = warm_session.raycast((0.0, 0.0, 0.2), (0.0, 0.0, 1.0), 1.0)
    assert not response.hit
    assert response.hit_point is None
    assert response.distance == pytest.approx(1.0)


def test_raycast_hit_is_occupied_in_the_software_map(warm_session):
    tree = warm_session.export_octree()
    service = warm_session.raycast((0.0, 0.0, 0.2), (1.0, 0.0, 0.0), 6.0)
    assert service.hit
    assert tree.classify(*service.hit_point) == "occupied"


def test_raycast_agrees_with_software_cast(warm_session):
    """The service stops where a walk of the exported software map meets its first occupied voxel."""
    tree = warm_session.export_octree()
    converter = tree.key_converter
    origin, max_range = (0.0, 0.0, 0.2), 6.0
    for direction in ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.8, 0.0), (0.0, 0.0, 1.0)):
        service = warm_session.raycast(origin, direction, max_range)
        end = tuple(origin[axis] + direction[axis] * max_range for axis in range(3))
        keys = compute_ray_keys(converter, origin, end) + [converter.coord_to_key(*end)]
        first = next((key for key in keys if tree.classify(key) == "occupied"), None)
        assert service.hit == (first is not None)
        if first is not None:
            assert service.hit_point == pytest.approx(converter.key_to_coord(first))


def test_raycast_clipped_miss_reports_traversed_distance(warm_session):
    """Regression: a no-hit ray clipped at the addressable-volume boundary
    used to report ``distance=max_range``, claiming free space beyond the
    volume that was never inspected."""
    from repro.octomap.scan_insertion import clip_segment_to_volume

    converter = warm_session.router.converter
    limit = converter.max_coordinate
    origin = (limit - 10.0, 0.0, 0.2)  # near the +x boundary, unobserved
    max_range = 20.0  # reaches well past the boundary
    end = (origin[0] + max_range, origin[1], origin[2])
    expected = clip_segment_to_volume(converter, origin, end)[0] - origin[0]
    assert 0.0 < expected < max_range, "the ray really was clipped"

    response = warm_session.raycast(origin, (1.0, 0.0, 0.0), max_range)
    assert not response.hit
    # The traversable segment ends at the clipped boundary, not at max_range.
    assert response.distance == pytest.approx(expected, rel=1e-6)
    assert response.distance < max_range
    # Consistency: the reported distance covers the voxels actually walked.
    assert response.voxels_traversed <= math.ceil(response.distance / converter.resolution) + 2

    # An unclipped miss still reports the full range (pinned elsewhere too).
    inside = warm_session.raycast((0.0, 0.0, 0.2), (0.0, 0.0, 1.0), 1.0)
    assert not inside.hit
    assert inside.distance == pytest.approx(1.0)


def test_raycast_from_outside_the_volume_is_a_clean_miss(warm_session):
    limit = warm_session.router.converter.max_coordinate
    response = warm_session.raycast((limit + 10.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 5.0)
    assert not response.hit
    assert response.voxels_traversed == 0


def test_bbox_only_counts_voxel_centres_inside_the_box(warm_session):
    resolution = warm_session.router.converter.resolution  # 0.2 m
    # A box strictly between two voxel-centre planes contains no centres.
    empty = warm_session.query_bbox((0.21, 0.21, 0.21), (0.29, 0.29, 0.29))
    assert empty.voxels_scanned == 0
    assert empty.occupied == empty.free == empty.unknown == 0
    # A grid-aligned 2x2x2-centre box scans exactly eight voxels.
    aligned = warm_session.query_bbox((0.0, 0.0, 0.0), (2 * resolution, 2 * resolution, 2 * resolution))
    assert aligned.voxels_scanned == 8


def test_raycast_validation(warm_session):
    with pytest.raises(ValueError, match="max_range"):
        warm_session.raycast((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="non-zero"):
        warm_session.raycast((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)


def test_point_query_status_and_collision(warm_session):
    assert warm_session.query_engine.query(0.0, 0.0, 0.2).status in ("occupied", "free", "unknown")
    occupied_point = None
    for leaf in warm_session.export_octree().iter_occupied():
        occupied_point = leaf.center
        break
    assert occupied_point is not None
    assert warm_session.query_engine.query(*occupied_point).occupied


# ---------------------------------------------------------------------------
# Streaming bounding-box sweeps (iter_bbox)
# ---------------------------------------------------------------------------
def test_iter_bbox_chunks_are_bounded_and_sum_to_the_aggregate(warm_session):
    minimum, maximum = (-1.0, -1.0, 0.0), (1.0, 1.0, 0.4)
    summary = warm_session.query_bbox(minimum, maximum)
    chunks = list(warm_session.query_engine.iter_bbox(minimum, maximum, chunk_voxels=7))
    assert all(len(chunk.voxels) <= 7 for chunk in chunks)
    assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
    assert all(chunk.voxels_total == summary.voxels_scanned for chunk in chunks)
    assert sum(len(chunk.voxels) for chunk in chunks) == summary.voxels_scanned
    assert sum(chunk.occupied for chunk in chunks) == summary.occupied
    assert sum(chunk.free for chunk in chunks) == summary.free
    assert sum(chunk.unknown for chunk in chunks) == summary.unknown


def test_iter_bbox_voxels_match_pointwise_queries(warm_session):
    chunks = warm_session.query_engine.iter_bbox((-0.6, -0.6, 0.0), (0.6, 0.6, 0.4))
    for chunk in chunks:
        for x, y, z, status in chunk.voxels:
            assert warm_session.query(x, y, z).status == status


def test_iter_bbox_counts_only_mode_keeps_chunks_light(warm_session):
    chunks = list(
        warm_session.query_engine.iter_bbox(
            (-1.0, -1.0, 0.0), (1.0, 1.0, 0.4), chunk_voxels=16, include_voxels=False
        )
    )
    assert all(chunk.voxels == () for chunk in chunks)
    assert sum(chunk.occupied + chunk.free + chunk.unknown for chunk in chunks) > 0


def test_iter_bbox_empty_box_yields_one_empty_chunk(warm_session):
    chunks = list(warm_session.query_engine.iter_bbox((0.21, 0.21, 0.21), (0.29, 0.29, 0.29)))
    assert len(chunks) == 1
    assert chunks[0].voxels == ()
    assert chunks[0].voxels_total == 0


def test_iter_bbox_validates_eagerly(warm_session):
    with pytest.raises(ValueError, match="chunk_voxels"):
        warm_session.query_engine.iter_bbox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), chunk_voxels=0)
    with pytest.raises(ValueError, match="inverted box"):
        # Before the first chunk is requested, not at first iteration.
        warm_session.query_engine.iter_bbox((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    warm_session.query_engine.max_box_voxels = 10
    with pytest.raises(ValueError, match="guardrail"):
        warm_session.query_engine.iter_bbox((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0))
