"""Unit tests for the 3D DDA ray traversal."""

import math

import pytest

from repro.octomap.counters import OperationCounters
from repro.octomap.keys import KeyConverter
from repro.octomap.raycast import compute_ray_keys


@pytest.fixture
def converter() -> KeyConverter:
    return KeyConverter(0.1)


class TestComputeRayKeys:
    def test_axis_aligned_ray_visits_every_voxel(self, converter):
        keys = compute_ray_keys(converter, (0.05, 0.05, 0.05), (1.05, 0.05, 0.05))
        xs = [key.x for key in keys]
        assert xs == sorted(xs)
        assert len(keys) == 9  # voxels strictly between origin and endpoint

    def test_endpoint_voxel_is_excluded(self, converter):
        end = (1.05, 0.05, 0.05)
        end_key = converter.coord_to_key(*end)
        keys = compute_ray_keys(converter, (0.05, 0.05, 0.05), end)
        assert end_key not in keys

    def test_origin_voxel_is_excluded(self, converter):
        origin = (0.05, 0.05, 0.05)
        origin_key = converter.coord_to_key(*origin)
        keys = compute_ray_keys(converter, origin, (1.05, 0.05, 0.05))
        assert origin_key not in keys

    def test_same_voxel_returns_empty(self, converter):
        assert compute_ray_keys(converter, (0.01, 0.01, 0.01), (0.02, 0.02, 0.02)) == []

    def test_traversal_is_connected(self, converter):
        origin = (0.0, 0.0, 0.0)
        end = (2.3, -1.7, 0.9)
        keys = compute_ray_keys(converter, origin, end)
        full_path = [converter.coord_to_key(*origin)] + keys
        for previous, current in zip(full_path, full_path[1:]):
            step = sum(abs(a - b) for a, b in zip(previous.as_tuple(), current.as_tuple()))
            assert step == 1, "DDA must advance exactly one voxel per step"

    def test_traversal_reaches_the_endpoint_neighbourhood(self, converter):
        origin = (0.0, 0.0, 0.0)
        end = (2.3, -1.7, 0.9)
        keys = compute_ray_keys(converter, origin, end)
        end_key = converter.coord_to_key(*end)
        last = keys[-1]
        gap = sum(abs(a - b) for a, b in zip(last.as_tuple(), end_key.as_tuple()))
        assert gap <= 3

    def test_negative_direction(self, converter):
        keys = compute_ray_keys(converter, (0.05, 0.05, 0.05), (-1.05, 0.05, 0.05))
        xs = [key.x for key in keys]
        assert xs == sorted(xs, reverse=True)

    def test_diagonal_ray_key_count_is_bounded(self, converter):
        origin = (0.0, 0.0, 0.0)
        end = (1.0, 1.0, 1.0)
        keys = compute_ray_keys(converter, origin, end)
        length = math.sqrt(3.0)
        assert len(keys) <= 3 * (length / converter.resolution + 2)

    def test_counters_record_ray_steps(self, converter):
        counters = OperationCounters()
        keys = compute_ray_keys(converter, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), counters=counters)
        assert counters.ray_steps == len(keys)

    def test_long_ray_many_voxels(self, converter):
        keys = compute_ray_keys(converter, (0.0, 0.0, 0.0), (25.0, 13.0, -7.0))
        assert len(keys) > 200
        assert len(set(keys)) == len(keys), "no voxel is visited twice"
