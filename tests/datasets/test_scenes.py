"""Unit tests for the synthetic scene primitives and scene builders."""

import math

import pytest

from repro.datasets.scenes import (
    AxisAlignedBox,
    GroundPlane,
    Scene,
    VerticalCylinder,
    campus_scene,
    college_scene,
    corridor_scene,
    scene_by_name,
)


class TestAxisAlignedBox:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            AxisAlignedBox((0, 0, 0), (0, 1, 1))

    def test_ray_hits_front_face(self):
        box = AxisAlignedBox((2.0, -1.0, -1.0), (3.0, 1.0, 1.0))
        t = box.intersect((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert t == pytest.approx(2.0)

    def test_ray_pointing_away_misses(self):
        box = AxisAlignedBox((2.0, -1.0, -1.0), (3.0, 1.0, 1.0))
        assert box.intersect((0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)) is None

    def test_ray_parallel_outside_slab_misses(self):
        box = AxisAlignedBox((2.0, -1.0, -1.0), (3.0, 1.0, 1.0))
        assert box.intersect((0.0, 5.0, 0.0), (1.0, 0.0, 0.0)) is None

    def test_ray_from_inside_hits_exit_face(self):
        box = AxisAlignedBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        t = box.intersect((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert t == pytest.approx(1.0)


class TestGroundPlane:
    def test_downward_ray_hits(self):
        plane = GroundPlane(-1.0)
        t = plane.intersect((0.0, 0.0, 0.0), (0.0, 0.0, -1.0))
        assert t == pytest.approx(1.0)

    def test_upward_ray_misses(self):
        assert GroundPlane(-1.0).intersect((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)) is None

    def test_horizontal_ray_misses(self):
        assert GroundPlane(-1.0).intersect((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)) is None


class TestVerticalCylinder:
    def test_validation(self):
        with pytest.raises(ValueError):
            VerticalCylinder(0, 0, -1.0, 0, 1)
        with pytest.raises(ValueError):
            VerticalCylinder(0, 0, 1.0, 2, 1)

    def test_ray_hits_surface(self):
        cylinder = VerticalCylinder(5.0, 0.0, 1.0, -2.0, 2.0)
        t = cylinder.intersect((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert t == pytest.approx(4.0)

    def test_ray_above_the_cap_misses(self):
        cylinder = VerticalCylinder(5.0, 0.0, 1.0, -2.0, 2.0)
        assert cylinder.intersect((0.0, 0.0, 5.0), (1.0, 0.0, 0.0)) is None

    def test_vertical_ray_misses(self):
        cylinder = VerticalCylinder(5.0, 0.0, 1.0, -2.0, 2.0)
        assert cylinder.intersect((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)) is None

    def test_offset_ray_misses(self):
        cylinder = VerticalCylinder(5.0, 0.0, 0.5, -2.0, 2.0)
        assert cylinder.intersect((0.0, 3.0, 0.0), (1.0, 0.0, 0.0)) is None


class TestScene:
    def test_nearest_hit_wins(self):
        scene = Scene(
            "test",
            [
                AxisAlignedBox((5.0, -1.0, -1.0), (6.0, 1.0, 1.0)),
                AxisAlignedBox((2.0, -1.0, -1.0), (3.0, 1.0, 1.0)),
            ],
            extent_m=10.0,
        )
        hit = scene.cast((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_range=20.0)
        assert hit[0] == pytest.approx(2.0)

    def test_out_of_range_hit_is_discarded(self):
        scene = Scene("test", [AxisAlignedBox((5.0, -1.0, -1.0), (6.0, 1.0, 1.0))], 10.0)
        assert scene.cast((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), max_range=3.0) is None


class TestSceneBuilders:
    @pytest.mark.parametrize("name", ["corridor", "campus", "college"])
    def test_scene_by_name(self, name):
        scene = scene_by_name(name)
        assert scene.name == name
        assert scene.primitives

    def test_scene_by_name_unknown(self):
        with pytest.raises(KeyError):
            scene_by_name("moon-base")

    def test_corridor_encloses_the_walkway(self):
        scene = corridor_scene()
        # Looking sideways from the middle of the corridor must hit a wall.
        assert scene.cast((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 30.0) is not None
        assert scene.cast((5.0, 0.0, 0.0), (0.0, -1.0, 0.0), 30.0) is not None
        # Looking down hits the floor below the sensor (floor_z < 0).
        floor_hit = scene.cast((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), 30.0)
        assert floor_hit is not None and floor_hit[2] < 0.0

    def test_corridor_has_content_above_and_below_the_sensor_plane(self):
        """Both z octants must receive returns (PE load-balance precondition)."""
        scene = corridor_scene()
        up = scene.cast((0.0, 0.0, 0.0), (0.0, 0.2, 1.0), 30.0)
        down = scene.cast((0.0, 0.0, 0.0), (0.0, 0.2, -1.0), 30.0)
        assert up is not None and up[2] > 0.0
        assert down is not None and down[2] < 0.0

    def test_campus_ground_is_below_sensor(self):
        scene = campus_scene()
        hit = scene.cast((0.0, 0.0, 0.0), (0.3, 0.1, -1.0), 60.0)
        assert hit is not None
        assert hit[2] == pytest.approx(-1.6, abs=1e-6)

    def test_campus_buildings_are_hit_horizontally(self):
        scene = campus_scene()
        hits = 0
        for azimuth_deg in range(0, 360, 10):
            azimuth = math.radians(azimuth_deg)
            if scene.cast((0.0, 0.0, 0.0), (math.cos(azimuth), math.sin(azimuth), 0.0), 60.0):
                hits += 1
        assert hits > 5

    def test_college_is_enclosed_by_walls(self):
        scene = college_scene()
        for azimuth_deg in range(0, 360, 30):
            azimuth = math.radians(azimuth_deg)
            hit = scene.cast((0.0, 5.0, 0.0), (math.cos(azimuth), math.sin(azimuth), 0.0), 100.0)
            assert hit is not None, f"azimuth {azimuth_deg} escaped the quad"
