"""Unit tests for the simulated LiDAR and depth camera."""

import numpy as np
import pytest

from repro.datasets.scenes import AxisAlignedBox, Scene, corridor_scene
from repro.datasets.sensors import DepthCamera, SpinningLidar
from repro.octomap.pointcloud import Pose6D


@pytest.fixture
def box_scene() -> Scene:
    """A single box 3 m in front of the origin."""
    return Scene("box", [AxisAlignedBox((3.0, -4.0, -2.0), (3.5, 4.0, 2.0))], extent_m=10.0)


class TestSpinningLidar:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpinningLidar(num_azimuth=0)
        with pytest.raises(ValueError):
            SpinningLidar(dropout=1.0)
        with pytest.raises(ValueError):
            SpinningLidar(max_range_m=0.0)

    def test_direction_count_and_normalisation(self):
        lidar = SpinningLidar(num_azimuth=36, num_elevation=4)
        directions = lidar.directions()
        assert directions.shape == (36 * 4, 3)
        norms = np.linalg.norm(directions, axis=1)
        assert np.allclose(norms, 1.0)

    def test_single_elevation_is_horizontal(self):
        lidar = SpinningLidar(num_azimuth=8, num_elevation=1)
        assert np.allclose(lidar.directions()[:, 2], 0.0)

    def test_scan_returns_sensor_frame_points(self, box_scene):
        lidar = SpinningLidar(num_azimuth=72, num_elevation=1, max_range_m=20.0)
        cloud = lidar.scan(box_scene, Pose6D((0.0, 0.0, 0.0)))
        assert len(cloud) > 0
        # Every return must come from the box front face at x = 3.
        for x, y, z in cloud:
            assert x == pytest.approx(3.0, abs=0.2)

    def test_scan_respects_pose_rotation(self, box_scene):
        lidar = SpinningLidar(num_azimuth=72, num_elevation=1, max_range_m=20.0)
        pose = Pose6D((0.0, 0.0, 0.0), yaw=np.pi / 2.0)
        cloud = lidar.scan(box_scene, pose)
        world = cloud.transformed(pose)
        for x, y, z in world:
            assert x == pytest.approx(3.0, abs=0.2)

    def test_misses_beyond_max_range_produce_no_return(self, box_scene):
        lidar = SpinningLidar(num_azimuth=72, num_elevation=1, max_range_m=1.0)
        cloud = lidar.scan(box_scene, Pose6D((0.0, 0.0, 0.0)))
        assert len(cloud) == 0

    def test_dropout_reduces_returns_deterministically(self):
        scene = corridor_scene()
        dense = SpinningLidar(num_azimuth=90, num_elevation=2, dropout=0.0, seed=1)
        sparse_a = SpinningLidar(num_azimuth=90, num_elevation=2, dropout=0.5, seed=1)
        sparse_b = SpinningLidar(num_azimuth=90, num_elevation=2, dropout=0.5, seed=1)
        pose = Pose6D((0.0, 0.0, 0.0))
        n_dense = len(dense.scan(scene, pose))
        n_sparse_a = len(sparse_a.scan(scene, pose))
        n_sparse_b = len(sparse_b.scan(scene, pose))
        assert n_sparse_a < n_dense
        assert n_sparse_a == n_sparse_b

    def test_corridor_scan_covers_both_z_octants(self):
        scene = corridor_scene()
        lidar = SpinningLidar(num_azimuth=90, num_elevation=5, max_range_m=20.0)
        cloud = lidar.scan(scene, Pose6D((0.0, 0.0, 0.0)))
        zs = [z for _, _, z in cloud]
        assert min(zs) < 0.0 < max(zs)


class TestDepthCamera:
    def test_validation(self):
        with pytest.raises(ValueError):
            DepthCamera(width=0)
        with pytest.raises(ValueError):
            DepthCamera(stride=0)

    def test_pixels_per_frame_matches_paper_reference_frame(self):
        camera = DepthCamera()
        assert camera.width * camera.height == 320 * 240

    def test_frame_contains_wall_returns(self, box_scene):
        camera = DepthCamera(width=64, height=48, stride=8, max_range_m=10.0)
        cloud = camera.scan(box_scene, Pose6D((0.0, 0.0, 0.0)))
        assert len(cloud) > 0
        for x, y, z in cloud:
            assert x == pytest.approx(3.0, abs=0.3)

    def test_out_of_range_scene_gives_empty_frame(self, box_scene):
        camera = DepthCamera(width=32, height=24, stride=8, max_range_m=1.0)
        assert len(camera.scan(box_scene, Pose6D((0.0, 0.0, 0.0)))) == 0
