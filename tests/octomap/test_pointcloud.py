"""Unit tests for point clouds, poses, scan nodes and scan graphs."""

import math

import numpy as np
import pytest

from repro.octomap.pointcloud import PointCloud, Pose6D, ScanGraph, ScanNode


class TestPointCloud:
    def test_empty_cloud(self):
        cloud = PointCloud()
        assert len(cloud) == 0
        assert list(cloud) == []

    def test_construction_from_list(self):
        cloud = PointCloud([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        assert len(cloud) == 2
        assert cloud.points[1].tolist() == [4.0, 5.0, 6.0]

    def test_construction_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)))

    def test_iteration_yields_tuples(self):
        cloud = PointCloud([(1.0, 2.0, 3.0)])
        assert next(iter(cloud)) == (1.0, 2.0, 3.0)

    def test_transformed_translation_only(self):
        cloud = PointCloud([(1.0, 0.0, 0.0)])
        moved = cloud.transformed(Pose6D((0.0, 0.0, 5.0)))
        assert moved.points[0] == pytest.approx((1.0, 0.0, 5.0))

    def test_transformed_yaw_rotation(self):
        cloud = PointCloud([(1.0, 0.0, 0.0)])
        rotated = cloud.transformed(Pose6D(yaw=math.pi / 2.0))
        assert rotated.points[0] == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


class TestPose6D:
    def test_identity_transform(self):
        moved = PointCloud([(1.0, 2.0, 3.0)]).transformed(Pose6D())
        assert moved.points[0] == pytest.approx((1.0, 2.0, 3.0))

    def test_rotation_matrix_is_orthonormal(self):
        pose = Pose6D(roll=0.3, pitch=-0.2, yaw=1.1)
        rotation = pose.rotation_matrix()
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rotation) == pytest.approx(1.0)

    def test_translation_validation(self):
        with pytest.raises(ValueError):
            Pose6D((1.0, 2.0))

    def test_yaw_rotates_about_z(self):
        pose = Pose6D(yaw=math.pi)
        assert pose.rotation_matrix() @ (1.0, 0.0, 0.0) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-12)

    def test_pitch_rotates_about_y(self):
        pose = Pose6D(pitch=math.pi / 2.0)
        assert pose.rotation_matrix() @ (1.0, 0.0, 0.0) == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)


class TestScanNodeAndGraph:
    def test_world_cloud_applies_the_pose(self):
        scan = ScanNode(PointCloud([(1.0, 0.0, 0.0)]), Pose6D((0.0, 0.0, 1.0), yaw=math.pi / 2.0))
        assert scan.world_cloud().points[0] == pytest.approx((0.0, 1.0, 1.0), abs=1e-12)

    def test_origin_is_the_pose_translation(self):
        scan = ScanNode(PointCloud(), Pose6D((1.0, 2.0, 3.0)))
        assert scan.origin() == (1.0, 2.0, 3.0)

    def test_graph_accumulates_scans(self):
        graph = ScanGraph(name="demo")
        graph.add_scan(ScanNode(PointCloud([(1.0, 1.0, 1.0)]), Pose6D(), scan_id=0))
        graph.add_scan(ScanNode(PointCloud([(2.0, 2.0, 2.0), (3.0, 3.0, 3.0)]), Pose6D(), scan_id=1))
        assert len(graph) == 2
        assert graph.total_points() == 3
        assert graph.average_points_per_scan() == pytest.approx(1.5)

    def test_graph_indexing_and_iteration(self):
        scans = [ScanNode(PointCloud(), Pose6D(), scan_id=i) for i in range(3)]
        graph = ScanGraph(scans)
        assert list(graph)[1] is scans[1]
        assert [scan.scan_id for scan in graph] == [0, 1, 2]

    def test_statistics_shape_matches_table2_fields(self):
        graph = ScanGraph([ScanNode(PointCloud([(0.0, 0.0, 0.0)]), Pose6D())], name="x")
        stats = graph.statistics()
        assert set(stats) == {"name", "scan_number", "average_points_per_scan", "point_cloud_total"}

    def test_empty_graph_statistics(self):
        graph = ScanGraph()
        assert graph.average_points_per_scan() == 0.0
        assert graph.total_points() == 0
