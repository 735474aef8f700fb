"""Simulated range sensors.

Two sensor models cover the paper's data sources:

* :class:`SpinningLidar` -- a multi-beam rotating laser scanner (the 3D laser
  scans of the OctoMap dataset).  Beams are distributed over a configurable
  azimuth / elevation grid; each beam is intersected with the scene and the
  hit point is returned in the *sensor frame*, so a
  :class:`~repro.octomap.pointcloud.ScanNode` built from the returned cloud
  and the sensor pose reproduces the exact world-frame geometry.
* :class:`DepthCamera` -- a pin-hole depth sensor (the paper's Kinect example
  producing 9.2 million points per second); used by the examples to show a
  camera-based pipeline.

Both models support random beam dropout so the number of returns per scan can
be matched to the dataset statistics without changing the angular coverage.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasets.scenes import Scene
from repro.octomap.pointcloud import PointCloud, Pose6D

__all__ = ["SpinningLidar", "DepthCamera"]


class SpinningLidar:
    """A rotating multi-beam LiDAR model.

    Args:
        num_azimuth: beams per revolution.
        num_elevation: vertical channels.
        vertical_fov_deg: total vertical field of view, centred on horizontal.
        max_range_m: maximum measurable range; beams without a hit inside the
            range produce no return (like a real LiDAR).
        dropout: fraction of beams randomly discarded (models sub-sampling
            and absorbing surfaces); use it to match points-per-scan targets.
        seed: seed of the dropout random generator.
    """

    def __init__(
        self,
        num_azimuth: int = 360,
        num_elevation: int = 16,
        vertical_fov_deg: float = 30.0,
        max_range_m: float = 30.0,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        if num_azimuth < 1 or num_elevation < 1:
            raise ValueError("the beam grid must have at least one beam")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if max_range_m <= 0:
            raise ValueError("max_range_m must be positive")
        self.num_azimuth = num_azimuth
        self.num_elevation = num_elevation
        self.vertical_fov_deg = vertical_fov_deg
        self.max_range_m = max_range_m
        self.dropout = dropout
        self._rng = np.random.default_rng(seed)

    def directions(self) -> np.ndarray:
        """Unit beam directions in the sensor frame, shape (beams, 3)."""
        azimuths = np.linspace(-math.pi, math.pi, self.num_azimuth, endpoint=False)
        half_fov = math.radians(self.vertical_fov_deg) / 2.0
        if self.num_elevation == 1:
            elevations = np.array([0.0])
        else:
            elevations = np.linspace(-half_fov, half_fov, self.num_elevation)
        directions = np.empty((self.num_azimuth * self.num_elevation, 3), dtype=np.float64)
        index = 0
        for elevation in elevations:
            cos_el = math.cos(elevation)
            sin_el = math.sin(elevation)
            for azimuth in azimuths:
                directions[index] = (
                    cos_el * math.cos(azimuth),
                    cos_el * math.sin(azimuth),
                    sin_el,
                )
                index += 1
        return directions

    def scan(self, scene: Scene, pose: Pose6D) -> PointCloud:
        """Fire one revolution from ``pose`` and return the sensor-frame cloud."""
        rotation = pose.rotation_matrix()
        origin = np.asarray(pose.translation, dtype=np.float64)
        points = []
        for direction in self.directions():
            if self.dropout > 0.0 and self._rng.random() < self.dropout:
                continue
            world_direction = rotation @ direction
            hit = scene.cast(origin, world_direction, self.max_range_m)
            if hit is None:
                continue
            relative = np.asarray(hit, dtype=np.float64) - origin
            sensor_point = rotation.T @ relative
            points.append(sensor_point)
        return PointCloud(np.asarray(points) if points else None)


class DepthCamera:
    """A pin-hole depth camera model (Kinect-like).

    Args:
        width / height: depth image resolution in pixels.
        horizontal_fov_deg: horizontal field of view.
        max_range_m: maximum measurable depth.
        stride: sample every ``stride``-th pixel in both directions (depth
            images are dense; mapping pipelines typically sub-sample them).
    """

    def __init__(
        self,
        width: int = 320,
        height: int = 240,
        horizontal_fov_deg: float = 58.0,
        max_range_m: float = 8.0,
        stride: int = 4,
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be positive")
        if stride < 1:
            raise ValueError("stride must be at least 1")
        self.width = width
        self.height = height
        self.horizontal_fov_deg = horizontal_fov_deg
        self.max_range_m = max_range_m
        self.stride = stride

    def scan(self, scene: Scene, pose: Pose6D) -> PointCloud:
        """Render one depth frame and return the sensor-frame point cloud.

        The optical axis is the sensor's +x axis so the camera convention
        matches the LiDAR (and the scan-graph pose convention).
        """
        rotation = pose.rotation_matrix()
        origin = np.asarray(pose.translation, dtype=np.float64)
        focal = (self.width / 2.0) / math.tan(math.radians(self.horizontal_fov_deg) / 2.0)
        center_u = self.width / 2.0
        center_v = self.height / 2.0
        points = []
        for v in range(0, self.height, self.stride):
            for u in range(0, self.width, self.stride):
                direction = np.asarray(
                    (1.0, -(u - center_u) / focal, -(v - center_v) / focal), dtype=np.float64
                )
                direction /= np.linalg.norm(direction)
                world_direction = rotation @ direction
                hit = scene.cast(origin, world_direction, self.max_range_m)
                if hit is None:
                    continue
                relative = np.asarray(hit, dtype=np.float64) - origin
                points.append(rotation.T @ relative)
        return PointCloud(np.asarray(points) if points else None)
