"""Point clouds, rigid-body poses, scan nodes and scan graphs.

These are the sensor-data containers the mapping pipeline consumes.  A
:class:`ScanGraph` mirrors the OctoMap ``.graph`` datasets used in the paper's
evaluation (FR-079 corridor, Freiburg campus, New College): a sequence of
:class:`ScanNode` entries, each pairing a point cloud in the sensor frame with
the 6-DoF pose of the sensor at capture time.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["PointCloud", "Pose6D", "ScanNode", "ScanGraph"]


class PointCloud:
    """A set of 3D points stored as an ``(N, 3)`` float64 array."""

    def __init__(self, points: Sequence[Sequence[float]] | np.ndarray | None = None) -> None:
        if points is None:
            self._points = np.empty((0, 3), dtype=np.float64)
        else:
            array = np.asarray(points, dtype=np.float64)
            if array.size == 0:
                array = array.reshape(0, 3)
            if array.ndim != 2 or array.shape[1] != 3:
                raise ValueError(f"points must have shape (N, 3), got {array.shape}")
            self._points = array.copy()

    @property
    def points(self) -> np.ndarray:
        """The underlying ``(N, 3)`` array (a copy is *not* made)."""
        return self._points

    def __len__(self) -> int:
        return int(self._points.shape[0])

    def __iter__(self) -> Iterator[Tuple[float, float, float]]:
        for row in self._points:
            yield (float(row[0]), float(row[1]), float(row[2]))

    def transformed(self, pose: "Pose6D") -> "PointCloud":
        """Return a new cloud with every point moved into the pose's frame."""
        if len(self) == 0:
            return PointCloud()
        rotated = self._points @ pose.rotation_matrix().T
        translated = rotated + np.asarray(pose.translation, dtype=np.float64)
        return PointCloud(translated)


class Pose6D:
    """A rigid-body transform: translation plus roll / pitch / yaw (radians).

    The rotation convention is Z-Y-X intrinsic (yaw about z, then pitch about
    y, then roll about x), matching the OctoMap ``pose6d`` convention used by
    the scan-graph datasets.
    """

    __slots__ = ("translation", "roll", "pitch", "yaw")

    def __init__(
        self,
        translation: Sequence[float] = (0.0, 0.0, 0.0),
        roll: float = 0.0,
        pitch: float = 0.0,
        yaw: float = 0.0,
    ) -> None:
        if len(translation) != 3:
            raise ValueError("translation must have three components")
        self.translation = (float(translation[0]), float(translation[1]), float(translation[2]))
        self.roll = float(roll)
        self.pitch = float(pitch)
        self.yaw = float(yaw)

    def rotation_matrix(self) -> np.ndarray:
        """3x3 rotation matrix of this pose."""
        cr, sr = math.cos(self.roll), math.sin(self.roll)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        rotation_z = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        rotation_y = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
        rotation_x = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
        return rotation_z @ rotation_y @ rotation_x


class ScanNode:
    """One sensor capture: a point cloud in the sensor frame plus its pose."""

    __slots__ = ("cloud", "pose", "scan_id")

    def __init__(self, cloud: PointCloud, pose: Pose6D, scan_id: int = 0) -> None:
        self.cloud = cloud
        self.pose = pose
        self.scan_id = int(scan_id)

    def world_cloud(self) -> PointCloud:
        """The point cloud transformed into the world frame."""
        return self.cloud.transformed(self.pose)

    def origin(self) -> Tuple[float, float, float]:
        """Sensor origin in the world frame."""
        return self.pose.translation

    def __len__(self) -> int:
        return len(self.cloud)


class ScanGraph:
    """An ordered collection of scans, equivalent to an OctoMap ``.graph`` file."""

    def __init__(self, scans: Iterable[ScanNode] | None = None, name: str = "") -> None:
        self._scans: List[ScanNode] = list(scans) if scans is not None else []
        self.name = name

    def add_scan(self, scan: ScanNode) -> None:
        """Append one scan to the graph."""
        self._scans.append(scan)

    def __len__(self) -> int:
        return len(self._scans)

    def __iter__(self) -> Iterator[ScanNode]:
        return iter(self._scans)

    def total_points(self) -> int:
        """Total number of 3D points across all scans."""
        return sum(len(scan) for scan in self._scans)

    def average_points_per_scan(self) -> float:
        """Mean number of points per scan (0 for an empty graph)."""
        if not self._scans:
            return 0.0
        return self.total_points() / len(self._scans)

    def statistics(self) -> dict:
        """Summary statistics in the shape of the paper's Table II rows."""
        return {
            "name": self.name,
            "scan_number": len(self._scans),
            "average_points_per_scan": self.average_points_per_scan(),
            "point_cloud_total": self.total_points(),
        }
