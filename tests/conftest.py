"""Shared fixtures: small scenes, scan graphs and accelerators for tests.

The fixtures are deliberately tiny (hundreds to a few thousand voxel updates)
so the whole suite runs in minutes; the benchmark harness under
``benchmarks/`` exercises the larger "default"-scale workloads.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import OMUAccelerator, OMUConfig
from repro.octomap import OccupancyOcTree, PointCloud, Pose6D, ScanGraph, ScanNode


@pytest.fixture
def ring_cloud() -> PointCloud:
    """A horizontal ring of wall points at radius 3 m around the origin."""
    points = [
        (3.0 * math.cos(azimuth), 3.0 * math.sin(azimuth), 0.0)
        for azimuth in np.linspace(-math.pi, math.pi, 180, endpoint=False)
    ]
    return PointCloud(points)


@pytest.fixture
def ring_scan(ring_cloud: PointCloud) -> ScanNode:
    """The ring cloud observed from a sensor 0.4 m above the map origin."""
    return ScanNode(ring_cloud, Pose6D((0.0, 0.0, 0.4)), scan_id=0)


@pytest.fixture
def ring_graph(ring_scan: ScanNode) -> ScanGraph:
    """A single-scan graph built from :func:`ring_scan`."""
    return ScanGraph([ring_scan], name="ring")


@pytest.fixture
def two_scan_graph() -> ScanGraph:
    """Two scans of a small room observed from different positions.

    The second scan revisits most of the first scan's voxels, which exercises
    re-updates, pruning and expansion rather than only fresh allocation.
    """
    scans = []
    for index, origin_x in enumerate((-0.6, 0.6)):
        points = []
        for azimuth in np.linspace(-math.pi, math.pi, 150, endpoint=False):
            radius = 2.5 + 0.3 * math.sin(4.0 * azimuth)
            points.append(
                (
                    radius * math.cos(azimuth),
                    radius * math.sin(azimuth),
                    0.3 * math.sin(2.0 * azimuth),
                )
            )
        scans.append(ScanNode(PointCloud(points), Pose6D((origin_x, 0.0, 0.2)), scan_id=index))
    return ScanGraph(scans, name="two-scan-room")


@pytest.fixture
def small_tree(ring_graph: ScanGraph) -> OccupancyOcTree:
    """A software octree with one ring scan integrated at 0.2 m resolution."""
    tree = OccupancyOcTree(0.2)
    scan = next(iter(ring_graph))
    tree.insert_point_cloud(scan.world_cloud(), scan.origin())
    return tree


@pytest.fixture
def default_config() -> OMUConfig:
    """The paper's accelerator configuration at 0.2 m resolution."""
    return OMUConfig(resolution_m=0.2)


@pytest.fixture
def accelerator(default_config: OMUConfig) -> OMUAccelerator:
    """A fresh, empty accelerator instance."""
    return OMUAccelerator(default_config)


@pytest.fixture
def loaded_accelerator(default_config: OMUConfig, ring_graph: ScanGraph) -> OMUAccelerator:
    """An accelerator that has already integrated the ring scan."""
    instance = OMUAccelerator(default_config)
    instance.process_scan_graph(ring_graph)
    return instance
