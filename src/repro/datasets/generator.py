"""Scan-graph generation: synthetic stand-ins for the paper's datasets.

The full datasets trigger 10^8 .. 10^9 voxel updates -- far beyond what a
Python functional simulator should chew through -- so experiments run on
*scaled* scan graphs: the same scenes, the same sensor model and trajectory
shapes, but fewer scans and fewer beams per scan.  The measured
cycles-per-voxel-update (accelerator) and per-operation costs (CPU models)
are workload-intensity properties that transfer from the scaled graph to the
full-size dataset, whose total voxel-update count comes from the Table II
catalog; this is exactly how the paper itself converts measured latency into
the equivalent-frame FPS metric.

:func:`generate_scan_graph` builds a graph for a dataset descriptor at a
chosen scale; :func:`trajectory_for_scene` exposes the per-scene sensor paths
so examples can reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.datasets.catalog import DatasetDescriptor, dataset_by_name
from repro.datasets.scenes import Scene, scene_by_name
from repro.datasets.sensors import SpinningLidar
from repro.octomap.pointcloud import Pose6D, ScanGraph, ScanNode

__all__ = ["GenerationSpec", "trajectory_for_scene", "generate_scan_graph", "generate_named_graph"]


@dataclass(frozen=True)
class GenerationSpec:
    """Parameters of one synthetic scan-graph generation.

    Attributes:
        num_scans: number of sensor poses along the trajectory.
        beams_azimuth / beams_elevation: LiDAR beam grid per scan.
        max_range_m: sensor range.
        dropout: fraction of beams discarded (tunes points per scan).
        seed: RNG seed for the dropout pattern.
    """

    num_scans: int = 6
    beams_azimuth: int = 180
    beams_elevation: int = 6
    max_range_m: float = 25.0
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_scans < 1:
            raise ValueError("num_scans must be at least 1")


def trajectory_for_scene(scene_name: str, num_scans: int) -> List[Pose6D]:
    """Sensor poses along the canonical trajectory of a scene.

    The sensor travels at z = 0 in every scene (the scenes place their floor
    below the sensor), so the observed volume straddles all eight octants of
    the octree and the OMU's first-level-branch partitioning can spread work
    across its PEs:

    * corridor -- a straight walk along the corridor axis;
    * campus -- a loop around the central open area;
    * college -- a slow tour of the quad with small heading changes
      (mimicking the very many small scans of New College).
    """
    poses: List[Pose6D] = []
    if scene_name == "corridor":
        for index in range(num_scans):
            fraction = index / max(1, num_scans - 1)
            x = -14.0 + 28.0 * fraction
            poses.append(Pose6D((x, 0.0, 0.0), yaw=0.0))
    elif scene_name == "campus":
        for index in range(num_scans):
            angle = index * math.tau / max(1, num_scans)
            radius = 18.0
            x = radius * math.cos(angle)
            y = radius * math.sin(angle)
            poses.append(Pose6D((x, y, 0.0), yaw=angle + math.pi / 2.0))
    elif scene_name == "college":
        for index in range(num_scans):
            angle = index * math.tau / max(1, num_scans)
            radius = 20.0 + 2.0 * math.sin(3.0 * angle)
            x = radius * math.cos(angle)
            y = radius * math.sin(angle)
            poses.append(Pose6D((x, y, 0.0), yaw=angle + math.pi / 2.0 + 0.1 * math.sin(7.0 * angle)))
    else:
        raise KeyError(f"unknown scene {scene_name!r}")
    return poses


def generate_scan_graph(
    descriptor: DatasetDescriptor,
    spec: GenerationSpec,
    scene: Scene | None = None,
) -> ScanGraph:
    """Generate a scaled synthetic scan graph for one dataset descriptor.

    All randomness derives from ``spec.seed``, so the same spec regenerates
    the same graph exactly.
    """
    scene = scene if scene is not None else scene_by_name(descriptor.scene)
    lidar = SpinningLidar(
        num_azimuth=spec.beams_azimuth,
        num_elevation=spec.beams_elevation,
        max_range_m=spec.max_range_m,
        dropout=spec.dropout,
        seed=spec.seed,
    )
    graph = ScanGraph(name=descriptor.name)
    for scan_id, pose in enumerate(trajectory_for_scene(scene.name, spec.num_scans)):
        cloud = lidar.scan(scene, pose)
        graph.add_scan(ScanNode(cloud, pose, scan_id=scan_id))
    return graph


def generate_named_graph(
    name: str,
    num_scans: int = 6,
    beams_azimuth: int = 180,
    beams_elevation: int = 6,
    max_range_m: float = 25.0,
    dropout: float = 0.0,
    seed: int = 0,
) -> Tuple[DatasetDescriptor, ScanGraph]:
    """Convenience wrapper: look up the descriptor and generate its graph."""
    descriptor = dataset_by_name(name)
    spec = GenerationSpec(
        num_scans=num_scans,
        beams_azimuth=beams_azimuth,
        beams_elevation=beams_elevation,
        max_range_m=max_range_m,
        dropout=dropout,
        seed=seed,
    )
    return descriptor, generate_scan_graph(descriptor, spec)
