"""Datasets: Table II catalog, synthetic scenes, simulated sensors, generators.

The real OctoMap 3D scan datasets (FR-079 corridor, Freiburg campus, New
College) are unavailable offline; this package substitutes analytic scenes
scanned by simulated sensors whose aggregate statistics match the paper's
Table II.  See DESIGN.md for the substitution rationale.
"""

from repro.datasets.catalog import (
    ALL_DATASETS,
    EQUIVALENT_FRAME_PIXELS,
    FR079_CORRIDOR,
    FREIBURG_CAMPUS,
    NEW_COLLEGE,
    DatasetDescriptor,
    PaperReference,
    dataset_by_name,
)
from repro.datasets.generator import (
    GenerationSpec,
    generate_named_graph,
    generate_scan_graph,
    trajectory_for_scene,
)
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
from repro.datasets.sensors import DepthCamera, SpinningLidar
from repro.datasets.streams import (
    ClientSpec,
    StreamEvent,
    generate_client_scans,
    generate_interleaved_stream,
)

__all__ = [
    "ALL_DATASETS",
    "AxisAlignedBox",
    "ClientSpec",
    "DatasetDescriptor",
    "DepthCamera",
    "EQUIVALENT_FRAME_PIXELS",
    "FR079_CORRIDOR",
    "FREIBURG_CAMPUS",
    "GenerationSpec",
    "GroundPlane",
    "NEW_COLLEGE",
    "PaperReference",
    "Scene",
    "SpinningLidar",
    "StreamEvent",
    "VerticalCylinder",
    "campus_scene",
    "college_scene",
    "corridor_scene",
    "dataset_by_name",
    "generate_client_scans",
    "generate_interleaved_stream",
    "generate_named_graph",
    "generate_scan_graph",
    "scene_by_name",
    "trajectory_for_scene",
]
