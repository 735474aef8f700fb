"""Catalog of the paper's evaluation datasets (Table II).

The paper evaluates on three maps from the OctoMap 3D scan dataset
(FR-079 corridor, Freiburg campus outdoor, New College) at a voxel resolution
of 0.2 m.  The raw laser data is not redistributable and is unavailable
offline, so this repository substitutes synthetic scenes (see
:mod:`repro.datasets.scenes`) whose *aggregate statistics* -- scan count,
average points per scan, total point count and total voxel updates -- match
the paper's Table II.  Those aggregates, not the individual range returns,
are what the performance, throughput and energy models consume.

Each :class:`DatasetDescriptor` also records the paper's measured reference
numbers (Intel i9 latency, ARM A57 latency, OMU latency, throughputs and
energies from Tables II-V and Fig. 3) so the benchmark harness can print
paper-vs-measured columns side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

__all__ = [
    "DatasetDescriptor",
    "PaperReference",
    "FR079_CORRIDOR",
    "FREIBURG_CAMPUS",
    "NEW_COLLEGE",
    "ALL_DATASETS",
    "dataset_by_name",
    "EQUIVALENT_FRAME_PIXELS",
    "REFERENCE_UPDATES_PER_POINT",
    "EQUIVALENT_FRAME_UPDATES",
]

EQUIVALENT_FRAME_PIXELS = 320 * 240
"""The paper derives FPS from "equivalent 320x240 sensor image" frames."""

REFERENCE_UPDATES_PER_POINT = 15
"""Average voxel updates one sensor point triggers at 0.2 m resolution.

The paper's FPS numbers are consistent (to within a few percent across all
three datasets and all three platforms) with
``FPS = voxel-update throughput / (320*240 * 15)``, i.e. an "equivalent
frame" is 76 800 points each triggering the typical ~15 voxel updates.  This
constant makes that convention explicit."""

EQUIVALENT_FRAME_UPDATES = EQUIVALENT_FRAME_PIXELS * REFERENCE_UPDATES_PER_POINT
"""Voxel updates per equivalent 320x240 frame (1.152 million)."""


@dataclass(frozen=True)
class PaperReference:
    """Numbers the paper reports for one dataset (the reproduction targets).

    Attributes:
        i9_latency_s / a57_latency_s / omu_latency_s: Table III.
        i9_fps / a57_fps / omu_fps: Table IV (and Table II for the i9).
        a57_energy_j / omu_energy_j: Table V.
        cpu_breakdown: Fig. 3 runtime fractions on the i9 CPU, ordered
            (ray casting, update leaf, update parents, prune/expand).
    """

    i9_latency_s: float
    a57_latency_s: float
    omu_latency_s: float
    i9_fps: float
    a57_fps: float
    omu_fps: float
    a57_energy_j: float
    omu_energy_j: float
    cpu_breakdown: Tuple[float, float, float, float]

    @property
    def speedup_over_i9(self) -> float:
        """OMU speed-up over the Intel i9 reported by the paper."""
        return self.i9_latency_s / self.omu_latency_s

    @property
    def speedup_over_a57(self) -> float:
        """OMU speed-up over the ARM Cortex-A57 reported by the paper."""
        return self.a57_latency_s / self.omu_latency_s

    @property
    def energy_benefit(self) -> float:
        """OMU energy benefit over the A57 reported by the paper."""
        return self.a57_energy_j / self.omu_energy_j


@dataclass(frozen=True)
class DatasetDescriptor:
    """One evaluation dataset: Table II statistics plus paper references.

    Attributes:
        name: dataset name as used in the paper.
        scene: identifier of the synthetic scene generator standing in for
            the real laser data ("corridor", "campus" or "college").
        scan_number: number of laser scans in the dataset.
        average_points_per_scan: mean 3D points per scan.
        point_cloud_total: total points over the whole dataset.
        voxel_updates_total: total voxel (leaf) updates the dataset triggers
            at 0.2 m resolution.
        resolution_m: evaluation voxel size.
        paper: the paper's measured reference numbers.
    """

    name: str
    scene: str
    scan_number: int
    average_points_per_scan: float
    point_cloud_total: int
    voxel_updates_total: int
    resolution_m: float
    paper: PaperReference

    @property
    def equivalent_frames(self) -> float:
        """Number of equivalent 320x240 frames in the dataset.

        This is how the paper converts a dataset latency into an FPS figure
        (Table II reports ~5 FPS for the i9 on every map): the dataset's
        total voxel updates divided by the updates of one equivalent frame
        (see :data:`EQUIVALENT_FRAME_UPDATES`).
        """
        return self.voxel_updates_total / EQUIVALENT_FRAME_UPDATES

    def fps_from_latency(self, latency_s: float) -> float:
        """Convert a whole-dataset latency into the paper's FPS metric."""
        if latency_s <= 0:
            raise ValueError("latency must be positive")
        return self.equivalent_frames / latency_s


FR079_CORRIDOR = DatasetDescriptor(
    name="FR-079 corridor",
    scene="corridor",
    scan_number=66,
    average_points_per_scan=89_000,
    point_cloud_total=5_900_000,
    voxel_updates_total=101_000_000,
    resolution_m=0.2,
    paper=PaperReference(
        i9_latency_s=16.8,
        a57_latency_s=81.7,
        omu_latency_s=1.31,
        i9_fps=5.23,
        a57_fps=1.07,
        omu_fps=63.66,
        a57_energy_j=227.2,
        omu_energy_j=0.32,
        cpu_breakdown=(0.01, 0.23, 0.14, 0.61),
    ),
)

FREIBURG_CAMPUS = DatasetDescriptor(
    name="Freiburg campus",
    scene="campus",
    scan_number=81,
    average_points_per_scan=248_000,
    point_cloud_total=20_100_000,
    voxel_updates_total=1_031_000_000,
    resolution_m=0.2,
    paper=PaperReference(
        i9_latency_s=177.7,
        a57_latency_s=897.2,
        omu_latency_s=14.4,
        i9_fps=5.03,
        a57_fps=1.0,
        omu_fps=62.05,
        a57_energy_j=2416.2,
        omu_energy_j=3.62,
        cpu_breakdown=(0.01, 0.26, 0.16, 0.57),
    ),
)

NEW_COLLEGE = DatasetDescriptor(
    name="New College",
    scene="college",
    scan_number=92_361,
    average_points_per_scan=156,
    point_cloud_total=14_500_000,
    voxel_updates_total=449_000_000,
    resolution_m=0.2,
    paper=PaperReference(
        i9_latency_s=77.3,
        a57_latency_s=401.5,
        omu_latency_s=6.5,
        i9_fps=5.04,
        a57_fps=0.97,
        omu_fps=60.87,
        a57_energy_j=1147.4,
        omu_energy_j=1.63,
        cpu_breakdown=(0.02, 0.34, 0.23, 0.41),
    ),
)

ALL_DATASETS: Tuple[DatasetDescriptor, ...] = (FR079_CORRIDOR, FREIBURG_CAMPUS, NEW_COLLEGE)

_BY_NAME: Dict[str, DatasetDescriptor] = {descriptor.name: descriptor for descriptor in ALL_DATASETS}
_BY_SCENE: Mapping[str, DatasetDescriptor] = {descriptor.scene: descriptor for descriptor in ALL_DATASETS}


def dataset_by_name(name: str) -> DatasetDescriptor:
    """Look a dataset up by its paper name or by its scene identifier.

    Raises:
        KeyError: listing the valid names when the lookup fails.
    """
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name in _BY_SCENE:
        return _BY_SCENE[name]
    valid = sorted(set(_BY_NAME) | set(_BY_SCENE))
    raise KeyError(f"unknown dataset {name!r}; valid names: {valid}")
