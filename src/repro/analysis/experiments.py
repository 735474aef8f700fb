"""Experiment drivers: one function per table / figure of the paper.

Each driver returns structured data plus a rendered ASCII table or bar chart,
so the benchmark harness, the examples and EXPERIMENTS.md all quote the same
numbers.  The heavy lifting -- running the OMU cycle simulator and the
instrumented software baseline on scaled synthetic versions of the three
datasets -- is done once per (dataset, scale, config) by
:func:`evaluate_dataset` and cached for the rest of the process.

Extrapolation methodology (see DESIGN.md section 2): the scaled run measures
*intensities* (accelerator cycles per voxel update, CPU stage split per
operation counts); the full-size numbers of Tables III-V are those
intensities applied to the Table II catalog's total voxel-update counts --
the same construction the paper uses to turn dataset latency into
equivalent-frame FPS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.metrics import energy_benefit, normalise_breakdown, speedup
from repro.analysis.tables import render_bar_chart, render_table
from repro.baselines.cpu_model import A57_COST_MODEL, I9_COST_MODEL
from repro.baselines.sw_runner import SoftwareRunResult, run_software_octomap
from repro.core.accelerator import OMUAccelerator
from repro.core.config import DEFAULT_CONFIG, OMUConfig
from repro.datasets.catalog import ALL_DATASETS, DatasetDescriptor, dataset_by_name
from repro.datasets.generator import GenerationSpec, generate_scan_graph
from repro.energy.area_model import AreaModel
from repro.energy.power_model import PowerModel, PowerReport
from repro.octomap.counters import OperationKind
from repro.octomap.pointcloud import ScanGraph

__all__ = [
    "SCALES",
    "DatasetEvaluation",
    "ExperimentResult",
    "evaluate_dataset",
    "table1_related_work",
    "table2_dataset_details",
    "table3_latency",
    "table4_throughput",
    "table5_energy",
    "figure3_cpu_breakdown",
    "figure9_fr079",
    "figure10_accelerator_breakdown",
    "figure8_area",
    "power_budget",
]


SCALES: Mapping[str, Mapping[str, GenerationSpec]] = {
    # Tiny workloads for unit / integration tests (seconds in total).
    "smoke": {
        "corridor": GenerationSpec(num_scans=2, beams_azimuth=72, beams_elevation=3, max_range_m=12.0),
        "campus": GenerationSpec(num_scans=2, beams_azimuth=60, beams_elevation=3, max_range_m=15.0),
        "college": GenerationSpec(num_scans=3, beams_azimuth=48, beams_elevation=2, max_range_m=15.0),
    },
    # Default benchmark scale: a few tens of thousands of voxel updates per
    # dataset, enough for stable cycle-per-update and breakdown estimates
    # while the scaled map still fits the paper's 256 kB-per-PE TreeMem.
    "default": {
        "corridor": GenerationSpec(num_scans=4, beams_azimuth=144, beams_elevation=4, max_range_m=15.0),
        "campus": GenerationSpec(num_scans=4, beams_azimuth=96, beams_elevation=3, max_range_m=15.0),
        "college": GenerationSpec(num_scans=6, beams_azimuth=80, beams_elevation=3, max_range_m=15.0),
    },
}
"""Named workload scales for the scaled synthetic datasets."""


@dataclass
class DatasetEvaluation:
    """Everything measured for one dataset at one scale.

    Attributes:
        descriptor: the Table II catalog entry.
        graph_statistics: scan/point statistics of the scaled synthetic graph.
        scaled_voxel_updates: leaf updates performed in the scaled run.
        omu_cycles_per_update: effective accelerator cycles per voxel update
            (critical path over the whole scaled run divided by updates).
        omu_parallel_speedup: PE-array work / critical-path ratio achieved.
        omu_breakdown: accelerator runtime share per pipeline stage (Fig. 10).
        omu_latency_s / omu_fps: extrapolated to the full-size dataset.
        omu_power: power report at the run's measured activity.
        omu_energy_j: full-size energy (power x extrapolated latency).
        cpu_breakdown: software-baseline runtime share per stage, derived from
            the instrumented run's operation counters (Fig. 3).
        i9_latency_s / a57_latency_s (+fps/energy): calibrated CPU estimates.
        equivalence_ok: whether the accelerator map matched the software map.
    """

    descriptor: DatasetDescriptor
    graph_statistics: Mapping[str, object]
    scaled_voxel_updates: int
    omu_cycles_per_update: float
    omu_parallel_speedup: float
    omu_breakdown: Mapping[OperationKind, float]
    omu_latency_s: float
    omu_fps: float
    omu_power: PowerReport
    omu_energy_j: float
    cpu_breakdown: Mapping[OperationKind, float]
    i9_latency_s: float
    i9_fps: float
    a57_latency_s: float
    a57_fps: float
    a57_energy_j: float
    equivalence_ok: Optional[bool] = None
    memory_utilization: float = 0.0
    prune_reuse_fraction: float = 0.0


@dataclass
class ExperimentResult:
    """A reproduced table or figure: identifier, rows and rendered text."""

    experiment_id: str
    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[object, ...]] = field(default_factory=list)
    rendered: str = ""
    notes: str = ""

    def records(self) -> List[Dict[str, object]]:
        """The rows as self-describing header -> value mappings, so consumers
        (the benchmark JSON, CI tooling, tests) can read each measurement's
        fields by name instead of by column position."""
        return [dict(zip(self.headers, row)) for row in self.rows]


_EVALUATION_CACHE: Dict[Tuple[str, str, OMUConfig], DatasetEvaluation] = {}


def _spec_for(descriptor: DatasetDescriptor, scale: str) -> GenerationSpec:
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; valid scales: {sorted(SCALES)}")
    return SCALES[scale][descriptor.scene]


def evaluate_dataset(
    name: str,
    scale: str = "default",
    config: OMUConfig = DEFAULT_CONFIG,
    check_equivalence: bool = False,
) -> DatasetEvaluation:
    """Run the scaled workload of one dataset on the OMU model and baselines.

    Results are cached per ``(dataset, scale, config)`` for the lifetime of
    the process, because several tables reuse the same evaluation.
    """
    descriptor = dataset_by_name(name)
    cache_key = (descriptor.name, scale, config)
    if cache_key in _EVALUATION_CACHE and not check_equivalence:
        return _EVALUATION_CACHE[cache_key]

    spec = _spec_for(descriptor, scale)
    graph = generate_scan_graph(descriptor, spec)
    evaluation = _evaluate_graph(descriptor, graph, spec, config, check_equivalence)
    _EVALUATION_CACHE[cache_key] = evaluation
    return evaluation


def _evaluate_graph(
    descriptor: DatasetDescriptor,
    graph: ScanGraph,
    spec: GenerationSpec,
    config: OMUConfig,
    check_equivalence: bool,
) -> DatasetEvaluation:
    # Use the dataset's evaluation resolution on the accelerator.
    if abs(config.resolution_m - descriptor.resolution_m) > 1e-12:
        config = config.with_resolution(descriptor.resolution_m)

    # --- accelerator run -------------------------------------------------
    accelerator = OMUAccelerator(config)
    timing = accelerator.process_scan_graph(graph, max_range=spec.max_range_m)
    statistics = accelerator.statistics()
    cycles_per_update = accelerator.map_cycles_per_update()
    omu_latency = descriptor.voxel_updates_total * cycles_per_update / config.clock_hz
    power_model = PowerModel(config)
    omu_power = power_model.power_from_statistics(statistics)
    omu_energy = power_model.energy_joules(omu_power, omu_latency)

    # --- software baseline run (for the CPU breakdown) -------------------
    software: SoftwareRunResult = run_software_octomap(
        graph, descriptor.resolution_m, max_range=spec.max_range_m
    )
    cpu_breakdown = I9_COST_MODEL.breakdown_from_counters(software.counters)

    # --- CPU cost-model estimates (full-size datasets) --------------------
    i9 = I9_COST_MODEL.estimate(descriptor, breakdown=cpu_breakdown)
    a57 = A57_COST_MODEL.estimate(descriptor, breakdown=cpu_breakdown)

    equivalence_ok: Optional[bool] = None
    if check_equivalence:
        from repro.core.verification import verify_against_software

        equivalence_ok = verify_against_software(accelerator, graph, max_range=spec.max_range_m).equivalent

    return DatasetEvaluation(
        descriptor=descriptor,
        graph_statistics=graph.statistics(),
        scaled_voxel_updates=timing.voxel_updates,
        omu_cycles_per_update=cycles_per_update,
        omu_parallel_speedup=accelerator.map_parallel_speedup(),
        omu_breakdown=normalise_breakdown(timing.breakdown.fractions()),
        omu_latency_s=omu_latency,
        omu_fps=descriptor.fps_from_latency(omu_latency),
        omu_power=omu_power,
        omu_energy_j=omu_energy,
        cpu_breakdown=cpu_breakdown,
        i9_latency_s=i9.latency_s,
        i9_fps=i9.fps,
        a57_latency_s=a57.latency_s,
        a57_fps=a57.fps,
        a57_energy_j=a57.energy_j if a57.energy_j is not None else 0.0,
        equivalence_ok=equivalence_ok,
        memory_utilization=statistics.memory_utilization,
        prune_reuse_fraction=statistics.prune_reuse_fraction,
    )


# ---------------------------------------------------------------------------
# Table I -- qualitative comparison of mapping accelerators
# ---------------------------------------------------------------------------
def table1_related_work() -> ExperimentResult:
    """Reproduce Table I (feature comparison of mapping accelerators)."""
    headers = ("Accelerator", "Dense map", "Probabilistic", "Real-time")
    rows = [
        ("Dadu-P (DAC'18)", True, False, False),
        ("Dadu-CD (DAC'20)", True, False, False),
        ("Navion (VLSI'18)", False, False, True),
        ("CNN-SLAM (ISSCC'19)", False, False, True),
        ("This work (OMU)", True, True, True),
    ]
    result = ExperimentResult(
        experiment_id="table1",
        title="Table I: comparison of mapping accelerators",
        headers=headers,
        rows=[tuple(row) for row in rows],
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Qualitative feature matrix transcribed from the paper's related-work "
        "analysis; OMU is the only dense, probabilistic and real-time design."
    )
    return result


# ---------------------------------------------------------------------------
# Table II -- dataset details and i9 baseline
# ---------------------------------------------------------------------------
def table2_dataset_details(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Table II (dataset statistics and i9 CPU latency/throughput)."""
    headers = (
        "Dataset",
        "Scans",
        "Avg points/scan",
        "Point cloud (x1e6)",
        "Voxel updates (x1e6)",
        "i9 latency (s) [model]",
        "i9 latency (s) [paper]",
        "i9 FPS [model]",
        "i9 FPS [paper]",
    )
    rows: List[Tuple[object, ...]] = []
    for descriptor in ALL_DATASETS:
        evaluation = evaluate_dataset(descriptor.name, scale=scale, config=config)
        rows.append(
            (
                descriptor.name,
                descriptor.scan_number,
                descriptor.average_points_per_scan,
                descriptor.point_cloud_total / 1e6,
                descriptor.voxel_updates_total / 1e6,
                evaluation.i9_latency_s,
                descriptor.paper.i9_latency_s,
                evaluation.i9_fps,
                descriptor.paper.i9_fps,
            )
        )
    result = ExperimentResult(
        experiment_id="table2",
        title="Table II: OctoMap 3D scan dataset details (0.2 m resolution)",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Dataset statistics come from the catalog (they define the synthetic "
        "workloads); the i9 columns compare the calibrated cost model against "
        "the paper's measurements."
    )
    return result


# ---------------------------------------------------------------------------
# Tables III / IV / V -- latency, throughput, energy
# ---------------------------------------------------------------------------
def table3_latency(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Table III (latency in seconds and speed-ups)."""
    headers = (
        "Dataset",
        "i9 (s)",
        "A57 (s)",
        "OMU (s)",
        "OMU (s) [paper]",
        "Speedup over i9",
        "Speedup i9 [paper]",
        "Speedup over A57",
        "Speedup A57 [paper]",
    )
    rows: List[Tuple[object, ...]] = []
    for descriptor in ALL_DATASETS:
        evaluation = evaluate_dataset(descriptor.name, scale=scale, config=config)
        rows.append(
            (
                descriptor.name,
                evaluation.i9_latency_s,
                evaluation.a57_latency_s,
                evaluation.omu_latency_s,
                descriptor.paper.omu_latency_s,
                speedup(evaluation.i9_latency_s, evaluation.omu_latency_s),
                descriptor.paper.speedup_over_i9,
                speedup(evaluation.a57_latency_s, evaluation.omu_latency_s),
                descriptor.paper.speedup_over_a57,
            )
        )
    result = ExperimentResult(
        experiment_id="table3",
        title="Table III: latency performance (s) comparison",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    return result


def table4_throughput(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Table IV (throughput in equivalent frames per second)."""
    headers = (
        "Dataset",
        "i9 FPS",
        "A57 FPS",
        "OMU FPS",
        "i9 FPS [paper]",
        "A57 FPS [paper]",
        "OMU FPS [paper]",
        "OMU real-time (>30 FPS)",
    )
    rows: List[Tuple[object, ...]] = []
    for descriptor in ALL_DATASETS:
        evaluation = evaluate_dataset(descriptor.name, scale=scale, config=config)
        rows.append(
            (
                descriptor.name,
                evaluation.i9_fps,
                evaluation.a57_fps,
                evaluation.omu_fps,
                descriptor.paper.i9_fps,
                descriptor.paper.a57_fps,
                descriptor.paper.omu_fps,
                evaluation.omu_fps > 30.0,
            )
        )
    result = ExperimentResult(
        experiment_id="table4",
        title="Table IV: throughput performance (FPS) comparison",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    return result


def table5_energy(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Table V (energy in joules and the energy benefit)."""
    headers = (
        "Dataset",
        "A57 energy (J)",
        "OMU energy (J)",
        "A57 (J) [paper]",
        "OMU (J) [paper]",
        "Energy benefit",
        "Energy benefit [paper]",
    )
    rows: List[Tuple[object, ...]] = []
    for descriptor in ALL_DATASETS:
        evaluation = evaluate_dataset(descriptor.name, scale=scale, config=config)
        rows.append(
            (
                descriptor.name,
                evaluation.a57_energy_j,
                evaluation.omu_energy_j,
                descriptor.paper.a57_energy_j,
                descriptor.paper.omu_energy_j,
                energy_benefit(evaluation.a57_energy_j, evaluation.omu_energy_j),
                descriptor.paper.energy_benefit,
            )
        )
    result = ExperimentResult(
        experiment_id="table5",
        title="Table V: energy consumption (J) comparison (A57 vs OMU)",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    return result


# ---------------------------------------------------------------------------
# Fig. 3 / Fig. 10 -- runtime breakdowns
# ---------------------------------------------------------------------------
_STAGE_LABELS = {
    OperationKind.RAY_CASTING: "Ray casting",
    OperationKind.UPDATE_LEAF: "Update leaf",
    OperationKind.UPDATE_PARENTS: "Update parents",
    OperationKind.PRUNE_EXPAND: "Node prune/expand",
}


def figure3_cpu_breakdown(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Fig. 3 (CPU runtime breakdown per dataset)."""
    headers = ("Dataset",) + tuple(_STAGE_LABELS[stage] + " (%)" for stage in OperationKind.ordered()) + (
        "Prune/expand (%) [paper]",
    )
    rows: List[Tuple[object, ...]] = []
    charts: List[str] = []
    for descriptor in ALL_DATASETS:
        evaluation = evaluate_dataset(descriptor.name, scale=scale, config=config)
        percentages = {stage: 100.0 * value for stage, value in evaluation.cpu_breakdown.items()}
        rows.append(
            (descriptor.name,)
            + tuple(percentages[stage] for stage in OperationKind.ordered())
            + (100.0 * descriptor.paper.cpu_breakdown[3],)
        )
        charts.append(
            render_bar_chart(
                f"Fig. 3 ({descriptor.name}): CPU runtime breakdown (%)",
                {_STAGE_LABELS[stage]: percentages[stage] for stage in OperationKind.ordered()},
                unit="%",
            )
        )
    result = ExperimentResult(
        experiment_id="figure3",
        title="Fig. 3: runtime breakdown of the software OctoMap baseline",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows) + "\n\n" + "\n\n".join(charts)
    result.notes = (
        "The split is derived from operation counters measured on the scaled "
        "synthetic workloads; the paper's key observation -- node prune/expand "
        "dominates the CPU runtime -- must hold."
    )
    return result


def figure10_accelerator_breakdown(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Fig. 10 (runtime breakdown: i9 CPU vs OMU accelerator)."""
    headers = ("Dataset", "Backend") + tuple(
        _STAGE_LABELS[stage] + " (%)" for stage in OperationKind.ordered()
    )
    rows: List[Tuple[object, ...]] = []
    for descriptor in ALL_DATASETS:
        evaluation = evaluate_dataset(descriptor.name, scale=scale, config=config)
        cpu = {stage: 100.0 * value for stage, value in evaluation.cpu_breakdown.items()}
        omu = {stage: 100.0 * value for stage, value in evaluation.omu_breakdown.items()}
        rows.append(
            (descriptor.name, "i9 CPU") + tuple(cpu[stage] for stage in OperationKind.ordered())
        )
        rows.append(
            (descriptor.name, "OMU") + tuple(omu[stage] for stage in OperationKind.ordered())
        )
    result = ExperimentResult(
        experiment_id="figure10",
        title="Fig. 10: runtime breakdown on the i9 CPU vs the OMU accelerator",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "On the accelerator the prune/expand share must drop below ~20 % "
        "because all eight children are fetched in one banked access."
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 9 -- FR-079 latency / throughput bars
# ---------------------------------------------------------------------------
def figure9_fr079(scale: str = "default", config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Fig. 9 (FR-079 corridor latency and throughput bars)."""
    evaluation = evaluate_dataset("FR-079 corridor", scale=scale, config=config)
    descriptor = evaluation.descriptor
    headers = ("Platform", "Latency (s)", "Throughput (FPS)", "Latency [paper]", "FPS [paper]")
    rows = [
        ("Arm A57 CPU", evaluation.a57_latency_s, evaluation.a57_fps, descriptor.paper.a57_latency_s, descriptor.paper.a57_fps),
        ("Intel i9 CPU", evaluation.i9_latency_s, evaluation.i9_fps, descriptor.paper.i9_latency_s, descriptor.paper.i9_fps),
        ("OMU accelerator", evaluation.omu_latency_s, evaluation.omu_fps, descriptor.paper.omu_latency_s, descriptor.paper.omu_fps),
    ]
    latency_chart = render_bar_chart(
        "Fig. 9(a): FR-079 corridor latency (s)",
        {str(row[0]): float(row[1]) for row in rows},
        unit=" s",
    )
    throughput_chart = render_bar_chart(
        "Fig. 9(b): FR-079 corridor throughput (FPS); real-time = 30 FPS",
        {str(row[0]): float(row[2]) for row in rows},
        unit=" FPS",
    )
    result = ExperimentResult(
        experiment_id="figure9",
        title="Fig. 9: latency and throughput on FR-079 corridor",
        headers=headers,
        rows=[tuple(row) for row in rows],
    )
    result.rendered = "\n\n".join(
        [render_table(result.title, headers, rows), latency_chart, throughput_chart]
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 8 -- area, and the Section VI-C power budget
# ---------------------------------------------------------------------------
def figure8_area(config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce Fig. 8 (layout area of the 8-PE accelerator in 12 nm)."""
    model = AreaModel(config)
    report = model.report()
    width, height = model.layout_mm()
    headers = ("Component", "Area (mm^2)")
    rows = [
        ("PE SRAM (8 x 256 kB)", report.sram_mm2),
        ("PE logic", report.pe_logic_mm2),
        ("Front end (ray casting, scheduler, query, AXI)", report.frontend_mm2),
        ("Total", report.total_mm2),
        ("Paper total", 2.5),
    ]
    result = ExperimentResult(
        experiment_id="figure8",
        title=f"Fig. 8: OMU layout area ({width} mm x {height} mm outline, 12 nm)",
        headers=headers,
        rows=[tuple(row) for row in rows],
    )
    result.rendered = render_table(result.title, headers, rows, precision=3)
    return result


def power_budget(config: OMUConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Reproduce the Section VI-C power numbers (250.8 mW, 91 % SRAM)."""
    model = PowerModel(config)
    report = model.nominal_power()
    headers = ("Quantity", "Model", "Paper")
    rows = [
        ("Total power (mW)", report.total_w * 1e3, 250.8),
        ("SRAM share (%)", report.sram_fraction * 100.0, 91.0),
        ("Clock (GHz)", config.clock_hz / 1e9, 1.0),
        ("Supply (V)", config.voltage_v, 0.8),
    ]
    result = ExperimentResult(
        experiment_id="power",
        title="Section VI-C: accelerator power at the nominal mapping activity",
        headers=headers,
        rows=[tuple(row) for row in rows],
    )
    result.rendered = render_table(result.title, headers, rows, precision=1)
    return result
