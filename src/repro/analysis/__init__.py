"""Experiment drivers, metrics and table/figure rendering."""

from repro.analysis.experiments import (
    SCALES,
    DatasetEvaluation,
    ExperimentResult,
    evaluate_dataset,
    figure3_cpu_breakdown,
    figure8_area,
    figure9_fr079,
    figure10_accelerator_breakdown,
    power_budget,
    table1_related_work,
    table2_dataset_details,
    table3_latency,
    table4_throughput,
    table5_energy,
)
from repro.analysis.metrics import (
    energy_benefit,
    normalise_breakdown,
    speedup,
)
from repro.analysis.tables import format_quantity, render_bar_chart, render_table

__all__ = [
    "SCALES",
    "DatasetEvaluation",
    "ExperimentResult",
    "energy_benefit",
    "evaluate_dataset",
    "figure3_cpu_breakdown",
    "figure8_area",
    "figure9_fr079",
    "figure10_accelerator_breakdown",
    "format_quantity",
    "normalise_breakdown",
    "power_budget",
    "render_bar_chart",
    "render_table",
    "speedup",
    "table1_related_work",
    "table2_dataset_details",
    "table3_latency",
    "table4_throughput",
    "table5_energy",
]
