"""Experiment drivers, metrics and table/figure rendering."""

from repro.analysis.experiments import (
    SCALES,
    DatasetEvaluation,
    ExperimentResult,
    clear_evaluation_cache,
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
    breakdown_as_percentages,
    energy_benefit,
    normalise_breakdown,
    relative_error,
    speedup,
)
from repro.analysis.tables import format_quantity, render_bar_chart, render_table

__all__ = [
    "SCALES",
    "DatasetEvaluation",
    "ExperimentResult",
    "breakdown_as_percentages",
    "clear_evaluation_cache",
    "energy_benefit",
    "evaluate_dataset",
    "figure3_cpu_breakdown",
    "figure8_area",
    "figure9_fr079",
    "figure10_accelerator_breakdown",
    "format_quantity",
    "normalise_breakdown",
    "power_budget",
    "relative_error",
    "render_bar_chart",
    "render_table",
    "speedup",
    "table1_related_work",
    "table2_dataset_details",
    "table3_latency",
    "table4_throughput",
    "table5_energy",
]
