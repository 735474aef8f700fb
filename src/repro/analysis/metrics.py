"""Derived metrics shared by the experiment drivers.

Small, well-named helpers for the quantities the paper reports: speed-ups,
equivalent-frame throughput, energy benefit and breakdown normalisation.
Keeping them in one place means every table computes "the same FPS" the same
way.
"""

from __future__ import annotations

from typing import Mapping

from repro.octomap.counters import OperationKind

__all__ = [
    "speedup",
    "energy_benefit",
    "normalise_breakdown",
]


def speedup(baseline_latency_s: float, accelerated_latency_s: float) -> float:
    """Baseline latency divided by accelerated latency (``>1`` is faster).

    Raises:
        ValueError: if either latency is not positive.
    """
    if baseline_latency_s <= 0 or accelerated_latency_s <= 0:
        raise ValueError("latencies must be positive")
    return baseline_latency_s / accelerated_latency_s


def energy_benefit(baseline_energy_j: float, accelerated_energy_j: float) -> float:
    """Baseline energy divided by accelerated energy (Table V's metric)."""
    if baseline_energy_j <= 0 or accelerated_energy_j <= 0:
        raise ValueError("energies must be positive")
    return baseline_energy_j / accelerated_energy_j


def normalise_breakdown(breakdown: Mapping[OperationKind, float]) -> Mapping[OperationKind, float]:
    """Rescale a per-stage breakdown so the stages sum to 1.0.

    Missing stages are treated as zero; an all-zero breakdown stays all-zero.
    """
    total = sum(breakdown.get(stage, 0.0) for stage in OperationKind.ordered())
    if total == 0:
        return {stage: 0.0 for stage in OperationKind.ordered()}
    return {stage: breakdown.get(stage, 0.0) / total for stage in OperationKind.ordered()}
