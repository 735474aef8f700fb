"""Cycle accounting for the OMU accelerator model.

The accelerator is modelled at *operation granularity*: every primitive
action of a PE (a bank access, a full-row access, an ALU operation, a prune
stack operation, a scheduler issue) charges a configurable number of cycles
(:class:`repro.core.config.TimingParams`) to one of the pipeline stages of
the paper's breakdown (update leaf / update parents / prune-expand, plus ray
casting and query service).  PEs run in parallel, so the accelerator-level
latency of a batch is the *maximum* of the per-PE cycle counts plus the
scheduler issue cycles -- this is where the 8x compute parallelism of
Section IV-A shows up in the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.octomap.counters import OperationKind

__all__ = ["CycleBreakdown", "PETimingStats", "ScanTiming"]


@dataclass
class CycleBreakdown:
    """Cycles attributed to each pipeline stage."""

    cycles: Dict[OperationKind, int] = field(default_factory=lambda: dict.fromkeys(OperationKind.ordered(), 0))

    def total(self) -> int:
        """Total cycles across all stages."""
        return sum(self.cycles.values())

    def fractions(self) -> Mapping[OperationKind, float]:
        """Per-stage fraction of the total (the quantity Figs. 3/10 plot)."""
        total = self.total()
        if total == 0:
            return {stage: 0.0 for stage in self.cycles}
        return {stage: cycles / total for stage, cycles in self.cycles.items()}


@dataclass
class PETimingStats:
    """Cycle and utilisation statistics of one PE (what ``ProcessingElement.stats`` reads off its counter words)."""

    pe_id: int
    breakdown: CycleBreakdown = field(default_factory=CycleBreakdown)
    voxel_updates: int = 0
    bank_reads: int = 0
    bank_writes: int = 0
    row_accesses: int = 0

    def busy_cycles(self) -> int:
        """Cycles this PE spent doing useful work."""
        return self.breakdown.total()


@dataclass
class ScanTiming:
    """Timing summary of one processed scan (or batch of voxel updates).

    Attributes:
        scheduler_cycles: cycles spent issuing voxels to PEs (serial front end).
        raycast_cycles: cycles the ray-casting module needed; these overlap
            with PE execution (the paper hides ray casting behind the voxel
            update), so they only contribute to the critical path when they
            exceed the PE latency.
        pe_cycles_max: the slowest PE's busy cycles (the parallel section's
            latency).
        pe_cycles_total: sum of all PEs' busy cycles (the work a single-PE
            configuration would have to serialise).
        breakdown: accelerator-level cycle breakdown, with the parallel
            section scaled to the critical-path PE.
    """

    scheduler_cycles: int = 0
    raycast_cycles: int = 0
    pe_cycles_max: int = 0
    pe_cycles_total: int = 0
    voxel_updates: int = 0
    breakdown: CycleBreakdown = field(default_factory=CycleBreakdown)

    def critical_path_cycles(self) -> int:
        """End-to-end cycles for the scan on the accelerator.

        Ray casting is overlapped with the PE update pipeline: only the part
        exceeding the parallel-update latency is exposed.
        """
        parallel_section = max(self.pe_cycles_max, self.raycast_cycles)
        return self.scheduler_cycles + parallel_section

    def cycles_per_update(self) -> float:
        """Effective accelerator cycles per voxel update (after parallelism)."""
        if self.voxel_updates == 0:
            return 0.0
        return self.critical_path_cycles() / self.voxel_updates
