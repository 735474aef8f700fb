"""12 nm power and energy model of the OMU accelerator.

The paper reports post-P&R power at 1 GHz / 0.8 V: **250.8 mW**, of which
**91 % is SRAM** (Section VI-C), and derives the energy numbers of Table V as
``power x latency``.  Without the commercial 12 nm libraries the absolute
numbers cannot be re-derived from first principles, so this model uses
per-event energies and leakage densities in the range published for
comparable 12-16 nm designs, calibrated so that the accelerator's *nominal
activity* (the SRAM access rate the cycle model produces on the evaluation
workloads) reproduces the paper's total power and SRAM share:

* SRAM dynamic energy: ~7.5 pJ per 64-bit access to a 32 kB bank;
* SRAM leakage: ~57 mW per MB at 0.8 V (2 MB on chip);
* PE logic: ~2 pJ per busy PE cycle plus ~8 mW total logic leakage.

The model consumes :class:`repro.core.accelerator.AcceleratorStatistics`
(access counts and cycles measured by the simulator), so power tracks the
workload's actual memory behaviour rather than being a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.accelerator import AcceleratorStatistics
from repro.core.config import DEFAULT_CONFIG, OMUConfig

__all__ = ["TechnologyParameters", "PowerReport", "PowerModel", "NOMINAL_SRAM_ACCESSES_PER_CYCLE"]

NOMINAL_SRAM_ACCESSES_PER_CYCLE = 15.0
"""Accelerator-wide single-bank SRAM accesses per cycle under the evaluation
workloads (measured by the cycle model: ~170 accesses per voxel update spread
over ~90 PE cycles, times 8 PEs)."""


@dataclass(frozen=True)
class TechnologyParameters:
    """Energy and leakage constants of the 12 nm implementation."""

    sram_read_energy_pj: float = 7.5
    sram_write_energy_pj: float = 8.0
    sram_leakage_mw_per_mb: float = 57.0
    logic_energy_per_pe_cycle_pj: float = 2.0
    logic_leakage_mw: float = 8.0

    def __post_init__(self) -> None:
        for name in (
            "sram_read_energy_pj",
            "sram_write_energy_pj",
            "sram_leakage_mw_per_mb",
            "logic_energy_per_pe_cycle_pj",
            "logic_leakage_mw",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class PowerReport:
    """Power split of one operating point (all values in watts)."""

    sram_dynamic_w: float
    sram_leakage_w: float
    logic_dynamic_w: float
    logic_leakage_w: float

    @property
    def sram_w(self) -> float:
        """Total SRAM power."""
        return self.sram_dynamic_w + self.sram_leakage_w

    @property
    def logic_w(self) -> float:
        """Total logic power."""
        return self.logic_dynamic_w + self.logic_leakage_w

    @property
    def total_w(self) -> float:
        """Total accelerator power."""
        return self.sram_w + self.logic_w

    @property
    def sram_fraction(self) -> float:
        """Share of the total power consumed by SRAM (paper: 91 %)."""
        return self.sram_w / self.total_w if self.total_w else 0.0


class PowerModel:
    """Computes OMU power and energy from activity statistics."""

    def __init__(
        self,
        config: OMUConfig = DEFAULT_CONFIG,
        technology: TechnologyParameters = TechnologyParameters(),
    ) -> None:
        self.config = config
        self.technology = technology

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def power_from_activity(
        self,
        sram_reads_per_cycle: float,
        sram_writes_per_cycle: float,
        active_pes: float,
    ) -> PowerReport:
        """Power at a given steady-state activity level.

        Args:
            sram_reads_per_cycle / sram_writes_per_cycle: accelerator-wide
                single-bank accesses per clock cycle.
            active_pes: average number of PEs busy per cycle.
        """
        tech = self.technology
        clock = self.config.clock_hz
        sram_dynamic = (
            sram_reads_per_cycle * tech.sram_read_energy_pj
            + sram_writes_per_cycle * tech.sram_write_energy_pj
        ) * 1e-12 * clock
        sram_leakage = tech.sram_leakage_mw_per_mb * 1e-3 * (
            self.config.total_memory_bytes / (1024 * 1024)
        )
        logic_dynamic = active_pes * tech.logic_energy_per_pe_cycle_pj * 1e-12 * clock
        logic_leakage = tech.logic_leakage_mw * 1e-3
        return PowerReport(
            sram_dynamic_w=sram_dynamic,
            sram_leakage_w=sram_leakage,
            logic_dynamic_w=logic_dynamic,
            logic_leakage_w=logic_leakage,
        )

    def power_from_statistics(self, statistics: AcceleratorStatistics) -> PowerReport:
        """Average power over a simulated run (activity from measured counts)."""
        cycles = max(1, statistics.total_cycles)
        reads_per_cycle = statistics.sram_reads / cycles
        writes_per_cycle = statistics.sram_writes / cycles
        busy_pe_cycles = sum(statistics.per_pe_cycles.values())
        active_pes = min(self.config.num_pes, busy_pe_cycles / cycles) if cycles else 0.0
        return self.power_from_activity(reads_per_cycle, writes_per_cycle, active_pes)

    def nominal_power(self) -> PowerReport:
        """Power at the nominal evaluation activity (paper's 250.8 mW point)."""
        reads = NOMINAL_SRAM_ACCESSES_PER_CYCLE * 0.55
        writes = NOMINAL_SRAM_ACCESSES_PER_CYCLE * 0.45
        return self.power_from_activity(reads, writes, float(self.config.num_pes))

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def energy_joules(self, power: PowerReport, latency_s: float) -> float:
        """Energy of a run: average power times run latency (paper Table V)."""
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        return power.total_w * latency_s
