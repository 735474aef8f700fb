"""Configuration of the OMU accelerator model.

:class:`OMUConfig` gathers every architectural and physical parameter of the
accelerator described in the paper:

* **Organisation** -- 8 PE units, 8 TreeMem banks per PE, 32 kB per bank
  (256 kB per PE, 2 MB total), 64-bit entries (Section V, Fig. 5/7/8).
* **Operating point** -- 1 GHz clock, 0.8 V, commercial 12 nm process
  (Section VI-A).
* **Map parameters** -- tree depth 16, the evaluation resolution of 0.2 m,
  OctoMap's default occupancy parameters quantised to the 16-bit fixed-point
  format of the TreeMem entry.
* **Timing parameters** -- cycle costs of the primitive PE operations used by
  the cycle-approximate model (single-bank read/write, full-row banked
  access, the probability-update ALU, the prune-stack push/pop and the
  scheduler issue).  These model a simple in-order pipeline: one SRAM access
  per cycle per bank, one ALU operation per cycle.

The configuration object is immutable; experiments that sweep a parameter
(for instance the PE count ablation) create modified copies via
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from repro.core.fixedpoint import DEFAULT_FORMAT, FixedPointFormat, QuantizedOccupancyParams
from repro.octomap.logodds import DEFAULT_PARAMS, OccupancyParams

__all__ = ["OMUConfig", "TimingParams", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class TimingParams:
    """Cycle costs of the primitive accelerator operations.

    All values are in clock cycles at the configured frequency.  The defaults
    model the microarchitecture of Section IV: SRAM banks are single-cycle,
    all eight banks of a row can be accessed in the same cycle (the 8x memory
    bandwidth claim), the probability update is a one-cycle fixed-point add
    with clamping, and the prune address manager is a single-cycle stack.
    """

    bank_read_cycles: int = 1
    bank_write_cycles: int = 1
    row_read_cycles: int = 1
    row_write_cycles: int = 1
    alu_cycles: int = 1
    prune_stack_cycles: int = 1
    scheduler_issue_cycles: int = 1
    ray_step_cycles: int = 1
    query_issue_cycles: int = 1
    dma_word_cycles: int = 1

    def __post_init__(self) -> None:
        for name in (
            "bank_read_cycles",
            "bank_write_cycles",
            "row_read_cycles",
            "row_write_cycles",
            "alu_cycles",
            "prune_stack_cycles",
            "scheduler_issue_cycles",
            "ray_step_cycles",
            "query_issue_cycles",
            "dma_word_cycles",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class OMUConfig:
    """Full parameterisation of one OMU accelerator instance."""

    # --- organisation (paper Section V) ---
    num_pes: int = 8
    banks_per_pe: int = 8
    bank_kilobytes: int = 32
    entry_bytes: int = 8

    # --- operating point (paper Section VI-A) ---
    clock_hz: float = 1.0e9
    voltage_v: float = 0.8
    technology_nm: int = 12

    # --- map parameters ---
    tree_depth: int = 16
    resolution_m: float = 0.2
    occupancy_params: OccupancyParams = DEFAULT_PARAMS
    fixed_point: FixedPointFormat = DEFAULT_FORMAT

    # --- behaviour ---
    timing: TimingParams = field(default_factory=TimingParams)

    def __post_init__(self) -> None:
        if not 1 <= self.num_pes <= 8:
            # The first-level-branch partitioning gives each PE one or more of
            # the root's eight branches, so there is work for at most 8.
            raise ValueError(f"num_pes must be in [1, 8], got {self.num_pes}")
        if self.banks_per_pe != 8:
            # The data structure stores the 8 children of one node across the
            # banks of one row; other bank counts need a different layout.
            # The bank-parallelism ablation instead varies how many banks can
            # be accessed per cycle (see `row_read_cycles`).
            raise ValueError("banks_per_pe is fixed to 8 by the child-per-bank layout")
        if self.bank_kilobytes < 1:
            raise ValueError("bank_kilobytes must be at least 1")
        if self.entry_bytes != 8:
            raise ValueError("entry_bytes is fixed to 8 (the 64-bit packed entry)")
        if self.fixed_point.total_bits > 16:
            raise ValueError("fixed_point must fit the entry's 16-bit probability field")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if not 1 <= self.tree_depth <= 16:
            raise ValueError("tree_depth must be in [1, 16]")
        if not 0 < self.resolution_m < float("inf"):
            raise ValueError("resolution_m must be positive and finite")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def entries_per_bank(self) -> int:
        """Number of 64-bit entries one bank can hold (rows per PE)."""
        return (self.bank_kilobytes * 1024) // self.entry_bytes

    @property
    def pe_memory_bytes(self) -> int:
        """SRAM capacity of one PE in bytes (256 kB in the paper)."""
        return self.banks_per_pe * self.bank_kilobytes * 1024

    @property
    def total_memory_bytes(self) -> int:
        """Total SRAM capacity of the accelerator (2 MB in the paper)."""
        return self.num_pes * self.pe_memory_bytes

    @property
    def node_capacity(self) -> int:
        """Maximum number of tree nodes the accelerator can store."""
        return self.num_pes * self.banks_per_pe * self.entries_per_bank

    def quantized_params(self) -> QuantizedOccupancyParams:
        """The occupancy parameters quantised to the TreeMem fixed-point grid (one shared object)."""
        return _quantized(self.occupancy_params, self.fixed_point)

    def with_resolution(self, resolution_m: float) -> "OMUConfig":
        """Copy of this configuration with a different map resolution."""
        return replace(self, resolution_m=resolution_m)


@functools.lru_cache(maxsize=64)
def _quantized(params: OccupancyParams, fmt: FixedPointFormat) -> QuantizedOccupancyParams:
    # Every PE of every accelerator asks for these; both keys are frozen values.
    return QuantizedOccupancyParams(params, fmt)


DEFAULT_CONFIG = OMUConfig()
"""The configuration evaluated in the paper (8 PEs, 256 kB each, 1 GHz, 12 nm)."""
