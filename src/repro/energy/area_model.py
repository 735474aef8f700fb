"""12 nm area model of the OMU accelerator (paper Fig. 8).

The paper's layout occupies **2.5 mm^2** (2.0 mm x 1.25 mm) for 8 PEs, each
with 256 kB of SRAM, plus the shared front end (ray casting, scheduler, query
unit, AXI interface).  The model decomposes that total into per-component
contributions using SRAM macro density and logic-area figures typical of a
12 nm process, calibrated so the default configuration lands on the paper's
total:

* SRAM macros: ~0.85 mm^2 per MB (32 kB single-port macros with peripheral
  overhead);
* PE control / datapath logic: ~0.08 mm^2 per PE;
* shared front end + interconnect: ~0.16 mm^2.

The same constants scale to the ablation configurations (different PE counts
or bank sizes), which is what the area/scaling bench exercises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DEFAULT_CONFIG, OMUConfig

__all__ = ["AreaParameters", "AreaReport", "AreaModel"]


@dataclass(frozen=True)
class AreaParameters:
    """Area constants of the 12 nm implementation."""

    sram_mm2_per_mb: float = 0.85
    pe_logic_mm2: float = 0.08
    frontend_mm2: float = 0.16
    layout_width_mm: float = 2.0
    layout_height_mm: float = 1.25

    def __post_init__(self) -> None:
        for name in ("sram_mm2_per_mb", "pe_logic_mm2", "frontend_mm2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class AreaReport:
    """Area split of one configuration (all values in mm^2)."""

    sram_mm2: float
    pe_logic_mm2: float
    frontend_mm2: float

    @property
    def total_mm2(self) -> float:
        """Total accelerator area."""
        return self.sram_mm2 + self.pe_logic_mm2 + self.frontend_mm2


class AreaModel:
    """Computes the accelerator area for a configuration."""

    def __init__(
        self,
        config: OMUConfig = DEFAULT_CONFIG,
        parameters: AreaParameters = AreaParameters(),
    ) -> None:
        self.config = config
        self.parameters = parameters

    def report(self) -> AreaReport:
        """Area breakdown of the configured accelerator."""
        sram_mb = self.config.total_memory_bytes / (1024 * 1024)
        return AreaReport(
            sram_mm2=sram_mb * self.parameters.sram_mm2_per_mb,
            pe_logic_mm2=self.config.num_pes * self.parameters.pe_logic_mm2,
            frontend_mm2=self.parameters.frontend_mm2,
        )

    def layout_mm(self) -> tuple[float, float]:
        """Die outline reported in the paper's layout figure (width, height)."""
        return (self.parameters.layout_width_mm, self.parameters.layout_height_mm)
