"""Fixed-point arithmetic for the on-chip log-odds representation.

The OMU TreeMem entry stores each node's occupancy as a **16-bit fixed-point
log-odds value** (paper Fig. 5, bits [15:0]).  The paper states the format was
"chosen to have zero loss from the floating-point maps"; this is achievable
because the clamped log-odds value is always a small integer combination of
the hit / miss increments, so once those increments are themselves quantised
to the fixed-point grid the whole map lives exactly on that grid.

:class:`FixedPointFormat` describes a signed two's-complement Qm.f format and
provides the conversion helpers; :class:`QuantizedOccupancyParams`
wraps the occupancy parameters of the software model with all values snapped
to the grid so that the accelerator and a software tree configured with the
quantised parameters produce bit-identical maps (this is what the
verification harness checks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.octomap.logodds import OccupancyParams

__all__ = ["FixedPointFormat", "QuantizedOccupancyParams", "DEFAULT_FORMAT"]


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement fixed-point format with ``total_bits`` bits.

    ``fraction_bits`` of the word are fractional, the rest (minus the sign)
    are integer bits.  The OMU default is Q5.10 in a 16-bit word: range
    [-32, +32) with a resolution of about 0.001, comfortably covering the
    clamped log-odds range [-2.0, 3.5] used by OctoMap.
    """

    total_bits: int = 16
    fraction_bits: int = 10

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError("total_bits must be at least 2 (sign + magnitude)")
        if not 0 <= self.fraction_bits < self.total_bits:
            raise ValueError(
                "fraction_bits must be in [0, total_bits); "
                f"got {self.fraction_bits} for a {self.total_bits}-bit word"
            )

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def min_raw(self) -> int:
        """Smallest representable raw (integer) value."""
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        """Largest representable raw (integer) value."""
        return (1 << (self.total_bits - 1)) - 1

    def to_raw(self, value: float) -> int:
        """Quantise a real value to the nearest representable raw integer.

        Values outside the representable range saturate (as the hardware
        adder would).
        """
        raw = int(round(value / self.scale))
        if raw < self.min_raw:
            return self.min_raw
        if raw > self.max_raw:
            return self.max_raw
        return raw

    def to_value(self, raw: int) -> float:
        """Convert a raw integer back to its real value."""
        self._check_raw(raw)
        return raw * self.scale

    def _check_raw(self, raw: int) -> None:
        if not self.min_raw <= raw <= self.max_raw:
            raise ValueError(
                f"raw value {raw} outside the representable range "
                f"[{self.min_raw}, {self.max_raw}]"
            )


DEFAULT_FORMAT = FixedPointFormat()
"""The 16-bit Q5.10 format of the OMU TreeMem entry."""


class QuantizedOccupancyParams:
    """Occupancy parameters snapped to a fixed-point grid.

    Exposes both raw (integer) and quantised-float views of the hit / miss
    increments, clamping bounds and occupancy threshold.  Constructing an
    :class:`~repro.octomap.logodds.OccupancyParams` via
    :meth:`as_float_params` yields a software tree that matches the
    accelerator bit for bit, because every update stays on the grid.
    """

    def __init__(
        self,
        params: OccupancyParams,
        fmt: FixedPointFormat = DEFAULT_FORMAT,
    ) -> None:
        self._format = fmt
        self.raw_hit = fmt.to_raw(params.log_odds_hit)
        self.raw_miss = fmt.to_raw(params.log_odds_miss)
        self.raw_clamp_min = fmt.to_raw(params.clamp_min)
        self.raw_clamp_max = fmt.to_raw(params.clamp_max)
        self.raw_threshold = fmt.to_raw(params.occupancy_threshold_log_odds)

    def as_float_params(self) -> OccupancyParams:
        """Equivalent floating-point parameters on the fixed-point grid.

        The returned object can be handed to
        :class:`repro.octomap.octree.OccupancyOcTree` to build a software map
        that agrees exactly with the accelerator.
        """
        fmt = self._format

        def to_probability(raw: int) -> float:
            value = fmt.to_value(raw)
            # Invert the log-odds transform.
            import math

            return 1.0 / (1.0 + math.exp(-value))

        return OccupancyParams(
            prob_hit=to_probability(self.raw_hit),
            prob_miss=to_probability(self.raw_miss),
            clamp_min_probability=to_probability(self.raw_clamp_min),
            clamp_max_probability=to_probability(self.raw_clamp_max),
            occupancy_threshold=to_probability(self.raw_threshold),
        )
