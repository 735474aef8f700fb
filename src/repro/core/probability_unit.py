"""Probability update unit: the fixed-point log-odds datapath of a PE.

The unit implements the two occupancy equations of the paper entirely in the
16-bit fixed-point domain of the TreeMem entry:

* eq. (2) -- leaf update: add the (quantised) hit or miss increment to the
  stored log-odds value and clamp;
* eq. (3) -- parent update: take the maximum of the eight children values.

It also classifies values against the occupancy threshold, which is what the
child status tags and the voxel query unit need.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.fixedpoint import QuantizedOccupancyParams
from repro.core.treemem import ChildStatus

__all__ = ["ProbabilityUpdateUnit"]


class ProbabilityUpdateUnit:
    """Fixed-point occupancy arithmetic shared by all PEs.

    The PE's update and query kernels inline these three operations from
    :attr:`params`; the counters below count calls to the methods themselves
    (snapshot restore and tests).
    """

    def __init__(self, params: QuantizedOccupancyParams) -> None:
        self._params = params
        self.leaf_updates = 0
        self.max_operations = 0
        self.classifications = 0

    @property
    def params(self) -> QuantizedOccupancyParams:
        """The quantised occupancy parameters driving the datapath."""
        return self._params

    def update_leaf(self, raw_log_odds: int, occupied: bool) -> int:
        """Apply one clamped measurement update (paper eq. (2))."""
        self.leaf_updates += 1
        return self._params.update_raw(raw_log_odds, occupied)

    def parent_value(self, child_raw_values: Iterable[int]) -> int:
        """Aggregate children into the parent value (paper eq. (3), max).

        Raises:
            ValueError: if no child value is supplied.
        """
        values = list(child_raw_values)
        if not values:
            raise ValueError("parent_value needs at least one child value")
        self.max_operations += 1
        return max(values)

    def classify(self, raw_log_odds: int) -> ChildStatus:
        """Map a log-odds value to its 2-bit status tag (occupied or free)."""
        self.classifications += 1
        if self._params.is_occupied_raw(raw_log_odds):
            return ChildStatus.OCCUPIED
        return ChildStatus.FREE

    def is_occupied(self, raw_log_odds: int) -> bool:
        """Occupancy decision against the configured threshold."""
        return self._params.is_occupied_raw(raw_log_odds)
