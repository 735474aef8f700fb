"""Unit tests for the cycle breakdown and scan-timing containers."""

import pytest

from repro.core.timing import CycleBreakdown, PETimingStats, ScanTiming
from repro.octomap.counters import OperationKind


class TestCycleBreakdown:
    def test_fresh_breakdown_is_zero(self):
        breakdown = CycleBreakdown()
        assert breakdown.total() == 0
        assert all(value == 0.0 for value in breakdown.fractions().values())

    def test_fractions_sum_to_one(self):
        breakdown = CycleBreakdown({OperationKind.UPDATE_LEAF: 25, OperationKind.PRUNE_EXPAND: 75})
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions[OperationKind.PRUNE_EXPAND] == pytest.approx(0.75)


class TestPETimingStats:
    def test_busy_cycles_are_the_breakdown_total(self):
        cycles = {OperationKind.UPDATE_LEAF: 100, OperationKind.PRUNE_EXPAND: 20}
        stats = PETimingStats(pe_id=0, breakdown=CycleBreakdown(cycles))
        assert stats.busy_cycles() == 120
        assert PETimingStats(pe_id=1).busy_cycles() == 0


class TestScanTiming:
    def test_critical_path_overlaps_ray_casting(self):
        timing = ScanTiming(scheduler_cycles=10, raycast_cycles=50, pe_cycles_max=200, pe_cycles_total=800)
        assert timing.critical_path_cycles() == 210

    def test_critical_path_exposes_slow_ray_casting(self):
        timing = ScanTiming(scheduler_cycles=10, raycast_cycles=500, pe_cycles_max=200, pe_cycles_total=800)
        assert timing.critical_path_cycles() == 510

    def test_cycles_per_update(self):
        timing = ScanTiming(scheduler_cycles=10, pe_cycles_max=90, pe_cycles_total=400, voxel_updates=10)
        assert timing.cycles_per_update() == pytest.approx(10.0)
        assert ScanTiming().cycles_per_update() == 0.0
