"""Unit tests for the cycle breakdown and scan-timing containers."""

import pytest

from repro.core.timing import CycleBreakdown, PETimingStats, ScanTiming
from repro.octomap.counters import OperationKind


class TestCycleBreakdown:
    def test_fresh_breakdown_is_zero(self):
        breakdown = CycleBreakdown()
        assert breakdown.total() == 0
        assert all(value == 0.0 for value in breakdown.fractions().values())

    def test_charge_accumulates(self):
        breakdown = CycleBreakdown()
        breakdown.charge(OperationKind.UPDATE_LEAF, 5)
        breakdown.charge(OperationKind.UPDATE_LEAF, 3)
        assert breakdown.cycles[OperationKind.UPDATE_LEAF] == 8
        assert breakdown.total() == 8

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError):
            CycleBreakdown().charge(OperationKind.UPDATE_LEAF, -1)

    def test_fractions_sum_to_one(self):
        breakdown = CycleBreakdown()
        breakdown.charge(OperationKind.UPDATE_LEAF, 25)
        breakdown.charge(OperationKind.PRUNE_EXPAND, 75)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions[OperationKind.PRUNE_EXPAND] == pytest.approx(0.75)

    def test_merge(self):
        a = CycleBreakdown()
        a.charge(OperationKind.UPDATE_LEAF, 10)
        b = CycleBreakdown()
        b.charge(OperationKind.UPDATE_LEAF, 5)
        b.charge(OperationKind.RAY_CASTING, 2)
        a.merge(b)
        assert a.cycles[OperationKind.UPDATE_LEAF] == 15
        assert a.cycles[OperationKind.RAY_CASTING] == 2


class TestPETimingStats:
    def test_busy_cycles_are_the_breakdown_total(self):
        stats = PETimingStats(pe_id=0)
        stats.breakdown.charge(OperationKind.UPDATE_LEAF, 100)
        stats.breakdown.charge(OperationKind.PRUNE_EXPAND, 20)
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

    def test_merge_accumulates_everything(self):
        a = ScanTiming(scheduler_cycles=1, raycast_cycles=2, pe_cycles_max=3, pe_cycles_total=4, voxel_updates=5)
        a.breakdown.charge(OperationKind.UPDATE_LEAF, 7)
        b = ScanTiming(scheduler_cycles=10, raycast_cycles=20, pe_cycles_max=30, pe_cycles_total=40, voxel_updates=50)
        b.breakdown.charge(OperationKind.UPDATE_LEAF, 70)
        a.merge(b)
        assert a.scheduler_cycles == 11
        assert a.raycast_cycles == 22
        assert a.pe_cycles_max == 33
        assert a.pe_cycles_total == 44
        assert a.voxel_updates == 55
        assert a.breakdown.cycles[OperationKind.UPDATE_LEAF] == 77
