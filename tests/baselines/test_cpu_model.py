"""Unit tests for the calibrated CPU cost models and platform descriptors."""

import pytest

from repro.baselines.cpu_model import A57_COST_MODEL, CpuCostModel, I9_COST_MODEL
from repro.baselines.platforms import ARM_CORTEX_A57, INTEL_I9_9940X, OMU_PLATFORM
from repro.datasets.catalog import ALL_DATASETS, FR079_CORRIDOR
from repro.octomap.counters import OperationCounters, OperationKind


class TestPlatforms:
    def test_i9_has_no_mapping_power(self):
        assert INTEL_I9_9940X.mapping_power_w is None
        with pytest.raises(ValueError):
            INTEL_I9_9940X.energy_joules(1.0)

    def test_a57_energy_is_power_times_latency(self):
        assert ARM_CORTEX_A57.energy_joules(10.0) == pytest.approx(27.8)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ARM_CORTEX_A57.energy_joules(-1.0)

    def test_edge_platform_flags(self):
        assert not INTEL_I9_9940X.is_edge_platform
        assert ARM_CORTEX_A57.is_edge_platform
        assert OMU_PLATFORM.is_edge_platform

    def test_omu_platform_power_matches_paper(self):
        assert OMU_PLATFORM.mapping_power_w == pytest.approx(0.2508)


class TestCostModelCalibration:
    def test_i9_latency_within_5_percent_of_paper(self):
        for descriptor in ALL_DATASETS:
            latency = I9_COST_MODEL.latency_seconds(descriptor)
            assert latency == pytest.approx(descriptor.paper.i9_latency_s, rel=0.05)

    def test_a57_latency_within_10_percent_of_paper(self):
        for descriptor in ALL_DATASETS:
            latency = A57_COST_MODEL.latency_seconds(descriptor)
            assert latency == pytest.approx(descriptor.paper.a57_latency_s, rel=0.10)

    def test_i9_throughput_is_about_5_fps(self):
        for descriptor in ALL_DATASETS:
            assert descriptor.fps_from_latency(I9_COST_MODEL.latency_seconds(descriptor)) == pytest.approx(5.0, abs=0.5)

    def test_a57_throughput_is_about_1_fps(self):
        for descriptor in ALL_DATASETS:
            assert descriptor.fps_from_latency(A57_COST_MODEL.latency_seconds(descriptor)) == pytest.approx(1.0, abs=0.2)

    def test_a57_energy_within_12_percent_of_paper(self):
        for descriptor in ALL_DATASETS:
            energy = A57_COST_MODEL.energy_joules(descriptor)
            assert energy == pytest.approx(descriptor.paper.a57_energy_j, rel=0.12)

    def test_i9_energy_is_none(self):
        assert I9_COST_MODEL.energy_joules(FR079_CORRIDOR) is None

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError):
            CpuCostModel(platform=INTEL_I9_9940X, ns_per_voxel_update=0.0)


class TestEstimates:
    def test_estimate_defaults_to_paper_breakdown(self):
        estimate = I9_COST_MODEL.estimate(FR079_CORRIDOR)
        assert estimate.platform_name == INTEL_I9_9940X.name
        assert estimate.dataset_name == FR079_CORRIDOR.name
        assert estimate.breakdown[OperationKind.PRUNE_EXPAND] == pytest.approx(0.61)

    def test_estimate_accepts_measured_breakdown(self):
        breakdown = {
            OperationKind.RAY_CASTING: 0.05,
            OperationKind.UPDATE_LEAF: 0.25,
            OperationKind.UPDATE_PARENTS: 0.15,
            OperationKind.PRUNE_EXPAND: 0.55,
        }
        estimate = A57_COST_MODEL.estimate(FR079_CORRIDOR, breakdown=breakdown)
        assert estimate.breakdown == breakdown
        assert estimate.energy_j is not None


class TestCounterDrivenBreakdown:
    def _typical_counters(self, updates: int = 1000, prune_rate: float = 0.05) -> OperationCounters:
        """Operation counts with the shape a real insertion produces."""
        counters = OperationCounters()
        counters.leaf_updates = updates
        counters.ray_steps = updates
        counters.parent_updates = updates * 14
        counters.child_reads = updates * 15 * 8
        counters.prune_checks = updates * 15
        counters.prunes = int(updates * prune_rate)
        counters.expansions = int(updates * prune_rate * 0.5)
        return counters

    def test_fractions_sum_to_one(self):
        breakdown = I9_COST_MODEL.breakdown_from_counters(self._typical_counters())
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_prune_expand_dominates_as_in_fig3(self):
        breakdown = I9_COST_MODEL.breakdown_from_counters(self._typical_counters())
        stages = sorted(breakdown, key=breakdown.get, reverse=True)
        assert stages[0] == OperationKind.PRUNE_EXPAND
        assert breakdown[OperationKind.PRUNE_EXPAND] > 0.4
        assert stages[1] == OperationKind.UPDATE_LEAF

    def test_ray_casting_share_is_small(self):
        breakdown = I9_COST_MODEL.breakdown_from_counters(self._typical_counters())
        assert breakdown[OperationKind.RAY_CASTING] < 0.05

    def test_empty_counters_give_zero_breakdown(self):
        breakdown = I9_COST_MODEL.breakdown_from_counters(OperationCounters())
        assert all(value == 0.0 for value in breakdown.values())
