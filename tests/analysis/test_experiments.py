"""Integration tests for the experiment drivers (smoke-scale workloads).

These tests check that every table / figure driver runs end to end and that
the *shape* of the paper's results holds: OMU is faster than the i9, which is
faster than the A57; OMU clears the 30 FPS real-time bar; the CPU breakdown is
dominated by prune/expand while the accelerator's is not; and the power / area
models land on the paper's headline numbers.
"""

from dataclasses import replace

import pytest

from repro.analysis.experiments import (
    evaluate_dataset,
    figure3_cpu_breakdown,
    figure8_area,
    figure9_fr079,
    figure10_accelerator_breakdown,
    power_budget,
    table1_related_work,
    table2_dataset_details,
    table3_latency,
    table4_throughput,
    table5_energy,
)
from repro.core.config import DEFAULT_CONFIG
from repro.octomap.counters import OperationKind

SCALE = "smoke"


@pytest.fixture(scope="module")
def corridor_evaluation():
    return evaluate_dataset("FR-079 corridor", scale=SCALE)


class TestEvaluateDataset:
    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            evaluate_dataset("FR-079 corridor", scale="galactic")

    def test_evaluation_is_cached(self, corridor_evaluation):
        again = evaluate_dataset("FR-079 corridor", scale=SCALE)
        assert again is corridor_evaluation

    def test_cache_tells_configs_apart(self, corridor_evaluation):
        """Regression: the cache was keyed on the PE count only, so any other
        config got the default config's evaluation back."""
        timing = DEFAULT_CONFIG.timing
        slow_reads = replace(
            DEFAULT_CONFIG, timing=replace(timing, bank_read_cycles=4 * timing.bank_read_cycles)
        )
        slower = evaluate_dataset("FR-079 corridor", scale=SCALE, config=slow_reads)
        assert slower is not corridor_evaluation
        assert slower.omu_latency_s > corridor_evaluation.omu_latency_s
        assert evaluate_dataset("FR-079 corridor", scale=SCALE, config=slow_reads) is slower

    def test_scaled_run_produced_updates(self, corridor_evaluation):
        assert corridor_evaluation.scaled_voxel_updates > 500

    def test_omu_is_faster_than_both_cpus(self, corridor_evaluation):
        assert corridor_evaluation.omu_latency_s < corridor_evaluation.i9_latency_s
        assert corridor_evaluation.i9_latency_s < corridor_evaluation.a57_latency_s

    def test_omu_speedup_magnitudes_match_paper_shape(self, corridor_evaluation):
        speedup_i9 = corridor_evaluation.i9_latency_s / corridor_evaluation.omu_latency_s
        speedup_a57 = corridor_evaluation.a57_latency_s / corridor_evaluation.omu_latency_s
        assert 5.0 < speedup_i9 < 30.0
        assert 25.0 < speedup_a57 < 130.0

    def test_omu_meets_real_time_on_corridor(self, corridor_evaluation):
        assert corridor_evaluation.omu_fps > 30.0

    def test_cpu_breakdown_is_prune_dominated(self, corridor_evaluation):
        breakdown = corridor_evaluation.cpu_breakdown
        assert max(breakdown, key=breakdown.get) == OperationKind.PRUNE_EXPAND
        assert breakdown[OperationKind.PRUNE_EXPAND] > 0.4

    def test_omu_breakdown_prune_share_is_small(self, corridor_evaluation):
        assert corridor_evaluation.omu_breakdown[OperationKind.PRUNE_EXPAND] < 0.25

    def test_energy_benefit_is_hundreds_of_times(self, corridor_evaluation):
        benefit = corridor_evaluation.a57_energy_j / corridor_evaluation.omu_energy_j
        assert 200.0 < benefit < 2000.0

    def test_parallel_speedup_uses_several_pes(self, corridor_evaluation):
        assert corridor_evaluation.omu_parallel_speedup > 2.0


class TestStaticExperiments:
    def test_table1_contains_omu_as_the_only_full_solution(self):
        result = table1_related_work()
        assert result.experiment_id == "table1"
        omu_row = [row for row in result.rows if "OMU" in str(row[0])][0]
        assert omu_row[1:] == (True, True, True)
        assert "OMU" in result.rendered

    def test_figure8_area_totals(self):
        result = figure8_area()
        rows = {str(row[0]): row[1] for row in result.rows}
        assert rows["Total"] == pytest.approx(2.5, rel=0.05)

    def test_power_budget_rows(self):
        result = power_budget()
        rows = {str(row[0]): row[1] for row in result.rows}
        assert rows["Total power (mW)"] == pytest.approx(250.8, rel=0.05)
        assert rows["SRAM share (%)"] == pytest.approx(91.0, abs=3.0)


class TestDatasetExperiments:
    def test_table2_has_one_row_per_dataset(self):
        result = table2_dataset_details(scale=SCALE)
        assert len(result.rows) == 3
        assert "Table II" in result.rendered

    def test_table3_speedups_exceed_one(self):
        result = table3_latency(scale=SCALE)
        for row in result.rows:
            assert row[5] > 1.0  # speedup over i9
            assert row[7] > 1.0  # speedup over A57

    def test_table4_omu_beats_both_cpus_everywhere(self):
        result = table4_throughput(scale=SCALE)
        for row in result.rows:
            i9_fps, a57_fps, omu_fps = row[1], row[2], row[3]
            assert omu_fps > i9_fps > a57_fps

    def test_table5_energy_benefit_is_large(self):
        result = table5_energy(scale=SCALE)
        for row in result.rows:
            assert row[5] > 100.0

    def test_figure3_prune_expand_is_the_largest_stage(self):
        result = figure3_cpu_breakdown(scale=SCALE)
        for row in result.rows:
            stages = row[1:5]
            assert max(stages) == stages[3]

    def test_figure9_orders_the_three_platforms(self):
        result = figure9_fr079(scale=SCALE)
        latencies = {str(row[0]): row[1] for row in result.rows}
        assert latencies["OMU accelerator"] < latencies["Intel i9 CPU"] < latencies["Arm A57 CPU"]
        assert "Fig. 9(a)" in result.rendered and "Fig. 9(b)" in result.rendered

    def test_figure10_has_cpu_and_accelerator_rows_per_dataset(self):
        result = figure10_accelerator_breakdown(scale=SCALE)
        assert len(result.rows) == 6
        backends = {str(row[1]) for row in result.rows}
        assert backends == {"i9 CPU", "OMU"}
