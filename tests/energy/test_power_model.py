"""Unit tests for the 12 nm power / energy model."""

import pytest

from repro.core.accelerator import AcceleratorStatistics
from repro.core.config import DEFAULT_CONFIG
from repro.energy.power_model import PowerModel, TechnologyParameters


@pytest.fixture
def model() -> PowerModel:
    return PowerModel(DEFAULT_CONFIG)


class TestPowerCalibration:
    def test_nominal_power_matches_paper_total(self, model):
        """Section VI-C: 250.8 mW at 1 GHz under the mapping workload."""
        report = model.nominal_power()
        assert report.total_w == pytest.approx(0.2508, rel=0.05)

    def test_nominal_sram_share_matches_paper(self, model):
        """Section VI-C: 91 % of the power is SRAM."""
        report = model.nominal_power()
        assert report.sram_fraction == pytest.approx(0.91, abs=0.03)

    def test_power_report_components_are_consistent(self, model):
        report = model.nominal_power()
        assert report.total_w == pytest.approx(report.sram_w + report.logic_w)
        assert report.sram_w == pytest.approx(report.sram_dynamic_w + report.sram_leakage_w)

    def test_idle_power_is_leakage_only(self, model):
        report = model.power_from_activity(0.0, 0.0, 0.0)
        assert report.sram_dynamic_w == 0.0
        assert report.logic_dynamic_w == 0.0
        assert report.total_w > 0.0

    def test_power_scales_with_activity(self, model):
        low = model.power_from_activity(2.0, 2.0, 2.0)
        high = model.power_from_activity(10.0, 10.0, 8.0)
        assert high.total_w > low.total_w


class TestPowerFromStatistics:
    def _statistics(self, cycles=1_000_000, reads=7_000_000, writes=5_000_000) -> AcceleratorStatistics:
        stats = AcceleratorStatistics()
        stats.total_cycles = cycles
        stats.sram_reads = reads
        stats.sram_writes = writes
        stats.per_pe_cycles = {pe: cycles for pe in range(8)}
        return stats

    def test_power_from_statistics_is_in_the_paper_ballpark(self, model):
        report = model.power_from_statistics(self._statistics())
        assert 0.15 < report.total_w < 0.35

    def test_active_pe_count_is_capped(self, model):
        stats = self._statistics()
        stats.per_pe_cycles = {pe: stats.total_cycles * 2 for pe in range(8)}
        report = model.power_from_statistics(stats)
        capped = model.power_from_activity(
            stats.sram_reads / stats.total_cycles,
            stats.sram_writes / stats.total_cycles,
            8.0,
        )
        assert report.total_w == pytest.approx(capped.total_w)


class TestEnergy:
    def test_energy_is_power_times_latency(self, model):
        report = model.nominal_power()
        assert model.energy_joules(report, 10.0) == pytest.approx(report.total_w * 10.0)

    def test_negative_latency_rejected(self, model):
        with pytest.raises(ValueError):
            model.energy_joules(model.nominal_power(), -1.0)

    def test_fr079_energy_reproduces_table5_with_paper_latency(self, model):
        """250.8 mW x 1.31 s ~ 0.32 J (Table V, FR-079 corridor)."""
        energy = model.energy_joules(model.nominal_power(), 1.31)
        assert energy == pytest.approx(0.32, rel=0.07)


class TestTechnologyParameters:
    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            TechnologyParameters(sram_read_energy_pj=-1.0)

    def test_custom_technology_changes_power(self):
        aggressive = PowerModel(DEFAULT_CONFIG, TechnologyParameters(sram_read_energy_pj=1.0, sram_write_energy_pj=1.0))
        default = PowerModel(DEFAULT_CONFIG)
        assert aggressive.nominal_power().total_w < default.nominal_power().total_w
