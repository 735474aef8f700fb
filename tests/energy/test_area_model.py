"""Unit tests for the 12 nm area model (Fig. 8)."""

from dataclasses import replace

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.energy.area_model import AreaModel, AreaParameters


class TestAreaCalibration:
    def test_total_area_matches_paper(self):
        """Fig. 8: the 8-PE accelerator occupies ~2.5 mm^2 in 12 nm."""
        report = AreaModel(DEFAULT_CONFIG).report()
        assert report.total_mm2 == pytest.approx(2.5, rel=0.05)

    def test_sram_dominates_the_area(self):
        report = AreaModel(DEFAULT_CONFIG).report()
        assert report.sram_mm2 / report.total_mm2 > 0.6

    def test_report_components_are_consistent(self):
        report = AreaModel(DEFAULT_CONFIG).report()
        assert report.total_mm2 == pytest.approx(
            report.sram_mm2 + report.pe_logic_mm2 + report.frontend_mm2
        )

    def test_layout_outline_matches_figure8(self):
        width, height = AreaModel(DEFAULT_CONFIG).layout_mm()
        assert (width, height) == (2.0, 1.25)


class TestAreaScaling:
    def test_fewer_pes_shrink_the_design(self):
        small = AreaModel(replace(DEFAULT_CONFIG, num_pes=4)).report()
        full = AreaModel(DEFAULT_CONFIG).report()
        assert small.total_mm2 < full.total_mm2
        # SRAM scales with the PE count too (each PE brings its 256 kB).
        assert small.sram_mm2 == pytest.approx(full.sram_mm2 / 2.0)

    def test_larger_banks_grow_the_sram_area(self):
        bigger = AreaModel(replace(DEFAULT_CONFIG, bank_kilobytes=64)).report()
        assert bigger.sram_mm2 == pytest.approx(2.0 * AreaModel(DEFAULT_CONFIG).report().sram_mm2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AreaParameters(sram_mm2_per_mb=0.0)
