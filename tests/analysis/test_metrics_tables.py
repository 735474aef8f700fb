"""Unit tests for the analysis metrics and ASCII rendering helpers."""

import pytest

from repro.analysis.metrics import energy_benefit, normalise_breakdown, speedup
from repro.analysis.tables import format_quantity, render_bar_chart, render_table
from repro.octomap.counters import OperationKind


class TestMetrics:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)

    def test_speedup_rejects_non_positive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            speedup(1.0, -1.0)

    def test_energy_benefit(self):
        assert energy_benefit(200.0, 0.5) == pytest.approx(400.0)
        with pytest.raises(ValueError):
            energy_benefit(0.0, 1.0)

    def test_normalise_breakdown(self):
        breakdown = {OperationKind.UPDATE_LEAF: 2.0, OperationKind.PRUNE_EXPAND: 6.0}
        normalised = normalise_breakdown(breakdown)
        assert sum(normalised.values()) == pytest.approx(1.0)
        assert normalised[OperationKind.PRUNE_EXPAND] == pytest.approx(0.75)
        assert normalised[OperationKind.RAY_CASTING] == 0.0

    def test_normalise_all_zero_breakdown(self):
        assert all(value == 0.0 for value in normalise_breakdown({}).values())


class TestFormatting:
    def test_format_quantity_none(self):
        assert format_quantity(None) == "-"

    def test_format_quantity_bool(self):
        assert format_quantity(True) == "yes"
        assert format_quantity(False) == "no"

    def test_format_quantity_int_uses_thousands_separator(self):
        assert format_quantity(1234567) == "1,234,567"

    def test_format_quantity_float_ranges(self):
        assert format_quantity(0.0) == "0"
        assert format_quantity(12.3456) == "12.35"
        assert format_quantity(0.0123) == "0.012"
        assert format_quantity(1.2e-6) == "1.200e-06"
        assert format_quantity(12345.6) == "12,346"

    def test_format_quantity_string_passthrough(self):
        assert format_quantity("OMU") == "OMU"


class TestRenderTable:
    def test_render_contains_title_headers_and_rows(self):
        text = render_table("My table", ("A", "B"), [(1, 2.5), ("x", None)])
        assert "My table" in text
        assert "A" in text and "B" in text
        assert "2.50" in text
        assert "-" in text

    def test_columns_are_aligned(self):
        text = render_table("T", ("left", "right"), [("a", "b")])
        lines = text.splitlines()
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table("T", ("A", "B"), [(1,)])


class TestRenderBarChart:
    def test_bars_scale_with_values(self):
        text = render_bar_chart("Chart", {"small": 1.0, "big": 10.0}, width=20)
        lines = {line.split("|")[0].strip(): line for line in text.splitlines()[1:]}
        assert lines["big"].count("#") == 20
        assert 1 <= lines["small"].count("#") <= 3

    def test_empty_chart(self):
        assert "(no data)" in render_bar_chart("Chart", {})

    def test_zero_values_produce_no_bars(self):
        text = render_bar_chart("Chart", {"a": 0.0, "b": 0.0})
        assert "#" not in text

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_bar_chart("Chart", {"a": 1.0}, width=0)

    def test_unit_suffix(self):
        assert "FPS" in render_bar_chart("Chart", {"a": 1.0}, unit=" FPS")
