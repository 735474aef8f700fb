"""Unit tests for the accelerator configuration."""

import pytest

from repro.core.config import DEFAULT_CONFIG, OMUConfig, TimingParams


class TestDefaults:
    def test_paper_organisation(self):
        config = DEFAULT_CONFIG
        assert config.num_pes == 8
        assert config.banks_per_pe == 8
        assert config.bank_kilobytes == 32
        assert config.pe_memory_bytes == 256 * 1024
        assert config.total_memory_bytes == 2 * 1024 * 1024

    def test_paper_operating_point(self):
        config = DEFAULT_CONFIG
        assert config.clock_hz == pytest.approx(1.0e9)
        assert config.voltage_v == pytest.approx(0.8)
        assert config.technology_nm == 12

    def test_derived_sizes(self):
        config = DEFAULT_CONFIG
        assert config.entries_per_bank == 4096
        assert config.node_capacity == 8 * 8 * 4096

    def test_quantized_params_round_trip(self):
        quantized = DEFAULT_CONFIG.quantized_params()
        fmt, params = DEFAULT_CONFIG.fixed_point, DEFAULT_CONFIG.occupancy_params
        assert abs(fmt.to_value(quantized.raw_hit) - params.log_odds_hit) <= fmt.scale / 2
        assert abs(fmt.to_value(quantized.raw_miss) - params.log_odds_miss) <= fmt.scale / 2


class TestValidation:
    def test_bank_count_is_fixed_to_eight(self):
        with pytest.raises(ValueError):
            OMUConfig(banks_per_pe=4)

    def test_entry_size_is_fixed_to_eight_bytes(self):
        with pytest.raises(ValueError):
            OMUConfig(entry_bytes=4)

    def test_probability_must_fit_the_sixteen_bit_field(self):
        """The TreeMem image stores probabilities as i16, like the packed word."""
        from repro.core.fixedpoint import FixedPointFormat

        OMUConfig(fixed_point=FixedPointFormat(total_bits=12, fraction_bits=6))
        with pytest.raises(ValueError, match="16-bit probability field"):
            OMUConfig(fixed_point=FixedPointFormat(total_bits=24, fraction_bits=17))

    def test_pe_count_must_be_positive(self):
        with pytest.raises(ValueError):
            OMUConfig(num_pes=0)

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError):
            OMUConfig(resolution_m=0.0)

    def test_clock_must_be_positive(self):
        with pytest.raises(ValueError):
            OMUConfig(clock_hz=0.0)

    def test_tree_depth_bounds(self):
        with pytest.raises(ValueError):
            OMUConfig(tree_depth=17)

    def test_timing_params_must_be_positive_integers(self):
        with pytest.raises(ValueError):
            TimingParams(bank_read_cycles=0)
        with pytest.raises(ValueError):
            TimingParams(alu_cycles=-1)


class TestCopies:
    def test_with_resolution(self):
        copy = DEFAULT_CONFIG.with_resolution(0.1)
        assert copy.resolution_m == pytest.approx(0.1)

    def test_configs_are_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.num_pes = 4  # type: ignore[misc]
