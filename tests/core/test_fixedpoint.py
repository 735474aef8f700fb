"""Unit tests for the fixed-point log-odds format and quantised parameters."""

import numpy as np
import pytest

from repro.core import OMUAccelerator, OMUConfig
from repro.core.fixedpoint import DEFAULT_FORMAT, FixedPointFormat, QuantizedOccupancyParams
from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import DEFAULT_PARAMS

CENTRE = OcTreeKey(32768, 32768, 32768)


def datapath_after(hits):
    """The PE datapath's raw log-odds and status of a fresh voxel after ``hits``."""
    accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2))
    key = np.array([CENTRE.as_tuple()])
    for hit in hits:
        accelerator.apply_update_batch(key, np.array([hit]))
    return int(accelerator.query_keys(key)[1][0]), accelerator.query_key(CENTRE).status


def max_parameter_error(quantized: QuantizedOccupancyParams) -> float:
    snapped = quantized.as_float_params()
    return max(
        abs(getattr(snapped, name) - getattr(DEFAULT_PARAMS, name))
        for name in ("log_odds_hit", "log_odds_miss", "clamp_min", "clamp_max", "occupancy_threshold_log_odds")
    )


class TestFixedPointFormat:
    def test_default_is_16_bit_q5_10(self):
        assert DEFAULT_FORMAT.total_bits == 16
        assert DEFAULT_FORMAT.fraction_bits == 10
        assert DEFAULT_FORMAT.scale == pytest.approx(2.0 ** -10)

    def test_range_covers_clamped_log_odds(self):
        assert DEFAULT_FORMAT.to_raw(DEFAULT_PARAMS.clamp_min) > DEFAULT_FORMAT.min_raw
        assert DEFAULT_FORMAT.to_raw(DEFAULT_PARAMS.clamp_max) < DEFAULT_FORMAT.max_raw

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=1)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=16, fraction_bits=16)

    def test_to_raw_and_back(self):
        fmt = DEFAULT_FORMAT
        for value in (0.0, 0.4055, -0.4055, 2.0, -2.0, 3.5):
            raw = fmt.to_raw(value)
            assert abs(fmt.to_value(raw) - value) <= fmt.scale / 2.0

    def test_to_raw_saturates(self):
        fmt = DEFAULT_FORMAT
        assert fmt.to_raw(1e9) == fmt.max_raw
        assert fmt.to_raw(-1e9) == fmt.min_raw

    def test_quantize_is_idempotent(self):
        fmt = DEFAULT_FORMAT
        once = fmt.to_value(fmt.to_raw(0.123456))
        assert fmt.to_value(fmt.to_raw(once)) == once

    def test_to_value_rejects_out_of_range_raw(self):
        with pytest.raises(ValueError):
            DEFAULT_FORMAT.to_value(1 << 20)


class TestQuantizedOccupancyParams:
    @pytest.fixture
    def quantized(self) -> QuantizedOccupancyParams:
        return QuantizedOccupancyParams(DEFAULT_PARAMS, DEFAULT_FORMAT)

    def test_quantization_error_below_one_lsb(self, quantized):
        assert max_parameter_error(quantized) <= DEFAULT_FORMAT.scale

    def test_update_raw_hit_adds_hit_increment(self, quantized):
        assert datapath_after([True])[0] == quantized.raw_hit

    def test_update_raw_miss_adds_miss_increment(self, quantized):
        assert datapath_after([False])[0] == quantized.raw_miss

    def test_update_raw_clamps_at_bounds(self, quantized):
        assert datapath_after([True] * 100)[0] == quantized.raw_clamp_max
        assert datapath_after([True] * 100 + [False] * 100)[0] == quantized.raw_clamp_min

    def test_is_occupied_raw_threshold(self, quantized):
        assert quantized.raw_miss < quantized.raw_threshold < quantized.raw_hit
        assert datapath_after([True])[1] == "occupied"
        assert datapath_after([False])[1] == "free"
        # A hit outweighs a miss: the pair leaves the voxel above the threshold.
        assert quantized.raw_hit + quantized.raw_miss > quantized.raw_threshold
        assert datapath_after([True, False])[1] == "occupied"

    def test_as_float_params_matches_grid(self, quantized):
        params = quantized.as_float_params()
        fmt = DEFAULT_FORMAT
        assert params.log_odds_hit == pytest.approx(fmt.to_value(quantized.raw_hit), abs=1e-9)
        assert params.log_odds_miss == pytest.approx(fmt.to_value(quantized.raw_miss), abs=1e-9)
        assert params.clamp_max == pytest.approx(fmt.to_value(quantized.raw_clamp_max), abs=1e-9)

    def test_float_updates_agree_with_the_accelerator_datapath(self):
        """The software tree with quantised params matches the fixed-point PE
        update, through both clamps."""
        config = OMUConfig(resolution_m=0.2)
        params = config.quantized_params().as_float_params()
        accelerator = OMUAccelerator(config)
        key = np.array([[32768, 32768, 32768]])
        value = 0.0
        for hit in [True, True, False, True, False, False, False, True] * 5 + [True] * 20 + [False] * 40:
            accelerator.apply_update_batch(key, np.array([hit]))
            value = params.update(value, hit)
            assert config.fixed_point.to_raw(value) == accelerator.query_keys(key)[1][0]

    def test_coarser_format_increases_error(self):
        coarse = QuantizedOccupancyParams(DEFAULT_PARAMS, FixedPointFormat(total_bits=8, fraction_bits=3))
        fine = QuantizedOccupancyParams(DEFAULT_PARAMS, FixedPointFormat(total_bits=16, fraction_bits=10))
        assert max_parameter_error(coarse) > max_parameter_error(fine)
