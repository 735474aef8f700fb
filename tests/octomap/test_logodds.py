"""Unit tests for the log-odds occupancy arithmetic."""

import math

import pytest

from repro.octomap.logodds import DEFAULT_PARAMS, OccupancyParams, log_odds, probability


class TestConversions:
    def test_log_odds_of_half_is_zero(self):
        assert log_odds(0.5) == pytest.approx(0.0)

    def test_log_odds_is_symmetric(self):
        assert log_odds(0.7) == pytest.approx(-log_odds(0.3))

    def test_probability_inverts_log_odds(self):
        for value in (0.05, 0.12, 0.5, 0.7, 0.9, 0.971):
            assert probability(log_odds(value)) == pytest.approx(value)

    def test_log_odds_of_hit_probability(self):
        # The OctoMap default hit probability 0.7 corresponds to ~0.8473.
        assert log_odds(0.7) == pytest.approx(math.log(0.7 / 0.3))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_log_odds_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            log_odds(bad)

    def test_probability_handles_large_magnitudes(self):
        assert probability(50.0) == pytest.approx(1.0, abs=1e-12)
        assert probability(-50.0) == pytest.approx(0.0, abs=1e-12)


class TestOccupancyParams:
    def test_default_values_match_octomap_library(self):
        params = DEFAULT_PARAMS
        assert params.prob_hit == pytest.approx(0.7)
        assert params.prob_miss == pytest.approx(0.4)
        assert params.clamp_min_probability == pytest.approx(0.1192)
        assert params.clamp_max_probability == pytest.approx(0.971)
        assert params.occupancy_threshold == pytest.approx(0.5)

    def test_derived_log_odds_fields(self):
        params = DEFAULT_PARAMS
        assert params.log_odds_hit == pytest.approx(log_odds(0.7))
        assert params.log_odds_miss == pytest.approx(log_odds(0.4))
        assert params.clamp_min == pytest.approx(log_odds(0.1192))
        assert params.clamp_max == pytest.approx(log_odds(0.971))

    def test_hit_update_is_an_addition(self):
        params = DEFAULT_PARAMS
        assert params.update(0.0, hit=True) == pytest.approx(params.log_odds_hit)

    def test_miss_update_is_an_addition(self):
        params = DEFAULT_PARAMS
        assert params.update(0.0, hit=False) == pytest.approx(params.log_odds_miss)

    def test_updates_clamp_at_maximum(self):
        params = DEFAULT_PARAMS
        value = 0.0
        for _ in range(50):
            value = params.update(value, hit=True)
        assert value == pytest.approx(params.clamp_max)

    def test_updates_clamp_at_minimum(self):
        params = DEFAULT_PARAMS
        value = 0.0
        for _ in range(50):
            value = params.update(value, hit=False)
        assert value == pytest.approx(params.clamp_min)

    def test_clamp_passes_values_inside_the_band(self):
        params = DEFAULT_PARAMS
        assert params.clamp(0.25) == pytest.approx(0.25)

    def test_is_occupied_threshold(self):
        params = DEFAULT_PARAMS
        assert params.is_occupied(0.1)
        assert not params.is_occupied(0.0)
        assert not params.is_occupied(-0.5)

    def test_custom_params_validation_hit_must_exceed_half(self):
        with pytest.raises(ValueError):
            OccupancyParams(prob_hit=0.4)

    def test_custom_params_validation_miss_must_be_below_half(self):
        with pytest.raises(ValueError):
            OccupancyParams(prob_miss=0.6)

    def test_custom_params_validation_clamp_ordering(self):
        with pytest.raises(ValueError):
            OccupancyParams(clamp_min_probability=0.99, clamp_max_probability=0.2)

    def test_custom_params_validation_probability_range(self):
        with pytest.raises(ValueError):
            OccupancyParams(occupancy_threshold=1.2)

    def test_hit_then_miss_partially_cancels(self):
        params = DEFAULT_PARAMS
        value = params.update(0.0, hit=True)
        value = params.update(value, hit=False)
        assert value == pytest.approx(params.log_odds_hit + params.log_odds_miss)
        # hit magnitude exceeds miss magnitude, so the net effect is occupied-leaning
        assert value > 0.0
