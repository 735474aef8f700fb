"""Log-odds occupancy arithmetic and update policy.

OctoMap represents the occupancy probability ``P(n)`` of a voxel ``n`` by its
log-odds value ``L(n) = log(P / (1 - P))`` (paper eq. (1)).  The log-odds form
turns the Bayesian update of eq. (2) into a simple addition, which is exactly
the operation the OMU probability-update unit implements in fixed point.

The clamping update policy (Yguel et al.) bounds the log-odds value to
``[clamp_min, clamp_max]`` so that the map stays adaptive to changes and so
that stable nodes become prunable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "log_odds",
    "probability",
    "OccupancyParams",
    "DEFAULT_PARAMS",
]


def log_odds(probability_value: float) -> float:
    """Convert a probability in the open interval (0, 1) to log-odds.

    Mirrors eq. (1) of the paper: ``L = log(p / (1 - p))``.

    Raises:
        ValueError: if ``probability_value`` is outside (0, 1).
    """
    if not 0.0 < probability_value < 1.0:
        raise ValueError(
            f"probability must be in (0, 1), got {probability_value!r}"
        )
    return math.log(probability_value / (1.0 - probability_value))


def probability(log_odds_value: float) -> float:
    """Convert a log-odds value back to a probability in (0, 1)."""
    return 1.0 / (1.0 + math.exp(-log_odds_value))


@dataclass(frozen=True)
class OccupancyParams:
    """Sensor and clamping parameters of the occupancy update policy.

    The defaults are the OctoMap library defaults, which the paper's baseline
    uses unmodified:

    * ``prob_hit = 0.7`` -- probability assigned to an endpoint measurement.
    * ``prob_miss = 0.4`` -- probability assigned to a traversed (free) voxel.
    * ``clamp_min / clamp_max`` -- clamping thresholds of the log-odds value
      (probabilities 0.1192 and 0.971).
    * ``occupancy_threshold`` -- probability above which a voxel is classified
      as occupied during queries.
    """

    prob_hit: float = 0.7
    prob_miss: float = 0.4
    clamp_min_probability: float = 0.1192
    clamp_max_probability: float = 0.971
    occupancy_threshold: float = 0.5

    # Derived log-odds values, computed in __post_init__ so callers can use
    # them directly without repeating the conversion.
    log_odds_hit: float = field(init=False)
    log_odds_miss: float = field(init=False)
    clamp_min: float = field(init=False)
    clamp_max: float = field(init=False)
    occupancy_threshold_log_odds: float = field(init=False)

    def __post_init__(self) -> None:
        self._validate()
        object.__setattr__(self, "log_odds_hit", log_odds(self.prob_hit))
        object.__setattr__(self, "log_odds_miss", log_odds(self.prob_miss))
        object.__setattr__(self, "clamp_min", log_odds(self.clamp_min_probability))
        object.__setattr__(self, "clamp_max", log_odds(self.clamp_max_probability))
        object.__setattr__(
            self,
            "occupancy_threshold_log_odds",
            log_odds(self.occupancy_threshold),
        )

    def _validate(self) -> None:
        for name in (
            "prob_hit",
            "prob_miss",
            "clamp_min_probability",
            "clamp_max_probability",
            "occupancy_threshold",
        ):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value!r}")
        if self.prob_hit <= 0.5:
            raise ValueError("prob_hit must be > 0.5 (hits increase occupancy)")
        if self.prob_miss >= 0.5:
            raise ValueError("prob_miss must be < 0.5 (misses decrease occupancy)")
        if self.clamp_min_probability >= self.clamp_max_probability:
            raise ValueError("clamp_min_probability must be < clamp_max_probability")

    def clamp(self, log_odds_value: float) -> float:
        """Clamp a log-odds value to ``[clamp_min, clamp_max]``."""
        if log_odds_value < self.clamp_min:
            return self.clamp_min
        if log_odds_value > self.clamp_max:
            return self.clamp_max
        return log_odds_value

    def update(self, current_log_odds: float, hit: bool) -> float:
        """Apply one clamped Bayesian update (paper eq. (2)).

        Args:
            current_log_odds: the prior log-odds value of the voxel.
            hit: ``True`` for an endpoint (occupied) measurement, ``False``
                for a traversed (free) voxel.
        """
        delta = self.log_odds_hit if hit else self.log_odds_miss
        return self.clamp(current_log_odds + delta)

    def is_occupied(self, log_odds_value: float) -> bool:
        """Classify a log-odds value as occupied (above the threshold)."""
        return log_odds_value > self.occupancy_threshold_log_odds


DEFAULT_PARAMS = OccupancyParams()
"""Module-level default parameter set (OctoMap library defaults)."""
