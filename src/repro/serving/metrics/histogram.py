"""Fixed-bucket latency histogram: percentiles without raw-sample sorting.

The metrics pipeline must answer "p99 submit latency over the last minute"
without keeping (or sorting) raw samples on the hot path.
:class:`LatencyHistogram` therefore buckets observations into a fixed
log-spaced grid at ``observe`` time -- one ``bisect`` plus one increment per
sample, O(1) memory -- and interpolates percentiles out of the bucket counts
on demand.

Accuracy: with the default grid (%(buckets)d buckets, %(per_decade)d per
decade from 1 microsecond to 100 seconds) any reported percentile is within
one bucket of the true sample, i.e. a relative error bounded by the bucket
ratio ``10^(1/%(per_decade)d) - 1`` (about 26%%).  The test suite pins this
bound against sorted raw samples.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence

__all__ = ["LatencyHistogram", "default_bounds"]


def default_bounds(
    minimum_s: float = 1e-6, maximum_s: float = 100.0, per_decade: int = 10
) -> List[float]:
    """Log-spaced bucket upper bounds from ``minimum_s`` to ``maximum_s``.

    ``per_decade`` buckets per factor of ten; the grid is computed once per
    histogram *class* use, never per sample.
    """
    if minimum_s <= 0 or maximum_s <= minimum_s:
        raise ValueError("need 0 < minimum_s < maximum_s")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    bounds: List[float] = []
    ratio = 10.0 ** (1.0 / per_decade)
    bound = minimum_s
    while bound < maximum_s * (1.0 + 1e-12):
        bounds.append(bound)
        bound *= ratio
    return bounds


_DEFAULT_BOUNDS: List[float] = default_bounds()

if __doc__:  # pragma: no branch - docstring formatting only
    __doc__ = __doc__ % {
        "buckets": len(_DEFAULT_BOUNDS) + 1,
        "per_decade": 10,
    }


class LatencyHistogram:
    """Bounded-memory histogram of request durations (seconds).

    Args:
        bounds: ascending bucket upper bounds in seconds; samples above the
            last bound land in one overflow bucket.  Defaults to the shared
            log grid of :func:`default_bounds`, which every histogram in the
            process reuses (so merging is cheap and always well-defined).
    """

    __slots__ = ("bounds", "counts", "total", "sum_s", "min_s", "max_s")

    def __init__(self, bounds: Sequence[float] = None) -> None:
        self.bounds: Sequence[float] = _DEFAULT_BOUNDS if bounds is None else list(bounds)
        if any(b <= 0 for b in self.bounds) or list(self.bounds) != sorted(self.bounds):
            raise ValueError("bounds must be positive and ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration (negative values clamp to zero)."""
        if seconds < 0.0:
            seconds = 0.0
        self.counts[bisect_right(self.bounds, seconds)] += 1
        self.total += 1
        self.sum_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        """Mean observed duration (0.0 when empty)."""
        return self.sum_s / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]) in seconds.

        Walks the cumulative bucket counts to the target rank and linearly
        interpolates within the winning bucket; the result is clamped to the
        observed ``[min, max]`` so tiny samples never report a value outside
        what was actually seen.  0.0 when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.total == 0:
            return 0.0
        rank = q / 100.0 * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else max(self.max_s, self.bounds[-1])
                )
                fraction = (rank - (cumulative - count)) / count
                value = lower + fraction * (upper - lower)
                return min(max(value, self.min_s), self.max_s)
        return self.max_s

    def quantiles(self) -> dict:
        """The standard dashboard quantile block (milliseconds)."""
        return {
            "p50_ms": 1e3 * self.percentile(50.0),
            "p95_ms": 1e3 * self.percentile(95.0),
            "p99_ms": 1e3 * self.percentile(99.0),
            "mean_ms": 1e3 * self.mean_s,
            "max_ms": 1e3 * (self.max_s if self.total else 0.0),
        }

    def to_dict(self, include_buckets: bool = False) -> dict:
        """Plain-dict view: count + quantiles (+ raw buckets on request)."""
        payload = {"count": self.total, **self.quantiles()}
        if include_buckets:
            payload["bucket_bounds_s"] = list(self.bounds)
            payload["bucket_counts"] = list(self.counts)
        return payload
