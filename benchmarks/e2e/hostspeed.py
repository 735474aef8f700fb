"""How fast this host is right now, so that times can be read on one scale.

The benchmark runs on a few cores of a shared host.  For seconds at a time,
several times a minute, a neighbour sharing the core makes everything here
run 1.3-1.6x slower (no steal time shows; instructions just retire more
slowly and the caches hold less), so the same code measured twice differs by
more than any bound worth setting.

:class:`HostSpeed` times a fixed pure-Python loop -- a *tick*, ~3 ms --
between the slices of work a workload measures.  The slowdown of a slice is
the median tick within half a second of it over :data:`NOMINAL_TICK_S`, and
every time the benchmark reports is the measured time divided by that: host
time on the scale of the undisturbed reference host.  A tick walks a table a
third the size of the L2 cache, once untimed to load it (so what the program
did before does not matter) and twice timed; that slows down with the
program to within a few percent where a loop without memory slows down two
thirds as much (README.md has the measurement).  The loop lives here, in the
benchmark, so no change to the program can move it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter
from typing import List

#: the table a tick walks: ~0.8 MB of two-element lists.
CELLS = 8192
TIMED_STEPS = 2 * CELLS
#: seconds a tick takes on the reference host (2 vCPUs of a Xeon at 2.1 GHz,
#: CPython 3.11) when no neighbour is busy: the unit of the scale.
NOMINAL_TICK_S = 2.1e-3
#: ticks this close to a slice say how slow the host was during it.
WINDOW_S = 0.5


class HostSpeed:
    """Ticks recorded over a run, and the slowdown they show around a slice."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self._cells = [[index, 0] for index in range(CELLS)]

    def tick(self, count: int = 1) -> None:
        cells = self._cells
        mask = CELLS - 1
        for _ in range(count):
            key = 1
            for _step in range(CELLS):  # full period: loads every cell
                key = (5 * key + 1) & mask
                cells[key][1] = 0
            total = 0
            started = perf_counter()
            for _step in range(TIMED_STEPS):
                key = (5 * key + 1) & mask
                cell = cells[key]
                total += cell[0]
                cell[1] = total & 255
            ended = perf_counter()
            self.at.append(ended)
            self.took.append(ended - started)

    def slowdown(self, start: float, end: float) -> float:
        """Median tick from ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``, over nominal."""
        first = bisect_left(self.at, start - WINDOW_S)
        last = bisect_right(self.at, end + WINDOW_S)
        if last - first < 2:  # no tick that near: the slice's two neighbours
            first = max(0, min(first, len(self.at) - 1) - 1)
            last = first + 2
        return median(self.took[first:last]) / NOMINAL_TICK_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` on the reference host's scale."""
        return (end - start) / self.slowdown(start, end)
