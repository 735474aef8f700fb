"""Compare sets of benchmark runs: the A/A check and every later A/B.

    python -m benchmarks.e2e.compare A.jsonl [B.jsonl ...]

Each file holds the records ``run.py`` appends to ``--out`` (one JSON object
per line); only untraced, full-size runs are read.  One file prints each
metric's median, quartiles and spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them) against its
bound.  With more files the first is the parent: every other file gets one
row per workload x end-to-end metric with a verdict

* ``regressed``  -- the median is worse than the parent's by more than the bound;
* ``improved``   -- the median is better by more than the parent's own spread;
* ``unresolved`` -- the parent's spread exceeds the bound, so the bound cannot
  be read (unless every run is better, or every run worse, than every parent run);
* ``unchanged``  -- otherwise.

Counts that must repeat for a seed (``exact`` in each record) are compared
run by run.  Exit status is 1 when anything regressed or an exact count moved.

Times are on the host-speed scale (``hostspeed.py``), which takes out four
fifths of a slow spell of the shared host, not all of it: each workload's
first row is the median ``host_slowdown`` of every set, and between a quiet
set and a busy one (1.0 against 1.4) medians of the same code differ by up
to a tenth.  Run the two sides alternately, so that both see the same host.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parents[2]

Runs = Dict[Tuple[str, str], List[float]]


def load(path: Path) -> Tuple[Runs, Dict[Tuple[str, int, str], float]]:
    """Values per (workload, metric), and exact counts per (workload, seed, name)."""
    values: Runs = defaultdict(list)
    exact: Dict[Tuple[str, int, str], float] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["trace"] or record["smoke"]:
            continue
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
        values[(record["workload"], "host_slowdown")].append(record["env"]["host_slowdown"])
        for name, value in record["exact"].items():
            exact[(record["workload"], record["env"]["seed"], name)] = value
    return values, exact


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def spread(values: List[float]) -> float:
    low, median, high = quartiles(values)
    return (high - low) / abs(median) if median else 0.0


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    parent_median, change_median = quartiles(parent)[1], quartiles(change)[1]
    gain = sign * (change_median - parent_median)
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    all_worse = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread(parent) > bound and not (all_better or all_worse):
        return "unresolved"
    if -gain > bound * abs(parent_median):
        return "regressed"
    low, _, high = quartiles(parent)
    if gain > high - low and gain > 0:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        print(__doc__)
        return 2
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    loaded = [load(path) for path in paths]
    parent_values, parent_exact = loaded[0]
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        key = (workload, "host_slowdown")
        slowdowns = [f"{quartiles(values[key])[1]:.3f}" for values, _exact in loaded if key in values]
        if slowdowns:
            print(f"{workload:<15} host_slowdown (median tick over nominal; not a metric) " + "  -> ".join(slowdowns))
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent_values:
                continue
            low, median, high = quartiles(parent_values[key])
            row = (f"{workload:<15} {metric['name']:<27} {metric['unit']:<10} n={len(parent_values[key]):<3} "
                   f"{median:>11.5g} [{low:.5g}, {high:.5g}]")
            if len(paths) == 1:
                share = spread(parent_values[key])
                state = "steady" if share <= metric["bound"] / 3 else "ok" if share <= metric["bound"] else "NOISY"
                print(f"{row}  spread {share:6.1%} of bound {metric['bound']:.0%}  {state}")
                continue
            for values, _exact in loaded[1:]:
                if key not in values:
                    row += "  (no runs)"
                    continue
                b_low, b_median, b_high = quartiles(values[key])
                result = verdict(parent_values[key], values[key], metric["better"], metric["bound"])
                status |= result == "regressed"
                row += (f"  -> {b_median:>11.5g} [{b_low:.5g}, {b_high:.5g}] "
                        f"{(b_median - median) / abs(median):+7.1%} {result}")
            print(row)
    for _values, exact in loaded[1:]:
        shared = sorted(set(exact) & set(parent_exact))
        moved = [key for key in shared if exact[key] != parent_exact[key]]
        print(f"exact counts: {len(shared) - len(moved)} of {len(shared)} (workload, seed, name) values identical")
        for workload, seed, name in moved:
            print(f"  MOVED {workload} seed {seed} {name}: {parent_exact[(workload, seed, name)]!r} -> "
                  f"{exact[(workload, seed, name)]!r}")
        status |= bool(moved)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
