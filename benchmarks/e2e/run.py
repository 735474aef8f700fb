"""The one command: run a workload, check it against the oracle, print every metric.

    python3 benchmarks/e2e/run.py --workload ingest_inline --seed 0 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up is
repeated (median reported), then the workload is measured untraced.  Times
are on the host-speed scale of :mod:`benchmarks.e2e.hostspeed`.
``--trace 1`` measures half the window untraced and half with the span
wrappers of :mod:`benchmarks.e2e.tracing` installed, prints the per-layer
metrics and writes the spans to ``trace-<workload>.json`` next to ``--out``.
The last line of stdout is the result object the driver reads; every run
is also appended, with its environment, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
#: ticks of the host-speed reference before and after each set-up.
SETUP_TICKS = 4
#: what the result line carries for a per-layer metric that could not be
#: observed (its wrap point is gone, or the layer ran in another process);
#: the table prints it as null.
UNOBSERVED = -1.0

#: what each layer's metrics should move, where -- the prediction a later
#: change is read against (README.md has the full table).
LAYER_NOTES = {
    "frontend": "moves ingest_updates_per_s on ingest_inline (<=1.5% share: nothing until apply shrinks); not query_mix",
    "partition": "moves ingest_updates_per_s on ingest_process (parent-side, serial); not query_mix",
    "pack": "moves ingest_updates_per_s on ingest_process (parent-side time is pure loss); not ingest_inline",
    "backend": "dispatch/drain_wait move ingest_updates_per_s on ingest_process (drain waits for the slower "
    "shard); query_key moves point_query_p50_us and query.point_p99_us on query_mix",
    "shard_apply": "moves ingest_updates_per_s and scan_to_map_p50_ms on ingest_inline and "
    "http_open_loop; not query_mix beyond its write share; null on ingest_process (other process)",
    "core": "host time moves ingest_updates_per_s on ingest_inline; the simulated counts move only with the "
    "model, never with host speed",
    "pipeline": "moves ingest_updates_per_s on ingest_inline (stats/metrics accounting is its self time)",
    "query": "moves query_ops_per_s and the four query latencies on query_mix; not the ingest workloads",
    "cache": "moves point_query_p50_us and query_ops_per_s on query_mix; not ingest",
    "aio": "moves scan_to_map_p50_ms on http_open_loop (latency rises before throughput stops rising: read "
    "it with the fixed 6 scans/s in mind); idle elsewhere",
    "http": "moves point_query_p50_us and aio.admit_p50_ms on http_open_loop; idle elsewhere",
    "fleet": "moves setup_s on http_open_loop",
    "metrics": "may cost every timing at most 3%",
    "bench": "the harness itself: tracing overhead, generator lateness, share of the wall the spans cover",
}


def environment(seed: int) -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setup(workload, host, seeds, seconds: float, smoke: bool, trace_out: Optional[Path] = None):
    """Set up once between ticks of the host-speed reference; returns (state, when it ran)."""
    host.tick(SETUP_TICKS)
    started = time.perf_counter()
    state = workload.setup(seeds, seconds, smoke, trace_out)
    ended = time.perf_counter()
    host.tick(SETUP_TICKS)
    return state, (started, ended)


def run_once(workload, host, seeds, seconds: float, smoke: bool, tracer=None, trace_out: Optional[Path] = None):
    """Set up, measure, check and tear down once; returns (result, when set-up ran, digest).

    The wrappers go in after set-up, so the spans cover the measured window
    only (the server subprocess installs its own at start: ``trace_out``).
    """
    state, setup_span = timed_setup(workload, host, seeds, seconds, smoke, trace_out)
    try:
        if tracer is not None and trace_out is None:
            tracer.install()
        result = workload.measure(state, host, seconds, smoke, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown(state)
    return result, setup_span, state["digest"]


def untraced_run(workload, host, seeds, seconds: float, smoke: bool):
    setups = []
    for _ in range(0 if smoke else SETUP_REPEATS - 1):
        state, setup_span = timed_setup(workload, host, seeds, seconds, smoke)
        setups.append(setup_span)
        workload.teardown(state)
    result, setup_span, digest = run_once(workload, host, seeds, seconds, smoke)
    setups.append(setup_span)
    result.values["setup_s"] = statistics.median(host.scaled(*span) for span in setups)
    result.samples["setup_s"] = len(setups)
    return result, digest


def traced_run(name: str, workload, host, seeds, seconds: float, smoke: bool, out_dir: Path):
    """Half the window untraced, half traced; returns (untraced, traced, layer values, digest)."""
    from benchmarks.e2e.tracing import Tracer, aggregate

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{name}.json"
    server_path = out_dir / f"trace-{name}-server.json"
    untraced, setup_span, digest = run_once(workload, host, seeds, seconds / 2.0, smoke)
    untraced.values["setup_s"] = host.scaled(*setup_span)
    tracer = Tracer()
    in_server = workload.traced_in_server
    traced, _, _ = run_once(workload, host, seeds, seconds / 2.0, smoke, tracer, server_path if in_server else None)
    names, rows = tracer.rows()
    counts = dict(tracer.counts)
    missing = set(tracer.missing_layers)
    if in_server:
        # The server process recorded the program's spans; ours are the client's.
        served = json.loads(server_path.read_text(encoding="utf-8"))
        server_path.unlink()
        offset, remap = len(rows), {}
        for index, served_name in enumerate(served["names"]):
            if served_name not in names:
                names.append(served_name)
            remap[index] = names.index(served_name)
        rows += [[remap[n], s, e, p + offset if p >= 0 else -1, r] for n, s, e, p, r in served["spans"]]
        counts.update(served["counts"])
        missing.update(served["missing_layers"])
        traced.reads.update(served["reads"])
    stats = aggregate(names, rows)
    layers = layer_values(stats, counts, traced, untraced)
    for metric in layers:
        layer = metric.split(".", 1)[0]
        if layer in missing or layer in workload.hidden_layers:
            layers[metric] = UNOBSERVED
    trace_path.write_text(
        json.dumps({"workload": name, "seeds": seeds, "names": names, "spans": rows, "counts": counts,
                    "span_stats": stats, "missing_layers": sorted(missing)}),
        encoding="utf-8",
    )
    return untraced, traced, layers, digest


def layer_values(stats, counts, traced, untraced) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the traced run's spans, counts and reads.

    Span times and counts are per pass (an ingest workload repeats one
    identical pass, so its counts are exact for a seed however many passes
    fit the window); the program's own counters are read after pass 1.
    """
    counts = {name: value / traced.passes for name, value in counts.items()}

    def span(name: str, field: str = "outer_s") -> float:
        return stats.get(name, {}).get(field, 0.0) / traced.passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    reads = traced.reads
    applied = counts.get("shard_apply.updates", 0)
    program_self = sum(
        entry["timed_self_s"] for name, entry in stats.items() if not name.startswith(("bench.", "http.client"))
    )
    values = {
        "frontend.busy_s": span("frontend.raycast"),
        "frontend.rays": counts.get("frontend.rays", 0),
        "frontend.visits": counts.get("frontend.visits", 0),
        "frontend.updates_out": counts.get("frontend.updates_out", 0),
        "frontend.useful_ratio": ratio(counts.get("frontend.updates_out", 0), counts.get("frontend.visits", 0)),
        "partition.busy_s": span("partition.keys"),
        "partition.keys": counts.get("partition.keys", 0),
        "pack.busy_s": span("pack.batch"),
        "pack.bytes": counts.get("pack.bytes", 0),
        "backend.dispatch_s": span("backend.dispatch"),
        "backend.drain_wait_s": span("backend.drain_wait"),
        "backend.batches": counts.get("backend.batches", 0),
        "backend.query_key_s": span("backend.query_key"),
        "backend.query_key_calls": span("backend.query_key", "calls"),
        "backend.export_s": span("backend.export"),
        "shard_apply.busy_s": span("shard_apply.message"),
        "shard_apply.updates": applied,
        "shard_apply.us_per_update": 1e6 * ratio(span("shard_apply.message"), applied),
        "shard_apply.unpack_s": span("shard_apply.message", "self_s"),
        "core.busy_s": span("core.apply") + span("core.query"),
        "core.host_us_per_update": 1e6 * ratio(span("core.apply"), applied),
        "pipeline.flush_s": span("pipeline.flush"),
        "pipeline.self_s": span("pipeline.flush", "self_s"),
        "cache.get_s": span("cache.get", "total_s"),
        "query.point_p99_us": traced.values["point_query_p99_us"],
        "aio.submit_s": span("aio.submit"),
        "aio.admit_p50_ms": traced.values["admit_p50_ms"],
        "aio.admit_p99_ms": traced.values["admit_p99_ms"],
        "aio.scan_to_map_p95_ms": traced.values["scan_to_map_p95_ms"],
        "aio.scan_to_map_max_ms": traced.values["scan_to_map_max_ms"],
        "http.parse_s": span("http.parse_body") + span("http.parse_scan"),
        "http.bytes_in": counts.get("http.bytes_in", 0),
        "http.client_rtt_p50_ms": traced.values.get("client_rtt_p50_ms", 0.0),
        "fleet.lease_s": span("fleet.lease"),
        "metrics.observe_s": span("metrics.observe"),
        "bench.trace_overhead_share": traced.unit_cost_s / untraced.unit_cost_s - 1.0,
        "bench.loadgen_late_p99_ms": traced.values.get("loadgen_late_p99_ms", 0.0),
        "bench.layer_sum_share": ratio(program_self, traced.timed_wall_s),
        "bench.passes": traced.passes,
    }
    for kind in ("point", "batch", "raycast", "bbox"):
        values[f"query.{kind}_s"] = span(f"query.{kind}")
        values[f"query.{kind}_calls"] = span(f"query.{kind}", "outer_calls")
    for name in (
        "core.modelled_cycles", "core.sram_reads", "core.sram_writes", "core.nodes_stored",
        "core.prune_reuse_fraction", "cache.hit_ratio", "cache.bbox_hit_ratio", "cache.stale_hits",
        "cache.evictions", "aio.admission_wait_s", "aio.queue_high_water", "aio.rejects", "aio.shed",
        "http.requests", "fleet.active_leases", "fleet.attached_shards", "metrics.records",
    ):
        values[name] = reads.get(name, 0)
    return values


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, extra in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {unit:<10} {extra}")


def list_vocabulary(bench: dict) -> None:
    from benchmarks.e2e.hostspeed import NOMINAL_TICK_S
    from benchmarks.e2e.tracing import WRAP_POINTS

    print("workloads")
    for workload in bench["workloads"]:
        print(f"  {workload['name']:<16} {workload['why']}")
    print(f"end-to-end metrics (times over the host's slowdown: hostspeed.py, nominal tick {1e3 * NOMINAL_TICK_S:g} ms)")
    for metric in bench["end_to_end"]:
        print(f"  {metric['name']:<28} {metric['unit']:<10} {metric['better']:<7} bound {metric['bound']:.0%}")
    print("per-layer metrics")
    for metric in bench["per_layer"]:
        print(f"  {metric['name']:<28} {metric['unit']:<10} {metric['better']}")
    print("wrap points (span name <- public callable) and what each layer should move")
    for span_name, target, _counts in WRAP_POINTS:
        print(f"  {span_name:<22} {target}")
    for layer, note in LAYER_NOTES.items():
        print(f"  {layer + '.*':<14} {note}")


def main(argv=None) -> int:
    bench_path = REPO / "BENCHMARK.json"
    if not (REPO / "src" / "repro").is_dir() or not bench_path.is_file():
        print(f"error: {REPO} holds no src/repro to benchmark; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    names = [workload["name"] for workload in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, one set-up, one pass (the smoke test)")
    parser.add_argument("--list", action="store_true", help="print workloads, metrics, units and wrap points")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "runs.jsonl", help="file every run is appended to")
    args = parser.parse_args(argv)
    if args.list:
        list_vocabulary(bench)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from benchmarks.e2e.hostspeed import NOMINAL_TICK_S, HostSpeed
    from benchmarks.e2e.inputs import derived_seeds
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = derived_seeds(args.seed)
    env = environment(args.seed)
    host = HostSpeed()
    if args.trace:
        end_to_end, traced, layers, digest = traced_run(
            args.workload, workload, host, seeds, args.seconds, args.smoke, args.out.parent
        )
        halves = (end_to_end, traced)
    else:
        end_to_end, digest = untraced_run(workload, host, seeds, args.seconds, args.smoke)
        halves = (end_to_end,)
    end_to_end.values["peak_rss_mb"] = peak_rss_mb()
    # The run's median tick over nominal: how slow the host was, which the
    # end-to-end times above are already divided by (slice by slice).
    env["host_slowdown"] = round(host.slowdown(host.at[0], host.at[-1]), 4)
    env["host_slowdown_p95"] = round(statistics.quantiles(host.took, n=20)[-1] / NOMINAL_TICK_S, 4)
    if args.trace:
        layers["bench.host_slowdown"] = env["host_slowdown"]

    print(f"workload={args.workload} seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)} "
          + " ".join(f"{key}={value}" for key, value in env.items()) + f" inputs_sha256={digest[:16]}")
    print_table(
        "end-to-end (untraced" + (" half of the window)" if args.trace else ")"),
        [
            (m["name"], end_to_end.values[m["name"]], m["unit"],
             f"n={end_to_end.samples[m['name']]}" if m["name"] in end_to_end.samples else "")
            for m in bench["end_to_end"]
        ]
        + [
            ("voxel_updates", end_to_end.exact["voxel_updates"], "count", "of the stream (exact for a seed)"),
            ("map_mismatch_leaves", end_to_end.mismatch_leaves, "count", "must be 0"),
            ("failed_share", end_to_end.failed / end_to_end.attempted, "share",
             f"{end_to_end.failed} of {end_to_end.attempted}"),
        ],
    )
    if args.trace:
        print_table(
            "per-layer (traced half of the window)",
            [(m["name"], None if layers[m["name"]] == UNOBSERVED else layers[m["name"]], m["unit"], "")
             for m in bench["per_layer"]],
        )
    for half in halves:
        for note in half.notes:
            print(f"note: {note}")

    source, section = (layers, "per_layer") if args.trace else (end_to_end.values, "end_to_end")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in bench[section]}
    failed = sum(half.failed for half in halves)
    attempted = sum(half.attempted for half in halves)
    mismatches = sum(half.mismatch_leaves for half in halves)
    line = {"correct": failed == 0 and mismatches == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a", encoding="utf-8") as handle:
        record = dict(line, workload=args.workload, trace=args.trace, smoke=args.smoke, seconds=args.seconds,
                      env=env, inputs_sha256=digest, exact=end_to_end.exact)
        handle.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
