"""Service-level experiments the end-to-end benchmark does not cover.

The tracked serving numbers come from ``python3 benchmarks/e2e/run.py``
(four workloads, per-layer attribution; see ``BENCHMARK.json``).  This driver
keeps the three sweeps that benchmark leaves out:

* ``service_scaling`` -- shard-count sweep over one multi-client stream,
  reported in *modelled* hardware cycles (deterministic);
* ``kill_recovery`` -- socket-backend worker kill, recovery latency against
  the snapshot cadence, re-verifying leaf-for-leaf map equality per row;
* ``session_scaling`` -- open-loop session-count sweep on one shared fleet
  (admission and ingest latency at 25-200 tenants).

Each returns an :class:`ExperimentResult` whose ``rendered`` field is a
ready-to-print ASCII table; ``python -m repro.analysis.service [NAME ...]``
runs the named ones (all three by default) and :func:`write_benchmark_json`
emits the machine-readable ``BENCH_serving.json`` CI archives.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import ExperimentResult
from repro.analysis.tables import render_table
from repro.datasets.streams import (
    ClientSpec,
    generate_client_scans,
    generate_interleaved_stream,
    poisson_arrival_times,
)

# NOTE: repro.serving is imported lazily inside the drivers.  The serving
# stats layer renders through repro.analysis.tables, so a module-level import
# here would close an import cycle through the two packages' __init__ files.

__all__ = [
    "DEFAULT_SERVICE_CLIENTS",
    "kill_recovery_experiment",
    "main",
    "run_service_workload",
    "service_scaling_experiment",
    "session_scaling_experiment",
    "write_benchmark_json",
]


DEFAULT_SERVICE_CLIENTS: Tuple[ClientSpec, ...] = (
    ClientSpec(client_id="drone-a", session_id="corridor-map", scene="corridor", num_scans=2),
    ClientSpec(client_id="drone-b", session_id="corridor-map", scene="corridor", num_scans=2),
    ClientSpec(client_id="rover", session_id="campus-map", scene="campus", num_scans=2),
)
"""A small three-client / two-session workload used by the default sweep."""


_QUERY_PATTERN: Tuple[Tuple[float, float, float], ...] = (
    (1.0, 0.0, 0.0),
    (0.0, 1.2, 0.2),
    (2.0, -0.8, 0.4),
    (-1.5, 0.5, 0.0),
)


def run_service_workload(
    clients: Sequence[ClientSpec] = DEFAULT_SERVICE_CLIENTS,
    num_shards: int = 2,
    batch_size: int = 4,
    resolution_m: float = 0.2,
    seed: int = 0,
    query_rounds: int = 3,
):
    """Drive one configuration on the inline backend; return the manager (stats inside)."""
    from repro.serving.manager import MapSessionManager
    from repro.serving.session import SessionConfig
    from repro.serving.types import ScanRequest

    config = SessionConfig(num_shards=num_shards, batch_size=batch_size).with_resolution(
        resolution_m
    )
    manager = MapSessionManager(default_config=config)
    for event in generate_interleaved_stream(clients, seed=seed):
        manager.submit(
            ScanRequest.from_scan_node(
                event.session_id,
                event.scan,
                max_range=event.max_range_m,
                client_id=event.client_id,
            )
        )
    manager.flush_all()
    for _ in range(query_rounds):
        for session_id in manager.session_ids():
            for point in _QUERY_PATTERN:
                manager.query(session_id, *point)
    return manager


def service_scaling_experiment(
    clients: Sequence[ClientSpec] = DEFAULT_SERVICE_CLIENTS,
    shard_counts: Sequence[int] = (1, 2, 4),
    batch_size: int = 4,
    seed: int = 0,
    clock_hz: Optional[float] = None,
) -> ExperimentResult:
    """Sweep the shard count over one multi-client workload."""
    headers = (
        "Shards",
        "Sessions",
        "Scans",
        "Updates",
        "Dedup (%)",
        "Modelled ingest (ms)",
        "Updates/s (x1e6)",
        "Cache hit rate (%)",
    )
    rows: List[Tuple[object, ...]] = []
    for num_shards in shard_counts:
        manager = run_service_workload(
            clients, num_shards=num_shards, batch_size=batch_size, seed=seed
        )
        totals = manager.service_stats.totals()
        frequency = clock_hz
        if frequency is None:
            first_session = manager.get_session(manager.session_ids()[0])
            frequency = first_session.config.accelerator.clock_hz
        updates = totals.voxel_updates
        ingest_seconds = totals.modelled_ingest_cycles / frequency
        rows.append(
            (
                num_shards,
                len(manager.service_stats),
                totals.scans_ingested,
                updates,
                100.0 * totals.dedup_fraction,
                1e3 * ingest_seconds,
                (updates / ingest_seconds) / 1e6 if ingest_seconds > 0 else 0.0,
                100.0 * totals.cache.hit_rate,
            )
        )
    result = ExperimentResult(
        experiment_id="service_scaling",
        title="Serving layer: shard-count sweep (multi-client stream)",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Modelled ingest time is the sum over batches of the slowest shard's "
        "critical path: more shards shorten it until the spatial skew of the "
        "workload caps the achievable parallelism, exactly like the PE-count "
        "ablation inside one accelerator."
    )
    return result


def kill_recovery_experiment(
    num_shards: int = 2,
    num_rounds: int = 12,
    updates_per_batch: int = 48,
    kill_round: int = 8,
    snapshot_cadences: Sequence[int] = (1, 4, 8),
    seed: int = 0,
) -> ExperimentResult:
    """Price a worker kill on the socket backend: detection to recovered.

    Drives a fixed per-shard update stream, abruptly kills the worker
    serving shard 0 at a fixed round, and lets the backend's live failover
    (snapshot rehydration + replay-tail replay + in-flight re-send) carry
    the session through.  The sweep dimension is the snapshot cadence: the
    replay tail -- and with it the recovery stall -- is bounded by how many
    batches can accumulate between snapshots, so the "Recovery wall" column
    falls as the cadence tightens while "Snapshots" (the steady-state cost)
    rises.  Every row also re-checks the headline invariant: the recovered
    map must be leaf-for-leaf identical to a fault-free inline run.
    """
    import numpy as np

    from repro.core.address_gen import AddressGenerator
    from repro.core.config import DEFAULT_CONFIG
    from repro.core.verification import compare_trees
    from repro.octomap.merge import merge_trees
    from repro.serving import ShardUpdateBatch, make_backend

    config = DEFAULT_CONFIG.with_resolution(0.2)
    converter = AddressGenerator(
        config.resolution_m, config.tree_depth, config.num_pes
    ).converter
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(num_rounds):
        batches = []
        for shard in range(num_shards):
            coords = rng.uniform(
                (-5.0, -5.0, -2.0), (5.0, 5.0, 2.0), size=(updates_per_batch, 3)
            )
            occupied = rng.integers(0, 2, size=len(coords))
            batches.append(
                ShardUpdateBatch.from_key_arrays(
                    shard, converter.coords_to_key_array(coords), occupied != 0
                )
            )
        rounds.append(batches)

    reference_backend = make_backend("inline", config, num_shards)
    try:
        for batches in rounds:
            reference_backend.apply_shard_batches(batches)
        reference = merge_trees(reference_backend.export_all())
    finally:
        reference_backend.close()

    headers = (
        "Snapshot cadence",
        "Rounds",
        "Kill at round",
        "Snapshots",
        "Restored generation",
        "Replayed batches",
        "Replayed updates",
        "Recovery wall (ms)",
        "Map equivalent",
    )
    rows: List[Tuple[object, ...]] = []
    for cadence in snapshot_cadences:
        backend = make_backend(
            "socket", config, num_shards, snapshot_every_batches=cadence
        )
        try:
            engine = backend.pool.engine
            for index, batches in enumerate(rounds):
                if index == kill_round:
                    endpoint = engine.channels.worker_id(backend.slot_of(0))
                    for handle in engine.channels.owned_workers:
                        if handle.endpoint == endpoint:
                            handle.kill()
                backend.apply_shard_batches(batches)
            merged = merge_trees(backend.export_all())
            comparison = compare_trees(reference, merged, 0.0)
            recovery = next(r for r in engine.recoveries if r.shard_id == 0)
            rows.append(
                (
                    cadence,
                    num_rounds,
                    kill_round,
                    backend.failover_stats()["snapshots_taken"],
                    recovery.restored_generation,
                    recovery.replayed_batches,
                    recovery.replayed_updates,
                    1e3 * recovery.wall_seconds,
                    "yes" if comparison.equivalent else "NO",
                )
            )
        finally:
            backend.close()

    result = ExperimentResult(
        experiment_id="kill_recovery",
        title="Serving layer: socket-backend worker kill, recovery latency x snapshot cadence",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "One worker is killed abruptly (no drain) while serving shard 0; the "
        "socket backend re-homes the shard onto a standby, rehydrates the "
        "last snapshot, replays the un-snapshotted batch tail and re-sends "
        "the in-flight slice.  'Recovery wall' is kill-detection to "
        "recovered; the replay tail (and therefore the stall) is bounded by "
        "the snapshot cadence, which is the knob this sweep turns.  Every "
        "row re-verifies leaf-for-leaf equivalence against a fault-free "
        "inline run."
    )
    return result


def _rank_percentile(values: Sequence[float], quantile: float) -> float:
    """Latency at the given percentile rank (>= the true percentile)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]


def session_scaling_experiment(
    session_counts: Sequence[int] = (25, 100, 200),
    fleet_workers: int = 4,
    backend: str = "thread",
    scans_per_session: int = 2,
    arrival_rate_per_s: float = 200.0,
    num_shards: int = 2,
    batch_size: int = 4,
    resolution_m: float = 0.25,
    seed: int = 0,
    queue_limit: int = 64,
    beams_azimuth: int = 32,
    beams_elevation: int = 2,
) -> ExperimentResult:
    """Open-loop session-count sweep over one shared backend fleet.

    The multi-tenant question the fleet exists to answer: how many
    *sessions* can W workers serve before admission latency degrades?  Each
    session count N runs the same recipe:

    * every tenant leases its shards from one ``fleet_workers``-slot
      :class:`~repro.serving.fleet.BackendPool` (no per-session workers);
    * arrivals follow an *open-loop* Poisson schedule at
      ``arrival_rate_per_s`` total -- each request fires at its scheduled
      wall-clock offset whether or not the service kept up, so queueing
      delay shows up in the latency columns instead of silently slowing the
      workload down (the coordinated-omission trap of closed-loop drivers);
    * admission latency is measured from the *scheduled* arrival to
      admission-queue acceptance, so it includes both backpressure waits and
      any event-loop lag behind the schedule;
    * ingest latency is the service-side per-flush wall clock (one batched
      pop -> coalesce -> shard-apply cycle), pooled over every session.

    All tenants replay the same prototype scan sequence (generated once),
    which keeps a 200-session sweep cheap without changing what is being
    measured -- fleet contention, not scan content.
    """
    import asyncio
    import threading
    import time

    from repro.serving.aio import AsyncMapService
    from repro.serving.manager import MapSessionManager
    from repro.serving.session import SessionConfig
    from repro.serving.types import ScanRequest

    # A deliberately light scan (few beams, short range): the sweep measures
    # fleet contention under tenant count, not per-scan ingest heft, and the
    # light scan is what lets a 200-session row finish in CI time.
    prototype = ClientSpec(
        client_id="prototype",
        session_id="prototype",
        scene="corridor",
        num_scans=scans_per_session,
        max_range_m=10.0,
    )
    scans = generate_client_scans(
        prototype,
        seed=seed,
        beams_azimuth=beams_azimuth,
        beams_elevation=beams_elevation,
    )

    headers = (
        "Sessions",
        "Fleet workers",
        "Peak threads",
        "Scans",
        "Offered (scans/s)",
        "Sustained (scans/s)",
        "Admit p50 (ms)",
        "Admit p99 (ms)",
        "Ingest p50 (ms)",
        "Ingest p99 (ms)",
    )
    rows: List[Tuple[object, ...]] = []
    for count in session_counts:
        config = SessionConfig(
            num_shards=num_shards,
            batch_size=batch_size,
            backend=backend,
            fleet_workers=fleet_workers,
            admission_queue_limit=queue_limit,
        ).with_resolution(resolution_m)
        manager = MapSessionManager(default_config=config)
        session_ids = [f"tenant-{index:04d}" for index in range(count)]
        # Round-robin: scan 0 for every tenant, then scan 1, ... -- each
        # tenant's own scans keep their order under the sorted schedule.
        requests = [
            ScanRequest.from_scan_node(
                session_id,
                scan,
                max_range=prototype.max_range_m,
                client_id=session_id,
            )
            for scan in scans
            for session_id in session_ids
        ]
        arrivals = poisson_arrival_times(
            len(requests), arrival_rate_per_s, seed=seed + count
        )
        admit_latencies: List[float] = []
        peak_threads = threading.active_count()

        async def drive(manager=manager, session_ids=session_ids,
                        requests=requests, arrivals=arrivals,
                        admit_latencies=admit_latencies) -> Tuple[float, int]:
            async with AsyncMapService(manager) as service:
                for session_id in session_ids:
                    service.get_or_create_session(session_id)
                start = time.perf_counter()

                async def fire(request, arrival_s: float) -> None:
                    delay = start + arrival_s - time.perf_counter()
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    await service.submit(request)
                    admit_latencies.append(time.perf_counter() - (start + arrival_s))

                tasks = [
                    asyncio.ensure_future(fire(request, float(arrival)))
                    for request, arrival in zip(requests, arrivals)
                ]
                await asyncio.gather(*tasks)
                threads = threading.active_count()
                await service.flush_all()
                return time.perf_counter() - start, threads

        try:
            wall, threads = asyncio.run(drive())
            peak_threads = max(peak_threads, threads)
            total_scans = manager.service_stats.totals().scans_ingested
            batch_walls = [
                report.wall_seconds
                for session_id in session_ids
                for report in manager.get_session(session_id).pipeline.reports
            ]
        finally:
            manager.shutdown()
        rows.append(
            (
                count,
                fleet_workers,
                peak_threads,
                total_scans,
                arrival_rate_per_s,
                total_scans / wall if wall > 0.0 else 0.0,
                1e3 * _rank_percentile(admit_latencies, 0.50),
                1e3 * _rank_percentile(admit_latencies, 0.99),
                1e3 * _rank_percentile(batch_walls, 0.50),
                1e3 * _rank_percentile(batch_walls, 0.99),
            )
        )

    result = ExperimentResult(
        experiment_id="session_scaling",
        title=(
            f"Serving layer: open-loop session-count sweep on one shared "
            f"{backend} fleet ({fleet_workers} workers)"
        ),
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Open-loop Poisson arrivals: every request fires at its scheduled "
        "wall-clock offset regardless of service progress, so admission "
        "latency (scheduled arrival -> queue acceptance) absorbs both "
        "backpressure and schedule lag instead of hiding them "
        "(coordinated omission).  Ingest latency is the per-flush wall "
        "clock pooled over all sessions.  'Peak threads' stays O(fleet "
        "workers) as sessions grow: tenants lease slots from one "
        "BackendPool instead of owning workers."
    )
    return result


def write_benchmark_json(results: Sequence[ExperimentResult], path) -> Path:
    """Persist experiments as machine-readable JSON (CI's per-PR artifact)."""
    path = Path(path)
    payload = {
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count() or 1,
        },
        "experiments": [
            {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "headers": list(result.headers),
                "rows": [list(row) for row in result.rows],
                # One self-describing record per row: header -> value, so
                # downstream tooling need not rely on column positions.
                "records": result.records(),
                "notes": result.notes,
            }
            for result in results
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis.service [NAME ...]``: run the sweeps, emit the JSON."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.service",
        description=(
            "Serving-layer sweeps outside the end-to-end benchmark "
            "(python3 benchmarks/e2e/run.py): shard count in modelled "
            "cycles, socket kill recovery, open-loop session scaling."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help=(
            "experiments to run, in order: service_scaling, kill_recovery, "
            "session_scaling (default: all three)"
        ),
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/BENCH_serving.json",
        help=(
            "path of the machine-readable result (default "
            "benchmarks/results/BENCH_serving.json; gitignored -- CI uploads "
            "it as a workflow artifact)"
        ),
    )
    parser.add_argument(
        "--session-counts",
        nargs="+",
        type=int,
        default=[25, 100, 200],
        help="session counts of the fleet sweep (default: 25 100 200)",
    )
    parser.add_argument(
        "--fleet-workers",
        type=int,
        default=4,
        help="fleet slot count W shared by every session in the sweep (default 4)",
    )
    parser.add_argument(
        "--session-gate",
        type=float,
        default=0.0,
        metavar="P99_MS",
        help=(
            "fail (exit 1) if admission p99 in any session-sweep row exceeds "
            "P99_MS milliseconds (0 disables; CI gates the 200-session row)"
        ),
    )
    args = parser.parse_args(argv)

    experiments: Dict[str, Callable[[], ExperimentResult]] = {
        "service_scaling": service_scaling_experiment,
        "kill_recovery": kill_recovery_experiment,
        "session_scaling": lambda: session_scaling_experiment(
            session_counts=tuple(args.session_counts), fleet_workers=args.fleet_workers
        ),
    }
    unknown = [name for name in args.experiments if name not in experiments]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; choose from {', '.join(experiments)}")

    results: Dict[str, ExperimentResult] = {}
    for name in args.experiments or experiments:
        result = results[name] = experiments[name]()
        print(result.rendered)
        print(result.notes)
        print()
    out = write_benchmark_json(list(results.values()), args.out)
    print(f"[machine-readable results saved to {out}]")
    if args.session_gate > 0.0 and "session_scaling" in results:
        worst = max(
            record["Admit p99 (ms)"] for record in results["session_scaling"].records()
        )
        if worst > args.session_gate:
            print(
                f"FAIL: session-sweep admission p99 {worst:.1f} ms exceeds the "
                f"{args.session_gate} ms gate",
                file=sys.stderr,
            )
            return 1
        print(
            f"Session gate OK: worst admission p99 {worst:.1f} ms <= "
            f"{args.session_gate} ms"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI benchmark job
    raise SystemExit(main())
