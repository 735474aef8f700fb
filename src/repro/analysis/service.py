"""Service-level experiments: the serving layer under multi-client load.

The paper's tables characterise one accelerator on one dataset; this driver
characterises the *service* built on top of it: several sessions ingesting an
interleaved multi-client stream, swept over scheduler policies, shard counts,
the pluggable execution backends, and -- since ingestion gained a
double-buffered mode -- over blocking vs pipelined fan-out.  Reported per
configuration:

* dispatched voxel updates and the overlapping-ray de-dup saving,
* modelled hardware ingestion latency (slowest-shard critical path summed
  over batches) and the resulting update throughput,
* host-side wall-clock ingest throughput, backend fan-out share and
  front-end overlap ratio (the quantities the process backend and the
  pipelined double-buffered mode exist to improve),
* query-cache hit rate after a fixed warm-up + repeat query pattern.

Like every other driver it returns an :class:`ExperimentResult` whose
``rendered`` field is a ready-to-print ASCII table;
:func:`write_benchmark_json` additionally emits the machine-readable
``BENCH_serving.json`` that CI archives per PR, and ``python -m
repro.analysis.service`` runs the whole sweep from the command line.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

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
    "DEFAULT_BENCH_CLIENTS",
    "DEFAULT_SERVICE_CLIENTS",
    "backend_scaling_experiment",
    "frontend_scaling_experiment",
    "frontend_vectorized_experiment",
    "http_frontend_experiment",
    "kill_recovery_experiment",
    "main",
    "metrics_overhead_experiment",
    "run_async_service_workload",
    "run_service_workload",
    "service_scaling_experiment",
    "session_scaling_experiment",
    "write_benchmark_json",
]


DEFAULT_SERVICE_CLIENTS: Tuple[ClientSpec, ...] = (
    ClientSpec(client_id="drone-a", session_id="corridor-map", scene="corridor", num_scans=2, priority=2),
    ClientSpec(client_id="drone-b", session_id="corridor-map", scene="corridor", num_scans=2, priority=1),
    ClientSpec(client_id="rover", session_id="campus-map", scene="campus", num_scans=2, priority=0),
)
"""A small three-client / two-session workload used by the default sweep."""


DEFAULT_BENCH_CLIENTS: Tuple[ClientSpec, ...] = (
    ClientSpec(client_id="drone-a", session_id="corridor-map", scene="corridor", num_scans=6, priority=2),
    ClientSpec(client_id="drone-b", session_id="corridor-map", scene="corridor", num_scans=6, priority=1),
)
"""The backend benchmark's default workload: one session, enough scans that
per-shard apply work dominates fan-out overhead (what the process backend is
built for)."""


_QUERY_PATTERN: Tuple[Tuple[float, float, float], ...] = (
    (1.0, 0.0, 0.0),
    (0.0, 1.2, 0.2),
    (2.0, -0.8, 0.4),
    (-1.5, 0.5, 0.0),
)


def run_service_workload(
    clients: Sequence[ClientSpec] = DEFAULT_SERVICE_CLIENTS,
    scheduler_policy: str = "fifo",
    num_shards: int = 2,
    batch_size: int = 4,
    resolution_m: float = 0.2,
    seed: int = 0,
    query_rounds: int = 3,
    backend: str = "inline",
    pipelined: bool = False,
    metrics=None,
    scalar_frontend: bool = False,
):
    """Drive one configuration and return the manager (stats inside).

    Callers that pick a pool ``backend`` own the worker processes/threads;
    call ``manager.shutdown()`` (or use the manager as a context manager)
    once done with the returned object.  ``metrics`` (a
    :class:`~repro.serving.metrics.MetricsStore`, possibly with
    ``enabled=False``) replaces the manager's default store -- the knob the
    instrumentation-overhead experiment sweeps.
    """
    from repro.serving.manager import MapSessionManager
    from repro.serving.session import SessionConfig
    from repro.serving.types import ScanRequest

    config = SessionConfig(
        num_shards=num_shards,
        scheduler_policy=scheduler_policy,
        batch_size=batch_size,
        backend=backend,
        pipelined=pipelined,
        scalar_frontend=scalar_frontend,
    ).with_resolution(resolution_m)
    manager = MapSessionManager(default_config=config, metrics=metrics)
    try:
        for event in generate_interleaved_stream(clients, seed=seed):
            manager.submit(
                ScanRequest.from_scan_node(
                    event.session_id,
                    event.scan,
                    max_range=event.max_range_m,
                    priority=event.priority,
                    client_id=event.client_id,
                )
            )
        manager.flush_all()
        for _ in range(query_rounds):
            for session_id in manager.session_ids():
                for point in _QUERY_PATTERN:
                    manager.query(session_id, *point)
    except BaseException:
        # The caller only owns the worker pool once the manager is returned;
        # a failure while driving the workload must not leak shard processes.
        manager.shutdown()
        raise
    return manager


def run_async_service_workload(
    clients: Sequence[ClientSpec] = DEFAULT_SERVICE_CLIENTS,
    num_shards: int = 2,
    batch_size: int = 4,
    resolution_m: float = 0.2,
    seed: int = 0,
    backend: str = "inline",
    pipelined: bool = False,
    queue_limit: int = 8,
    query_rounds: int = 0,
):
    """Drive one configuration through the asyncio admission front end.

    Every client becomes its own submitter coroutine; the service's flusher
    tasks ingest concurrently off the event loop.  Returns ``(manager,
    admit_latencies)`` where ``admit_latencies`` holds every submit's
    admission latency in seconds (the time :meth:`AsyncMapService.submit`
    held the caller -- including any backpressure wait on a full admission
    queue).  The service is closed before returning, so the manager's
    execution backends are already released; its stats remain readable.
    """
    import asyncio

    from repro.serving.aio import AsyncMapService, submit_interleaved_stream
    from repro.serving.manager import MapSessionManager
    from repro.serving.session import SessionConfig

    config = SessionConfig(
        num_shards=num_shards,
        batch_size=batch_size,
        backend=backend,
        pipelined=pipelined,
    ).with_resolution(resolution_m)
    manager = MapSessionManager(default_config=config)
    events = generate_interleaved_stream(clients, seed=seed)
    admit_latencies: List[float] = []

    async def drive() -> None:
        async with AsyncMapService(manager, queue_limit=queue_limit) as service:
            # Eager creation: process-backend workers fork before executor
            # threads exist (see the repro.serving.aio module docstring).
            for event in events:
                service.get_or_create_session(event.session_id)
            await submit_interleaved_stream(
                service,
                events,
                on_receipt=lambda event, receipt, seconds: admit_latencies.append(seconds),
            )
            await service.flush_all()
            for _ in range(query_rounds):
                for session_id in manager.session_ids():
                    for point in _QUERY_PATTERN:
                        await service.query(session_id, *point)

    asyncio.run(drive())
    return manager, admit_latencies


def frontend_scaling_experiment(
    client_counts: Sequence[int] = (1, 2, 4),
    scans_per_client: int = 2,
    backend: str = "inline",
    num_shards: int = 2,
    batch_size: int = 2,
    seed: int = 0,
    queue_limit: int = 4,
) -> ExperimentResult:
    """Sweep the admission front end (sync vs async) over client counts.

    The dimension the asyncio front end exists for: all clients write *one*
    session, so admission contention is maximal.  Both front ends coalesce
    identical batches.  The synchronous rows drive the blocking front door
    (submit per arrival, flush on the caller at every batch boundary: the
    submitter that trips the boundary is held for the whole ray cast plus
    shard apply); the async rows run one submitter coroutine per client
    against the bounded admission queue with background flusher ingestion.
    "Admit" latency is the time a client was held per request -- the sync
    front end's spikes to a full batch ingest at every boundary (see "Max
    admit"), the async front end's collapses to queue admission (plus
    metered backpressure waits once the queue fills, which the
    waits/rejects columns report).
    """
    import time

    from repro.serving.manager import MapSessionManager
    from repro.serving.session import SessionConfig
    from repro.serving.types import ScanRequest

    headers = (
        "Front end",
        "Clients",
        "Scans",
        "Updates",
        "Mean admit (ms)",
        "Max admit (ms)",
        "Waits",
        "Wait (s)",
        "Rejects",
        "Ingest wall (s)",
        "Updates/s (wall)",
    )
    rows: List[Tuple[object, ...]] = []
    for count in client_counts:
        clients = tuple(
            ClientSpec(
                client_id=f"client-{index}",
                session_id="bench-map",
                scene="corridor",
                num_scans=scans_per_client,
            )
            for index in range(count)
        )

        # --- synchronous front door: admission blocks at batch bounds ---
        # Drive the sync path the way a deployed front door batches: submit
        # per arrival, flush whenever batch_size requests are pending.  The
        # client whose submit trips the batch boundary absorbs the whole
        # flush (ray cast + shard apply) in its admit latency -- the exact
        # head-of-line blocking the async front end exists to remove; the
        # other submits stay queue-only, so the comparison batches apples
        # to apples.
        config = SessionConfig(
            num_shards=num_shards, batch_size=batch_size, backend=backend
        ).with_resolution(0.2)
        manager = MapSessionManager(default_config=config)
        sync_latencies: List[float] = []
        try:
            for event in generate_interleaved_stream(clients, seed=seed):
                request = ScanRequest.from_scan_node(
                    event.session_id,
                    event.scan,
                    max_range=event.max_range_m,
                    client_id=event.client_id,
                )
                started = time.perf_counter()
                manager.submit(request)
                if manager.pending_requests() >= batch_size:
                    manager.flush(request.session_id)
                sync_latencies.append(time.perf_counter() - started)
            manager.flush_all()  # residual tail, not charged to any client
        finally:
            manager.shutdown()
        rows.append(_frontend_row("sync", count, manager, sync_latencies))

        # --- asyncio front end: admission == queueing -------------------
        async_manager, async_latencies = run_async_service_workload(
            clients,
            num_shards=num_shards,
            batch_size=batch_size,
            seed=seed,
            backend=backend,
            queue_limit=queue_limit,
        )
        rows.append(_frontend_row("async", count, async_manager, async_latencies))

    result = ExperimentResult(
        experiment_id="frontend_scaling",
        title="Serving layer: admission front end (sync vs async) x client count",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "All clients write one session.  'Admit' is the per-request latency "
        "the front end held the client.  Both front ends coalesce the same "
        f"batch size ({batch_size}): "
        "the sync front door flushes on the caller whenever batch_size "
        "requests are pending, so the submitter that trips the boundary "
        "absorbs the whole ray cast + shard apply -- head-of-line blocking "
        "visible in 'Max admit'; the asyncio front end admits into a "
        f"bounded per-session queue (depth {queue_limit} here) and ingests "
        "on background flusher tasks, so admission stays flat as clients "
        "are added and backpressure is explicit (waits / rejects) instead "
        "of unbounded queue growth."
    )
    return result


def _frontend_row(
    frontend: str, client_count: int, manager, latencies: Sequence[float]
) -> Tuple[object, ...]:
    """One row of the front-end sweep from a driven manager's stats."""
    stats = list(manager.service_stats)
    updates = manager.service_stats.total_voxel_updates()
    wall = sum(block.ingest_wall_seconds for block in stats)
    return (
        frontend,
        client_count,
        sum(block.scans_ingested for block in stats),
        updates,
        1e3 * (sum(latencies) / len(latencies) if latencies else 0.0),
        1e3 * max(latencies, default=0.0),
        sum(block.admission_waits for block in stats),
        sum(block.admission_wait_seconds for block in stats),
        sum(block.queue_rejects for block in stats),
        wall,
        updates / wall if wall > 0 else 0.0,
    )


def http_frontend_experiment(
    client_counts: Sequence[int] = (1, 2),
    scans_per_client: int = 2,
    num_shards: int = 2,
    batch_size: int = 2,
    seed: int = 0,
    queue_limit: int = 8,
) -> ExperimentResult:
    """Price the network hop: in-process async admission vs HTTP-over-localhost.

    Same workload, same :class:`~repro.serving.aio.AsyncMapService`
    underneath -- the only difference per row pair is whether a submit is an
    awaited coroutine call or a full HTTP request (connection, JSON codec,
    framing, loopback round trip) against :class:`~repro.serving.http.
    server.HttpMapServer`.  The gap between the two "Mean admit" columns is
    therefore the per-request cost of the REST front end, the number a
    deployment weighs against the isolation it buys.  The HTTP client opens
    one connection per request on purpose: that is the honest worst case,
    and what the correctness tests drive.
    """
    import asyncio
    import time

    from repro.serving.aio import AsyncMapService
    from repro.serving.http.client import MapServiceClient
    from repro.serving.http.server import HttpMapServer
    from repro.serving.session import SessionConfig

    headers = (
        "Transport",
        "Clients",
        "Scans",
        "Updates",
        "Mean admit (ms)",
        "p99-ish admit (ms)",
        "Max admit (ms)",
        "Submit wall (s)",
    )
    rows: List[Tuple[object, ...]] = []
    for count in client_counts:
        clients = tuple(
            ClientSpec(
                client_id=f"client-{index}",
                session_id="bench-map",
                scene="corridor",
                num_scans=scans_per_client,
            )
            for index in range(count)
        )

        # --- in-process asyncio front end (no network) -------------------
        manager, latencies = run_async_service_workload(
            clients,
            num_shards=num_shards,
            batch_size=batch_size,
            seed=seed,
            queue_limit=queue_limit,
        )
        rows.append(
            _http_row("in-process", count, manager, latencies, sum(latencies))
        )

        # --- the same submits as HTTP requests over localhost -------------
        config = SessionConfig(
            num_shards=num_shards, batch_size=batch_size
        ).with_resolution(0.2)
        events = generate_interleaved_stream(clients, seed=seed)
        http_latencies: List[float] = []

        async def drive(config=config, events=events, latencies=http_latencies):
            async with AsyncMapService(default_config=config) as service:
                async with HttpMapServer(service, port=0) as server:
                    client = MapServiceClient(*server.address)
                    await client.create_session("bench-map")

                    per_client: dict = {}
                    for event in events:
                        per_client.setdefault(event.client_id, []).append(event)

                    async def run_client(client_events):
                        for event in client_events:
                            cloud = event.scan.world_cloud()
                            origin = event.scan.origin()
                            started = time.perf_counter()
                            await client.submit_scan(
                                "bench-map",
                                cloud.points.tolist(),
                                [float(origin[0]), float(origin[1]), float(origin[2])],
                                max_range=event.max_range_m,
                                client_id=event.client_id,
                            )
                            latencies.append(time.perf_counter() - started)
                            await asyncio.sleep(0)

                    await asyncio.gather(
                        *(run_client(ev) for ev in per_client.values())
                    )
                    await client.flush("bench-map")
                return service.manager

        http_manager = asyncio.run(drive())
        rows.append(
            _http_row("http", count, http_manager, http_latencies, sum(http_latencies))
        )

    result = ExperimentResult(
        experiment_id="http_frontend",
        title="Serving layer: admission latency, in-process async vs HTTP (localhost)",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Identical workload and service; the HTTP rows add one REST request "
        "per submit (new connection, JSON encode/decode, HTTP framing, "
        "loopback TCP).  The admit-latency gap is the per-request price of "
        "the network front end; ingestion itself is unchanged (same batches, "
        "same update streams), so the Updates columns match row pairs."
    )
    return result


def _http_row(
    transport: str,
    client_count: int,
    manager,
    latencies: Sequence[float],
    submit_wall: float,
) -> Tuple[object, ...]:
    """One row of the HTTP-vs-in-process sweep."""
    stats = list(manager.service_stats)
    ordered = sorted(latencies)
    # Small samples: take the latency at the 99th-percentile rank (>= p99).
    p99ish = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] if ordered else 0.0
    return (
        transport,
        client_count,
        sum(block.scans_ingested for block in stats),
        manager.service_stats.total_voxel_updates(),
        1e3 * (sum(latencies) / len(latencies) if latencies else 0.0),
        1e3 * p99ish,
        1e3 * max(latencies, default=0.0),
        submit_wall,
    )


def service_scaling_experiment(
    clients: Sequence[ClientSpec] = DEFAULT_SERVICE_CLIENTS,
    scheduler_policies: Sequence[str] = ("fifo", "priority", "deadline"),
    shard_counts: Sequence[int] = (1, 2, 4),
    batch_size: int = 4,
    seed: int = 0,
    clock_hz: Optional[float] = None,
) -> ExperimentResult:
    """Sweep scheduler policy x shard count over one multi-client workload."""
    headers = (
        "Scheduler",
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
    for policy in scheduler_policies:
        for num_shards in shard_counts:
            manager = run_service_workload(
                clients,
                scheduler_policy=policy,
                num_shards=num_shards,
                batch_size=batch_size,
                seed=seed,
            )
            stats = list(manager.service_stats)
            frequency = clock_hz
            if frequency is None:
                first_session = manager.get_session(manager.session_ids()[0])
                frequency = first_session.config.accelerator.clock_hz
            ingest_cycles = sum(block.modelled_ingest_cycles for block in stats)
            updates = manager.service_stats.total_voxel_updates()
            ingest_seconds = ingest_cycles / frequency
            visits = sum(block.ray_voxels_visited for block in stats)
            removed = sum(block.duplicates_removed for block in stats)
            rows.append(
                (
                    policy,
                    num_shards,
                    len(manager.service_stats),
                    sum(block.scans_ingested for block in stats),
                    updates,
                    100.0 * removed / visits if visits else 0.0,
                    1e3 * ingest_seconds,
                    (updates / ingest_seconds) / 1e6 if ingest_seconds > 0 else 0.0,
                    100.0 * manager.service_stats.overall_hit_rate(),
                )
            )
    result = ExperimentResult(
        experiment_id="service_scaling",
        title="Serving layer: scheduler x shard-count sweep (multi-client stream)",
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


def backend_scaling_experiment(
    clients: Sequence[ClientSpec] = DEFAULT_BENCH_CLIENTS,
    backends: Sequence[str] = ("inline", "thread", "process", "socket"),
    shard_counts: Sequence[int] = (1, 2, 4),
    batch_size: int = 4,
    seed: int = 0,
    modes: Sequence[bool] = (False, True),
) -> ExperimentResult:
    """Sweep execution backend x shard count x ingestion mode (wall clock).

    This is the experiment the pluggable backends and the pipelined
    (double-buffered) ingestion exist for: the modelled hardware cycles are
    identical across backends and modes (same update streams, same
    accelerators), so the interesting columns are host wall-clock throughput
    and how much of the serial ray-casting front end the pipelined mode
    hides behind in-flight applies.  On a multi-core host the pipelined
    process backend overtakes blocking fan-out from ~2 shards (front end and
    apply run on different cores); on a single core the overlap buys nothing
    -- the overlap column still reports the exposure, and ``cpu_count``
    travels with the JSON so CI trends are comparable.
    """
    headers = (
        "Backend",
        "Mode",
        "Shards",
        "Scans",
        "Updates",
        "Ingest wall (s)",
        "Fan-out (s)",
        "Overlap (%)",
        "Updates/s (wall)",
        "Speedup vs inline",
        "Pipeline gain",
        "Utilization (%)",
    )
    measurements: List[dict] = []
    for backend in backends:
        for num_shards in shard_counts:
            for pipelined in modes:
                manager = run_service_workload(
                    clients,
                    num_shards=num_shards,
                    batch_size=batch_size,
                    seed=seed,
                    query_rounds=0,
                    backend=backend,
                    pipelined=pipelined,
                )
                try:
                    stats = list(manager.service_stats)
                    # Sustained ingest only: the per-batch wall clock the
                    # pipeline measured (front end + fan-out), *not* worker
                    # spawn or scan synthesis -- charging per-row setup to the
                    # pool backends would bias the speedup column against
                    # exactly the backends this sweep exists to compare.
                    measurements.append(
                        {
                            "backend": backend,
                            "pipelined": pipelined,
                            "shards": num_shards,
                            "scans": sum(block.scans_ingested for block in stats),
                            "updates": manager.service_stats.total_voxel_updates(),
                            "wall": sum(block.ingest_wall_seconds for block in stats),
                            "fanout": sum(block.fanout_wall_seconds for block in stats),
                            "overlap": (
                                sum(block.overlap_ratio for block in stats) / len(stats)
                                if stats
                                else 0.0
                            ),
                            "utilization": (
                                sum(block.shard_utilization for block in stats) / len(stats)
                                if stats
                                else 0.0
                            ),
                        }
                    )
                finally:
                    manager.shutdown()
    # Baselines are derived after the whole sweep so they are found no matter
    # where (or whether) "inline" / blocking mode appear in the arguments.
    inline_wall = {
        m["shards"]: m["wall"]
        for m in measurements
        if m["backend"] == "inline" and not m["pipelined"]
    }
    blocking_wall = {
        (m["backend"], m["shards"]): m["wall"]
        for m in measurements
        if not m["pipelined"]
    }
    rows: List[Tuple[object, ...]] = []
    for m in measurements:
        baseline = inline_wall.get(m["shards"])
        speedup: object = "n/a"
        if baseline is not None and m["wall"] > 0:
            speedup = baseline / m["wall"]
        blocking = blocking_wall.get((m["backend"], m["shards"]))
        pipeline_gain: object = "n/a"
        if blocking is not None and m["wall"] > 0:
            pipeline_gain = blocking / m["wall"]
        rows.append(
            (
                m["backend"],
                "pipelined" if m["pipelined"] else "blocking",
                m["shards"],
                m["scans"],
                m["updates"],
                m["wall"],
                m["fanout"],
                100.0 * m["overlap"],
                m["updates"] / m["wall"] if m["wall"] > 0 else 0.0,
                speedup,
                pipeline_gain,
                100.0 * m["utilization"],
            )
        )
    result = ExperimentResult(
        experiment_id="backend_scaling",
        title="Serving layer: backend x shard-count x ingestion-mode sweep (wall clock)",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Ingest wall is the pipeline's per-batch wall clock summed over the "
        "run: the shared ray-casting front end (serial, identical across "
        "backends) plus the backend fan-out, excluding worker start-up and "
        "scan synthesis.  'Pipeline gain' compares each row against the same "
        "backend/shard count with blocking fan-out; the pipelined win grows "
        "with per-shard apply work and with available cores "
        f"(this run: {os.cpu_count() or 1}; on a single core the overlap "
        "column reports exposure without a wall-clock win)."
    )
    return result


def metrics_overhead_experiment(
    clients: Sequence[ClientSpec] = DEFAULT_BENCH_CLIENTS,
    num_shards: int = 2,
    batch_size: int = 4,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentResult:
    """Price the metrics pipeline: ingest throughput with instrumentation on vs off.

    Same workload, same inline backend, the only difference between the row
    pair is whether the manager's :class:`~repro.serving.metrics.MetricsStore`
    is enabled (per-request records, histogram observes, windowed rollups) or
    disabled (hooks short-circuit before taking a timestamp).  Each mode runs
    ``repeats`` times and keeps the best wall clock, so scheduler noise does
    not masquerade as instrumentation cost.  The budget the metrics pipeline
    was designed to (fixed-bucket histograms, no raw-sample sorting on the
    hot path) is <3% ingest overhead; the overhead column makes the claim
    checkable per CI run.
    """
    from repro.serving.metrics import MetricsStore

    headers = (
        "Metrics",
        "Scans",
        "Updates",
        "Records",
        "Ingest wall (s)",
        "Updates/s (wall)",
        "Overhead (%)",
    )
    measurements: dict = {}
    for enabled in (False, True):
        best = None
        for _ in range(max(1, repeats)):
            manager = run_service_workload(
                clients,
                num_shards=num_shards,
                batch_size=batch_size,
                seed=seed,
                query_rounds=0,
                metrics=MetricsStore(enabled=enabled),
            )
            try:
                stats = list(manager.service_stats)
                sample = {
                    "scans": sum(block.scans_ingested for block in stats),
                    "updates": manager.service_stats.total_voxel_updates(),
                    "wall": sum(block.ingest_wall_seconds for block in stats),
                    "records": manager.metrics.total_requests(),
                }
            finally:
                manager.shutdown()
            if best is None or sample["wall"] < best["wall"]:
                best = sample
        measurements[enabled] = best
    baseline = measurements[False]["wall"]
    rows: List[Tuple[object, ...]] = []
    for enabled in (False, True):
        m = measurements[enabled]
        overhead: object = "n/a"
        if enabled and baseline > 0:
            overhead = 100.0 * (m["wall"] - baseline) / baseline
        rows.append(
            (
                "on" if enabled else "off",
                m["scans"],
                m["updates"],
                m["records"],
                m["wall"],
                m["updates"] / m["wall"] if m["wall"] > 0 else 0.0,
                overhead,
            )
        )
    result = ExperimentResult(
        experiment_id="metrics_overhead",
        title="Serving layer: metrics-pipeline instrumentation overhead (ingest)",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Identical workload (inline backend, best of "
        f"{max(1, repeats)} runs per mode); the 'on' row pays per-request "
        "record construction, fixed-bucket histogram observes and windowed "
        "rollup upkeep, the 'off' row short-circuits every hook before "
        "taking a timestamp.  Design budget: <3% ingest-throughput overhead."
    )
    return result


def frontend_vectorized_experiment(
    clients: Sequence[ClientSpec] = DEFAULT_BENCH_CLIENTS,
    num_shards: int = 2,
    batch_size: int = 4,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentResult:
    """Price the ray-casting front end: scalar reference vs batched numpy.

    Same workload, same inline backend; the only difference between the row
    pair is ``SessionConfig.scalar_frontend`` -- the per-ray Python DDA vs
    the array traversal of :mod:`repro.octomap.raycast_vec`.  Both produce
    identical update streams (pinned by the equivalence property suite), so
    the Updates columns match and the front-end wall gap is purely the
    traversal kernel.  Each mode runs ``repeats`` times keeping the best
    front-end wall clock; the "Speedup vs scalar" cell of the vectorized row
    is the *front-end wall* ratio (scalar frontend seconds / vectorized
    frontend seconds) -- the figure CI gates on (``--frontend-gate``, >= 2x
    required, ~10x expected), so a silent fallback to the scalar path cannot
    land green.  End-to-end ingest wall is reported alongside for context:
    on the inline backend the modelled accelerator apply dominates it, so
    the end-to-end ratio understates the front-end win by design.
    """
    headers = (
        "Front end",
        "Scans",
        "Updates",
        "Frontend wall (s)",
        "Ingest wall (s)",
        "Frontend share (%)",
        "Updates/s (wall)",
        "Speedup vs scalar",
    )
    measurements: dict = {}
    for scalar in (True, False):
        best = None
        for _ in range(max(1, repeats)):
            manager = run_service_workload(
                clients,
                num_shards=num_shards,
                batch_size=batch_size,
                seed=seed,
                query_rounds=0,
                scalar_frontend=scalar,
            )
            try:
                stats = list(manager.service_stats)
                sample = {
                    "scans": sum(block.scans_ingested for block in stats),
                    "updates": manager.service_stats.total_voxel_updates(),
                    "wall": sum(block.ingest_wall_seconds for block in stats),
                    "frontend": sum(block.frontend_wall_seconds for block in stats),
                }
            finally:
                manager.shutdown()
            if best is None or sample["frontend"] < best["frontend"]:
                best = sample
        measurements[scalar] = best
    baseline = measurements[True]["frontend"]
    rows: List[Tuple[object, ...]] = []
    for scalar in (True, False):
        m = measurements[scalar]
        speedup: object = 1.0 if scalar else "n/a"
        if not scalar and m["frontend"] > 0:
            speedup = baseline / m["frontend"]
        rows.append(
            (
                "scalar" if scalar else "vectorized",
                m["scans"],
                m["updates"],
                m["frontend"],
                m["wall"],
                100.0 * m["frontend"] / m["wall"] if m["wall"] > 0 else 0.0,
                m["updates"] / m["wall"] if m["wall"] > 0 else 0.0,
                speedup,
            )
        )
    result = ExperimentResult(
        experiment_id="frontend_vectorized",
        title="Serving layer: ingestion front end, scalar reference vs vectorized",
        headers=headers,
        rows=rows,
    )
    result.rendered = render_table(result.title, headers, rows)
    result.notes = (
        "Identical workload (inline backend, best of "
        f"{max(1, repeats)} runs per mode) and identical update streams; the "
        "scalar row steps every ray one voxel at a time in Python, the "
        "vectorized row traverses all rays of a flush through one batched "
        "numpy DDA and de-duplicates with np.unique.  'Speedup vs scalar' is "
        "the front-end wall ratio (the traversal kernel itself); end-to-end "
        "ingest wall is shown for context but is dominated by the modelled "
        "accelerator apply on the inline backend.  CI fails the perf-gate "
        "job when the front-end speedup drops below the --frontend-gate "
        "floor (2x), guarding against a silent fallback to the scalar path."
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
            entries = []
            for (x, y, z), flag in zip(coords, occupied):
                key = converter.coord_to_key(x, y, z)
                entries.append((key.x, key.y, key.z, bool(flag)))
            batches.append(ShardUpdateBatch(shard_id=shard, entries=tuple(entries)))
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
            async with AsyncMapService(manager, queue_limit=queue_limit) as service:
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
            stats = list(manager.service_stats)
            total_scans = sum(block.scans_ingested for block in stats)
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


def write_benchmark_json(
    result: ExperimentResult, path, extra_results: Sequence[ExperimentResult] = ()
) -> Path:
    """Persist experiments as machine-readable JSON (CI's per-PR artifact).

    The primary ``result`` keeps the established top-level schema (id /
    headers / rows / records / notes); ``extra_results`` travel under an
    ``"experiments"`` list that also includes the primary, so downstream
    tooling can either keep reading the old fields or iterate the list.
    """
    path = Path(path)

    def as_payload(experiment: ExperimentResult) -> dict:
        return {
            "experiment_id": experiment.experiment_id,
            "title": experiment.title,
            "headers": list(experiment.headers),
            "rows": [list(row) for row in experiment.rows],
            # One self-describing record per row: header -> value, so
            # downstream tooling can read each measurement's backend /
            # pipeline / front-end flags without relying on column positions.
            "records": experiment.records(),
            "notes": experiment.notes,
        }

    payload = as_payload(result)
    payload["environment"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }
    if extra_results:
        payload["experiments"] = [as_payload(result)] + [
            as_payload(extra) for extra in extra_results
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis.service``: run the sweeps, emit the JSON."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.service",
        description="Serving-layer sweeps: scheduler x shards and backend x shards.",
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
        "--backends",
        nargs="+",
        default=["inline", "thread", "process", "socket"],
        help="execution backends to sweep (default: all four)",
    )
    parser.add_argument(
        "--shards",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        help="shard counts to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--scans",
        type=int,
        default=6,
        help="scans per benchmark client (default 6)",
    )
    parser.add_argument(
        "--pipeline",
        choices=["both", "off", "on"],
        default="both",
        help=(
            "ingestion-mode dimension of the sweep: 'both' compares blocking "
            "and pipelined (double-buffered) fan-out, 'off'/'on' pin one mode"
        ),
    )
    parser.add_argument(
        "--skip-metrics-sweep",
        action="store_true",
        help="skip the metrics-instrumentation overhead comparison",
    )
    parser.add_argument(
        "--skip-scheduler-sweep",
        action="store_true",
        help="only run the backend sweep (faster)",
    )
    parser.add_argument(
        "--skip-frontend-sweep",
        action="store_true",
        help="skip the sync-vs-async admission front-end sweep",
    )
    parser.add_argument(
        "--skip-http-sweep",
        action="store_true",
        help="skip the in-process-vs-HTTP admission-latency sweep",
    )
    parser.add_argument(
        "--skip-failover-sweep",
        action="store_true",
        help="skip the socket-backend kill-recovery latency sweep",
    )
    parser.add_argument(
        "--skip-session-sweep",
        action="store_true",
        help="skip the open-loop session-count sweep on the shared fleet",
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
    parser.add_argument(
        "--clients",
        nargs="+",
        type=int,
        default=[1, 2, 4],
        help="concurrent-client counts of the front-end sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--frontend-gate",
        type=float,
        default=0.0,
        metavar="FACTOR",
        help=(
            "fail (exit 1) unless the vectorized front end's wall clock beats "
            "the scalar front end's by at least FACTOR x in the "
            "frontend_vectorized row (0 disables; CI gates at 2.0)"
        ),
    )
    args = parser.parse_args(argv)

    from dataclasses import replace

    clients = tuple(
        replace(client, num_scans=args.scans) for client in DEFAULT_BENCH_CLIENTS
    )
    modes = {"both": (False, True), "off": (False,), "on": (True,)}[args.pipeline]
    backend_result = backend_scaling_experiment(
        clients,
        backends=tuple(args.backends),
        shard_counts=tuple(args.shards),
        modes=modes,
    )
    print(backend_result.rendered)
    print(backend_result.notes)
    extra_results = []
    if not args.skip_frontend_sweep:
        frontend_result = frontend_scaling_experiment(
            client_counts=tuple(args.clients), scans_per_client=max(1, args.scans // 3)
        )
        extra_results.append(frontend_result)
        print()
        print(frontend_result.rendered)
        print(frontend_result.notes)
    if not args.skip_http_sweep:
        http_result = http_frontend_experiment(
            client_counts=(1, 2), scans_per_client=max(1, args.scans // 3)
        )
        extra_results.append(http_result)
        print()
        print(http_result.rendered)
        print(http_result.notes)
    if not args.skip_failover_sweep:
        failover_result = kill_recovery_experiment()
        extra_results.append(failover_result)
        print()
        print(failover_result.rendered)
        print(failover_result.notes)
    session_result = None
    if not args.skip_session_sweep:
        session_result = session_scaling_experiment(
            session_counts=tuple(args.session_counts),
            fleet_workers=args.fleet_workers,
        )
        extra_results.append(session_result)
        print()
        print(session_result.rendered)
        print(session_result.notes)
    if not args.skip_metrics_sweep:
        metrics_result = metrics_overhead_experiment(clients)
        extra_results.append(metrics_result)
        print()
        print(metrics_result.rendered)
        print(metrics_result.notes)
    # Always measured (it is the row CI's perf gate reads): scalar reference
    # front end vs the vectorized default, same workload, same streams.
    vectorized_result = frontend_vectorized_experiment(clients)
    extra_results.append(vectorized_result)
    print()
    print(vectorized_result.rendered)
    print(vectorized_result.notes)
    if not args.skip_scheduler_sweep:
        scheduler_result = service_scaling_experiment()
        print()
        print(scheduler_result.rendered)
    out = write_benchmark_json(backend_result, args.out, extra_results=extra_results)
    print(f"\n[machine-readable results saved to {out}]")
    if args.frontend_gate > 0.0:
        speedup = next(
            record["Speedup vs scalar"]
            for record in vectorized_result.records()
            if record["Front end"] == "vectorized"
        )
        if not isinstance(speedup, (int, float)) or speedup < args.frontend_gate:
            print(
                f"FAIL: vectorized front end speedup {speedup} is below the "
                f"{args.frontend_gate}x gate",
                file=sys.stderr,
            )
            return 1
        print(f"Frontend gate OK: vectorized {speedup:.1f}x >= {args.frontend_gate}x")
    if args.session_gate > 0.0 and session_result is not None:
        worst = max(record["Admit p99 (ms)"] for record in session_result.records())
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
