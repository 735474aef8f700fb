"""The four workloads: set-up, timed loop, oracle check, tear-down.

Every workload has a write side and a read side, so each of them reports
every end-to-end metric of ``BENCHMARK.json`` (README.md says what a metric
means on a workload whose main load is the other side).  The timed loops
touch only the program's public API; correctness is judged against a
sequential software ``OccupancyOcTree`` built from the same inputs.

Every loop runs a tick of :mod:`benchmarks.e2e.hostspeed` between its slices
of work (a pass, a hundred reads, a write), and every time reported is the
measured time over the host's slowdown around it.
"""

from __future__ import annotations

import asyncio
import gc
import math
import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.verification import compare_trees
from repro.octomap import OccupancyOcTree
from repro.octomap.raycast import compute_ray_keys
from repro.octomap.scan_insertion import compute_update_keys
from repro.octomap.serialization import deserialize_tree
from repro.serving import MapSessionManager, ScanRequest, SessionConfig
from repro.serving.http.client import MapServiceClient, ServerError

from benchmarks.e2e import inputs
from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.inputs import QueryOp

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: read operations between two ticks of the host-speed reference: one block
#: of the query mix, which has exact shares of each kind in every hundred.
READ_BLOCK = 100
#: length of the generated list of read operations, which the loops cycle through.
QUERY_CYCLE = 20_000
#: read operations run against the fresh map after every ingest pass.
PROBE_OPS = 500
#: ticks before and after a timed ingest (none can run inside it).
EDGE_TICKS = 4
#: query_mix: one small scan is ingested after this many read operations,
#: drawn in turn from a pool of this many.
WRITE_EVERY = 1000
TRICKLE_POOL = 16
#: http_open_loop: offered load (scans/s over all sessions) and its read phase.
HTTP_SESSIONS = 4
HTTP_RATE_PER_S = 6.0
HTTP_READ_S = 4.5
#: ... reads of each kind against each of the first HTTP_READ_SESSIONS maps
#: (128 is every box of the query mix).
HTTP_READ_SESSIONS = 2
HTTP_READS = (("point", 500), ("batch", 15), ("raycast", 160), ("bbox", 128))
POLL_INTERVAL_S = 0.025
#: ... its ticks of the host-speed reference, this far apart: under load while
#: the server is idle, in the read phase between two requests.
LOAD_TICK_S = 0.2
READ_TICK_S = 0.1


def session_config(backend: str, **overrides) -> SessionConfig:
    return SessionConfig(num_shards=2, backend=backend, batch_size=4, **overrides).with_resolution(
        inputs.RESOLUTION_M
    )


def pin_to_one_core(*other_pids: int):
    """Pin this process (and ``other_pids``) to one CPU; returns the set to restore.

    For request/reply ping-pong between processes (pipe or socket): with the
    two ends on different vCPUs each message wakes a halted vCPU, which on
    this kind of VM costs more than the request and differs from run to run
    (point reads over HTTP: 600 or 1100 us for whole runs at a time).
    Processes started while pinned inherit the pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    for pid in (0, *other_pids):
        os.sched_setaffinity(pid, {min(allowed)})
    return allowed


def unpin(allowed) -> None:
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (the sample itself, never an interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))]


@dataclass
class Result:
    """What one timed run of a workload produced."""

    #: operations attempted / failed (refused, errored, or answered wrongly).
    attempted: int = 0
    failed: int = 0
    #: leaves on which the exported map differs from the reference.
    mismatch_leaves: int = 0
    #: user-visible figures by metric name, and the sample count behind each.
    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    #: counters read from the program's own stats surfaces (per-layer metrics).
    reads: Dict[str, float] = field(default_factory=dict)
    #: counts that must repeat exactly for a seed, whatever the host's speed.
    exact: Dict[str, float] = field(default_factory=dict)
    #: seconds per unit of work, what the tracing overhead compares.
    unit_cost_s: float = 0.0
    #: wall the harness timed, what the layers' self times should sum to.
    timed_wall_s: float = 0.0
    #: identical passes the figures above were pooled over.
    passes: int = 1
    notes: List[str] = field(default_factory=list)


# -- the oracle ----------------------------------------------------------------
class Oracle:
    """The reference: sequential software OctoMap with the accelerator's quantised parameters.

    Beside the tree it keeps a flat ``{voxel key: status}`` view, refreshed
    for the voxels each inserted scan touches, so checking tens of thousands
    of recorded answers costs a dict lookup each, not a 16-level descent.
    """

    def __init__(self, config: SessionConfig, requests: Sequence[ScanRequest] = ()) -> None:
        accelerator = config.accelerator
        self.tolerance = accelerator.fixed_point.scale / 2.0
        self.tree = OccupancyOcTree(
            accelerator.resolution_m,
            tree_depth=accelerator.tree_depth,
            params=accelerator.quantized_params().as_float_params(),
        )
        for request in requests:
            self.tree.insert_point_cloud(request.cloud, request.origin, max_range=request.max_range)
        occupied = self.tree.params.is_occupied
        self.status = {
            key: "occupied" if occupied(log_odds) else "free"
            for key, log_odds in self.tree.occupancy_grid().items()
        }

    def insert(self, request: ScanRequest) -> None:
        free, occupied = compute_update_keys(self.tree, request.cloud, request.origin, request.max_range)
        self.tree.insert_point_cloud(request.cloud, request.origin, max_range=request.max_range)
        for key in free | occupied:
            self.status[key.as_tuple()] = self.tree.classify(key)

    def map_mismatches(self, exported: OccupancyOcTree) -> int:
        """Leaves on which an exported map differs from the reference."""
        self.tree.prune()
        report = compare_trees(self.tree, exported, self.tolerance)
        if not report.equivalent:
            print(f"oracle: {report.summary()}", file=sys.stderr)
        return report.structure_mismatches + report.value_mismatches + report.classification_mismatches

    def expected(self, op: QueryOp):
        """What the reference map says a read operation should return."""
        kind, args = op
        converter = self.tree.key_converter
        status = self.status

        def classify(x: float, y: float, z: float) -> str:
            return status.get(converter.coord_to_key(x, y, z).as_tuple(), "unknown")

        if kind == "point":
            return classify(*args)
        if kind == "batch":
            return tuple(classify(*point) for point in args)
        if kind == "raycast":
            origin, direction = args
            end = tuple(o + d * inputs.RAYCAST_RANGE_M for o, d in zip(origin, direction))
            keys = compute_ray_keys(converter, origin, end)
            end_key = converter.coord_to_key(*end)
            if not keys or keys[-1] != end_key:
                keys.append(end_key)
            for visited, key in enumerate(keys, start=1):
                if status.get(key.as_tuple(), "unknown") == "occupied":
                    return (True, visited)
            return (False, len(keys))
        minimum, maximum = args
        resolution = converter.resolution
        counts = {"occupied": 0, "free": 0, "unknown": 0}
        # Box faces lie on the voxel grid, so the centres inside are unambiguous.
        cells = [range(round(low / resolution), round(high / resolution)) for low, high in zip(minimum, maximum)]
        for ix in cells[0]:
            for iy in cells[1]:
                for iz in cells[2]:
                    counts[classify((ix + 0.5) * resolution, (iy + 0.5) * resolution, (iz + 0.5) * resolution)] += 1
        return (counts["occupied"], counts["free"], counts["unknown"])


def run_op(session, op: QueryOp):
    """One read through the session's public API, reduced to what the oracle checks."""
    kind, args = op
    if kind == "point":
        return session.query(*args).status
    if kind == "batch":
        return tuple(response.status for response in session.query_batch(args))
    if kind == "raycast":
        response = session.raycast(args[0], args[1], inputs.RAYCAST_RANGE_M)
        return (response.hit, response.voxels_traversed)
    summary = session.query_bbox(*args)
    return (summary.occupied, summary.free, summary.unknown)


class ReadLog:
    """When each read ran and what it answered, for scaling and checking after the clock stops."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.spans: List[Tuple[str, float, float]] = []
        self.answers: List[Tuple[int, QueryOp, object]] = []

    def timed_block(self, session, ops: Sequence[QueryOp], epoch: int = 0) -> Tuple[float, float]:
        """Run ``ops`` one after another, then one tick of the host-speed reference; returns the reads' span."""
        began = time.perf_counter()
        for op in ops:
            started = time.perf_counter()
            answer = run_op(session, op)
            self.record(op, answer, started, time.perf_counter(), epoch)
        ended = time.perf_counter()
        self.host.tick()
        return began, ended

    def record(self, op: QueryOp, answer, started: float, ended: float, epoch: int = 0) -> None:
        self.spans.append((op[0], started, ended))
        self.answers.append((epoch, op, answer))

    def count(self) -> int:
        return len(self.answers)

    def wrong(self, oracle: Oracle, epoch_scans: Sequence[ScanRequest] = ()) -> int:
        """Answers that disagree with the reference map of their write epoch.

        Leaves ``oracle`` holding every scan of ``epoch_scans``.
        """
        wrong = 0
        current = 0
        for epoch, op, answer in self.answers:
            while current < epoch:
                oracle.insert(epoch_scans[current])
                current += 1
            if oracle.expected(op) != answer:
                wrong += 1
        for scan in epoch_scans[current:]:
            oracle.insert(scan)
        return wrong

    def values(self, result: Result) -> float:
        """Fill in the read latencies on the host-speed scale; returns the scaled seconds all reads took."""
        latency_s: Dict[str, List[float]] = {kind: [] for kind, _ in inputs.QUERY_MIX}
        for kind, started, ended in self.spans:
            latency_s[kind].append(self.host.scaled(started, ended))
        point = latency_s["point"]
        result.values["point_query_p50_us"] = 1e6 * percentile(point, 0.50)
        result.values["point_query_p99_us"] = 1e6 * percentile(point, 0.99)
        result.values["raycast_p50_us"] = 1e6 * percentile(latency_s["raycast"], 0.50)
        result.values["bbox_p50_ms"] = 1e3 * percentile(latency_s["bbox"], 0.50)
        result.samples["point_query_p50_us"] = result.samples["point_query_p99_us"] = len(point)
        result.samples["raycast_p50_us"] = len(latency_s["raycast"])
        result.samples["bbox_p50_ms"] = len(latency_s["bbox"])
        return sum(sum(values) for values in latency_s.values())


Span = Tuple[float, float]


def write_values(result: Result, host: HostSpeed, admits: Sequence[Span], scans: Sequence[Span]) -> None:
    """Admission and scan-to-map latencies from ``(from, until)`` pairs, on the host-speed scale."""
    admit_s = [host.scaled(*pair) for pair in admits]
    scan_to_map_s = [host.scaled(*pair) for pair in scans]
    result.values["admit_p50_ms"] = 1e3 * percentile(admit_s, 0.50)
    result.values["scan_to_map_p50_ms"] = 1e3 * percentile(scan_to_map_s, 0.50)
    result.values["scan_to_map_p95_ms"] = 1e3 * percentile(scan_to_map_s, 0.95)
    result.values["admit_p99_ms"] = 1e3 * percentile(admit_s, 0.99)
    result.values["scan_to_map_max_ms"] = 1e3 * max(scan_to_map_s)
    result.samples["admit_p50_ms"] = len(admit_s)
    result.samples["scan_to_map_p50_ms"] = result.samples["scan_to_map_p95_ms"] = len(scan_to_map_s)


def cold_import() -> None:
    """What a fresh interpreter pays to import the serving stack."""
    subprocess.run(
        [sys.executable, "-c", "import repro.serving.http"],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def program_reads(manager: MapSessionManager) -> Dict[str, float]:
    """Counters the program keeps itself, pooled over the manager's sessions."""
    sessions = [manager.get_session(session_id) for session_id in manager.session_ids()]
    caches = [session.cache.stats for session in sessions]
    lookups = sum(cache.lookups for cache in caches)
    bbox_lookups = sum(cache.bbox_lookups for cache in caches)
    reads = {
        "cache.hit_ratio": sum(cache.hits for cache in caches) / lookups if lookups else 0.0,
        "cache.bbox_hit_ratio": sum(cache.bbox_hits for cache in caches) / bbox_lookups if bbox_lookups else 0.0,
        "cache.stale_hits": sum(cache.stale_hits for cache in caches),
        "cache.evictions": sum(cache.evictions for cache in caches),
        "metrics.records": manager.metrics.total_requests(),
        "core.modelled_cycles": sum(session.stats.modelled_ingest_cycles for session in sessions),
        "fleet.active_leases": sum(fleet.active_leases for fleet in manager.fleets),
        "fleet.attached_shards": sum(fleet.attached_shards for fleet in manager.fleets),
    }
    try:
        accelerators = [worker.accelerator for session in sessions for worker in session.workers]
    except AttributeError:  # the shards live in other processes
        return reads
    # The exact simulated counts of AcceleratorStatistics, summed over shards.
    stats = [accelerator.statistics() for accelerator in accelerators]
    allocations = sum(pe.allocator.allocations for a in accelerators for pe in a.pes)
    reused = sum(pe.allocator.reused_allocations for a in accelerators for pe in a.pes)
    reads.update({
        "core.sram_reads": sum(s.sram_reads for s in stats),
        "core.sram_writes": sum(s.sram_writes for s in stats),
        "core.nodes_stored": sum(s.nodes_stored for s in stats),
        "core.prune_reuse_fraction": reused / allocations if allocations else 0.0,
    })
    return reads


# -- ingest_inline / ingest_process ------------------------------------------
class IngestWorkload:
    """Closed loop, one thread: submit the whole stream, ``flush_all``, repeat."""

    #: True when the program runs in a subprocess that records its own spans.
    traced_in_server = False

    def __init__(self, backend: str) -> None:
        self.backend = backend
        #: layers that run in the shard worker processes, where no span reaches.
        self.hidden_layers = ("shard_apply", "core") if backend == "process" else ()

    def setup(self, seeds: Dict[str, int], seconds: float, smoke: bool, trace_out=None) -> dict:
        cold_import()
        config = session_config(self.backend)
        requests = inputs.corridor_stream(seeds["stream"], scans_per_client=1 if smoke else 2)
        ops = inputs.query_ops(seeds["queries"], QUERY_CYCLE)
        manager = MapSessionManager(config)
        try:
            manager.create_session("map")
            reference = Oracle(config, requests)
        except BaseException:
            manager.shutdown()
            raise
        return {
            "config": config,
            "requests": requests,
            "ops": ops,
            "reference": reference,
            "manager": manager,
            "digest": inputs.digest(requests, ops),
        }

    def teardown(self, state: dict) -> None:
        state["manager"].shutdown()

    def measure(self, state: dict, host: HostSpeed, seconds: float, smoke: bool, tracer=None) -> Result:
        result = Result()
        config, requests, ops = state["config"], state["requests"], state["ops"]
        probe_ops = PROBE_OPS // 5 if smoke else PROBE_OPS
        reads = ReadLog(host)
        passes: List[Tuple[float, float]] = []
        admits: List[Tuple[float, float]] = []
        scans: List[Tuple[float, float]] = []
        updates = cycles = 0
        started = time.perf_counter()
        manager = state["manager"]
        while True:
            session = manager.get_session("map")
            if tracer is not None:
                tracer.request_id = len(passes)
            gc.collect()
            submitted: Dict[int, float] = {}
            host.tick(EDGE_TICKS)
            pass_started = time.perf_counter()
            with tracer.span("bench.pass") if tracer is not None else nullcontext():
                for request in requests:
                    before = time.perf_counter()
                    receipt = manager.submit(request)
                    submitted[receipt.request_id] = before
                    admits.append((before, time.perf_counter()))
                while session.pending_requests():
                    report = session.flush()
                    done = time.perf_counter()
                    scans.extend((submitted[rid], done) for rid in report.request_ids)
            passes.append((pass_started, time.perf_counter()))
            host.tick(EDGE_TICKS)
            # Off the clock: the oracle (pass 1; later passes repeat it) and the
            # read probe against the fresh map.
            with tracer.span("bench.untimed") if tracer is not None else nullcontext():
                if len(passes) == 1:
                    updates = session.stats.voxel_updates
                    cycles = session.stats.modelled_ingest_cycles
                    result.mismatch_leaves = state["reference"].map_mismatches(session.export_octree())
                # Every pass probes the next slice of the read operations: the
                # maps are identical, so the pooled sample is one long probe.
                first = (len(passes) - 1) * probe_ops % len(ops)
                # Reads over a pipe are request/reply ping-pong: one CPU.
                workers = [child.pid for child in multiprocessing.active_children()]
                pinned = pin_to_one_core(*workers) if workers else None
                try:
                    for block in range(first, first + probe_ops, READ_BLOCK):
                        reads.timed_block(session, ops[block : block + READ_BLOCK])
                finally:
                    unpin(pinned)
                if len(passes) == 1:
                    result.reads = program_reads(manager)
            enough = len(passes) >= (1 if smoke else 3)
            if enough and time.perf_counter() - started >= seconds:
                break
            manager.shutdown()
            manager = state["manager"] = MapSessionManager(config)
            manager.create_session("map")

        pass_wall = percentile([host.scaled(*slice_) for slice_ in passes], 0.50)
        result.attempted = len(passes) * len(requests) + reads.count()
        result.failed = reads.wrong(state["reference"]) + (len(passes) if result.mismatch_leaves else 0)
        result.values["ingest_updates_per_s"] = updates / pass_wall
        result.values["modelled_cycles_per_update"] = cycles / updates
        result.values["query_ops_per_s"] = reads.count() / reads.values(result)
        result.samples["ingest_updates_per_s"] = len(passes)
        result.samples["query_ops_per_s"] = reads.count()
        result.exact = {
            "voxel_updates": updates,
            "modelled_cycles_per_update": cycles / updates,
            **{name: value for name, value in result.reads.items() if name.startswith("core.")},
        }
        write_values(result, host, admits, scans)
        result.unit_cost_s = pass_wall
        result.timed_wall_s = sum(ended - began for began, ended in passes)
        result.passes = len(passes)
        return result


# -- query_mix -----------------------------------------------------------------
class QueryMixWorkload:
    """Closed loop, one thread: a planner's read mix with a trickle of writes."""

    traced_in_server = False
    hidden_layers = ()

    def setup(self, seeds: Dict[str, int], seconds: float, smoke: bool, trace_out=None) -> dict:
        cold_import()
        config = session_config("inline")
        requests = inputs.corridor_stream(seeds["stream"], scans_per_client=1 if smoke else 2)
        trickle = inputs.small_scan_stream(seeds["trickle"], ["map"], TRICKLE_POOL)
        ops = inputs.query_ops(seeds["queries"], QUERY_CYCLE)
        manager = MapSessionManager(config)
        try:
            session = manager.create_session("map")
            for request in requests:
                manager.submit(request)
            session.flush_all()
            reference = Oracle(config, requests)
        except BaseException:
            manager.shutdown()
            raise
        return {
            "config": config,
            "requests": requests,
            "trickle": trickle,
            "ops": ops,
            "reference": reference,
            "manager": manager,
            "digest": inputs.digest(requests + trickle, ops),
        }

    def teardown(self, state: dict) -> None:
        state["manager"].shutdown()

    def measure(self, state: dict, host: HostSpeed, seconds: float, smoke: bool, tracer=None) -> Result:
        result = Result()
        manager, ops, trickle = state["manager"], state["ops"], state["trickle"]
        session = manager.get_session("map")
        base_updates = session.stats.voxel_updates
        base_cycles = session.stats.modelled_ingest_cycles
        write_every = WRITE_EVERY // 5 if smoke else WRITE_EVERY
        reads = ReadLog(host)
        written: List[ScanRequest] = []
        slices: List[Tuple[float, float]] = []  # read blocks and writes: the timed wall, tick by tick
        admits: List[Tuple[float, float]] = []
        scans: List[Tuple[float, float]] = []
        write_updates: List[int] = []
        gc.collect()
        host.tick(EDGE_TICKS)
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        with tracer.span("bench.pass") if tracer is not None else nullcontext():
            while time.perf_counter() < deadline or not written:
                if tracer is not None:
                    tracer.request_id = index
                first = index % len(ops)
                slices.append(reads.timed_block(session, ops[first : first + READ_BLOCK], epoch=len(written)))
                index += READ_BLOCK
                if index % write_every == 0:
                    scan = trickle[len(written) % len(trickle)]
                    before = time.perf_counter()
                    manager.submit(scan)
                    admits.append((before, time.perf_counter()))
                    reports = session.flush_all()
                    scans.append((before, time.perf_counter()))
                    write_updates.append(sum(report.voxel_updates for report in reports))
                    written.append(scan)
                    host.tick()

        result.reads = program_reads(manager)
        result.attempted = reads.count() + len(written)
        result.failed = reads.wrong(state["reference"], written)
        # state["reference"] now holds every write; compare the final map too.
        with tracer.span("bench.untimed") if tracer is not None else nullcontext():
            result.mismatch_leaves = state["reference"].map_mismatches(session.export_octree())
        result.failed += len(written) if result.mismatch_leaves else 0
        # The wall without the ticks, slice by slice on the host-speed scale.
        scaled_wall = sum(host.scaled(*slice_) for slice_ in slices + scans)
        result.values["query_ops_per_s"] = result.attempted / scaled_wall
        # The pool's scans differ in size: the write figures take whole turns
        # through the pool, so each scan counts equally often.
        whole = len(scans) - len(scans) % len(trickle) or len(scans)
        result.values["ingest_updates_per_s"] = percentile(
            [count / host.scaled(*slice_) for count, slice_ in zip(write_updates, scans[:whole])], 0.50
        )
        # Of the map built in set-up: the number of trickle writes depends on
        # the host's speed, and a simulated count must not.
        result.values["modelled_cycles_per_update"] = base_cycles / base_updates
        result.samples["query_ops_per_s"] = result.attempted
        result.samples["ingest_updates_per_s"] = whole
        result.exact = {"voxel_updates": base_updates, "modelled_cycles_per_update": base_cycles / base_updates}
        write_values(result, host, admits[:whole], scans[:whole])
        reads.values(result)
        result.unit_cost_s = scaled_wall / result.attempted
        result.timed_wall_s = sum(ended - began for began, ended in slices + scans)
        return result


# -- http_open_loop ------------------------------------------------------------
class HttpOpenLoopWorkload:
    """Open loop over HTTP against a server subprocess, then a read phase."""

    traced_in_server = True
    hidden_layers = ()

    def setup(self, seeds: Dict[str, int], seconds: float, smoke: bool, trace_out=None) -> dict:
        config = session_config("thread", fleet_workers=2)
        session_ids = [f"tenant-{index}" for index in range(HTTP_SESSIONS)]
        window = max(1.0, seconds - HTTP_READ_S)
        per_session = max(2, round(HTTP_RATE_PER_S * window / len(session_ids)))
        requests = inputs.small_scan_stream(seeds["stream"], session_ids, per_session)
        # Poisson gaps, stretched so the last arrival lands on the window's
        # end: the seed moves the bursts, not the offered rate.
        due_s = inputs.arrival_times(seeds["arrivals"], len(requests), HTTP_RATE_PER_S)
        due_s *= window / due_s[-1]
        ops = inputs.query_ops(seeds["queries"], QUERY_CYCLE)
        # One submit lane keeps each session's scans in stream order.
        references = {
            sid: Oracle(config, [r for r in requests if r.session_id == sid]) for sid in session_ids
        }
        command = [sys.executable, str(HERE / "_server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        state = {
            "config": config,
            "session_ids": session_ids,
            "requests": requests,
            "due_s": due_s,
            "ops": ops,
            "references": references,
            "digest": inputs.digest(requests, due_s, ops),
            "server": None,
            # Generator and server share one CPU (the generator needs ~5% of
            # it); the server inherits the pin.
            "affinity": pin_to_one_core(),
        }
        try:
            # The server exits when its stdin closes, so it cannot outlive us.
            state["server"] = server = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
            )
            line = server.stdout.readline()
            if not line.strip().isdigit():
                raise RuntimeError(f"server did not report a port (got {line!r})")
            state["port"] = int(line)
            client = MapServiceClient("127.0.0.1", state["port"])

            async def create() -> None:
                for session_id in session_ids:
                    await client.create_session(session_id)

            asyncio.run(create())
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: dict) -> None:
        server = state["server"]
        if server is not None:
            if server.poll() is None:
                server.stdin.close()
                try:
                    server.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
            server.stdout.close()
        unpin(state["affinity"])

    def measure(self, state: dict, host: HostSpeed, seconds: float, smoke: bool, tracer=None) -> Result:
        return asyncio.run(self._drive(state, host, smoke, tracer))

    async def _drive(self, state: dict, host: HostSpeed, smoke: bool, tracer) -> Result:
        result = Result()
        client = MapServiceClient("127.0.0.1", state["port"])
        requests, due_s, session_ids = state["requests"], state["due_s"].tolist(), state["session_ids"]
        payloads = [(request.cloud.points.tolist(), list(request.origin)) for request in requests]
        order: Dict[str, List[int]] = {sid: [] for sid in session_ids}
        done_at: Dict[int, float] = {}
        refused: set = set()
        late_s: List[float] = []
        admits: List[Tuple[float, float]] = []
        rtt_s: List[float] = []
        backlog_at_last = [0]
        host.tick(EDGE_TICKS)
        start = time.perf_counter() + 0.1

        async def call(coroutine):
            """One client request: a span at the client, and its round trip."""
            before = time.perf_counter()
            with tracer.span("http.client_request") if tracer is not None else nullcontext():
                answer = await coroutine
            rtt_s.append(time.perf_counter() - before)
            return answer

        async def submit_lane() -> None:
            for index, (request, (points, origin)) in enumerate(zip(requests, payloads)):
                due = start + due_s[index]
                # Latency is timed from ``due``; lateness is the generator's own:
                # how long after it could have sent (due, lane free) it did.
                ready = max(due, time.perf_counter())
                if ready == due:
                    await asyncio.sleep(due - time.perf_counter())
                late_s.append(time.perf_counter() - ready)
                order[request.session_id].append(index)
                try:
                    await call(
                        client.submit_scan(
                            request.session_id, points, origin,
                            max_range=request.max_range, client_id=request.client_id,
                        )
                    )
                    admits.append((due, time.perf_counter()))
                except ServerError as error:
                    print(f"scan {index} refused: {error}", file=sys.stderr)
                    order[request.session_id].remove(index)
                    refused.add(index)
            backlog_at_last[0] = len(requests) - len(refused) - len(done_at)

        async def poll_lane() -> None:
            give_up = start + due_s[-1] + 60.0
            while len(done_at) + len(refused) < len(requests) and time.perf_counter() < give_up:
                began = time.perf_counter()
                stats = await call(client.stats())
                seen = time.perf_counter()
                for block in stats["sessions"]:
                    # One submit lane and FIFO scheduling: the first n scans
                    # sent to a session are the n the server has counted.
                    for index in order[block["session_id"]][: block["ingest"]["scans"]]:
                        done_at.setdefault(index, seen)
                # A tick while the server has nothing to do (it shares this
                # CPU): every scan sent so far is in its map.
                idle = len(done_at) + len(refused) == sum(len(sent) for sent in order.values())
                if idle and seen - host.at[-1] >= LOAD_TICK_S:
                    host.tick()
                await asyncio.sleep(max(0.0, POLL_INTERVAL_S - (time.perf_counter() - began)))

        await asyncio.gather(submit_lane(), poll_lane())
        finished = max(done_at.values(), default=start)
        scans = [(start + due_s[i], done_at[i]) for i in sorted(done_at)]
        lost = len(requests) - len(done_at)

        # Read phase: the planner's operations, one request at a time over
        # HTTP, against the finished maps of the first sessions.
        logs = {session_id: ReadLog(host) for session_id in session_ids[:HTTP_READ_SESSIONS]}
        for session_id, log in logs.items():
            for kind, count in HTTP_READS:
                # Each operation once per map: with repeats, half the boxes would be
                # answered from the cache and the median would sit between the two.
                of_kind = list(dict.fromkeys(op for op in state["ops"] if op[0] == kind))
                for op in of_kind[: max(2, count // 10) if smoke else count]:
                    if time.perf_counter() - host.at[-1] >= READ_TICK_S:
                        host.tick()
                    before = time.perf_counter()
                    answer = await call(_http_op(client, session_id, op))
                    log.record(op, answer, before, time.perf_counter())
        host.tick()

        # Oracle: every session's exported map against its own scans in order.
        stats = await client.stats()
        for session_id in session_ids:
            job = await client.start_export(session_id)
            record = await client.wait_job(job["job_id"], timeout_s=60.0)
            if record["status"] != "done":
                raise RuntimeError(f"export of {session_id} failed: {record}")
            exported = deserialize_tree(await client.job_result(job["job_id"]))
            result.mismatch_leaves += state["references"][session_id].map_mismatches(exported)
        wrong = sum(log.wrong(state["references"][session_id]) for session_id, log in logs.items())
        reads = ReadLog(host)
        for log in logs.values():
            reads.spans += log.spans
            reads.answers += log.answers

        blocks = stats["sessions"]
        updates = sum(block["ingest"]["voxel_updates"] for block in blocks)
        cycles = sum(block["ingest"]["modelled_cycles"] for block in blocks)
        result.attempted = len(requests) + reads.count()
        result.failed = lost + wrong + (len(done_at) if result.mismatch_leaves else 0)
        result.values["ingest_updates_per_s"] = updates / (finished - (start + due_s[0]))
        result.values["modelled_cycles_per_update"] = cycles / updates
        result.values["query_ops_per_s"] = reads.count() / reads.values(result)
        result.samples["ingest_updates_per_s"] = len(done_at)
        result.samples["query_ops_per_s"] = reads.count()
        write_values(result, host, admits, scans)
        result.values["loadgen_late_p99_ms"] = 1e3 * percentile(late_s, 0.99)
        result.values["client_rtt_p50_ms"] = 1e3 * percentile(rtt_s, 0.50)
        # Cycles depend on how the flushers happened to batch, so only the
        # update count is exact here.
        result.exact = {"voxel_updates": updates}
        result.reads = {
            "core.modelled_cycles": cycles,
            "aio.admission_wait_s": sum(block["admission"]["wait_seconds"] for block in blocks),
            "aio.queue_high_water": max(block["admission"]["queue_high_water"] for block in blocks),
            "aio.rejects": sum(block["admission"]["rejects"] for block in blocks),
            "aio.shed": sum(block["admission"]["shed_requests"] for block in blocks),
            "http.requests": len(rtt_s),
        }
        if result.values["loadgen_late_p99_ms"] > 10.0:
            result.notes.append("invalid run: the load generator ran more than 10 ms late at p99")
        if backlog_at_last[0] > max(8, len(requests) // 10):
            result.notes.append(
                f"invalid run: {backlog_at_last[0]} scans still queued at the last arrival (backlog growing)"
            )
        result.unit_cost_s = result.values["scan_to_map_p50_ms"]
        # Load, reads and exports: on the open loop the layers' share of this
        # wall reads as the server's utilisation.
        result.timed_wall_s = time.perf_counter() - start
        return result


async def _http_op(client: MapServiceClient, session_id: str, op: QueryOp):
    kind, args = op
    if kind == "point":
        return (await client.query(session_id, *args))["status"]
    if kind == "batch":
        return tuple(response["status"] for response in await client.query_batch(session_id, args))
    if kind == "raycast":
        response = await client.raycast(session_id, args[0], args[1], inputs.RAYCAST_RANGE_M)
        return (response["hit"], response["voxels_traversed"])
    summary = await client.query_bbox(session_id, *args)
    return (summary["occupied"], summary["free"], summary["unknown"])


WORKLOADS = {
    "ingest_inline": IngestWorkload("inline"),
    "ingest_process": IngestWorkload("process"),
    "query_mix": QueryMixWorkload(),
    "http_open_loop": HttpOpenLoopWorkload(),
}
