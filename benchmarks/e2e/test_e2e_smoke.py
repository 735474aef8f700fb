"""Smoke test of the end-to-end benchmark: every workload, tiny, through the one command.

Collected by the tier-1 run.  Timings are never asserted (the workloads run
side by side here); names, exact counts, the span accounting and the
reaping of child processes are.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import run, workloads
from benchmarks.e2e.hostspeed import NOMINAL_TICK_S, HostSpeed
from benchmarks.e2e.inputs import derived_seeds

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def start(workload: str, out: Path, trace: int, seconds: float = 1.0) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--smoke",
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out / f"{workload}-{trace}.jsonl"),
    ]
    # Its own process group, so anything it leaves behind can be found.
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)


def group_is_empty(pgid: int, within_s: float = 5.0) -> bool:
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload traced, plus ingest_inline untraced with the same seed."""
    out = tmp_path_factory.mktemp("e2e")
    started = {(name, 1): start(name, out, trace=1) for name in WORKLOADS}
    started[("ingest_inline", 0)] = start("ingest_inline", out, trace=0)
    finished = {}
    for (name, trace), process in started.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{name} trace={trace} failed:\n{stdout}\n{stderr}"
        assert group_is_empty(process.pid), f"{name} left a child process behind"
        record = json.loads((out / f"{name}-{trace}.jsonl").read_text(encoding="utf-8"))
        finished[(name, trace)] = (stdout, record)
    return finished


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_by_name(runs, workload):
    stdout, record = runs[(workload, 1)]
    printed = {line.split()[0] for line in stdout.splitlines() if line.startswith("  ")}
    for section in ("end_to_end", "per_layer"):
        for metric in BENCH[section]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            assert metric["name"] in printed, f"{metric['name']} not printed on {workload}"
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in BENCH["per_layer"]]
    for metric in BENCH["per_layer"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and isinstance(entry["value"], (int, float))
    assert record["env"]["seed"] == 0 and record["env"]["nproc"] == os.cpu_count()


def test_untraced_run_prints_every_end_to_end_metric(runs):
    stdout, _record = runs[("ingest_inline", 0)]
    result = json.loads(stdout.splitlines()[-1])
    assert list(result["metrics"]) == [metric["name"] for metric in BENCH["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_same_seed_gives_identical_inputs_and_counts(runs):
    _, traced = runs[("ingest_inline", 1)]
    _, untraced = runs[("ingest_inline", 0)]
    assert traced["inputs_sha256"] == untraced["inputs_sha256"]
    assert traced["exact"] == untraced["exact"]
    assert {"voxel_updates", "modelled_cycles_per_update", "core.sram_reads", "core.nodes_stored"} <= set(traced["exact"])
    # The same stream on worker processes models the same cycles.
    _, process = runs[("ingest_process", 1)]
    for name in ("voxel_updates", "modelled_cycles_per_update", "core.modelled_cycles"):
        assert process["exact"][name] == traced["exact"][name]


def test_layers_account_for_the_inline_ingest_wall(runs):
    _, record = runs[("ingest_inline", 1)]
    assert 0.95 <= record["metrics"]["bench.layer_sum_share"]["value"] <= 1.05
    assert record["metrics"]["shard_apply.updates"]["value"] == record["exact"]["voxel_updates"]
    # Worker-side layers are out of reach on the process backend: explicit nulls.
    _, process = runs[("ingest_process", 1)]
    assert process["metrics"]["shard_apply.busy_s"]["value"] == -1.0


def test_sigint_leaves_no_server_behind(tmp_path):
    process = start("http_open_loop", tmp_path, trace=0, seconds=14.0)
    time.sleep(2.5)  # set-up is done and the load is running
    assert process.poll() is None
    process.send_signal(signal.SIGINT)
    process.communicate(timeout=30)
    assert process.returncode != 0
    assert group_is_empty(process.pid), "the server subprocess outlived an interrupted run"


def test_exception_leaves_no_child_behind(monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("injected")

    servers = []
    popen = subprocess.Popen
    monkeypatch.setattr(workloads.subprocess, "Popen", lambda *a, **k: servers.append(popen(*a, **k)) or servers[-1])
    monkeypatch.setattr(workloads.MapServiceClient, "create_session", boom)
    with pytest.raises(RuntimeError, match="injected"):
        workloads.WORKLOADS["http_open_loop"].setup(derived_seeds(0), 1.0, True)
    assert len(servers) == 1 and servers[0].poll() is not None

    monkeypatch.setattr(workloads.Oracle, "map_mismatches", boom)
    with pytest.raises(RuntimeError, match="injected"):
        run.run_once(workloads.WORKLOADS["ingest_process"], HostSpeed(), derived_seeds(0), 1.0, True)
    assert multiprocessing.active_children() == []


def test_a_slice_is_scaled_by_the_ticks_around_it():
    host = HostSpeed()
    # One tick a tenth of a second; the host runs at half speed from t=2 to t=3.
    host.at = [step / 10 for step in range(50)]
    host.took = [NOMINAL_TICK_S * (2.0 if 2.0 <= at <= 3.0 else 1.0) for at in host.at]
    assert host.slowdown(2.4, 2.6) == pytest.approx(2.0)
    assert host.scaled(2.4, 2.6) == pytest.approx(0.1)
    assert host.scaled(0.5, 0.7) == pytest.approx(0.2)
    # No tick within the window of a slice far from all of them: its two neighbours.
    assert host.slowdown(9.0, 9.5) == pytest.approx(1.0)
    host.tick()
    assert len(host.at) == 51 and host.took[-1] > 0


def test_a_vanished_wrap_point_reads_null_not_an_error(monkeypatch, capsys):
    from benchmarks.e2e import tracing

    gone = ("cache.get", "repro.serving.cache:GenerationLRUCache.no_such_method", None)
    monkeypatch.setattr(tracing, "WRAP_POINTS", tracing.WRAP_POINTS + (gone,))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing_layers == {"cache"}
    assert "no_such_method" in capsys.readouterr().err
