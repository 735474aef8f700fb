"""The service-level experiment driver."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.service import (
    main,
    run_service_workload,
    service_scaling_experiment,
    session_scaling_experiment,
    write_benchmark_json,
)
from repro.datasets.streams import ClientSpec

SRC = str(Path(repro.__file__).resolve().parents[1])

TINY_CLIENTS = (
    ClientSpec(client_id="a", session_id="s1", scene="corridor", num_scans=1),
    ClientSpec(client_id="b", session_id="s2", scene="campus", num_scans=1),
)


def test_run_service_workload_returns_populated_manager():
    manager = run_service_workload(TINY_CLIENTS, num_shards=2, query_rounds=2)
    assert manager.session_ids() == ("s1", "s2")
    totals = manager.service_stats.totals()
    assert totals.voxel_updates > 0
    assert totals.point_queries > 0
    assert totals.cache.hit_rate > 0.0


def test_service_scaling_experiment_table_shape():
    result = service_scaling_experiment(TINY_CLIENTS, shard_counts=(1, 2))
    assert result.experiment_id == "service_scaling"
    assert [row[0] for row in result.rows] == [1, 2]
    assert all(len(row) == len(result.headers) for row in result.rows)
    assert "Serving layer" in result.rendered
    # Every shard count dispatched the same updates (equivalence!) ...
    records = result.records()
    assert len({record["Updates"] for record in records}) == 1
    # ... and sharding never slows the modelled ingest down.
    one, two = (record["Modelled ingest (ms)"] for record in records)
    assert two <= one * 1.001, (one, two)


def test_write_benchmark_json_round_trips(tmp_path):
    result = service_scaling_experiment(TINY_CLIENTS, shard_counts=(1,))
    path = write_benchmark_json([result], tmp_path / "BENCH_serving.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["environment"]["cpu_count"] >= 1
    (entry,) = payload["experiments"]
    assert entry["experiment_id"] == "service_scaling"
    assert entry["headers"] == list(result.headers)
    assert entry["rows"] == [list(row) for row in result.rows]
    # Each row also travels as a self-describing record, fields by name.
    assert entry["records"] == result.records()
    for record in entry["records"]:
        assert record["Shards"] == 1


def test_write_benchmark_json_carries_extra_experiments(tmp_path):
    first = service_scaling_experiment(TINY_CLIENTS, shard_counts=(1,))
    second = session_scaling_experiment(
        session_counts=(2,), fleet_workers=2, scans_per_session=1, arrival_rate_per_s=500.0
    )
    path = write_benchmark_json([first, second], tmp_path / "BENCH_serving.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    ids = [entry["experiment_id"] for entry in payload["experiments"]]
    assert ids == ["service_scaling", "session_scaling"]
    assert payload["experiments"][1]["records"] == second.records()


def test_service_main_writes_json(tmp_path, capsys):
    out = tmp_path / "BENCH_serving.json"
    exit_code = main(
        ["--out", str(out), "--session-counts", "2", "--fleet-workers", "2"]
    )
    assert exit_code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "shard-count sweep" in captured
    assert "open-loop session-count sweep" in captured
    assert str(out) in captured
    payload = json.loads(out.read_text(encoding="utf-8"))
    # No names given: all three, in the documented order.
    assert [entry["experiment_id"] for entry in payload["experiments"]] == [
        "service_scaling",
        "kill_recovery",
        "session_scaling",
    ]
    failover = payload["experiments"][1]
    # Every cadence row recovered and re-verified leaf-for-leaf equivalence.
    assert failover["records"], "kill_recovery sweep produced no rows"
    assert all(r["Map equivalent"] == "yes" for r in failover["records"])
    sessions = payload["experiments"][2]
    assert [r["Sessions"] for r in sessions["records"]] == [2]
    assert all(r["Fleet workers"] == 2 for r in sessions["records"])


def test_service_main_runs_only_the_named_experiments(tmp_path, capsys):
    out = tmp_path / "BENCH_serving.json"
    assert main(["kill_recovery", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [entry["experiment_id"] for entry in payload["experiments"]] == ["kill_recovery"]
    captured = capsys.readouterr().out
    assert "worker kill" in captured
    assert "session-count sweep" not in captured


def test_service_main_rejects_an_unknown_experiment(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["backend_scaling", "--out", str(tmp_path / "unused.json")])
    assert exit_info.value.code == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert not (tmp_path / "unused.json").exists()


def test_service_main_session_gate_fails_when_unmet(tmp_path, capsys):
    argv = [
        "session_scaling",
        "--out", str(tmp_path / "BENCH_gate.json"),
        "--session-counts", "2",
        "--fleet-workers", "2",
    ]
    # A floor no run can meet must fail the run...
    assert main(argv + ["--session-gate", "1e-9"]) == 1
    assert "exceeds the" in capsys.readouterr().err
    # ... and a generous one must pass and print the verdict.
    assert main(argv + ["--session-gate", "1e9"]) == 0
    assert "Session gate OK" in capsys.readouterr().out


def test_session_scaling_experiment_table_shape():
    result = session_scaling_experiment(
        session_counts=(3, 6),
        fleet_workers=2,
        scans_per_session=1,
        arrival_rate_per_s=500.0,
    )
    assert result.experiment_id == "session_scaling"
    records = result.records()
    assert [r["Sessions"] for r in records] == [3, 6]
    for record in records:
        assert record["Fleet workers"] == 2
        # O(W): the fleet multiplexes; threads never scale with sessions.
        assert record["Peak threads"] < 3 + 20
        assert record["Scans"] == record["Sessions"]  # one scan per tenant
        assert record["Sustained (scans/s)"] > 0.0
        assert record["Admit p99 (ms)"] >= record["Admit p50 (ms)"]
        assert record["Ingest p99 (ms)"] >= record["Ingest p50 (ms)"]
    assert "coordinated omission" in result.notes


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_importing_the_analysis_package_leaves_the_service_module_unloaded():
    """``python -m repro.analysis.service`` runs the module as ``__main__``;
    if importing the package had loaded it already, runpy would warn."""
    done = _python(
        "-c",
        "import sys, repro.analysis; "
        "assert 'repro.analysis.service' not in sys.modules, sorted(sys.modules)",
    )
    assert done.returncode == 0, done.stderr


def test_the_service_module_runs_as_a_script_without_a_runtime_warning():
    done = _python("-W", "error::RuntimeWarning", "-m", "repro.analysis.service", "--help")
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "usage: python -m repro.analysis.service" in done.stdout
