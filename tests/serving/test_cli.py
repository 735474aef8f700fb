"""The ``repro-serve`` CLI demo driver."""

from __future__ import annotations

import json

import pytest

from repro.serving.cli import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.sessions == 2
    assert args.shards == 2
    assert args.backend == "inline"
    assert args.use_async is False
    assert args.queue_limit == 16


def test_parser_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--backend", "rpc"])


@pytest.mark.parametrize(
    "flags",
    [
        ["--pipeline"],
        ["--flusher-concurrency", "2"],
        ["--scheduler", "fifo"],
        ["--prefix-levels", "12"],
    ],
)
def test_parser_rejects_removed_ingestion_flags(flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(flags)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["thread", "process", "socket"])
def test_main_runs_on_pool_backends(backend, capsys):
    exit_code = main(
        [
            "--sessions", "1",
            "--scans", "1",
            "--shards", "2",
            "--batch-size", "2",
            "--backend", backend,
            "--queries", "1",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert f"{backend} backend" in captured
    assert "Serving: execution backend per session" in captured
    assert backend in captured


def test_main_runs_and_prints_stats(capsys):
    exit_code = main(
        [
            "--sessions", "2",
            "--scans", "1",
            "--shards", "2",
            "--batch-size", "2",
            "--queries", "2",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Serving: ingestion per session" in captured
    assert "Serving: queries per session" in captured
    assert "session-0" in captured and "session-1" in captured
    assert "Overall cache hit rate" in captured


def test_main_rejects_zero_sessions(capsys):
    assert main(["--sessions", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--heartbeat-interval", "--heartbeat-timeout"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_rejects_a_non_finite_heartbeat(flag, value, capsys):
    assert main([flag, value, "--scans", "1", "--sessions", "1"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_main_runs_async_front_end(capsys):
    exit_code = main(
        [
            "--sessions", "2",
            "--scans", "2",
            "--shards", "2",
            "--batch-size", "2",
            "--async",
            "--queue-limit", "4",
            "--queries", "1",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "async front end" in captured
    assert "Serving: async admission per session" in captured
    assert "backpressured submits" in captured
    assert "Overall cache hit rate" in captured


def test_main_rejects_zero_queue_limit(capsys):
    assert main(["--async", "--queue-limit", "0", "--scans", "1", "--sessions", "1"]) == 2
    assert "--queue-limit" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--async"]])
def test_metrics_json_snapshot_written_on_clean_exit(extra, tmp_path, capsys):
    path = tmp_path / "out" / "metrics.json"
    exit_code = main(
        [
            "--sessions", "1",
            "--scans", "2",
            "--shards", "2",
            "--batch-size", "2",
            "--queries", "1",
            "--metrics-json", str(path),
            *extra,
        ]
    )
    assert exit_code == 0
    assert f"Metrics snapshot written to {path}" in capsys.readouterr().out
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["metrics"]["totals"]["requests"] > 0
    assert payload["service_stats"]["totals"]["num_sessions"] >= 1
    operations = payload["metrics"]["sessions"]["session-0"]["operations"]
    assert operations["batch_apply"]["count"] >= 1
    for rollup in operations.values():
        latency = rollup["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
