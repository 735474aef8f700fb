"""Which ``src/repro`` functions does no entry point reach?

Runs every non-test entry point of the repository with a profile hook in
every interpreter it starts, then lists each function under ``src/repro``
that none of them entered, with its line count and per-package totals::

    python benchmarks/reachability.py [--out report.txt]

The hook is a temporary ``sitecustomize.py`` put first on ``PYTHONPATH``, so
it loads in the driver's children and in theirs: forked process-backend
workers, spawned socket workers, the HTTP server subprocess.  It installs
``sys.setprofile`` and ``threading.setprofile``; after a
:mod:`multiprocessing` fork it re-arms itself through
``multiprocessing.util.register_after_fork`` (a forked child clears its
parent's finalizers), and each interpreter dumps the code objects it saw from
``atexit`` and from a ``multiprocessing.util.Finalize``, so workers that end
through ``os._exit`` report too.

The entry points: the four ``benchmarks/e2e`` workloads at ``--smoke`` plus
a traced ``query_mix``, every ``examples/*.py``, the CLI and HTTP smoke
commands of ``.github/workflows/ci.yml``, ``python -m
repro.analysis.service`` and the ten tables of
:mod:`repro.analysis.experiments`, called directly.  Every output they write
goes to a temporary directory.

A function is matched to its code object by ``(file, first line, name)``; a
decorated function's code object starts at its first decorator's line.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``(file, first line, name)``: how a function and its code object meet.
CodeKey = Tuple[str, int, str]

#: The hook every interpreter loads; ``{prefix}`` limits what it records.
HOOK = '''\
import atexit
import multiprocessing.util
import os
import sys
import threading
import uuid

_OUT = os.environ.get("REACHABILITY_OUT")
_PREFIX = {prefix!r}
_seen = set()
_dumped = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_PREFIX):
            _seen.add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    if _seen and os.getpid() not in _dumped:
        _dumped.add(os.getpid())
        path = os.path.join(_OUT, "%d-%s.reach" % (os.getpid(), uuid.uuid4().hex))
        with open(path, "w") as out:
            out.writelines("%s\\t%d\\t%s\\n" % key for key in sorted(_seen))


def _arm(*_):
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    multiprocessing.util.Finalize(None, _dump, exitpriority=-100)


if _OUT:
    _arm()
    atexit.register(_dump)
    # A forked child starts with no finalizers.  The registry holds its key
    # weakly, and a module-level function lives as long as the process.
    multiprocessing.util.register_after_fork(_arm, _arm)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` of the package, as the report names it."""

    qualname: str
    path: str
    line: int
    lines: int


def functions_in(path: Path) -> Dict[CodeKey, Function]:
    """Every function and method defined in one source file, nested ones included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: Dict[CodeKey, Function] = {}

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = ".".join(scope + (child.name,))
                found[(str(path), first, child.name)] = Function(
                    qualname, str(path), child.lineno, child.end_lineno - child.lineno + 1
                )
                visit(child, scope + (child.name, "<locals>"))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def package_functions(package: Path = PACKAGE) -> Dict[CodeKey, Function]:
    """Every function of every module under ``package``."""
    found: Dict[CodeKey, Function] = {}
    for path in sorted(package.rglob("*.py")):
        found.update(functions_in(path))
    return found


def code_key(code) -> CodeKey:
    """The key a code object is matched by (what the hook records)."""
    return (code.co_filename, code.co_firstlineno, code.co_name)


def unreached(functions: Dict[CodeKey, Function], seen: Iterable[CodeKey]) -> List[Function]:
    """The functions none of ``seen`` entered, in file and line order."""
    entered = set(seen)
    return sorted(
        (function for key, function in functions.items() if key not in entered),
        key=lambda function: (function.path, function.line),
    )


def read_dumps(directory: Path) -> Set[CodeKey]:
    """The union of every interpreter's dump."""
    seen: Set[CodeKey] = set()
    for path in directory.glob("*.reach"):
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            seen.add((filename, int(first), name))
    return seen


def report(functions: Dict[CodeKey, Function], seen: Set[CodeKey], package_root: Path = PACKAGE) -> str:
    """One line per never-entered function, then per-package and overall totals."""
    missing = unreached(functions, seen)
    lines = []
    for function in missing:
        where = os.path.relpath(function.path, ROOT)
        lines.append(f"{where}:{function.line}  {function.qualname}  ({function.lines} lines)")
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
    missing_keys = {(function.path, function.line) for function in missing}
    for function in functions.values():
        package = Path(function.path).relative_to(package_root).parts[0].removesuffix(".py")
        row = totals[package]
        row[0] += 1
        row[1] += function.lines
        if (function.path, function.line) in missing_keys:
            row[2] += 1
            row[3] += function.lines
    lines.append("")
    lines.append(f"{'package':<12} {'unreached':>9} {'functions':>9} {'lines':>6} {'of':>6}")
    for package, (count, size, cold, cold_lines) in sorted(totals.items()):
        lines.append(f"{package:<12} {cold:>9} {count:>9} {cold_lines:>6} {size:>6}")
    count = sum(row[0] for row in totals.values())
    size = sum(row[1] for row in totals.values())
    cold = sum(row[2] for row in totals.values())
    cold_lines = sum(row[3] for row in totals.values())
    lines.append(f"{'total':<12} {cold:>9} {count:>9} {cold_lines:>6} {size:>6}")
    lines.append(f"never entered: {cold} of {count} functions ({cold_lines} of {size} function lines)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The entry points
# ---------------------------------------------------------------------------
TABLES = """
from repro.analysis import experiments
for table in (
    experiments.table1_related_work, experiments.table2_dataset_details,
    experiments.table3_latency, experiments.table4_throughput, experiments.table5_energy,
    experiments.figure3_cpu_breakdown, experiments.figure8_area, experiments.figure9_fr079,
    experiments.figure10_accelerator_breakdown, experiments.power_budget,
):
    table()
"""


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _http(port: int, method: str, path: str, body: dict | None = None) -> bytes:
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as reply:
        return reply.read()


class Runner:
    """Runs each entry point with the hook on, in a scratch directory."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.hook_dir = scratch / "hook"
        self.dumps = scratch / "dumps"
        self.work = scratch / "work"
        for directory in (self.hook_dir, self.dumps, self.work):
            directory.mkdir()
        (self.hook_dir / "sitecustomize.py").write_text(HOOK.format(prefix=str(PACKAGE)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(self.hook_dir), str(ROOT / "src"), str(ROOT)])
        self.env["REACHABILITY_OUT"] = str(self.dumps)
        self.failures: List[str] = []

    def run(self, name: str, *args: str, timeout: float = 600.0) -> None:
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, *args], cwd=self.work, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        status = "ok" if result.returncode == 0 else f"exit {result.returncode}"
        print(f"  {name:<48} {status:>8} {time.perf_counter() - started:6.1f} s", file=sys.stderr)
        if result.returncode != 0:
            self.failures.append(f"{name}: {result.stderr.strip().splitlines()[-1:]}")

    def start(self, *args: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, *args], cwd=self.work, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def stop(self, name: str, process: subprocess.Popen) -> None:
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
        if code != 0:
            self.failures.append(f"{name}: exit {code} after SIGTERM")

    def e2e(self) -> None:
        run = str(ROOT / "benchmarks" / "e2e" / "run.py")
        out = str(self.work / "runs.jsonl")
        for workload in ("ingest_inline", "ingest_process", "query_mix", "http_open_loop"):
            self.run(f"e2e {workload} --smoke", run, "--workload", workload, "--smoke", "--out", out)
        self.run("e2e query_mix --smoke --trace 1", run, "--workload", "query_mix", "--smoke",
                 "--trace", "1", "--seconds", "4", "--out", out)

    def examples(self) -> None:
        for example in sorted((ROOT / "examples").glob("*.py")):
            self.run(f"examples/{example.name}", str(example))
        self.run("examples/mapping_service_demo.py --backend process",
                 str(ROOT / "examples" / "mapping_service_demo.py"), "--backend", "process")

    def cli_smoke(self) -> None:
        cli = ("-m", "repro.serving.cli", "--sessions", "2", "--scans", "2", "--batch-size", "2")
        self.run("repro-serve inline", *cli, "--shards", "2", "--backend", "inline")
        self.run("repro-serve process", *cli, "--shards", "4", "--backend", "process")
        self.run("repro-serve socket", *cli, "--shards", "2", "--backend", "socket")
        ports = [_free_port() for _ in range(3)]
        workers = [self.start("-m", "repro.serving.remote", "--port", str(port)) for port in ports]
        time.sleep(1.0)
        self.run("repro-serve socket (external workers)", "-m", "repro.serving.cli", "--sessions", "1",
                 "--scans", "2", "--shards", "2", "--batch-size", "2", "--backend", "socket",
                 "--workers", ",".join(f"127.0.0.1:{port}" for port in ports))
        for port, worker in zip(ports, workers):
            self.stop(f"repro-serve-worker :{port}", worker)
        self.run("repro-serve --async inline", *cli, "--shards", "2", "--backend", "inline",
                 "--async", "--queue-limit", "4")
        self.run("repro-serve --async process", *cli, "--shards", "4", "--backend", "process",
                 "--async", "--queue-limit", "4")

    def http_smoke(self) -> None:
        port = _free_port()
        server = self.start("-m", "repro.serving.cli", "--http", "--port", str(port), "--shards", "2",
                            "--batch-size", "2", "--backend", "inline",
                            "--metrics-json", str(self.work / "http_smoke_metrics.json"))
        started = time.perf_counter()
        try:
            for _ in range(150):
                try:
                    _http(port, "GET", "/healthz")
                    break
                except OSError:
                    time.sleep(0.2)
            _http(port, "POST", "/v1/sessions", {"session_id": "smoke"})
            _http(port, "POST", "/v1/sessions/smoke/scans", {
                "points": [[1.0, 0.0, 0.5], [1.0, 0.2, 0.5], [1.2, 0.0, 0.5]],
                "origin": [0, 0, 0.5], "max_range": 10.0,
            })
            _http(port, "POST", "/v1/sessions/smoke/flush")
            _http(port, "POST", "/v1/sessions/smoke/query/bbox", {"min": [-2, -2, 0], "max": [2, 2, 1]})
            for path in ("/v1/metrics", "/v1/metrics/sessions/smoke", "/v1/stats"):
                _http(port, "GET", path)
        except OSError as error:
            self.failures.append(f"repro-serve --http: {error}")
        finally:
            self.stop("repro-serve --http", server)
        print(f"  {'repro-serve --http (CI requests)':<48} {'done':>8} "
              f"{time.perf_counter() - started:6.1f} s", file=sys.stderr)

    def analysis(self) -> None:
        self.run("repro.analysis.service", "-m", "repro.analysis.service",
                 "--out", str(self.work / "BENCH_serving.json"))
        self.run("repro.analysis.experiments (ten tables)", "-c", TABLES)

    def run_all(self) -> Set[CodeKey]:
        self.e2e()
        self.examples()
        self.cli_smoke()
        self.http_smoke()
        self.analysis()
        return read_dumps(self.dumps)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="also write the report to this file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        runner = Runner(Path(scratch))
        seen = runner.run_all()
    text = report(package_functions(), seen)
    if runner.failures:
        text += "entry points that failed:\n" + "".join(f"  {line}\n" for line in runner.failures)
    sys.stdout.write(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
