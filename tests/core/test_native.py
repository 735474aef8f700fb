"""The native kernels' build: compiled once per source, shared by every process, loud when broken."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import native
from repro.octomap import PointCloud, raycast_vec
from repro.serving import MapSession, ScanRequest, SessionConfig

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_python(code: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def test_a_second_import_does_not_run_the_compiler():
    process = run_python(
        """
        import subprocess
        def refuse(*args, **kwargs):
            raise AssertionError(f"ran {args}")
        subprocess.run = refuse
        import repro.core.native
        import repro.octomap.raycast_vec
        print(repro.core.native.LIBRARY)
        print(repro.octomap.raycast_vec._KERNEL._name)
        """
    )
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 0, stderr
    assert stdout.split() == [str(native.LIBRARY), raycast_vec._KERNEL._name]


def test_both_kernels_are_built_into_one_directory_keyed_by_their_source():
    front_end = Path(raycast_vec._KERNEL._name)
    assert front_end.parent == native.LIBRARY.parent == native.BUILD_DIR
    assert front_end.name.startswith("dda_kernel-") and native.LIBRARY.name.startswith("pe_kernel-")
    assert front_end == native.build(Path(raycast_vec.__file__).with_name("dda_kernel.c"))


def test_two_first_imports_at_once_leave_one_loadable_library(tmp_path):
    source = tmp_path / "pe_kernel.c"
    source.write_bytes(native.SOURCE.read_bytes())
    build_dir, go = tmp_path / "_build", tmp_path / "go"
    code = f"""
        import time
        from pathlib import Path
        while not Path({str(go)!r}).exists():
            time.sleep(0.005)
        from repro.core.native import build
        print(build(Path({str(source)!r}), Path({str(build_dir)!r})))
        """
    processes = [run_python(code) for _ in range(2)]
    go.touch()
    built = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        built.append(stdout.strip())
    assert built[0] == built[1]
    assert [path.name for path in build_dir.iterdir()] == [Path(built[0]).name]  # no partial file left
    assert ctypes.CDLL(built[0]).pe_apply_batch


def test_a_source_that_does_not_compile_is_an_import_error_with_the_compiler_message(tmp_path):
    broken = tmp_path / "pe_kernel.c"
    broken.write_text("int pe_apply_batch(void) { return undeclared_name; }\n")
    with pytest.raises(ImportError, match="undeclared_name"):
        native.build(broken, tmp_path / "_build")
    assert list((tmp_path / "_build").iterdir()) == []


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads /proc/<pid>/maps")
def test_a_spawned_process_worker_loads_the_parents_build():
    before = sorted(native.BUILD_DIR.iterdir())
    config = SessionConfig(num_shards=1, backend="process", mp_start_method="spawn")
    session = MapSession("spawned", config)
    try:
        ring = np.linspace(-np.pi, np.pi, 24, endpoint=False)
        points = np.column_stack((3.0 * np.cos(ring), 3.0 * np.sin(ring), np.full(24, 0.4)))
        session.submit(ScanRequest("spawned", PointCloud(points.tolist()), (0.05, 0.05, 0.4), max_range=10.0))
        (report,) = session.flush_all()
        assert report.voxel_updates > 0
        (worker,) = session.backend.pool.engine.channels.processes
        maps = Path(f"/proc/{worker.pid}/maps").read_text()
    finally:
        session.close()
    assert str(native.LIBRARY) in maps
    assert sorted(native.BUILD_DIR.iterdir()) == before
