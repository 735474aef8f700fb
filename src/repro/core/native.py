"""The native PE update kernel: build ``pe_kernel.c`` once, load it with ctypes.

:meth:`repro.core.pe.ProcessingElement.update_paths` runs its per-voxel loop
in C (``pe_kernel.c``, next to this file).  Importing this module compiles
that file if no build of it exists yet -- ``gcc -O2 -shared -fPIC``, about a
fifth of a second, once per source hash -- into ``_build/`` beside the
source, and loads the library with :class:`ctypes.CDLL`, whose foreign calls
release the interpreter lock.  There is no fallback: without a working
``gcc`` the import fails with an :class:`ImportError` carrying the
compiler's message.

The library's file name carries the SHA-256 of the source and the compile
command, so an edited source is rebuilt and a stale build is never loaded.
A build is written to a temporary file and renamed into place, so processes
importing at the same time for the first time each compile, and one
complete library is left.

:class:`PEImage` mirrors the C ``pe_image`` struct, and the constants below
mirror the kernel's return codes and the words of its ``tally`` array.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

__all__ = ["PEImage", "SOURCE", "BUILD_DIR", "LIBRARY", "build", "update_paths"]

SOURCE = Path(__file__).with_name("pe_kernel.c")
BUILD_DIR = Path(__file__).with_name("_build")
COMPILE = ("gcc", "-O2", "-shared", "-fPIC")

# Return codes of pe_update_paths.
OK, GROW, CAPACITY, MISMATCH, CHILDLESS, FREE_ROW = range(6)

# Words of the tally array a call adds to (see pe_kernel.c).
T_DONE, T_NEW_NODES, T_ALLOCATIONS, T_EXPANSIONS, T_PRUNES, T_ROW_READS, T_ROW_WRITES, T_ERROR_ROW, T_ERROR_BANK = (
    range(9)
)
T_WRITES = 9
T_OCCUPIED = T_WRITES + 8
TALLY_WORDS = T_OCCUPIED + 8


class PEImage(ctypes.Structure):
    """The addresses and constants one PE's kernel calls work on (C ``pe_image``)."""

    _fields_ = [
        ("valid", ctypes.c_void_p * 8),
        ("pointers", ctypes.c_void_p * 8),
        ("tags", ctypes.c_void_p * 8),
        ("probabilities", ctypes.c_void_p * 8),
        ("capacity", ctypes.c_int64),
        ("num_rows", ctypes.c_int64),
        ("reserved_rows", ctypes.c_int64),
        ("stack", ctypes.c_void_p),
        ("stacked", ctypes.c_void_p),
        ("allocator", ctypes.c_void_p),
        ("roots", ctypes.c_void_p),
        ("depth", ctypes.c_int64),
        ("raw_hit", ctypes.c_int64),
        ("raw_miss", ctypes.c_int64),
        ("threshold", ctypes.c_int64),
        ("clamp_min", ctypes.c_int64),
        ("clamp_max", ctypes.c_int64),
    ]


def build(source: Path = SOURCE, build_dir: Path = BUILD_DIR) -> Path:
    """Path of the shared library built from ``source``, compiling it only if absent."""
    code = source.read_bytes()
    digest = hashlib.sha256(code + " ".join(COMPILE).encode()).hexdigest()
    library = build_dir / f"{source.stem}-{digest}.so"
    if library.exists():
        return library
    build_dir.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=build_dir, prefix=f".{source.stem}-", suffix=".tmp")
    os.close(handle)
    try:
        try:
            compiled = subprocess.run(
                [*COMPILE, "-o", partial, str(source)], capture_output=True, text=True, check=False
            )
        except OSError as error:
            raise ImportError(f"cannot build {source.name}: {COMPILE[0]} did not run ({error})") from error
        if compiled.returncode:
            raise ImportError(f"cannot build {source.name}: {COMPILE[0]} failed\n{compiled.stderr}")
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return library


LIBRARY = build()
update_paths = ctypes.CDLL(str(LIBRARY)).pe_update_paths
update_paths.argtypes = [
    ctypes.POINTER(PEImage),
    ctypes.c_void_p,  # paths: (count, depth) uint8
    ctypes.c_void_p,  # occupied: (count,) bool
    ctypes.c_int64,  # count
    ctypes.c_void_p,  # tally: TALLY_WORDS int64
]
update_paths.restype = ctypes.c_int
