"""The native kernels' build, and the PE update kernel loaded with ctypes.

:meth:`repro.core.accelerator.OMUAccelerator.apply_update_batch` -- key to
path, PE routing and every PE's per-voxel loop -- is one call into C
(``pe_kernel.c``, next to this file), and the ingestion front end
(:mod:`repro.octomap.raycast_vec`) ray-casts in C (``dda_kernel.c``, next to
that module).  :func:`build` compiles a kernel source if no build of it
exists yet -- ``gcc -O2 -shared -fPIC``, about a fifth of a second, once per
source hash -- into ``_build/`` beside this file; its callers load the
library with :class:`ctypes.CDLL`, whose foreign calls release the
interpreter lock.  Importing this module builds ``pe_kernel.c``.  There is no
fallback: without a working ``gcc`` the import fails with an
:class:`ImportError` carrying the compiler's message.

The library's file name carries the SHA-256 of the source and the compile
command, so an edited source is rebuilt and a stale build is never loaded.
A build is written to a temporary file and renamed into place, so processes
importing at the same time for the first time each compile, and one
complete library is left.

:class:`PEImage` mirrors the C ``pe_image`` struct, and the constants below
mirror the kernel's return codes and the words of one PE's block of its
``tallies`` array.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import Sequence

__all__ = ["PEImage", "SOURCE", "BUILD_DIR", "LIBRARY", "build", "apply_batch", "image_table", "tallies"]

SOURCE = Path(__file__).with_name("pe_kernel.c")
BUILD_DIR = Path(__file__).with_name("_build")
#: No fused multiply-add: the front end's floating point must round as the
#: scalar Python reference does, on every target.
COMPILE = ("gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
LINK = ("-lm",)

# Return codes of pe_apply_batch.
OK, GROW, CAPACITY, MISMATCH, CHILDLESS, FREE_ROW = range(6)

# Words of one PE's tally block, which a call adds to (see pe_kernel.c).
T_ISSUED, T_DONE, T_NEW_NODES, T_ALLOCATIONS, T_EXPANSIONS, T_PRUNES, T_ROW_READS, T_ROW_WRITES = range(8)
T_ERROR_ROW, T_ERROR_BANK = 8, 9
T_WRITES = 10
T_OCCUPIED = T_WRITES + 8
T_PATH_NODES = T_OCCUPIED + 8
TALLY_WORDS = T_PATH_NODES + 8


class PEImage(ctypes.Structure):
    """The addresses and constants one PE's kernel calls work on (C ``pe_image``).

    Its first 32 words are the bank arrays' addresses, eight per field.
    """

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


def image_table(images: Sequence[PEImage]) -> ctypes.Array:
    """The ``images`` argument of :data:`apply_batch`: the addresses of ``images``, in PE order."""
    return (ctypes.c_void_p * len(images))(*map(ctypes.addressof, images))


def tallies(num_pes: int) -> array:
    """A zeroed ``tallies`` argument of :data:`apply_batch` for ``num_pes`` PEs."""
    return array("q", bytes(8 * TALLY_WORDS * num_pes))


def build(source: Path = SOURCE, build_dir: Path = BUILD_DIR) -> Path:
    """Path of the shared library built from ``source``, compiling it only if absent."""
    code = source.read_bytes()
    digest = hashlib.sha256(code + " ".join(COMPILE + LINK).encode()).hexdigest()
    library = build_dir / f"{source.stem}-{digest}.so"
    if library.exists():
        return library
    build_dir.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=build_dir, prefix=f".{source.stem}-", suffix=".tmp")
    os.close(handle)
    try:
        try:
            compiled = subprocess.run(
                [*COMPILE, "-o", partial, str(source), *LINK], capture_output=True, text=True, check=False
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
apply_batch = ctypes.CDLL(str(LIBRARY)).pe_apply_batch
apply_batch.argtypes = [
    ctypes.c_void_p,  # images: num_pes PEImage pointers
    ctypes.c_int64,  # num_pes
    ctypes.c_void_p,  # keys: (count, 3) uint16
    ctypes.c_void_p,  # occupied: (count,) bool
    ctypes.c_int64,  # count
    ctypes.c_void_p,  # order: room for count int64 stream positions
    ctypes.c_void_p,  # tallies: num_pes blocks of TALLY_WORDS int64
]
apply_batch.restype = ctypes.c_int
