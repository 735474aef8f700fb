"""The native kernels' build, and the PE kernels loaded with ctypes.

:meth:`repro.core.accelerator.OMUAccelerator.apply_update_batch` -- key to
path, PE routing and every PE's per-voxel loop -- is one call into C
(``pe_kernel.c``, next to this file), and so is every voxel read:
:meth:`~repro.core.query_unit.VoxelQueryUnit.query_keys` is one
:data:`query_batch` call over the PE array, and a point read
(:meth:`~repro.core.query_unit.VoxelQueryUnit.query_key`) one
:data:`query_key` call on its PE.  The ingestion front end
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
``tallies`` arrays: ``T_*`` for an update call, ``Q_*`` for a read, which
its caller adds to the accelerator's counter array (:mod:`repro.core.counts`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "PEImage",
    "SOURCE",
    "BUILD_DIR",
    "LIBRARY",
    "build",
    "apply_batch",
    "query_batch",
    "query_key",
    "tallies",
    "query_tallies",
]

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

# Words of one PE's block of a read call's tallies: keys walked, keys under an
# absent local root, keys answered free or occupied, and eight of bank reads.
Q_STARTED, Q_ABSENT, Q_KNOWN, Q_READS = range(4)
QUERY_TALLY_WORDS = Q_READS + 8


class PEImage(ctypes.Structure):
    """The addresses and constants one PE's kernel calls work on (C ``pe_image``).

    Its first 32 words are the bank arrays' addresses, eight per field.
    :class:`repro.core.treemem.SRAMImage` holds one per PE and writes them
    as ``int64`` words.
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


def tallies(num_pes: int) -> np.ndarray:
    """A zeroed ``tallies`` argument of :data:`apply_batch` for ``num_pes`` PEs."""
    return np.zeros((num_pes, TALLY_WORDS), dtype=np.int64)


def query_tallies(num_pes: int) -> np.ndarray:
    """A zeroed ``tallies`` argument of :data:`query_batch` (or, one PE's, of :data:`query_key`)."""
    return np.zeros((num_pes, QUERY_TALLY_WORDS), dtype=np.int64)


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
_kernels = ctypes.CDLL(str(LIBRARY))
apply_batch = _kernels.pe_apply_batch
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

#: Returns -1, or the index of the PE whose image stopped the call (a tag
#: naming a child the image does not hold).
query_batch = _kernels.pe_query_batch
query_batch.argtypes = [
    ctypes.c_void_p,  # images: num_pes PEImage pointers
    ctypes.c_int64,  # num_pes
    ctypes.c_void_p,  # keys: (count, 3) uint16
    ctypes.c_int64,  # count
    ctypes.c_int,  # stop_at_occupied
    ctypes.c_void_p,  # codes: (count,) uint8
    ctypes.c_void_p,  # raws: (count,) int16
    ctypes.POINTER(ctypes.c_int64),  # answered
    ctypes.c_void_p,  # tallies: num_pes blocks of QUERY_TALLY_WORDS int64
]
query_batch.restype = ctypes.c_int

#: Returns the key's index into ``QUERY_STATUSES``, or -1 where the image
#: stopped the walk.
query_key = _kernels.pe_query_key
query_key.argtypes = [
    ctypes.POINTER(PEImage),  # image
    ctypes.c_int64,  # x
    ctypes.c_int64,  # y
    ctypes.c_int64,  # z
    ctypes.POINTER(ctypes.c_int16),  # raw
    ctypes.c_void_p,  # tally: QUERY_TALLY_WORDS int64
]
query_key.restype = ctypes.c_int
