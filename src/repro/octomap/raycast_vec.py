"""The native ray casts: every scan of a flush in one call, one collision ray per call.

:mod:`repro.octomap.raycast` steps one ray at a time in pure Python -- one
``OcTreeKey`` allocation and a handful of interpreter operations per traversed
voxel.  This module is the front end of the service and of the accelerator
model (``OMUAccelerator.process_scan`` makes one
:func:`compute_scan_update_arrays` call per scan): :func:`compute_batch_update_arrays`
hands all beams of all scans of an ingestion batch to ``dda_kernel.c`` (next
to this file, built by :func:`repro.core.native.build`), which truncates,
clips and discretises each beam, walks it with the Amanatides-Woo DDA, and
sorts and de-duplicates each scan's keys.  The keys come back as packed
``uint64`` codes, scan after scan.  The call is one :mod:`ctypes` foreign
call, so it releases the interpreter lock: another thread's flush, read or
HTTP request runs while a flush ray-casts.  There is no Python fallback.

The query engine's collision rays take the same kernel through
:func:`compute_ray_codes`: one call per ray clips its end at the volume and
returns the voxels it inspects, in ray order, as packed codes -- the walk's
voxels, then the end's.

Equivalence contract: for any scan, the emitted free/occupied key sets equal
what the scalar
:func:`repro.octomap.scan_insertion.compute_update_keys_for_converter` emits,
key for key -- same max-range truncation, same endpoint clipping at the
addressable-volume boundary (clipped beams mark free space but register no
occupied endpoint), same per-scan occupied-beats-free de-duplication, and the
same pre-dedup visit count for the stats layer.  For any ray,
:func:`compute_ray_codes` returns
:func:`repro.octomap.scan_insertion.clip_segment_to_volume`'s end and
:func:`repro.octomap.raycast.compute_ray_keys`'s keys with the end's key
appended, code for code.  The C arithmetic mirrors the scalar path operation
for operation (same epsilon, same division order, same floor/truncation, no
fused multiply-add) so the property suites can pin the two paths against
each other bit for bit.  The scalar implementation stays as the paper's
software baseline and as the oracle of the equivalence suites
(``tests/octomap/test_raycast_vec.py``, ``tests/octomap/test_ray_codes.py``,
``tests/serving/test_frontend_equivalence.py``,
``tests/serving/oracle_raycast.py``, ``benchmarks/e2e``); neither the
serving runtime nor the accelerator model calls it.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.native import build
from repro.octomap.keys import KeyConverter

__all__ = [
    "ScanUpdateArrays",
    "compute_batch_update_arrays",
    "compute_ray_codes",
    "compute_scan_update_arrays",
    "pack_key_array",
    "unpack_key_array",
]

_KEY_MASK = np.uint64(0xFFFF)
_SHIFT_X = np.uint64(32)
_SHIFT_Y = np.uint64(16)

# Return codes of dda_cast_scans, and the words of its per-scan counts row.
_DDA_OK, _DDA_ORIGIN, _DDA_ENDPOINT, _DDA_MEMORY = range(4)
_COUNT_WORDS = 3

_KERNEL = ctypes.CDLL(str(build(Path(__file__).with_name("dda_kernel.c"))))
_cast_scans = _KERNEL.dda_cast_scans
_cast_scans.argtypes = [
    ctypes.c_void_p,  # points: (rays, 3) float64
    ctypes.c_void_p,  # offsets: (scans + 1,) int64
    ctypes.c_void_p,  # origins: (scans, 3) float64
    ctypes.c_void_p,  # max_ranges: (scans,) float64
    ctypes.c_int64,  # scans
    ctypes.c_double,  # resolution
    ctypes.c_int64,  # tree_max_val
    ctypes.c_void_p,  # counts: (scans, 3) int64 -- free, occupied, steps
    ctypes.POINTER(ctypes.c_void_p),  # keys: set to the packed keys of every scan
    ctypes.c_void_p,  # error: (2,) int64 -- scan, beam
]
_cast_scans.restype = ctypes.c_int
_release = _KERNEL.dda_release
_release.argtypes = [ctypes.c_void_p]
_release.restype = None
_cast_ray = _KERNEL.dda_cast_ray
_cast_ray.argtypes = [
    ctypes.c_void_p,  # segment: (6,) float64 -- origin, then end (clipped in place)
    ctypes.c_double,  # resolution
    ctypes.c_int64,  # tree_max_val
    ctypes.c_void_p,  # codes: (capacity,) uint64
    ctypes.c_int64,  # capacity
]
_cast_ray.restype = ctypes.c_int64


def pack_key_array(keys: np.ndarray) -> np.ndarray:
    """Pack an ``(N, 3)`` key-component array into ``(N,)`` uint64 codes.

    The x component lands in the highest bits, so sorting packed codes orders
    exactly like ``sorted()`` on the equivalent
    :class:`~repro.octomap.keys.OcTreeKey` objects (lexicographic x, y, z) --
    the property the native kernel's sort relies on to issue each scan's
    updates in the order the scalar reference sorts them.  The kernel packs
    keys the same way.
    """
    packed = keys.astype(np.uint64, copy=False)
    return (packed[:, 0] << _SHIFT_X) | (packed[:, 1] << _SHIFT_Y) | packed[:, 2]


def unpack_key_array(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_key_array`: ``(N,)`` uint64 to ``(N, 3)`` int64."""
    x = (packed >> _SHIFT_X) & _KEY_MASK
    y = (packed >> _SHIFT_Y) & _KEY_MASK
    z = packed & _KEY_MASK
    return np.stack((x, y, z), axis=1).astype(np.int64)


@dataclass
class ScanUpdateArrays:
    """De-duplicated update keys of one scan, in packed-array form.

    Attributes:
        free_packed: sorted unique packed keys of the free-space voxels, with
            the scan's occupied voxels already removed (occupied beats free).
        occupied_packed: sorted unique packed keys of the endpoint voxels.
        ray_steps: free-voxel visits *before* de-duplication (one per DDA
            step), matching what the scalar path records in
            ``OperationCounters.ray_steps``.
    """

    free_packed: np.ndarray
    occupied_packed: np.ndarray
    ray_steps: int

def compute_batch_update_arrays(
    converter: KeyConverter,
    scans: Sequence[Tuple[np.ndarray, Sequence[float], float]],
    counters=None,
) -> List[ScanUpdateArrays]:
    """Ray-cast several scans in one native call; the front-end kernel.

    Args:
        converter: key converter defining resolution and addressable volume.
        scans: per scan, a ``(points, origin, max_range)`` triple --
            ``(N, 3)`` world-frame points, the shared sensor origin, and the
            beam truncation range (``-1`` disables truncation).
        counters: optional :class:`~repro.octomap.counters.OperationCounters`;
            receives the same ``ray_steps`` total the scalar DDA records over
            the same scans.

    Returns:
        One :class:`ScanUpdateArrays` per input scan (de-duplication and the
        occupied-beats-free rule applied per scan, never across scans).  Their
        arrays are consecutive slices of one buffer, scan after scan, free
        keys before occupied keys.

    Raises:
        ValueError: under exactly the scalar path's conditions (malformed
            points array; origin outside the addressable volume while any of
            that scan's endpoints lies inside it; a beam endpoint with no key,
            e.g. a non-finite point).

    Truncation, clipping, discretisation, the DDA walk and the per-scan
    sort and de-duplication all run in ``dda_kernel.c`` with the interpreter
    lock released; this function only lays the scans out as flat arrays and
    slices the answer.
    """
    clouds: List[np.ndarray] = []
    for points, _origin, _max_range in scans:
        points = np.asarray(points, dtype=np.float64)
        if points.size and (points.ndim != 2 or points.shape[1] != 3):
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        clouds.append(points.reshape(-1, 3))
    count = len(clouds)
    points = np.ascontiguousarray(np.concatenate(clouds) if clouds else np.empty((0, 3)))
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum([len(cloud) for cloud in clouds], out=offsets[1:])
    origins = np.array([np.asarray(origin, dtype=np.float64).reshape(3) for _p, origin, _r in scans]).reshape(-1, 3)
    max_ranges = np.array([float(max_range) for _p, _o, max_range in scans], dtype=np.float64)
    counts = np.zeros((count, _COUNT_WORDS), dtype=np.int64)
    error = np.zeros(2, dtype=np.int64)
    buffer = ctypes.c_void_p()
    code = _cast_scans(
        points.ctypes.data, offsets.ctypes.data, origins.ctypes.data, max_ranges.ctypes.data, count,
        converter.resolution, converter.tree_max_val, counts.ctypes.data, ctypes.byref(buffer), error.ctypes.data,
    )
    try:
        if code == _DDA_MEMORY:
            raise MemoryError("the front end could not allocate its key lists")
        if code:
            scan, ray = error.tolist()
            where = "scan origin" if code == _DDA_ORIGIN else "beam endpoint"
            coordinate = tuple((origins[scan] if code == _DDA_ORIGIN else points[ray]).tolist())
            raise ValueError(
                f"{where} {coordinate!r} of scan {scan} outside the mappable volume "
                f"(+/- {converter.max_coordinate} m at resolution {converter.resolution} m)"
            )
        keys = np.empty(int(counts[:, :2].sum()), dtype=np.uint64)
        if keys.size:
            ctypes.memmove(keys.ctypes.data, buffer, keys.nbytes)
    finally:
        _release(buffer)

    if counters is not None:
        counters.ray_steps += int(counts[:, 2].sum())
    results: List[ScanUpdateArrays] = []
    position = 0
    for free, occupied, steps in counts.tolist():
        middle = position + free
        results.append(ScanUpdateArrays(keys[position:middle], keys[middle : middle + occupied], steps))
        position = middle + occupied
    return results


def compute_ray_codes(
    converter: KeyConverter, origin: Sequence[float], end: Sequence[float]
) -> Tuple[np.ndarray, Tuple[float, float, float]]:
    """The voxels a collision ray from ``origin`` to ``end`` inspects, in one native call.

    Returns ``(codes, end)``.  ``codes`` holds the packed keys (as
    :func:`pack_key_array` packs them) of the voxels strictly between the
    two ends' voxels in ray order, then the end's voxel: what
    :func:`~repro.octomap.raycast.compute_ray_keys` walks, plus the end key.
    ``end`` is the end the walk used -- clipped at the addressable volume as
    :func:`~repro.octomap.scan_insertion.clip_segment_to_volume` clips it
    where it lay outside.  An origin outside the volume inspects nothing:
    ``codes`` is empty and ``end`` is returned as given.

    Raises:
        ValueError: where the scalar walk raises, with its message (an end
            with no key, e.g. a non-finite one).
    """
    segment = np.array((*origin, *end), dtype=np.float64)
    resolution = converter.resolution
    # dda_kernel.c's step bound for the segment, plus the end's voxel and
    # slack for rounding; a clipped segment is no longer than the given one
    # or than the volume's diagonal.
    length = min(2.0 * math.sqrt(3.0) * converter.max_coordinate, math.dist(origin, end))
    capacity = int(3.0 * (length / resolution + 2.0)) + 12
    codes = np.empty(capacity, dtype=np.uint64)
    count = _cast_ray(segment.ctypes.data, resolution, converter.tree_max_val, codes.ctypes.data, capacity)
    if count < 0:
        if count == -_DDA_MEMORY:
            raise MemoryError(f"a ray's voxels did not fit in {capacity} codes")
        point = segment[:3] if count == -_DDA_ORIGIN else segment[3:]
        converter.coord_to_key(*point.tolist())  # raises the scalar walk's error
        raise ValueError(f"ray point {tuple(point.tolist())!r} has no key")
    return codes[:count], tuple(segment[3:].tolist())


def compute_scan_update_arrays(
    converter: KeyConverter,
    points: np.ndarray,
    origin: Sequence[float],
    max_range: float = -1.0,
    counters=None,
) -> ScanUpdateArrays:
    """Ray-cast one whole scan as arrays (single-scan view of the batch kernel).

    See :func:`compute_batch_update_arrays` for semantics; this convenience
    wrapper runs a one-scan batch and returns its only result.
    """
    return compute_batch_update_arrays(
        converter, [(points, origin, max_range)], counters=counters
    )[0]

