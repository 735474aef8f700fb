"""Vectorized scan front end: batched Amanatides-Woo traversal over numpy arrays.

:mod:`repro.octomap.raycast` steps one ray at a time in pure Python -- one
``OcTreeKey`` allocation and a handful of interpreter operations per traversed
voxel.  Profiling the serving layer showed that this serial front end (ray
casting plus key generation) starves the shard-apply parallelism behind it.
This module is the batched replacement: it traverses *all rays as arrays*,
carrying per-axis t-maxima/t-deltas as ``(N,)`` float arrays, compacting rays
out of the working set as they terminate, and emitting the visited voxel keys
as packed ``uint64`` codes that de-duplicate and sort with one ``np.unique``
per scan.  :func:`compute_batch_update_arrays` goes one step further and runs
every ray of a whole ingestion batch (several scans) through a single DDA
loop, with a scan-id lane keeping the de-duplication per scan -- the loop's
per-iteration Python overhead is paid once per batch instead of once per scan.

Equivalence contract: for any scan, the emitted free/occupied key sets equal
what the scalar
:func:`repro.octomap.scan_insertion.compute_update_keys_for_converter` emits,
key for key -- same max-range truncation, same endpoint clipping at the
addressable-volume boundary (clipped beams mark free space but register no
occupied endpoint), same per-scan occupied-beats-free de-duplication, and the
same pre-dedup visit count for the stats layer.  The arithmetic deliberately
mirrors the scalar path operation for operation (same epsilon, same division
order, same floor/truncation) so the property suite can pin the two paths
against each other bit for bit.  The scalar implementation stays as the
paper's software baseline and as the oracle of the equivalence suites
(``tests/octomap/test_raycast_vec.py``,
``tests/serving/test_frontend_equivalence.py``, ``benchmarks/e2e``); the
serving runtime never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.octomap.keys import KeyConverter, OcTreeKey

__all__ = [
    "ScanUpdateArrays",
    "compute_batch_update_arrays",
    "compute_scan_update_arrays",
    "compute_update_keys_vectorized",
    "pack_key_array",
    "unpack_key_array",
]

#: Same epsilon the scalar DDA and the volume clipper use.
_EPSILON = 1e-12

_KEY_MASK = np.uint64(0xFFFF)
_SHIFT_X = np.uint64(32)
_SHIFT_Y = np.uint64(16)


def _empty_packed() -> np.ndarray:
    return np.empty(0, dtype=np.uint64)


def pack_key_array(keys: np.ndarray) -> np.ndarray:
    """Pack an ``(N, 3)`` key-component array into ``(N,)`` uint64 codes.

    The x component lands in the highest bits, so sorting packed codes orders
    exactly like ``sorted()`` on the equivalent
    :class:`~repro.octomap.keys.OcTreeKey` objects (lexicographic x, y, z) --
    the property the batching front end relies on to keep its vectorized
    update stream identical to the scalar one.
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

    def free_keys(self) -> np.ndarray:
        """The free voxel keys as an ``(N, 3)`` int64 array (sorted)."""
        return unpack_key_array(self.free_packed)

    def occupied_keys(self) -> np.ndarray:
        """The occupied voxel keys as an ``(N, 3)`` int64 array (sorted)."""
        return unpack_key_array(self.occupied_packed)

    @property
    def update_count(self) -> int:
        """Updates the scan dispatches after de-duplication."""
        return int(self.free_packed.size + self.occupied_packed.size)


def _clip_endpoints_to_volume(
    converter: KeyConverter,
    origin: np.ndarray,
    endpoints: np.ndarray,
    rows: np.ndarray,
) -> None:
    """In-place array form of ``clip_segment_to_volume`` for the ``rows`` subset.

    The caller guarantees the (shared) origin is inside the addressable
    volume; each selected endpoint is pulled back along its beam until every
    component lies within ``+/- max_coordinate * 0.999``, using exactly the
    scalar clipper's per-axis scale minimisation.
    """
    limit = converter.max_coordinate * 0.999
    subset = endpoints[rows]
    delta = subset - origin
    scale = np.ones(len(rows), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            component_delta = delta[:, axis]
            usable = ~(np.abs(component_delta) < _EPSILON)
            high = subset[:, axis] > limit
            low = (~high) & (subset[:, axis] < -limit)
            candidate = np.where(
                high,
                (limit - origin[axis]) / component_delta,
                (-limit - origin[axis]) / component_delta,
            )
            pick = usable & (high | low)
            scale = np.where(pick, np.minimum(scale, candidate), scale)
    scale = np.maximum(scale, 0.0)
    endpoints[rows] = origin + delta * scale[:, None]


@dataclass
class _PreparedScan:
    """One scan's rays after truncation/clipping, ready for the shared DDA."""

    endpoints: np.ndarray  # (M, 3) float64, all inside the volume
    truncated: np.ndarray  # (M,) bool -- no occupied endpoint for these
    end_keys: np.ndarray  # (M, 3) int64
    origin: np.ndarray  # (3,) float64
    origin_key: np.ndarray  # (3,) int64


def _prepare_scan(
    converter: KeyConverter,
    points: np.ndarray,
    origin: Sequence[float],
    max_range: float,
) -> Optional[_PreparedScan]:
    """Truncate, clip and discretise one scan; None when nothing survives.

    Raises:
        ValueError: if the origin lies outside the addressable volume while
            any beam endpoint lies inside it -- the same condition under
            which the scalar path raises from ``coord_to_key``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return None
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {points.shape}")
    origin_arr = np.asarray(origin, dtype=np.float64).reshape(3)

    endpoints = points.copy()
    truncated = np.zeros(len(points), dtype=bool)

    # --- max-range truncation (same arithmetic as the scalar path) --------
    if max_range > 0.0:
        delta = points - origin_arr
        distance = np.sqrt(
            delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] + delta[:, 2] * delta[:, 2]
        )
        over = distance > max_range
        if over.any():
            scale = max_range / distance[over]
            endpoints[over] = origin_arr + (points[over] - origin_arr) * scale[:, None]
            truncated |= over

    # --- endpoint clipping at the addressable-volume boundary -------------
    limit = converter.max_coordinate
    in_range = ((endpoints >= -limit) & (endpoints < limit)).all(axis=1)
    keep = np.ones(len(points), dtype=bool)
    if not in_range.all():
        if not converter.is_coordinate_in_range(*origin_arr):
            # clip_segment_to_volume returns None: those beams contribute
            # nothing at all.
            keep &= in_range
        else:
            rows = np.nonzero(~in_range)[0]
            _clip_endpoints_to_volume(converter, origin_arr, endpoints, rows)
            truncated[rows] = True

    endpoints = endpoints[keep]
    truncated = truncated[keep]
    if endpoints.shape[0] == 0:
        return None

    # Discretise the origin exactly like the scalar DDA's first step: an
    # out-of-range origin with a surviving in-range endpoint raises here.
    origin_key = converter.coord_to_key(*origin_arr)
    return _PreparedScan(
        endpoints=endpoints,
        truncated=truncated,
        end_keys=converter.coords_to_key_array(endpoints),
        origin=origin_arr,
        origin_key=np.array(origin_key.as_tuple(), dtype=np.int64),
    )


def compute_batch_update_arrays(
    converter: KeyConverter,
    scans: Sequence[Tuple[np.ndarray, Sequence[float], float]],
    counters=None,
) -> List[ScanUpdateArrays]:
    """Ray-cast several scans through ONE batched DDA; the front-end kernel.

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
        occupied-beats-free rule applied per scan, never across scans).

    Raises:
        ValueError: under exactly the scalar path's conditions (malformed
            points array; origin outside the addressable volume while any of
            that scan's endpoints lies inside it).

    All rays of all scans march through a single compacting traversal loop:
    a ``scan_ids`` lane travels with the working set so every emitted voxel
    key is attributed to its scan, which keeps the per-scan de-duplication
    exact while the loop's per-iteration Python overhead is paid once per
    batch instead of once per scan.
    """
    prepared = [_prepare_scan(converter, *scan) for scan in scans]

    results: List[Optional[ScanUpdateArrays]] = [None] * len(prepared)
    occupied: List[np.ndarray] = [_empty_packed()] * len(prepared)
    ray_origins: List[np.ndarray] = []
    ray_origin_keys: List[np.ndarray] = []
    ray_endpoints: List[np.ndarray] = []
    ray_end_keys: List[np.ndarray] = []
    ray_scan_ids: List[np.ndarray] = []
    for scan_id, prep in enumerate(prepared):
        if prep is None:
            results[scan_id] = ScanUpdateArrays(_empty_packed(), _empty_packed(), 0)
            continue
        not_truncated = ~prep.truncated
        if not_truncated.any():
            occupied[scan_id] = np.unique(pack_key_array(prep.end_keys[not_truncated]))
        count = prep.endpoints.shape[0]
        ray_origins.append(np.broadcast_to(prep.origin, (count, 3)))
        ray_origin_keys.append(np.broadcast_to(prep.origin_key, (count, 3)))
        ray_endpoints.append(prep.endpoints)
        ray_end_keys.append(prep.end_keys)
        ray_scan_ids.append(np.full(count, scan_id, dtype=np.int64))

    emitted_packed: List[np.ndarray] = []
    emitted_scan: List[np.ndarray] = []
    if ray_endpoints:
        origins = np.concatenate(ray_origins)
        origin_keys = np.concatenate(ray_origin_keys)
        endpoints = np.concatenate(ray_endpoints)
        end_keys = np.concatenate(ray_end_keys)
        scan_ids = np.concatenate(ray_scan_ids)

        direction = endpoints - origins
        length = np.sqrt(
            direction[:, 0] * direction[:, 0]
            + direction[:, 1] * direction[:, 1]
            + direction[:, 2] * direction[:, 2]
        )
        active = (length >= _EPSILON) & ~(end_keys == origin_keys).all(axis=1)
        rows = np.nonzero(active)[0]
        if rows.size:
            resolution = converter.resolution
            unit = direction[rows] / length[rows, None]
            step = np.zeros((rows.size, 3), dtype=np.int64)
            step[unit > _EPSILON] = 1
            step[unit < -_EPSILON] = -1
            moving = step != 0
            origin_center = (
                origin_keys[rows] - converter.tree_max_val + 0.5
            ) * resolution
            border = origin_center + step * (0.5 * resolution)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_max = np.where(moving, (border - origins[rows]) / unit, np.inf)
                t_delta = np.where(moving, resolution / np.abs(unit), np.inf)
            # The scalar loop bound, per ray: terminates pathological rays.
            remaining = (3.0 * (length[rows] / resolution + 2.0)).astype(np.int64) + 8
            current = origin_keys[rows].copy()
            end_k = end_keys[rows]
            ray_length = length[rows]
            lane = scan_ids[rows]
            index = np.arange(current.shape[0])

            while current.shape[0]:
                # First-minimum tie-break, matching the scalar list.index(min).
                axis = np.argmin(t_max, axis=1)
                advance = t_max[index, axis] <= ray_length
                if not advance.all():
                    # Rays whose next boundary crossing lies beyond the
                    # endpoint have enumerated every free voxel of their beam.
                    current = current[advance]
                    t_max = t_max[advance]
                    t_delta = t_delta[advance]
                    step = step[advance]
                    end_k = end_k[advance]
                    ray_length = ray_length[advance]
                    remaining = remaining[advance]
                    lane = lane[advance]
                    axis = axis[advance]
                    if current.shape[0] == 0:
                        break
                    index = np.arange(current.shape[0])
                current[index, axis] += step[index, axis]
                t_max[index, axis] += t_delta[index, axis]
                component = current[index, axis]
                in_bounds = (component >= 0) & (component <= 0xFFFF)
                at_end = (current == end_k).all(axis=1)
                emit = in_bounds & ~at_end
                if emit.any():
                    emitted_packed.append(pack_key_array(current[emit]))
                    emitted_scan.append(lane[emit])
                remaining -= 1
                alive = emit & (remaining > 0)
                if not alive.all():
                    current = current[alive]
                    t_max = t_max[alive]
                    t_delta = t_delta[alive]
                    step = step[alive]
                    end_k = end_k[alive]
                    ray_length = ray_length[alive]
                    remaining = remaining[alive]
                    lane = lane[alive]
                    index = np.arange(current.shape[0])

    if emitted_packed:
        all_packed = np.concatenate(emitted_packed)
        all_scan = np.concatenate(emitted_scan)
        steps_per_scan = np.bincount(all_scan, minlength=len(prepared))
    else:
        all_packed = _empty_packed()
        all_scan = np.empty(0, dtype=np.int64)
        steps_per_scan = np.zeros(len(prepared), dtype=np.int64)

    if counters is not None:
        counters.ray_steps += int(all_packed.size)

    for scan_id in range(len(prepared)):
        if results[scan_id] is not None:
            continue
        free = np.unique(all_packed[all_scan == scan_id])
        occ = occupied[scan_id]
        if free.size and occ.size:
            # Occupied beats free within the scan, exactly like the scalar
            # ``free_keys -= occupied_keys``.
            free = free[~np.isin(free, occ)]
        results[scan_id] = ScanUpdateArrays(free, occ, int(steps_per_scan[scan_id]))
    return results  # type: ignore[return-value]


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


def compute_update_keys_vectorized(
    converter: KeyConverter,
    cloud,
    origin: Sequence[float],
    max_range: float = -1.0,
    counters=None,
) -> Tuple[Set[OcTreeKey], Set[OcTreeKey]]:
    """Set-returning wrapper matching ``compute_update_keys_for_converter``.

    Accepts a :class:`~repro.octomap.pointcloud.PointCloud` or a raw
    ``(N, 3)`` array and returns ``(free_keys, occupied_keys)`` as
    :class:`OcTreeKey` sets -- the signature the scalar reference exposes, so
    the two front ends can be compared (and swapped) call for call.
    """
    points = getattr(cloud, "points", cloud)
    result = compute_scan_update_arrays(
        converter, points, origin, max_range=max_range, counters=counters
    )
    free = {OcTreeKey(x, y, z) for x, y, z in result.free_keys().tolist()}
    occupied = {OcTreeKey(x, y, z) for x, y, z in result.occupied_keys().tolist()}
    return free, occupied
