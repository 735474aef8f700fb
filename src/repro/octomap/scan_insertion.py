"""Batch insertion of sensor scans into the occupancy octree.

A scan is integrated in two phases, exactly as OctoMap's
``insertPointCloud`` does and as the paper's pipeline (Fig. 1) shows:

1. **Ray casting** -- every beam from the sensor origin to a measured point
   enumerates the free voxels it crosses; the endpoint voxel is occupied.
2. **Voxel update** -- the de-duplicated free and occupied voxel keys are
   applied to the tree (occupied updates win over free updates for the same
   voxel in the same scan, so thin obstacles are not erased by rays that
   terminate on them).

This is the scalar, per-ray implementation: the paper's software baseline
(``OccupancyOcTree.insert_point_cloud``) and the oracle the native front end
(:mod:`repro.octomap.raycast_vec`, which the service and the accelerator model
call) is pinned against key for key.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from repro.octomap.keys import OcTreeKey
from repro.octomap.pointcloud import PointCloud
from repro.octomap.raycast import compute_ray_keys

__all__ = [
    "compute_update_keys",
    "compute_update_keys_for_converter",
    "insert_point_cloud",
    "clip_segment_to_volume",
]


def compute_update_keys(
    tree,
    cloud: PointCloud,
    origin: Sequence[float],
    max_range: float = -1.0,
) -> Tuple[Set[OcTreeKey], Set[OcTreeKey]]:
    """Ray-cast a scan and return the de-duplicated ``(free, occupied)`` key sets.

    Args:
        tree: the target :class:`repro.octomap.octree.OccupancyOcTree` (used
            for its key converter and counters).
        cloud: scan points already expressed in the world frame.
        origin: sensor origin in the world frame.
        max_range: beams longer than this are truncated -- the voxels up to
            ``max_range`` are marked free but no endpoint is registered
            (``-1`` disables truncation).

    Returns:
        ``(free_keys, occupied_keys)`` with occupied keys removed from the
        free set, so each voxel receives at most one update per scan.
    """
    return compute_update_keys_for_converter(
        tree.key_converter, cloud, origin, max_range=max_range, counters=tree.counters
    )


def compute_update_keys_for_converter(
    converter,
    cloud: PointCloud,
    origin: Sequence[float],
    max_range: float = -1.0,
    counters=None,
) -> Tuple[Set[OcTreeKey], Set[OcTreeKey]]:
    """Tree-independent variant of :func:`compute_update_keys`.

    The serving layer's ingestion pipeline ray-casts each scan once in a
    shared front end and dispatches the resulting key streams to shard
    workers, so it needs the free/occupied sets without owning a tree.  Only
    a :class:`~repro.octomap.keys.KeyConverter` (and optionally a counter
    sink) is required; the de-duplication policy is identical.
    """
    free_keys: Set[OcTreeKey] = set()
    occupied_keys: Set[OcTreeKey] = set()

    for point in cloud:
        truncated = False
        endpoint = point
        if max_range > 0.0:
            distance = _distance(origin, point)
            if distance > max_range:
                truncated = True
                scale = max_range / distance
                endpoint = tuple(
                    origin[axis] + (point[axis] - origin[axis]) * scale for axis in range(3)
                )
        if not converter.is_coordinate_in_range(*endpoint):
            # Clip beams leaving the addressable volume: mark what is inside.
            endpoint = clip_segment_to_volume(converter, origin, endpoint)
            truncated = True
            if endpoint is None:
                continue

        ray_keys = compute_ray_keys(converter, origin, endpoint, counters=counters)
        free_keys.update(ray_keys)
        if not truncated:
            occupied_keys.add(converter.coord_to_key(*endpoint))

    free_keys -= occupied_keys
    return free_keys, occupied_keys


def insert_point_cloud(
    tree,
    cloud: PointCloud,
    origin: Sequence[float],
    max_range: float = -1.0,
    lazy_prune: bool = False,
) -> Tuple[int, int]:
    """Integrate one scan into the tree.

    Args:
        tree: target occupancy octree.
        cloud: scan points in the world frame.
        origin: sensor origin in the world frame.
        max_range: see :func:`compute_update_keys`.
        lazy_prune: when True, leaf updates are applied with ``lazy_eval`` and
            a single ``update_inner_occupancy`` + ``prune`` pass runs at the
            end of the scan (OctoMap's batch mode).  When False every update
            maintains parents and pruning eagerly, which is the behaviour the
            paper profiles on the CPU.

    Returns:
        ``(num_free_updates, num_occupied_updates)`` applied to the tree.
    """
    free_keys, occupied_keys = compute_update_keys(tree, cloud, origin, max_range)

    for key in free_keys:
        tree.update_node(key, occupied=False, lazy_eval=lazy_prune)
    for key in occupied_keys:
        tree.update_node(key, occupied=True, lazy_eval=lazy_prune)

    if lazy_prune:
        tree.update_inner_occupancy()
        tree.prune()
    return len(free_keys), len(occupied_keys)


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((a[axis] - b[axis]) ** 2 for axis in range(3)) ** 0.5


def clip_segment_to_volume(converter, origin: Sequence[float], end: Sequence[float]):
    """Shorten a segment so its endpoint lies inside the addressable volume.

    Returns the clipped endpoint, or None when even the origin lies outside
    (in which case the beam contributes nothing).  The end is clipped to 0.999
    of the volume's half extent.  An axis bounds no scale where the segment
    runs parallel to the faces it would cross (an extent below 1e-12) or where
    its origin already lies at or past that limit on the side its end lies:
    where the end lies past the limit, such an axis keeps the origin's
    coordinate, and every other axis clips as usual.  So an origin between the
    limit and a face is neither carried through the face nor clipped to
    itself.  ``dda_kernel.c`` clips with the same arithmetic, so both front
    ends and both collision-ray walks treat out-of-range segments
    identically.
    """
    if not converter.is_coordinate_in_range(*origin):
        return None
    limit = converter.max_coordinate * 0.999
    scale = 1.0
    pinned = []
    for axis in range(3):
        delta = end[axis] - origin[axis]
        if end[axis] > limit:
            bound = limit
        elif end[axis] < -limit:
            bound = -limit
        else:
            pinned.append(False)
            continue
        # The origin at or past the limit on the end's side (or no extent towards it).
        pinned.append(abs(delta) < 1e-12 or (origin[axis] >= limit if bound > 0 else origin[axis] <= -limit))
        if not pinned[axis]:
            scale = min(scale, (bound - origin[axis]) / delta)
    # Every scale an axis bounds is positive: its origin lies short of the limit its end passes.
    return tuple(
        origin[axis] if pinned[axis] else origin[axis] + (end[axis] - origin[axis]) * scale for axis in range(3)
    )
