"""The collision raycast as one point query per voxel: the oracle of the run walk.

:meth:`repro.serving.query_engine.QueryEngine.raycast` reads a ray's
uncached voxels in same-shard runs.  This is the walk it must be
indistinguishable from: every voxel in ray order through
:meth:`QueryEngine.query` at its centre (one cache lookup, and on a miss one
``ShardBackend.query_key`` round trip and one put), stopping at the first
occupied voxel.  Run on a session that saw the same history, it must leave
the same ``RaycastResponse``, the same cache entries in the same order, the
same ``CacheStats``, ``point_queries`` and accelerator read counters.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.octomap.keys import OcTreeKey
from repro.octomap.raycast import compute_ray_keys
from repro.octomap.scan_insertion import clip_segment_to_volume
from repro.serving.query_engine import QueryEngine
from repro.serving.types import RaycastResponse

__all__ = ["oracle_raycast"]


def oracle_raycast(
    engine: QueryEngine,
    origin: Sequence[float],
    direction: Sequence[float],
    max_range: float,
) -> RaycastResponse:
    """What ``engine.raycast(origin, direction, max_range)`` must answer and leave behind."""
    norm = math.sqrt(sum(component * component for component in direction))
    if not all(math.isfinite(value) for value in (*origin, norm, max_range)):
        raise ValueError(
            "raycast origin, direction and max_range must be finite, got "
            f"{tuple(origin)!r}, {tuple(direction)!r}, {max_range!r}"
        )
    if max_range <= 0.0:
        raise ValueError("max_range must be positive")
    if norm <= 0.0:
        raise ValueError("direction must be a non-zero vector")
    engine.stats.raycast_queries += 1
    converter = engine.router.converter
    miss = RaycastResponse(hit=False, hit_point=None, distance=0.0, voxels_traversed=0, cache_hits=0)
    if not converter.is_coordinate_in_range(*origin):
        return miss
    end = tuple(origin[axis] + direction[axis] / norm * max_range for axis in range(3))
    if not converter.is_coordinate_in_range(*end):
        clipped = clip_segment_to_volume(converter, origin, end)
        if clipped is None:
            return miss
        end = clipped
    traversed_range = math.sqrt(sum((end[axis] - origin[axis]) ** 2 for axis in range(3)))

    hits_before = engine.cache.stats.hits
    traversed = 0
    keys: List[OcTreeKey] = compute_ray_keys(converter, origin, end)
    end_key = converter.coord_to_key(*end)
    if not keys or keys[-1] != end_key:
        keys.append(end_key)
    for key in keys:
        traversed += 1
        centre = converter.key_to_coord(key)
        if engine.query(*centre).occupied:
            distance = math.sqrt(sum((centre[axis] - origin[axis]) ** 2 for axis in range(3)))
            return RaycastResponse(
                hit=True,
                hit_point=centre,
                distance=distance,
                voxels_traversed=traversed,
                cache_hits=engine.cache.stats.hits - hits_before,
            )
    return RaycastResponse(
        hit=False,
        hit_point=None,
        distance=traversed_range,
        voxels_traversed=traversed,
        cache_hits=engine.cache.stats.hits - hits_before,
    )
