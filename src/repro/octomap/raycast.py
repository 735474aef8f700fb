"""3D ray traversal over the voxel grid (ray casting).

Ray casting turns one sensor beam into the set of voxels it traverses: every
voxel between the sensor origin and the measured endpoint is a *free-space*
observation, the endpoint voxel is an *occupied* observation (paper Fig. 1).
The traversal uses the Amanatides & Woo digital differential analyser (DDA),
the same algorithm OctoMap's ``computeRayKeys`` implements, stepping from
voxel boundary to voxel boundary without ever skipping a cell.

:func:`compute_ray_keys` enumerates the voxel keys crossed by a segment (used
during map *building*); collision rays through a served map are walked by
:func:`repro.octomap.raycast_vec.compute_ray_codes`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.octomap.keys import KeyConverter, OcTreeKey

__all__ = ["compute_ray_keys"]

_EPSILON = 1e-12


def compute_ray_keys(
    converter: KeyConverter,
    origin: Sequence[float],
    end: Sequence[float],
    counters=None,
) -> List[OcTreeKey]:
    """Enumerate the voxels strictly between ``origin`` and ``end``.

    The endpoint voxel itself is *not* included (it is registered as occupied
    separately), matching OctoMap's ``computeRayKeys`` contract.

    Args:
        converter: key converter defining resolution and addressable volume.
        origin: sensor origin ``(x, y, z)`` in metres.
        end: beam endpoint ``(x, y, z)`` in metres.
        counters: optional :class:`OperationCounters`; each traversed voxel
            increments ``ray_steps``.

    Returns:
        The traversed voxel keys in order from the origin towards the end.
    """
    origin_key = converter.coord_to_key(*origin)
    end_key = converter.coord_to_key(*end)
    keys: List[OcTreeKey] = []
    if origin_key == end_key:
        return keys

    direction = [end[axis] - origin[axis] for axis in range(3)]
    length = math.sqrt(sum(component * component for component in direction))
    if length < _EPSILON:
        return keys
    direction = [component / length for component in direction]

    current = list(origin_key.as_tuple())
    end_components = end_key.as_tuple()
    resolution = converter.resolution

    step = [0, 0, 0]
    t_max = [float("inf")] * 3
    t_delta = [float("inf")] * 3
    voxel_border_offset = 0.5 * resolution

    origin_center = converter.key_to_coord(origin_key)
    for axis in range(3):
        if direction[axis] > _EPSILON:
            step[axis] = 1
        elif direction[axis] < -_EPSILON:
            step[axis] = -1
        else:
            step[axis] = 0
        if step[axis] != 0:
            border = origin_center[axis] + step[axis] * voxel_border_offset
            t_max[axis] = (border - origin[axis]) / direction[axis]
            t_delta[axis] = resolution / abs(direction[axis])

    max_steps = int(3 * (length / resolution + 2)) + 8
    for _ in range(max_steps):
        axis = t_max.index(min(t_max))
        if t_max[axis] > length:
            # The next voxel-boundary crossing lies beyond the endpoint, so
            # every free voxel of this beam has already been enumerated.
            break
        current[axis] += step[axis]
        t_max[axis] += t_delta[axis]
        if not 0 <= current[axis] <= 0xFFFF:
            break
        key = OcTreeKey(current[0], current[1], current[2])
        if key == end_key:
            break
        keys.append(key)
        if counters is not None:
            counters.ray_steps += 1
    return keys

