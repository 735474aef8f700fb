"""Synthetic 3D scenes standing in for the OctoMap 3D scan dataset.

The paper's laser datasets are not redistributable, so each of the three maps
is replaced by an analytic scene with comparable structure:

* **corridor** (FR-079 corridor): a long indoor corridor with side rooms and
  door openings -- mostly enclosed space, long thin free volume, dense wall
  returns.
* **campus** (Freiburg campus): a large outdoor area with a ground plane,
  building facades and tree trunks -- long beams, large free volumes, a mix
  of hits and max-range misses.
* **college** (New College): an outdoor quad surrounded by walls with a few
  interior structures, scanned from very many poses with few points each.

A scene is a collection of geometric primitives (axis-aligned boxes, a ground
plane, vertical cylinders) supporting exact ray intersection; the simulated
LiDAR (:mod:`repro.datasets.sensors`) casts beams against it.  The scenes are
centred on the world origin so the octree's eight first-level branches all
receive work, which is the load-balance regime the OMU's first-level-branch
partitioning targets.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "Primitive",
    "AxisAlignedBox",
    "GroundPlane",
    "VerticalCylinder",
    "Scene",
    "corridor_scene",
    "campus_scene",
    "college_scene",
    "scene_by_name",
]

_EPSILON = 1e-9


class Primitive:
    """Base class of ray-intersectable scene primitives."""

    def intersect(self, origin: Sequence[float], direction: Sequence[float]) -> Optional[float]:
        """Return the smallest positive ray parameter hitting the primitive.

        ``direction`` must be a unit vector; ``None`` means no hit.
        """
        raise NotImplementedError


class AxisAlignedBox(Primitive):
    """A solid axis-aligned box (wall segment, building, pillar, ...)."""

    def __init__(self, minimum: Sequence[float], maximum: Sequence[float]) -> None:
        if any(minimum[axis] >= maximum[axis] for axis in range(3)):
            raise ValueError(f"degenerate box: min {minimum} max {maximum}")
        self.minimum = tuple(float(value) for value in minimum)
        self.maximum = tuple(float(value) for value in maximum)

    def intersect(self, origin: Sequence[float], direction: Sequence[float]) -> Optional[float]:
        t_near = -math.inf
        t_far = math.inf
        for axis in range(3):
            if abs(direction[axis]) < _EPSILON:
                if not self.minimum[axis] <= origin[axis] <= self.maximum[axis]:
                    return None
                continue
            t1 = (self.minimum[axis] - origin[axis]) / direction[axis]
            t2 = (self.maximum[axis] - origin[axis]) / direction[axis]
            if t1 > t2:
                t1, t2 = t2, t1
            t_near = max(t_near, t1)
            t_far = min(t_far, t2)
            if t_near > t_far:
                return None
        if t_far < _EPSILON:
            return None
        return t_near if t_near > _EPSILON else t_far


class GroundPlane(Primitive):
    """A horizontal plane ``z = height`` hit only from above."""

    def __init__(self, height: float = 0.0) -> None:
        self.height = float(height)

    def intersect(self, origin: Sequence[float], direction: Sequence[float]) -> Optional[float]:
        if abs(direction[2]) < _EPSILON:
            return None
        t = (self.height - origin[2]) / direction[2]
        return t if t > _EPSILON else None


class VerticalCylinder(Primitive):
    """A vertical cylinder (tree trunk, column) of finite height."""

    def __init__(self, center_x: float, center_y: float, radius: float, z_min: float, z_max: float) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        if z_min >= z_max:
            raise ValueError("z_min must be below z_max")
        self.center_x = float(center_x)
        self.center_y = float(center_y)
        self.radius = float(radius)
        self.z_min = float(z_min)
        self.z_max = float(z_max)

    def intersect(self, origin: Sequence[float], direction: Sequence[float]) -> Optional[float]:
        ox = origin[0] - self.center_x
        oy = origin[1] - self.center_y
        dx, dy = direction[0], direction[1]
        a = dx * dx + dy * dy
        if a < _EPSILON:
            return None
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - self.radius * self.radius
        discriminant = b * b - 4.0 * a * c
        if discriminant < 0.0:
            return None
        root = math.sqrt(discriminant)
        for t in ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)):
            if t > _EPSILON:
                z = origin[2] + direction[2] * t
                if self.z_min <= z <= self.z_max:
                    return t
        return None


class Scene:
    """A named collection of primitives supporting nearest-hit ray casting."""

    def __init__(self, name: str, primitives: Sequence[Primitive], extent_m: float) -> None:
        self.name = name
        self.primitives: List[Primitive] = list(primitives)
        self.extent_m = float(extent_m)

    def cast(
        self,
        origin: Sequence[float],
        direction: Sequence[float],
        max_range: float,
    ) -> Optional[Tuple[float, float, float]]:
        """Nearest surface hit of a ray, or None when nothing is hit in range."""
        best: Optional[float] = None
        for primitive in self.primitives:
            t = primitive.intersect(origin, direction)
            if t is not None and t <= max_range and (best is None or t < best):
                best = t
        if best is None:
            return None
        return (
            origin[0] + direction[0] * best,
            origin[1] + direction[1] * best,
            origin[2] + direction[2] * best,
        )


def corridor_scene(
    length_m: float = 36.0,
    width_m: float = 2.4,
    height_m: float = 2.8,
    floor_z: float = -1.3,
) -> Scene:
    """Indoor corridor with side rooms, standing in for FR-079.

    The corridor runs along the x axis, centred on the origin; two side rooms
    open off it and a few cabinet-sized boxes line the walls so the scans
    contain fine structure that defeats trivial pruning.  The floor sits at
    ``floor_z`` (the sensor travels at z = 0), so the world origin -- and with
    it the octree's first-level branch boundary -- lies inside the observed
    volume and all eight PEs receive work.
    """
    half_length = length_m / 2.0
    half_width = width_m / 2.0
    wall = 0.2
    ceiling_z = floor_z + height_m
    primitives: List[Primitive] = [
        GroundPlane(floor_z),
        # ceiling
        AxisAlignedBox((-half_length, -half_width - 2.0, ceiling_z), (half_length, half_width + 2.0, ceiling_z + wall)),
        # long side walls (with a gap for each side room)
        AxisAlignedBox((-half_length, half_width, floor_z), (-2.0, half_width + wall, ceiling_z)),
        AxisAlignedBox((2.0, half_width, floor_z), (half_length, half_width + wall, ceiling_z)),
        AxisAlignedBox((-half_length, -half_width - wall, floor_z), (-6.0, -half_width, ceiling_z)),
        AxisAlignedBox((-2.0, -half_width - wall, floor_z), (half_length, -half_width, ceiling_z)),
        # end walls
        AxisAlignedBox((-half_length - wall, -half_width - 2.0, floor_z), (-half_length, half_width + 2.0, ceiling_z)),
        AxisAlignedBox((half_length, -half_width - 2.0, floor_z), (half_length + wall, half_width + 2.0, ceiling_z)),
        # side room A (positive y, entered through the gap at x in [-2, 2])
        AxisAlignedBox((-2.0 - wall, half_width + 3.0, floor_z), (2.0 + wall, half_width + 3.0 + wall, ceiling_z)),
        AxisAlignedBox((-2.0 - wall, half_width, floor_z), (-2.0, half_width + 3.0, ceiling_z)),
        AxisAlignedBox((2.0, half_width, floor_z), (2.0 + wall, half_width + 3.0, ceiling_z)),
        # side room B (negative y, entered through the gap at x in [-6, -2])
        AxisAlignedBox((-6.0 - wall, -half_width - 2.5 - wall, floor_z), (-2.0 + wall, -half_width - 2.5, ceiling_z)),
        AxisAlignedBox((-6.0 - wall, -half_width - 2.5, floor_z), (-6.0, -half_width, ceiling_z)),
        AxisAlignedBox((-2.0, -half_width - 2.5, floor_z), (-2.0 + wall, -half_width, ceiling_z)),
    ]
    # cabinets along the corridor walls
    for index, x in enumerate(range(-14, 15, 4)):
        side = 1.0 if index % 2 == 0 else -1.0
        y0 = side * (half_width - 0.45)
        primitives.append(
            AxisAlignedBox(
                (x, min(y0, y0 + 0.4 * side), floor_z),
                (x + 0.8, max(y0, y0 + 0.4 * side), floor_z + 1.2 + 0.1 * (index % 3)),
            )
        )
    return Scene("corridor", primitives, extent_m=length_m)


def campus_scene(extent_m: float = 80.0, floor_z: float = -1.6) -> Scene:
    """Outdoor campus: ground, building facades and tree rows (Freiburg campus).

    The ground plane sits at ``floor_z`` so the sensor trajectory at z = 0
    straddles the octree's first-level branch boundary (see
    :func:`corridor_scene`).
    """
    half = extent_m / 2.0
    primitives: List[Primitive] = [GroundPlane(floor_z)]
    # buildings around a central open area
    buildings = [
        ((-half + 5.0, -half + 5.0), (18.0, 12.0, 9.0)),
        ((half - 30.0, -half + 8.0), (22.0, 10.0, 12.0)),
        ((-half + 8.0, half - 22.0), (14.0, 16.0, 7.0)),
        ((half - 24.0, half - 18.0), (16.0, 12.0, 10.0)),
        ((-6.0, -10.0), (10.0, 6.0, 5.0)),
    ]
    for (base_x, base_y), (size_x, size_y, size_z) in buildings:
        primitives.append(
            AxisAlignedBox((base_x, base_y, floor_z), (base_x + size_x, base_y + size_y, floor_z + size_z))
        )
    # rows of trees along two avenues
    for index in range(10):
        x = -half + 8.0 + index * (extent_m - 16.0) / 9.0
        primitives.append(VerticalCylinder(x, 14.0, 0.35, floor_z, floor_z + 6.0))
        primitives.append(VerticalCylinder(x, -16.0, 0.4, floor_z, floor_z + 7.0))
    return Scene("campus", primitives, extent_m=extent_m)


def college_scene(extent_m: float = 60.0, floor_z: float = -1.4) -> Scene:
    """Outdoor quad enclosed by walls with interior structures (New College).

    The ground plane sits at ``floor_z`` so the sensor trajectory at z = 0
    straddles the octree's first-level branch boundary (see
    :func:`corridor_scene`).
    """
    half = extent_m / 2.0
    wall = 0.4
    wall_top = floor_z + 4.0
    primitives: List[Primitive] = [
        GroundPlane(floor_z),
        AxisAlignedBox((-half, -half, floor_z), (half, -half + wall, wall_top)),
        AxisAlignedBox((-half, half - wall, floor_z), (half, half, wall_top)),
        AxisAlignedBox((-half, -half, floor_z), (-half + wall, half, wall_top)),
        AxisAlignedBox((half - wall, -half, floor_z), (half, half, wall_top)),
        # central monument and two garden beds
        AxisAlignedBox((-2.0, -2.0, floor_z), (2.0, 2.0, floor_z + 3.0)),
        AxisAlignedBox((-18.0, 8.0, floor_z), (-8.0, 12.0, floor_z + 0.8)),
        AxisAlignedBox((8.0, -14.0, floor_z), (16.0, -9.0, floor_z + 0.8)),
    ]
    for index in range(8):
        angle = index * math.tau / 8.0
        primitives.append(
            VerticalCylinder(12.0 * math.cos(angle), 12.0 * math.sin(angle), 0.3, floor_z, floor_z + 5.0)
        )
    return Scene("college", primitives, extent_m=extent_m)


def scene_by_name(name: str) -> Scene:
    """Instantiate one of the three named scenes.

    Raises:
        KeyError: for unknown scene names.
    """
    factories = {
        "corridor": corridor_scene,
        "campus": campus_scene,
        "college": college_scene,
    }
    if name not in factories:
        raise KeyError(f"unknown scene {name!r}; valid scenes: {sorted(factories)}")
    return factories[name]()
