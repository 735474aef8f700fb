"""Discretised voxel keys and coordinate conversion.

OctoMap addresses voxels with an ``OcTreeKey``: three unsigned 16-bit integers
(one per axis) obtained by discretising the metric coordinate at the finest
tree resolution and offsetting by ``tree_max_val = 2**(depth-1)`` so that the
origin sits in the middle of the addressable volume.  With the default tree
depth of 16 the key space is ``[0, 65535]^3``.

The key bits directly encode the path from the root to the leaf: at tree level
``d`` (0 = root) the child index is built from bit ``depth - 1 - d`` of the
x, y and z key components.  The OMU accelerator exploits exactly this
property -- its address-generation module derives per-level child indices from
the key bits, and its voxel scheduler partitions the tree across PEs using the
*first-level* child index (the top bit of each component).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["OcTreeKey", "KeyConverter"]


@dataclass(frozen=True, order=True)
class OcTreeKey:
    """A discretised voxel address (three unsigned 16-bit components)."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        for name, value in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"key component {name}={value} outside [0, 65535]")

    def as_tuple(self) -> Tuple[int, int, int]:
        """Return the key as a plain ``(x, y, z)`` tuple."""
        return (self.x, self.y, self.z)

    def child_index(self, level: int, tree_depth: int) -> int:
        """Child index (0..7) selected at tree ``level`` on the root-to-leaf path.

        Level 0 is the root's choice among its 8 children; level
        ``tree_depth - 1`` selects the leaf.  The index packs one bit per axis:
        bit 0 from x, bit 1 from y, bit 2 from z, matching the OctoMap and
        OMU child numbering.
        """
        if not 0 <= level < tree_depth:
            raise ValueError(f"level {level} outside [0, {tree_depth - 1}]")
        bit = tree_depth - 1 - level
        index = 0
        if (self.x >> bit) & 1:
            index |= 1
        if (self.y >> bit) & 1:
            index |= 2
        if (self.z >> bit) & 1:
            index |= 4
        return index

    def path(self, tree_depth: int, max_level: int | None = None) -> Tuple[int, ...]:
        """Sequence of child indices from the root down to ``max_level``.

        Args:
            tree_depth: total depth of the tree (16 for OctoMap).
            max_level: last level to include (exclusive); defaults to the full
                depth, i.e. the path to the leaf.
        """
        if max_level is None:
            max_level = tree_depth
        elif max_level > tree_depth:
            raise ValueError(f"level {max_level - 1} outside [0, {tree_depth - 1}]")
        # child_index() of every level, with the bit tests inlined: the point
        # read path builds one of these per voxel.
        x, y, z = self.x, self.y, self.z
        return tuple(
            [
                ((x >> bit) & 1) | (((y >> bit) & 1) << 1) | (((z >> bit) & 1) << 2)
                for bit in range(tree_depth - 1, tree_depth - 1 - max_level, -1)
            ]
        )


class KeyConverter:
    """Converts between metric coordinates and :class:`OcTreeKey` addresses.

    Args:
        resolution: edge length of a leaf voxel in metres (the paper uses
            0.2 m for its evaluation and cites 0.1 m as a typical fine
            resolution).
        tree_depth: number of tree levels below the root (OctoMap fixes this
            to 16, giving a 65536^3 voxel address space).
    """

    def __init__(self, resolution: float, tree_depth: int = 16) -> None:
        if resolution <= 0.0:
            raise ValueError(f"resolution must be positive, got {resolution!r}")
        if not 1 <= tree_depth <= 16:
            raise ValueError(f"tree_depth must be in [1, 16], got {tree_depth!r}")
        self._resolution = float(resolution)
        self._tree_depth = int(tree_depth)
        self._tree_max_val = 1 << (self._tree_depth - 1)

    @property
    def resolution(self) -> float:
        """Leaf voxel edge length in metres."""
        return self._resolution

    @property
    def tree_depth(self) -> int:
        """Number of tree levels below the root."""
        return self._tree_depth

    @property
    def tree_max_val(self) -> int:
        """Key-space offset placing the metric origin at the key-space centre."""
        return self._tree_max_val

    @property
    def max_coordinate(self) -> float:
        """Largest metric coordinate magnitude representable by the key space."""
        return self._tree_max_val * self._resolution

    def coord_to_key_component(self, coordinate: float) -> int:
        """Discretise one metric coordinate into one key component.

        Raises:
            ValueError: if the coordinate falls outside the addressable volume.
        """
        cell = coordinate / self._resolution
        # One comparison rejects what lies outside and what is not a number.
        if not -self._tree_max_val <= cell < self._tree_max_val:
            raise ValueError(
                f"coordinate {coordinate!r} outside the mappable volume "
                f"(+/- {self.max_coordinate} m at resolution {self._resolution} m)"
            )
        return math.floor(cell) + self._tree_max_val

    def key_component_to_coord(self, component: int, depth: int | None = None) -> float:
        """Convert one key component back to the voxel-centre coordinate.

        Args:
            component: key component of any leaf inside the voxel.
            depth: tree depth of the voxel; defaults to the leaf depth.
        """
        if depth is None or depth == self._tree_depth:
            return (component - self._tree_max_val + 0.5) * self._resolution
        if not 0 <= depth <= self._tree_depth:
            raise ValueError(f"depth {depth} outside [0, {self._tree_depth}]")
        node_size = self.node_size(depth)
        cells = 1 << (self._tree_depth - depth)
        grid_index = math.floor(component / cells)
        return (grid_index - self._tree_max_val / cells) * node_size + node_size / 2.0

    def coord_to_key(self, x: float, y: float, z: float) -> OcTreeKey:
        """Discretise a metric 3D point into its leaf voxel key."""
        return OcTreeKey(
            self.coord_to_key_component(x),
            self.coord_to_key_component(y),
            self.coord_to_key_component(z),
        )

    def locate_coords(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Discretise ``(N, 3)`` coordinates, marking the rows that have no key.

        Returns ``(components, inside)``: the ``(N, 3)`` ``int64`` key
        components and an ``(N,)`` bool mask that is False where a point lies
        outside the addressable volume or is not finite (its components then
        read 0).  ``np.floor`` matches ``math.floor`` for every finite
        float64, so an inside row equals :meth:`coord_to_key` of the same
        point exactly.
        """
        coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
        finite = np.isfinite(coords).all(axis=1)
        # Non-finite rows are zeroed before any arithmetic: comparing or
        # casting a NaN warns on some numpy versions.
        cells = np.floor(np.where(finite[:, None], coords, 0.0) / self._resolution)
        inside = finite & ((cells >= -self._tree_max_val) & (cells < self._tree_max_val)).all(axis=1)
        offset = self._tree_max_val
        components = np.where(inside[:, None], cells, -offset).astype(np.int64) + offset
        return components, inside

    def coords_to_key_array(self, coords: np.ndarray) -> np.ndarray:
        """Discretise an ``(N, 3)`` coordinate array into ``(N, 3)`` key components.

        The array counterpart of :meth:`coord_to_key`: each row equals the
        scalar conversion of the same point exactly.

        Raises:
            ValueError: if any coordinate falls outside the addressable
                volume (same condition as :meth:`coord_to_key_component`).
        """
        components, inside = self.locate_coords(coords)
        if not inside.all():
            bad = np.asarray(coords, dtype=np.float64).reshape(-1, 3)[~inside][0]
            raise ValueError(
                f"coordinate {tuple(bad)!r} outside the mappable volume "
                f"(+/- {self.max_coordinate} m at resolution {self._resolution} m)"
            )
        return components

    def key_to_coord(self, key: OcTreeKey, depth: int | None = None) -> Tuple[float, float, float]:
        """Return the metric centre of the voxel addressed by ``key``."""
        return (
            self.key_component_to_coord(key.x, depth),
            self.key_component_to_coord(key.y, depth),
            self.key_component_to_coord(key.z, depth),
        )

    def node_size(self, depth: int) -> float:
        """Metric edge length of a node at tree ``depth`` (0 = root)."""
        if not 0 <= depth <= self._tree_depth:
            raise ValueError(f"depth {depth} outside [0, {self._tree_depth}]")
        return self._resolution * (1 << (self._tree_depth - depth))

    def is_coordinate_in_range(self, x: float, y: float, z: float) -> bool:
        """True if the point lies inside the addressable volume."""
        limit = self.max_coordinate
        return -limit <= x < limit and -limit <= y < limit and -limit <= z < limit
