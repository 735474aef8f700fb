"""Address generation: from voxel keys to per-level child indices.

The OMU address-generation module (Fig. 4, block "Addr Gen") turns the input
voxel coordinate into the sequence of child indices that guides the TreeMem
accesses at each tree depth.  Because the OcTreeKey bits directly encode the
root-to-leaf path (one bit per axis per level), the hardware is a simple bit
multiplexer; this model reuses :class:`repro.octomap.keys.OcTreeKey` and adds
the PE-routing view of the same bits:

* level 0 (the root's child choice) selects the **PE** that owns the voxel --
  this is the first-level tree-branch partitioning of Section IV-A;
* levels 1 .. depth-1 select the banks/rows walked inside that PE.

For whole key arrays the PE kernels (``pe_kernel.c``) derive the same bits
in C, update and read alike.
"""

from __future__ import annotations

import numpy as np

from repro.octomap.keys import KeyConverter, OcTreeKey

__all__ = ["AddressGenerator", "key_columns"]

#: ``_SPREAD[b]``: the bits of byte ``b`` moved from position ``i`` to ``3 * i``
#: -- one table, as Python ints for the scalar ``shard_index`` and as an
#: ndarray for the gather in ``shard_indices``.
_SPREAD = [sum(((byte >> bit) & 1) << (3 * bit) for bit in range(8)) for byte in range(256)]
_SPREAD_TABLE = np.array(_SPREAD, dtype=np.int64)


def key_columns(keys) -> np.ndarray:
    """``keys`` as the PE kernels take them, C-contiguous ``(N, 3)`` ``uint16``; a
    ``ValueError`` for a component outside the 16-bit key space, rather than wrapping it."""
    keys = np.asarray(keys)
    if keys.dtype != np.uint16 and keys.size and not (0 <= keys.min() and keys.max() <= 0xFFFF):
        raise ValueError("key component outside [0, 65535]")
    return np.ascontiguousarray(keys, dtype=np.uint16).reshape(-1, 3)


class AddressGenerator:
    """Derives PE routing and per-level child indices from voxel keys."""

    def __init__(self, resolution_m: float, tree_depth: int, num_pes: int) -> None:
        if num_pes < 1:
            raise ValueError("num_pes must be at least 1")
        self._converter = KeyConverter(resolution_m, tree_depth)
        self._tree_depth = tree_depth
        self._num_pes = num_pes

    @property
    def converter(self) -> KeyConverter:
        """The coordinate <-> key converter used by the accelerator."""
        return self._converter

    def key_for_point(self, x: float, y: float, z: float) -> OcTreeKey:
        """Discretise a metric point into its voxel key."""
        return self._converter.coord_to_key(x, y, z)

    def branch_id(self, key: OcTreeKey) -> int:
        """First-level tree branch (0..7) of a voxel -- the partitioning index."""
        return key.child_index(0, self._tree_depth)

    def pe_for_key(self, key: OcTreeKey) -> int:
        """PE that owns the voxel.

        With the paper's 8 PEs this is exactly the first-level branch.  For
        the PE-count ablation, fewer PEs each own several branches
        (``branch % num_pes``); :class:`~repro.core.config.OMUConfig` allows
        1 to 8 PEs.
        """
        return self.branch_id(key) % self._num_pes

    def shard_index(self, key: OcTreeKey, num_shards: int, prefix_levels: int = 1) -> int:
        """Shard (0..num_shards-1) owning a voxel, from its key prefix.

        The prefix is folded into a subtree number and reduced modulo the
        shard count, so any ``num_shards >= 1`` yields a total, deterministic
        and spatially coherent partition of the key space.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 1 <= prefix_levels <= self._tree_depth:
            raise ValueError(
                f"prefix_levels must be in [1, {self._tree_depth}], got {prefix_levels}"
            )
        # Folding the prefix's child indices (x bit lowest) base 8 interleaves
        # the top ``prefix_levels`` bits of the three components.
        shift = self._tree_depth - prefix_levels
        mask = (1 << prefix_levels) - 1
        x, y, z = (key.x >> shift) & mask, (key.y >> shift) & mask, (key.z >> shift) & mask
        subtree = (
            (_SPREAD[x & 0xFF] | _SPREAD[x >> 8] << 24)
            | (_SPREAD[y & 0xFF] | _SPREAD[y >> 8] << 24) << 1
            | (_SPREAD[z & 0xFF] | _SPREAD[z >> 8] << 24) << 2
        )
        return subtree % num_shards

    def shard_indices(self, keys: np.ndarray, num_shards: int, prefix_levels: int = 1) -> np.ndarray:
        """Array counterpart of :meth:`shard_index` for ``(N, 3)`` key components.

        Folds the first ``prefix_levels`` child indices of every key into a
        subtree number and reduces modulo the shard count -- the same
        arithmetic as the scalar path, so ``shard_indices(keys)[i] ==
        shard_index(OcTreeKey(*keys[i]))`` for every row.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 1 <= prefix_levels <= self._tree_depth:
            raise ValueError(
                f"prefix_levels must be in [1, {self._tree_depth}], got {prefix_levels}"
            )
        shift = self._tree_depth - prefix_levels
        top = (np.asarray(keys, dtype=np.int64) >> shift) & ((1 << prefix_levels) - 1)
        # At most 16 bits per component, spread a byte at a time: the subtree
        # number has at most 48 bits, so int64 holds it.
        spread = _SPREAD_TABLE[top & 0xFF] | _SPREAD_TABLE[top >> 8] << 24
        subtree = spread[:, 0] | spread[:, 1] << 1 | spread[:, 2] << 2
        return subtree % num_shards
