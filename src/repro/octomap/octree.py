"""The probabilistic occupancy octree (software OctoMap).

:class:`OccupancyOcTree` is the Python equivalent of OctoMap's
``octomap::OcTree``: a depth-16 octree whose leaves carry clamped log-odds
occupancy values.  It implements the three basic operations the paper
describes in Section III-A:

1. **update leaf** -- add the measurement log-odds to the leaf found by the
   voxel key (eq. (2)),
2. **update parents** -- recursively propagate the max-of-children occupancy
   towards the root (eq. (3)),
3. **node prune / expand** -- collapse eight identical children into their
   parent, or re-expand a pruned node when a finer update arrives
   (Fig. 2(b)).

Every primitive operation is counted through an :class:`OperationCounters`
instance so that the paper's runtime breakdowns (Fig. 3 and Fig. 10) can be
reproduced by attaching per-operation costs afterwards.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.octomap.counters import OperationCounters
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.logodds import DEFAULT_PARAMS, OccupancyParams
from repro.octomap.node import OcTreeNode

__all__ = ["OccupancyOcTree", "LeafVoxel"]


class LeafVoxel:
    """A leaf reported by tree iteration: key, depth, size and value."""

    __slots__ = ("key", "depth", "log_odds", "size", "center")

    def __init__(
        self,
        key: OcTreeKey,
        depth: int,
        log_odds: float,
        size: float,
        center: Tuple[float, float, float],
    ) -> None:
        self.key = key
        self.depth = depth
        self.log_odds = log_odds
        self.size = size
        self.center = center


class OccupancyOcTree:
    """A probabilistic 3D occupancy map stored as an octree.

    Args:
        resolution: leaf voxel edge length in metres.
        tree_depth: number of levels below the root (16 in OctoMap and OMU).
        params: occupancy update / clamping parameters.
        counters: operation counter sink; a fresh one is created if omitted.
    """

    def __init__(
        self,
        resolution: float,
        tree_depth: int = 16,
        params: OccupancyParams = DEFAULT_PARAMS,
        counters: Optional[OperationCounters] = None,
    ) -> None:
        self._converter = KeyConverter(resolution, tree_depth)
        self._params = params
        self._counters = counters if counters is not None else OperationCounters()
        self._root: Optional[OcTreeNode] = None
        self._num_nodes = 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def resolution(self) -> float:
        """Leaf voxel edge length in metres."""
        return self._converter.resolution

    @property
    def tree_depth(self) -> int:
        """Number of tree levels below the root."""
        return self._converter.tree_depth

    @property
    def params(self) -> OccupancyParams:
        """Occupancy update parameters used by this tree."""
        return self._params

    @property
    def counters(self) -> OperationCounters:
        """Operation counters accumulated by this tree."""
        return self._counters

    @property
    def key_converter(self) -> KeyConverter:
        """The coordinate <-> key converter of this tree."""
        return self._converter

    @property
    def root(self) -> Optional[OcTreeNode]:
        """Root node, or ``None`` for an empty tree."""
        return self._root

    def size(self) -> int:
        """Total number of nodes currently allocated in the tree."""
        return self._num_nodes

    # ------------------------------------------------------------------
    # Key helpers (thin delegation, kept on the tree for API convenience)
    # ------------------------------------------------------------------
    def coord_to_key(self, x: float, y: float, z: float) -> OcTreeKey:
        """Discretise a metric point into a leaf key."""
        return self._converter.coord_to_key(x, y, z)

    def key_to_coord(self, key: OcTreeKey, depth: Optional[int] = None) -> Tuple[float, float, float]:
        """Metric centre of the voxel addressed by ``key``."""
        return self._converter.key_to_coord(key, depth)

    def node_size(self, depth: int) -> float:
        """Edge length of a node at the given depth."""
        return self._converter.node_size(depth)

    # ------------------------------------------------------------------
    # Map update
    # ------------------------------------------------------------------
    def update_node(
        self,
        key_or_x,
        y: Optional[float] = None,
        z: Optional[float] = None,
        *,
        occupied: bool,
        lazy_eval: bool = False,
    ) -> OcTreeNode:
        """Integrate one measurement for one voxel.

        Accepts either an :class:`OcTreeKey` or metric ``x, y, z`` coordinates.
        With ``lazy_eval=True`` the parent update and pruning are skipped;
        call :meth:`update_inner_occupancy` followed by :meth:`prune` once a
        whole batch has been inserted (this mirrors OctoMap's lazy insertion
        mode and is what the scan-insertion path uses).

        Returns the leaf node that received the update.
        """
        key = self._as_key(key_or_x, y, z)
        root_created = False
        if self._root is None:
            self._root = OcTreeNode(0.0)
            self._num_nodes = 1
            self._counters.node_allocations += 1
            root_created = True
        return self._update_node_recurs(self._root, root_created, key, 0, occupied, lazy_eval)

    def _update_node_recurs(
        self,
        node: OcTreeNode,
        node_just_created: bool,
        key: OcTreeKey,
        depth: int,
        occupied: bool,
        lazy_eval: bool,
    ) -> OcTreeNode:
        if depth == self.tree_depth:
            # Leaf: apply the clamped log-odds update (paper eq. (2)).
            node.log_odds = self._params.update(node.log_odds, occupied)
            self._counters.leaf_updates += 1
            return node

        child_index = key.child_index(depth, self.tree_depth)
        created_child = False
        if not node.child_exists(child_index):
            if not node.has_children() and not node_just_created:
                # The node is a pruned leaf covering a homogeneous region.
                # A finer update forces re-expansion (paper Fig. 2 inverse).
                node.expand()
                self._num_nodes += 8
                self._counters.expansions += 1
                self._counters.node_allocations += 8
            else:
                node.create_child(child_index, 0.0)
                self._num_nodes += 1
                self._counters.node_allocations += 1
                created_child = True

        child = node.child(child_index)
        assert child is not None
        leaf = self._update_node_recurs(child, created_child, key, depth + 1, occupied, lazy_eval)

        if lazy_eval:
            return leaf

        # Parent update (paper eq. (3)) and pruning check.  Reading the eight
        # children is the irregular-memory-access hot spot the paper measures.
        self._counters.child_reads += 8
        self._counters.prune_checks += 1
        if node.is_prunable():
            deleted = node.prune()
            self._num_nodes -= deleted
            self._counters.prunes += 1
            self._counters.node_deletions += deleted
        else:
            node.update_occupancy_from_children()
            self._counters.parent_updates += 1
        return leaf

    def set_node_log_odds(
        self, key: OcTreeKey, log_odds: float, propagate: bool = True
    ) -> OcTreeNode:
        """Force a leaf to an exact (clamped) log-odds value.

        Used by the verification harness to replay accelerator state into a
        software tree; counted as a leaf update.

        Args:
            key: leaf voxel to write.
            log_odds: value to store (clamped to the tree's bounds).
            propagate: when True (the default) inner occupancy is recomputed
                immediately.  Batch writers (accelerator export, shard
                stitching) pass False and call
                :meth:`update_inner_occupancy` once at the end -- the
                per-call propagation is a whole-tree pass, which turns an
                N-leaf replay quadratic.
        """
        just_created = False
        if self._root is None:
            self._root = OcTreeNode(0.0)
            self._num_nodes = 1
            self._counters.node_allocations += 1
            just_created = True
        node: OcTreeNode = self._root
        path = key.path(self.tree_depth)
        for depth, child_index in enumerate(path):
            if not node.child_exists(child_index):
                if not node.has_children() and not just_created:
                    node.expand()
                    self._num_nodes += 8
                    self._counters.expansions += 1
                    self._counters.node_allocations += 8
                    just_created = False
                else:
                    node.create_child(child_index, 0.0)
                    self._num_nodes += 1
                    self._counters.node_allocations += 1
                    just_created = True
            else:
                just_created = False
            node = node.child(child_index)  # type: ignore[assignment]
        node.log_odds = self._params.clamp(log_odds)
        self._counters.leaf_updates += 1
        if propagate:
            self.update_inner_occupancy()
        return node

    def update_inner_occupancy(self) -> None:
        """Recompute every inner node's occupancy from its children.

        Required after a batch of ``lazy_eval`` updates, before pruning.
        """
        if self._root is None or not self._root.has_children():
            return
        self._update_inner_occupancy_recurs(self._root)

    def _update_inner_occupancy_recurs(self, node: OcTreeNode) -> None:
        if not node.has_children():
            return
        for _, child in node.children():
            self._update_inner_occupancy_recurs(child)
        node.update_occupancy_from_children()
        self._counters.parent_updates += 1
        self._counters.child_reads += 8

    def prune(self) -> int:
        """Prune the whole tree bottom-up; returns the number of pruned subtrees.

        The paper reports that pruning reduces OctoMap memory by up to 44 %
        with no accuracy loss; :meth:`size` before/after shows the same
        effect on this implementation.
        """
        if self._root is None:
            return 0
        return self._prune_recurs(self._root)

    def _prune_recurs(self, node: OcTreeNode) -> int:
        if not node.has_children():
            return 0
        pruned = 0
        for _, child in node.children():
            pruned += self._prune_recurs(child)
        self._counters.prune_checks += 1
        self._counters.child_reads += 8
        if node.is_prunable():
            deleted = node.prune()
            self._num_nodes -= deleted
            self._counters.prunes += 1
            self._counters.node_deletions += deleted
            pruned += 1
        return pruned

    # ------------------------------------------------------------------
    # Search and queries
    # ------------------------------------------------------------------
    def search(
        self,
        key_or_x,
        y: Optional[float] = None,
        z: Optional[float] = None,
        depth: int = 0,
    ) -> Optional[OcTreeNode]:
        """Find the node covering a voxel.

        Args:
            key_or_x: an :class:`OcTreeKey` or the x coordinate.
            y, z: remaining coordinates when metric values are given.
            depth: maximum depth to descend to (0 means full depth); the
                returned node may be shallower when the region is pruned.

        Returns the node (leaf or pruned ancestor) or ``None`` if the voxel
        lies in unknown space.
        """
        key = self._as_key(key_or_x, y, z)
        self._counters.queries += 1
        if self._root is None:
            return None
        max_depth = self.tree_depth if depth == 0 else min(depth, self.tree_depth)
        node = self._root
        for level in range(max_depth):
            child_index = key.child_index(level, self.tree_depth)
            if node.child_exists(child_index):
                node = node.child(child_index)  # type: ignore[assignment]
            elif node.has_children():
                # Some sibling exists but this octant was never observed.
                return None
            else:
                # Pruned homogeneous region: the ancestor answers the query.
                return node
        return node

    def is_node_occupied(self, node: OcTreeNode) -> bool:
        """Classify a node as occupied using the tree's threshold."""
        return self._params.is_occupied(node.log_odds)

    def classify(self, key_or_x, y: Optional[float] = None, z: Optional[float] = None) -> str:
        """Return ``"occupied"``, ``"free"`` or ``"unknown"`` for a voxel."""
        node = self.search(key_or_x, y, z)
        if node is None:
            return "unknown"
        return "occupied" if self.is_node_occupied(node) else "free"

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_leafs(self, max_depth: int = 0) -> Iterator[LeafVoxel]:
        """Yield every leaf (including pruned homogeneous regions).

        Args:
            max_depth: stop descending at this depth (0 = full depth); nodes
                at the cut-off are reported as leaves of that size, which is
                how OctoMap serves multi-resolution queries.
        """
        if self._root is None:
            return
        limit = self.tree_depth if max_depth == 0 else min(max_depth, self.tree_depth)
        stack: List[Tuple[OcTreeNode, int, int, int, int]] = [(self._root, 0, 0, 0, 0)]
        while stack:
            node, depth, kx, ky, kz = stack.pop()
            if depth == limit or not node.has_children():
                key = self._leaf_key(kx, ky, kz, depth)
                yield LeafVoxel(
                    key=key,
                    depth=depth,
                    log_odds=node.log_odds,
                    size=self.node_size(depth),
                    center=self.key_to_coord(key, depth),
                )
                continue
            bit = self.tree_depth - 1 - depth
            for index, child in node.children():
                cx = kx | (((index >> 0) & 1) << bit)
                cy = ky | (((index >> 1) & 1) << bit)
                cz = kz | (((index >> 2) & 1) << bit)
                stack.append((child, depth + 1, cx, cy, cz))

    def _leaf_key(self, kx: int, ky: int, kz: int, depth: int) -> OcTreeKey:
        if depth == self.tree_depth:
            return OcTreeKey(kx, ky, kz)
        half = 1 << (self.tree_depth - depth - 1)
        return OcTreeKey(kx + half, ky + half, kz + half)

    def iter_occupied(self, max_depth: int = 0) -> Iterator[LeafVoxel]:
        """Yield only the leaves classified as occupied."""
        for leaf in self.iter_leafs(max_depth):
            if self._params.is_occupied(leaf.log_odds):
                yield leaf

    def iter_free(self, max_depth: int = 0) -> Iterator[LeafVoxel]:
        """Yield only the leaves classified as free."""
        for leaf in self.iter_leafs(max_depth):
            if not self._params.is_occupied(leaf.log_odds):
                yield leaf

    def num_leaf_nodes(self) -> int:
        """Number of leaves (pruned regions count once)."""
        return sum(1 for _ in self.iter_leafs())

    def occupancy_grid(self) -> Dict[Tuple[int, int, int], float]:
        """Flatten the map into a ``{key tuple: log-odds}`` dictionary.

        Pruned regions are expanded virtually so the dictionary always holds
        finest-resolution voxels; used by the verification harness to compare
        maps produced by different backends.
        """
        grid: Dict[Tuple[int, int, int], float] = {}
        for leaf in self.iter_leafs():
            if leaf.depth == self.tree_depth:
                grid[leaf.key.as_tuple()] = leaf.log_odds
                continue
            # Virtually expand the pruned region.
            span = 1 << (self.tree_depth - leaf.depth)
            base_x = leaf.key.x - span // 2
            base_y = leaf.key.y - span // 2
            base_z = leaf.key.z - span // 2
            for dx in range(span):
                for dy in range(span):
                    for dz in range(span):
                        grid[(base_x + dx, base_y + dy, base_z + dz)] = leaf.log_odds
        return grid

    # ------------------------------------------------------------------
    # Convenience wrappers around the ray-casting / scan-insertion modules
    # ------------------------------------------------------------------
    def insert_point_cloud(self, cloud, origin, max_range: float = -1.0, lazy_prune: bool = False) -> None:
        """Integrate a sensor scan; see :func:`repro.octomap.scan_insertion.insert_point_cloud`."""
        from repro.octomap.scan_insertion import insert_point_cloud

        insert_point_cloud(self, cloud, origin, max_range=max_range, lazy_prune=lazy_prune)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _as_key(self, key_or_x, y: Optional[float], z: Optional[float]) -> OcTreeKey:
        if isinstance(key_or_x, OcTreeKey):
            return key_or_x
        if y is None or z is None:
            raise TypeError("metric lookup requires x, y and z coordinates")
        return self.coord_to_key(float(key_or_x), y, z)
