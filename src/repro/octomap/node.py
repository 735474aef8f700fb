"""Octree node with the max-of-children occupancy policy.

A node stores a clamped log-odds occupancy value and, when it is an inner
node, references to up to eight children.  The parent occupancy policy is the
paper's eq. (3): a parent takes the *maximum* log-odds of its children, which
is the conservative choice for collision avoidance (a coarse query reports
"occupied" if any descendant is occupied).

A node is *prunable* when all eight children exist, none of them has children
of its own, and they all carry the same log-odds value -- in that case the
eight leaves can be deleted and the parent becomes a leaf with that shared
value (paper Fig. 2(b)), saving memory without changing any query result.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

__all__ = ["OcTreeNode", "PRUNE_EPSILON"]

PRUNE_EPSILON = 1e-9
"""Tolerance used when comparing children log-odds values for pruning.

The C++ OctoMap compares floats exactly; the clamping policy makes stable
values bit-identical so exact comparison works there.  The Python model keeps
a tiny epsilon to be robust to float round-trips through serialization while
remaining far below the smallest meaningful log-odds increment (~0.4).
"""


class OcTreeNode:
    """One node of the occupancy octree.

    Attributes:
        log_odds: clamped log-odds occupancy value of this node.  For inner
            nodes this is the aggregate (max of children) maintained by the
            tree's parent-update pass.
    """

    __slots__ = ("log_odds", "_children")

    def __init__(self, log_odds: float = 0.0) -> None:
        self.log_odds = float(log_odds)
        self._children: Optional[List[Optional["OcTreeNode"]]] = None

    # ------------------------------------------------------------------
    # Child management
    # ------------------------------------------------------------------
    def has_children(self) -> bool:
        """True if at least one child node exists."""
        if self._children is None:
            return False
        return any(child is not None for child in self._children)

    def child(self, index: int) -> Optional["OcTreeNode"]:
        """Return child ``index`` (0..7) or ``None`` if it does not exist."""
        self._check_index(index)
        if self._children is None:
            return None
        return self._children[index]

    def child_exists(self, index: int) -> bool:
        """True if child ``index`` has been created."""
        return self.child(index) is not None

    def create_child(self, index: int, log_odds: float = 0.0) -> "OcTreeNode":
        """Create (or return the existing) child at ``index``.

        New children inherit ``log_odds`` -- when expanding a pruned node the
        caller passes the parent's value so the expansion is lossless.
        """
        self._check_index(index)
        if self._children is None:
            self._children = [None] * 8
        existing = self._children[index]
        if existing is not None:
            return existing
        node = OcTreeNode(log_odds)
        self._children[index] = node
        return node

    def delete_children(self) -> int:
        """Remove all children, returning how many nodes were deleted."""
        if self._children is None:
            return 0
        count = sum(1 for child in self._children if child is not None)
        self._children = None
        return count

    def children(self) -> Iterator[tuple[int, "OcTreeNode"]]:
        """Iterate over existing children as ``(index, node)`` pairs."""
        if self._children is None:
            return
        for index, child in enumerate(self._children):
            if child is not None:
                yield index, child

    # ------------------------------------------------------------------
    # Occupancy aggregation (paper eq. (3)) and pruning predicate
    # ------------------------------------------------------------------
    def max_child_log_odds(self) -> float:
        """Maximum log-odds among existing children (paper eq. (3)).

        Raises:
            ValueError: if the node has no children.
        """
        values = [child.log_odds for _, child in self.children()]
        if not values:
            raise ValueError("max_child_log_odds called on a node without children")
        return max(values)

    def update_occupancy_from_children(self) -> None:
        """Set this node's log-odds to the maximum of its children."""
        self.log_odds = self.max_child_log_odds()

    def is_prunable(self) -> bool:
        """True if the eight children are identical leaves (paper Fig. 2(b))."""
        if self._children is None:
            return False
        first: Optional[OcTreeNode] = None
        for index in range(8):
            child = self._children[index]
            if child is None or child.has_children():
                return False
            if first is None:
                first = child
            elif abs(child.log_odds - first.log_odds) > PRUNE_EPSILON:
                return False
        return first is not None

    def prune(self) -> int:
        """Collapse identical children into this node.

        Returns the number of deleted child nodes (8 on success, 0 if the
        node was not prunable).
        """
        if not self.is_prunable():
            return 0
        self.log_odds = self._children[0].log_odds  # type: ignore[index]
        return self.delete_children()

    def expand(self) -> int:
        """Re-create eight children carrying this node's value.

        This is the inverse of :meth:`prune`, used when an update must touch a
        finer voxel inside a previously pruned (homogeneous) region.  Returns
        the number of created nodes.

        Raises:
            ValueError: if the node already has children.
        """
        if self.has_children():
            raise ValueError("expand called on a node that already has children")
        for index in range(8):
            self.create_child(index, self.log_odds)
        return 8

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index <= 7:
            raise IndexError(f"child index {index} outside [0, 7]")
