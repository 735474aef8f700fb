"""Per-operation instrumentation of the OctoMap pipeline.

The paper's workload analysis (Section III-B, Fig. 3) breaks the map-building
runtime into four stages -- *ray casting*, *update leaf*, *update parents* and
*node prune/expand* -- and its evaluation (Fig. 10) repeats the breakdown on
the accelerator.  This module provides a lightweight counter object that both
the software octree and the OMU simulator feed, so the same breakdown can be
produced for either backend.

Counters record *operation counts*; latency attribution is done later by the
performance models in :mod:`repro.baselines` and :mod:`repro.core.timing`,
which multiply counts by per-operation costs.  This keeps the functional code
free of timing assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict

__all__ = ["OperationKind", "OperationCounters"]


class OperationKind(str, Enum):
    """The four pipeline stages of the paper's runtime breakdown."""

    RAY_CASTING = "ray_casting"
    UPDATE_LEAF = "update_leaf"
    UPDATE_PARENTS = "update_parents"
    PRUNE_EXPAND = "prune_expand"

    @classmethod
    def ordered(cls) -> tuple["OperationKind", ...]:
        """Stages in the order the paper plots them."""
        return (cls.RAY_CASTING, cls.UPDATE_LEAF, cls.UPDATE_PARENTS, cls.PRUNE_EXPAND)


@dataclass
class OperationCounters:
    """Counts of the primitive operations performed while building a map.

    Attributes:
        ray_steps: voxels traversed by the ray-casting kernel (one DDA step
            each).
        leaf_updates: leaf-node log-odds updates (paper eq. (2)).
        parent_updates: parent-node max-of-children updates (paper eq. (3)).
        child_reads: individual child-node reads performed while updating
            parents and evaluating the pruning predicate.  On a CPU these are
            eight serial, irregular memory accesses per parent; on OMU all
            eight arrive in one banked access.
        prune_checks: evaluations of the "all eight children identical"
            predicate.
        prunes: subtrees actually pruned (eight children collapsed into the
            parent).
        expansions: pruned nodes re-expanded into eight children.
        node_allocations: newly allocated tree nodes.
        node_deletions: tree nodes freed (by pruning).
        queries: voxel occupancy queries served.
    """

    ray_steps: int = 0
    leaf_updates: int = 0
    parent_updates: int = 0
    child_reads: int = 0
    prune_checks: int = 0
    prunes: int = 0
    expansions: int = 0
    node_allocations: int = 0
    node_deletions: int = 0
    queries: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "OperationCounters") -> None:
        """Accumulate the counts of ``other`` into this object."""
        self.ray_steps += other.ray_steps
        self.leaf_updates += other.leaf_updates
        self.parent_updates += other.parent_updates
        self.child_reads += other.child_reads
        self.prune_checks += other.prune_checks
        self.prunes += other.prunes
        self.expansions += other.expansions
        self.node_allocations += other.node_allocations
        self.node_deletions += other.node_deletions
        self.queries += other.queries
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    def copy(self) -> "OperationCounters":
        """Return an independent copy of the current counts."""
        duplicate = OperationCounters(
            ray_steps=self.ray_steps,
            leaf_updates=self.leaf_updates,
            parent_updates=self.parent_updates,
            child_reads=self.child_reads,
            prune_checks=self.prune_checks,
            prunes=self.prunes,
            expansions=self.expansions,
            node_allocations=self.node_allocations,
            node_deletions=self.node_deletions,
            queries=self.queries,
        )
        duplicate.extra = dict(self.extra)
        return duplicate
