"""Instrumented single-threaded software OctoMap runs.

The paper's workload analysis (Section III-B) instruments the OctoMap library
and times each pipeline stage.  This module does the same for the Python
reimplementation: it builds the map for a scan graph with the plain software
tree while recording both wall-clock time per stage (useful locally) and the
operation counters, which feed the calibrated CPU cost models to produce the
paper-scale breakdowns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.pointcloud import ScanGraph
from repro.octomap.scan_insertion import compute_update_keys

__all__ = ["SoftwareRunResult", "run_software_octomap"]


@dataclass
class SoftwareRunResult:
    """Outcome of one instrumented software map-building run.

    Attributes:
        tree: the finished occupancy octree.
        counters: operation counts accumulated during the run.
        stage_seconds: measured wall-clock seconds per pipeline stage (for
            the Python implementation -- useful for relative comparisons, not
            for absolute CPU numbers).
        voxel_updates: total leaf updates applied.
        total_points: sensor points processed.
    """

    tree: OccupancyOcTree
    counters: OperationCounters
    stage_seconds: Dict[OperationKind, float] = field(default_factory=dict)
    voxel_updates: int = 0
    total_points: int = 0


def run_software_octomap(
    graph: ScanGraph,
    resolution_m: float,
    max_range: float = -1.0,
    params=None,
) -> SoftwareRunResult:
    """Build the map for ``graph`` with the software tree, timing each stage.

    The insertion is deliberately performed stage by stage (ray casting first,
    then the voxel updates) so the two phases can be timed separately; the
    functional result is identical to
    :meth:`repro.octomap.octree.OccupancyOcTree.insert_point_cloud`.
    """
    if params is not None:
        tree = OccupancyOcTree(resolution_m, params=params)
    else:
        tree = OccupancyOcTree(resolution_m)
    stage_seconds: Dict[OperationKind, float] = {stage: 0.0 for stage in OperationKind.ordered()}
    voxel_updates = 0
    total_points = 0

    for scan in graph:
        cloud = scan.world_cloud()
        origin = scan.origin()
        total_points += len(cloud)

        start = time.perf_counter()
        free_keys, occupied_keys = compute_update_keys(tree, cloud, origin, max_range)
        stage_seconds[OperationKind.RAY_CASTING] += time.perf_counter() - start

        # The eager update interleaves the leaf update, parent updates and
        # pruning inside one tree traversal, exactly like the C++ library, so
        # wall-clock time cannot be split per stage here; instead the split is
        # derived from the operation counters (see CpuCostModel) while the
        # update loop's total time is attributed proportionally afterwards.
        counters_before = tree.counters.copy()
        start = time.perf_counter()
        for key in free_keys:
            tree.update_node(key, occupied=False)
        for key in occupied_keys:
            tree.update_node(key, occupied=True)
        update_seconds = time.perf_counter() - start
        voxel_updates += len(free_keys) + len(occupied_keys)

        delta = tree.counters.copy()
        _subtract(delta, counters_before)
        weights = _update_stage_weights(delta)
        for stage in (
            OperationKind.UPDATE_LEAF,
            OperationKind.UPDATE_PARENTS,
            OperationKind.PRUNE_EXPAND,
        ):
            stage_seconds[stage] += update_seconds * weights[stage]

    return SoftwareRunResult(
        tree=tree,
        counters=tree.counters,
        stage_seconds=stage_seconds,
        voxel_updates=voxel_updates,
        total_points=total_points,
    )


def _subtract(counters: OperationCounters, baseline: OperationCounters) -> None:
    counters.ray_steps -= baseline.ray_steps
    counters.leaf_updates -= baseline.leaf_updates
    counters.parent_updates -= baseline.parent_updates
    counters.child_reads -= baseline.child_reads
    counters.prune_checks -= baseline.prune_checks
    counters.prunes -= baseline.prunes
    counters.expansions -= baseline.expansions
    counters.node_allocations -= baseline.node_allocations
    counters.node_deletions -= baseline.node_deletions
    counters.queries -= baseline.queries


def _update_stage_weights(delta: OperationCounters) -> Dict[OperationKind, float]:
    """Split the update loop's time across leaf / parents / prune stages.

    Uses the same per-operation weights as
    :meth:`repro.baselines.cpu_model.CpuCostModel.breakdown_from_counters`
    (excluding ray casting, which is timed directly).
    """
    leaf = delta.leaf_updates * 40.0
    parents = delta.parent_updates * 1.2 + delta.child_reads * 0.05
    prune = (
        delta.prune_checks * 0.5
        + delta.child_reads * 0.8
        + (delta.prunes + delta.expansions) * 8.0
    )
    total = leaf + parents + prune
    if total == 0:
        return {
            OperationKind.UPDATE_LEAF: 0.0,
            OperationKind.UPDATE_PARENTS: 0.0,
            OperationKind.PRUNE_EXPAND: 0.0,
        }
    return {
        OperationKind.UPDATE_LEAF: leaf / total,
        OperationKind.UPDATE_PARENTS: parents / total,
        OperationKind.PRUNE_EXPAND: prune / total,
    }
