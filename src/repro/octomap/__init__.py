"""Software OctoMap substrate.

This package is a from-scratch Python reimplementation of the probabilistic
3D occupancy mapping library OctoMap (Hornung et al., Autonomous Robots 2013),
which the OMU paper both accelerates and uses as its CPU baseline.

It provides:

* :mod:`repro.octomap.keys` -- discretised voxel keys and coordinate
  conversion (the ``OcTreeKey`` addressing scheme, tree depth 16).
* :mod:`repro.octomap.logodds` -- log-odds occupancy arithmetic and the
  clamping update policy.
* :mod:`repro.octomap.node` -- octree nodes with the max-of-children parent
  policy and pruning predicate.
* :mod:`repro.octomap.octree` -- the :class:`OccupancyOcTree` map container
  (update, search, prune/expand, iteration).
* :mod:`repro.octomap.raycast` -- 3D DDA ray traversal (``compute_ray_keys``).
* :mod:`repro.octomap.raycast_vec` -- the service's front end: all rays of a
  batch of scans traversed and de-duplicated per scan by the native kernel
  ``dda_kernel.c``, as packed ``uint64`` keys
  (``compute_batch_update_arrays``); key-for-key equivalent to the scalar DDA.
* :mod:`repro.octomap.pointcloud` -- point clouds, 6-DoF poses, scan nodes
  and scan graphs.
* :mod:`repro.octomap.scan_insertion` -- batch insertion of sensor scans with
  free/occupied de-duplication.
* :mod:`repro.octomap.merge` -- grafting one tree's leaves into another
  (shard stitching for the serving layer).
* :mod:`repro.octomap.serialization` -- a compact binary tree file format.
* :mod:`repro.octomap.counters` -- per-operation instrumentation used to
  reproduce the paper's runtime breakdowns (Fig. 3 and Fig. 10).
"""

from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.logodds import OccupancyParams, log_odds, probability
from repro.octomap.merge import graft_leaf, merge_tree, merge_trees
from repro.octomap.node import OcTreeNode
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.pointcloud import PointCloud, Pose6D, ScanGraph, ScanNode
from repro.octomap.raycast import compute_ray_keys
from repro.octomap.raycast_vec import (
    ScanUpdateArrays,
    compute_batch_update_arrays,
    compute_scan_update_arrays,
    pack_key_array,
    unpack_key_array,
)
from repro.octomap.scan_insertion import compute_update_keys, insert_point_cloud

__all__ = [
    "KeyConverter",
    "OcTreeKey",
    "OcTreeNode",
    "OccupancyOcTree",
    "OccupancyParams",
    "OperationCounters",
    "OperationKind",
    "PointCloud",
    "Pose6D",
    "ScanGraph",
    "ScanNode",
    "ScanUpdateArrays",
    "compute_batch_update_arrays",
    "compute_ray_keys",
    "compute_scan_update_arrays",
    "compute_update_keys",
    "graft_leaf",
    "pack_key_array",
    "unpack_key_array",
    "insert_point_cloud",
    "log_odds",
    "merge_tree",
    "merge_trees",
    "probability",
]
