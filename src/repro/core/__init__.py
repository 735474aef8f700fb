"""OMU accelerator model -- the paper's primary contribution.

This package models the OctoMap Processing Unit (OMU) at functional +
cycle-approximate fidelity:

* :mod:`repro.core.config` -- architectural / physical parameters (8 PEs,
  8 x 32 kB banks per PE, 1 GHz, 12 nm) and primitive cycle costs.
* :mod:`repro.core.fixedpoint` -- the 16-bit fixed-point log-odds format of
  the TreeMem entry.
* :mod:`repro.core.treemem` -- the eight-bank SRAM model: every PE's
  pointer / child-tag / probability fields as one array each per
  accelerator (``SRAMImage``), views of a PE's or a bank's part of it, and
  the entries' decoded view.
* :mod:`repro.core.address_gen` -- key-to-path / key-to-PE address generation.
* :mod:`repro.core.prune_manager` -- the pruned-pointer stack that recycles
  freed children-block rows.
* :mod:`repro.core.pe` -- the processing element: leaf update, parent update,
  prune / expand, with per-stage cycle accounting.
* :mod:`repro.core.scheduler` -- the first-level-branch voxel scheduler's issue
  accounting (its routing runs in the PE kernel's native batch entry).
* :mod:`repro.core.query_unit` -- the voxel query service.
* :mod:`repro.core.accelerator` -- the top level tying everything together;
  its front end is the native ray cast of :mod:`repro.octomap.raycast_vec`.
* :mod:`repro.core.timing` -- cycle breakdown containers.
* :mod:`repro.core.counts` -- the accelerator's one counter array: layout,
  cost table, and the sums every reported count is a view of.
* :mod:`repro.core.verification` -- equivalence checking against the software
  OctoMap golden model.
"""

from repro.core.accelerator import AcceleratorStatistics, OMUAccelerator
from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG, OMUConfig, TimingParams
from repro.core.fixedpoint import DEFAULT_FORMAT, FixedPointFormat, QuantizedOccupancyParams
from repro.core.pe import QUERY_STATUSES, ProcessingElement
from repro.core.prune_manager import PruneAddressManager
from repro.core.query_unit import QueryResult, VoxelQueryUnit
from repro.core.scheduler import VoxelScheduler
from repro.core.timing import CycleBreakdown, ScanTiming
from repro.core.treemem import (
    BankedTreeMemory,
    ChildStatus,
    MemoryCapacityError,
    NULL_POINTER,
    TreeMemEntry,
    TreeMemBank,
)
from repro.core.verification import (
    EquivalenceReport,
    build_reference_tree,
    compare_trees,
    verify_against_software,
)

__all__ = [
    "AcceleratorStatistics",
    "AddressGenerator",
    "BankedTreeMemory",
    "ChildStatus",
    "CycleBreakdown",
    "DEFAULT_CONFIG",
    "DEFAULT_FORMAT",
    "EquivalenceReport",
    "FixedPointFormat",
    "MemoryCapacityError",
    "NULL_POINTER",
    "OMUAccelerator",
    "OMUConfig",
    "ProcessingElement",
    "PruneAddressManager",
    "QUERY_STATUSES",
    "QuantizedOccupancyParams",
    "QueryResult",
    "ScanTiming",
    "TimingParams",
    "TreeMemBank",
    "TreeMemEntry",
    "VoxelQueryUnit",
    "VoxelScheduler",
    "build_reference_tree",
    "compare_trees",
    "verify_against_software",
]
