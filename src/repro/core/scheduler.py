"""Voxel scheduler: routes voxel updates to the PE owning their subtree.

The scheduler (Section IV-A, Fig. 4 block "Voxel Scheduler") receives the
stream of free / occupied voxels produced by ray casting, derives each voxel's
first-level tree branch from its key and issues the update to the matching PE.
Issuing is serial (one voxel per cycle), while the PEs execute in parallel --
so the accelerator-level latency of a batch is the scheduler's issue time plus
the busiest PE's execution time.  The scheduler also tracks the per-PE load so
the load-balance of a workload can be inspected (an octant-skewed scene
reduces the achievable parallel speedup).

The routing itself runs in the PE kernel's native batch entry
(:func:`repro.core.pe.apply_keys`), which counts each PE's updates as it
splits the stream into the PEs' issued-update words of the accelerator's
counter array (:mod:`repro.core.counts`); :class:`VoxelScheduler` reads them.
The issue cycles are the accelerator's map timing.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["VoxelScheduler"]


class VoxelScheduler:
    """The first-level-branch voxel scheduler's load: a view of the PEs' ``issued`` words."""

    def __init__(self, issued: np.ndarray) -> None:
        self._issued = issued

    @property
    def per_pe_issued(self) -> List[int]:
        """Updates issued to each PE so far."""
        return self._issued.tolist()

    @property
    def issued_updates(self) -> int:
        """Updates issued so far."""
        return int(self._issued.sum())
