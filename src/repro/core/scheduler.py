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
splits the stream; :class:`VoxelScheduler` books those counts and the issue
cycles.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.config import OMUConfig

__all__ = ["VoxelScheduler"]


class VoxelScheduler:
    """Issue accounting of the first-level-branch voxel scheduler."""

    def __init__(self, config: OMUConfig) -> None:
        self.config = config
        self.issued_updates = 0
        self.per_pe_issued: List[int] = [0] * config.num_pes

    def issue(self, per_pe: Sequence[int]) -> int:
        """Book one batch, ``per_pe[p]`` updates issued to PE ``p``; returns its issue cycles."""
        for pe, count in enumerate(per_pe):
            self.per_pe_issued[pe] += count
        issued = sum(per_pe)
        self.issued_updates += issued
        return issued * self.config.timing.scheduler_issue_cycles
