"""Voxel scheduler: routes voxel updates to the PE owning their subtree.

The scheduler (Section IV-A, Fig. 4 block "Voxel Scheduler") receives the
stream of free / occupied voxels produced by ray casting, derives each voxel's
first-level tree branch from its key and issues the update to the matching PE.
Issuing is serial (one voxel per cycle), while the PEs execute in parallel --
so the accelerator-level latency of a batch is the scheduler's issue time plus
the busiest PE's execution time.  The scheduler also tracks the per-PE load so
the load-balance of a workload can be inspected (an octant-skewed scene
reduces the achievable parallel speedup).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.address_gen import AddressGenerator
from repro.core.config import OMUConfig
from repro.octomap.keys import OcTreeKey

__all__ = ["VoxelUpdateRequest", "PEQueue", "ScheduledBatch", "VoxelScheduler"]


@dataclass(frozen=True)
class VoxelUpdateRequest:
    """One voxel update awaiting execution: the key and its measurement."""

    key: OcTreeKey
    occupied: bool


class PEQueue(SequenceABC):
    """One PE's ordered slice of a batch, held as columns.

    Reads as a sequence of :class:`VoxelUpdateRequest`; the PE consumes the
    columns directly.

    Attributes:
        keys: ``(N, 3)`` key components, in issue order.
        occupied: ``(N,)`` measurement flags.
        paths: ``(N, tree_depth)`` root-to-leaf child indices of each key.
    """

    def __init__(self, keys: np.ndarray, occupied: np.ndarray, paths: np.ndarray) -> None:
        self.keys = keys
        self.occupied = occupied
        self.paths = paths

    def __len__(self) -> int:
        return len(self.occupied)

    def __getitem__(self, index: int) -> VoxelUpdateRequest:
        return VoxelUpdateRequest(
            OcTreeKey(*self.keys[index].tolist()), bool(self.occupied[index])
        )


@dataclass
class ScheduledBatch:
    """The outcome of scheduling one batch of voxel updates.

    Attributes:
        per_pe: the update queue assigned to each PE.
        issue_cycles: cycles the scheduler spent issuing (serial front end).
    """

    per_pe: Dict[int, PEQueue] = field(default_factory=dict)
    issue_cycles: int = 0

    def total_updates(self) -> int:
        """Total number of scheduled voxel updates."""
        return sum(len(queue) for queue in self.per_pe.values())

    def load_balance(self) -> float:
        """Busiest-PE share of the work (1 / num_active_pes is perfect).

        Returns 0.0 for an empty batch.
        """
        total = self.total_updates()
        if total == 0:
            return 0.0
        return max(len(queue) for queue in self.per_pe.values()) / total


class VoxelScheduler:
    """Assigns voxel updates to PEs by first-level tree branch."""

    def __init__(self, config: OMUConfig, address_generator: AddressGenerator) -> None:
        self.config = config
        self.address_generator = address_generator
        self.issued_updates = 0
        self.per_pe_issued: Dict[int, int] = {pe: 0 for pe in range(config.num_pes)}

    def schedule(
        self,
        free_keys: Sequence[OcTreeKey],
        occupied_keys: Sequence[OcTreeKey],
    ) -> ScheduledBatch:
        """Build the per-PE queues for one scan's worth of voxel updates.

        Free-space updates are issued before occupied updates, mirroring the
        software insertion order (occupied measurements win when a voxel
        appears in both streams because they are applied last -- the key sets
        are already de-duplicated upstream, so in practice each voxel appears
        once).
        """
        keys = [key.as_tuple() for key in free_keys]
        keys.extend(key.as_tuple() for key in occupied_keys)
        occupied = np.zeros(len(keys), dtype=bool)
        occupied[len(free_keys) :] = True
        return self.schedule_key_arrays(keys, occupied)

    def schedule_requests(self, requests: Sequence[VoxelUpdateRequest]) -> ScheduledBatch:
        """Build per-PE queues from an already ordered update stream.

        Used by callers that manage the measurement order themselves (the
        serving layer concatenates several scans' update streams into one
        batch).  Issue order is preserved per PE, so updates touching the
        same voxel are applied in stream order -- required for equivalence
        with sequential insertion because the clamped log-odds update is not
        commutative once a value saturates.
        """
        return self.schedule_key_arrays(
            [request.key.as_tuple() for request in requests],
            [request.occupied for request in requests],
        )

    def schedule_key_arrays(self, keys, occupied) -> ScheduledBatch:
        """:meth:`schedule_requests` for a stream held as columns.

        ``keys`` is an ``(N, 3)`` array of key components and ``occupied`` the
        ``(N,)`` measurement flags.  Routing and the per-level child indices
        of every key come out of one numpy pass; boolean masking keeps the
        stream order inside each PE's queue.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        occupied = np.asarray(occupied, dtype=bool)
        paths = self.address_generator.paths_for_keys(keys)
        pes = self.address_generator.pes_for_paths(paths)
        batch = ScheduledBatch(
            issue_cycles=len(keys) * self.config.timing.scheduler_issue_cycles
        )
        for pe in range(self.config.num_pes):
            mine = pes == pe
            queue = batch.per_pe[pe] = PEQueue(keys[mine], occupied[mine], paths[mine])
            self.per_pe_issued[pe] = self.per_pe_issued.get(pe, 0) + len(queue)
        self.issued_updates += len(keys)
        return batch

    def load_histogram(self) -> Tuple[int, ...]:
        """Updates issued to each PE since construction (load-balance view)."""
        return tuple(self.per_pe_issued.get(pe, 0) for pe in range(self.config.num_pes))
