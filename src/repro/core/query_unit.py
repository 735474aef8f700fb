"""Voxel query unit: occupancy look-ups for downstream consumers.

Collision detection and motion planning query the map continuously; the OMU
therefore exposes a dedicated voxel-query service (Fig. 4 block "Voxel Query",
Fig. 7).  A query carries a metric coordinate (or a voxel key); the unit
derives the key, issues the look-up to the PE owning the voxel, receives the
fixed-point probability and classifies it against the occupancy thresholds
into occupied / free / unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.address_gen import AddressGenerator
from repro.core.config import OMUConfig
from repro.core.pe import ProcessingElement
from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import probability as logodds_to_probability

__all__ = ["QueryResult", "VoxelQueryUnit"]


@dataclass(frozen=True)
class QueryResult:
    """Answer to one voxel query.

    Attributes:
        status: ``"occupied"``, ``"free"`` or ``"unknown"``.
        probability: occupancy probability in [0, 1], or None when unknown.
        pe_id: PE that served the query.
        cycles: cycles spent serving the query (issue + PE walk + threshold).
    """

    status: str
    probability: Optional[float]
    pe_id: int
    cycles: int


class VoxelQueryUnit:
    """Routes occupancy queries to PEs and classifies the results."""

    def __init__(
        self,
        config: OMUConfig,
        address_generator: AddressGenerator,
        pes: Sequence[ProcessingElement],
    ) -> None:
        self.config = config
        self.address_generator = address_generator
        self._pes = list(pes)
        self.queries_served = 0
        self.total_cycles = 0

    def query(self, x: float, y: float, z: float) -> QueryResult:
        """Query the occupancy of the voxel containing ``(x, y, z)``."""
        return self.query_key(self.address_generator.key_for_point(x, y, z))

    def query_key(self, key: OcTreeKey) -> QueryResult:
        """Query the occupancy of one voxel by key."""
        pe_id = self.address_generator.pe_for_key(key)
        pe = self._pes[pe_id]

        cycles_before = pe.query_cycles
        status, raw = pe.query_voxel(key)
        pe_cycles = pe.query_cycles - cycles_before
        cycles = self.config.timing.query_issue_cycles + pe_cycles

        probability = None
        if raw is not None:
            value = self.config.fixed_point.to_value(raw)
            probability = logodds_to_probability(value)

        self.queries_served += 1
        self.total_cycles += cycles
        return QueryResult(status=status, probability=probability, pe_id=pe_id, cycles=cycles)

    def query_keys(
        self, keys: np.ndarray, stop_at_occupied: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Serve ``(N, 3)`` voxel keys in one pass: the array form of N :meth:`query` calls.

        The keys become paths and PE ids once, and every PE that owns any of
        them walks its share in a single
        :meth:`~repro.core.pe.ProcessingElement.query_paths` call.  Returns
        ``(codes, raws, cycles)``: per key its ``uint8`` index into
        :data:`~repro.core.pe.QUERY_STATUSES` and its ``int16`` fixed-point
        log-odds (0 where unknown), and the cycles of all N look-ups, issue
        included.  Every simulated count ends up where N sequential point
        queries of the same voxels would leave it.

        ``stop_at_occupied`` reads the keys as a collision ray does: in key
        order, one PE stretch after another, ending after the first occupied
        voxel.  The arrays then hold that answered prefix, and the counts are
        those of point queries of the prefix alone.
        """
        paths = self.address_generator.paths_for_keys(keys)
        pe_ids = self.address_generator.pes_for_paths(paths)
        if stop_at_occupied:
            codes, raws, cycles = self._query_until_occupied(paths, pe_ids)
        else:
            codes = np.zeros(len(paths), dtype=np.uint8)
            raws = np.zeros(len(paths), dtype=np.int16)
            cycles = len(paths) * self.config.timing.query_issue_cycles
            for pe_id in np.unique(pe_ids).tolist():
                mine = pe_ids == pe_id
                codes[mine], raws[mine], pe_cycles = self._pes[pe_id].query_paths(paths[mine].tolist())
                cycles += pe_cycles
        self.queries_served += len(codes)
        self.total_cycles += cycles
        return codes, raws, cycles

    def _query_until_occupied(
        self, paths: np.ndarray, pe_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """The stopping read of :meth:`query_keys`: consecutive same-PE
        stretches in order, until one of them answers occupied."""
        # A ray changes PE only where it crosses a coordinate plane through
        # the origin, so a run holds one or two stretches, rarely more.
        starts = np.flatnonzero(np.diff(pe_ids)) + 1
        bounds = [0, *starts.tolist(), len(paths)] if len(paths) else [0]
        all_codes: List[int] = []
        all_raws: List[int] = []
        pe_cycles = 0
        rows = paths.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            codes, raws, cycles = self._pes[int(pe_ids[start])].query_paths(
                rows[start:stop], stop_at_occupied=True
            )
            all_codes += codes
            all_raws += raws
            pe_cycles += cycles
            if codes[-1] == 2:
                break
        cycles = len(all_codes) * self.config.timing.query_issue_cycles + pe_cycles
        return np.array(all_codes, dtype=np.uint8), np.array(all_raws, dtype=np.int16), cycles

    def average_cycles_per_query(self) -> float:
        """Mean query service latency in cycles."""
        if self.queries_served == 0:
            return 0.0
        return self.total_cycles / self.queries_served
