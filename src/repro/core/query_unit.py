"""Voxel query unit: occupancy look-ups for downstream consumers.

Collision detection and motion planning query the map continuously; the OMU
therefore exposes a dedicated voxel-query service (Fig. 4 block "Voxel Query",
Fig. 7).  A query carries a metric coordinate (or a voxel key); the unit
derives the key, issues the look-up to the PE owning the voxel, receives the
fixed-point probability and classifies it against the occupancy thresholds
into occupied / free / unknown.

Every read walks the SRAM image in C, in the PE kernel's ``query_walk``
(``pe_kernel.c``): :meth:`VoxelQueryUnit.query_keys` is one
``pe_query_batch`` call over the whole PE array -- key to path, PE routing
and every walk -- and a point read one ``pe_query_key`` call on its PE with
the key's components as scalars.  A call tallies into the unit's scratch
block, which one ``+=`` adds to the accelerator's counter array
(:mod:`repro.core.counts`, whose cost table prices it; the unit's own two
counts are words there too), so every simulated count is what one Python walk
per key would leave.  That walk is the kernel's oracle, ``tests/core/oracle_pe.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import counts, native
from repro.core.address_gen import AddressGenerator, key_columns
from repro.core.config import OMUConfig
from repro.core.pe import QUERY_STATUSES, ProcessingElement
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
    """Routes occupancy queries to PEs and classifies the results.

    ``words`` is the accelerator's counter array, ``table`` the PEs' image table.
    """

    def __init__(
        self,
        config: OMUConfig,
        address_generator: AddressGenerator,
        pes: Sequence[ProcessingElement],
        words: np.ndarray,
        table: ctypes.Array,
    ) -> None:
        self.config = config
        self.address_generator = address_generator
        self._pes = list(pes)
        self._table = table
        num_pes = len(self._pes)
        self._served = words[counts.QUERIES_SERVED : counts.QUERY_CYCLES + 1]
        self._reads = words[counts.ACCELERATOR_WORDS :].reshape(num_pes, -1)[:, counts.QUERY : counts.DECODED]
        # The read calls' scratch, zeroed before each, and the cost of each of its words.
        self._tally = native.query_tallies(num_pes)
        self._tally_address = self._tally.ctypes.data
        read_costs = counts.costs(config.timing, config.tree_depth)[counts.QUERY : counts.DECODED, 4].copy()
        self._tally_costs = np.tile(read_costs, num_pes)
        # Per PE: its kernel struct, its scratch block, the block's address, its read words and their costs.
        addresses = range(self._tally_address, self._tally_address + self._tally.nbytes, self._tally.strides[0])
        self._per_pe = [
            (pe.kernel_image, block, address, reads, read_costs)
            for pe, block, address, reads in zip(self._pes, self._tally, addresses, self._reads)
        ]

    @property
    def queries_served(self) -> int:
        """Voxel queries answered so far."""
        return int(self._served[0])

    @property
    def total_cycles(self) -> int:
        """Cycles of every query answered so far, issue included."""
        return int(self._served[1])

    def query(self, x: float, y: float, z: float) -> QueryResult:
        """Query the occupancy of the voxel containing ``(x, y, z)``."""
        return self.query_key(self.address_generator.key_for_point(x, y, z))

    def query_key(self, key: OcTreeKey) -> QueryResult:
        """Query the occupancy of one voxel by key."""
        pe_id = self.address_generator.pe_for_key(key)
        kernel_image, tally, address, reads, costs = self._per_pe[pe_id]
        tally.fill(0)
        raw = ctypes.c_int16()
        code = native.query_key(kernel_image, key.x, key.y, key.z, raw, address)
        pe_cycles = self._fold(reads, tally, costs)
        if code < 0:
            raise self._pes[pe_id].query_failure()
        cycles = self.config.timing.query_issue_cycles + pe_cycles

        probability = None
        if code:
            probability = logodds_to_probability(self.config.fixed_point.to_value(raw.value))

        served = self._served
        served[0] += 1  # two item adds cost a third of one += of a tuple
        served[1] += cycles
        return QueryResult(status=QUERY_STATUSES[code], probability=probability, pe_id=pe_id, cycles=cycles)

    def query_keys(
        self, keys: np.ndarray, stop_at_occupied: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Serve ``(N, 3)`` voxel keys in one pass: the array form of N :meth:`query` calls.

        One native call routes every key to its PE and walks it there, PE 0,
        1, ... in turn.  Returns ``(codes, raws, cycles)``: per key its
        ``uint8`` index into :data:`~repro.core.pe.QUERY_STATUSES` and its
        ``int16`` fixed-point log-odds (0 where unknown), and the cycles of
        all N look-ups, issue included.  Every simulated count ends up where
        N sequential point queries of the same voxels would leave it.

        ``stop_at_occupied`` reads the keys as a collision ray does: in key
        order, ending after the first occupied voxel.  The arrays then hold
        that answered prefix, and the counts are those of point queries of
        the prefix alone.

        Raises:
            ValueError: if a key component lies outside the 16-bit key space.
            RuntimeError: naming the PE, if a tag lists a child its image
                does not hold; what was read up to there is counted.
        """
        keys = key_columns(keys)
        count = len(keys)
        codes = np.zeros(count, dtype=np.uint8)
        raws = np.zeros(count, dtype=np.int16)
        answered = ctypes.c_int64()
        self._tally.fill(0)
        failed = native.query_batch(
            self._table,
            len(self._pes),
            keys.ctypes.data,
            count,
            stop_at_occupied,
            codes.ctypes.data,
            raws.ctypes.data,
            answered,
            self._tally_address,
        )
        pe_cycles = self._fold(self._reads, self._tally, self._tally_costs)
        if failed >= 0:
            raise self._pes[failed].query_failure()
        if answered.value < count:
            codes, raws = codes[: answered.value], raws[: answered.value]
        cycles = answered.value * self.config.timing.query_issue_cycles + pe_cycles
        self._served[0] += answered.value
        self._served[1] += cycles
        return codes, raws, cycles

    @staticmethod
    def _fold(reads: np.ndarray, tally: np.ndarray, costs: np.ndarray) -> int:
        """Add a call's tally (every PE's blocks, or one PE's) to those PEs' ``reads`` words; returns its cycles."""
        reads += tally
        return int(tally.ravel().dot(costs))

    def average_cycles_per_query(self) -> float:
        """Mean query service latency in cycles."""
        if self.queries_served == 0:
            return 0.0
        return self.total_cycles / self.queries_served
