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
the key's components as scalars.  Each PE the call reached then books what
its tally block says it read (:meth:`~repro.core.pe.ProcessingElement.book_query`),
so every simulated count is what one Python walk per key would leave.  That
walk is the kernel's oracle, ``tests/core/oracle_pe.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import native
from repro.core.address_gen import AddressGenerator
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
        tally = native.query_tallies(1)
        raw = ctypes.c_int16()
        code = native.query_key(pe.pinned_image(), key.x, key.y, key.z, raw, tally.buffer_info()[0])
        pe_cycles = pe.book_query(tally)
        if code < 0:
            raise pe.query_failure()
        cycles = self.config.timing.query_issue_cycles + pe_cycles

        probability = None
        if code:
            probability = logodds_to_probability(self.config.fixed_point.to_value(raw.value))

        self.queries_served += 1
        self.total_cycles += cycles
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
                does not hold; what was read up to there is booked.
        """
        keys = np.asarray(keys)
        if keys.dtype != np.uint16 and keys.size and not (0 <= keys.min() and keys.max() <= 0xFFFF):
            raise ValueError("key component outside [0, 65535]")
        keys = np.ascontiguousarray(keys, dtype=np.uint16).reshape(-1, 3)
        count = len(keys)
        codes = np.zeros(count, dtype=np.uint8)
        raws = np.zeros(count, dtype=np.int16)
        answered = ctypes.c_int64()
        tally = native.query_tallies(len(self._pes))
        failed = native.query_batch(
            native.image_table([pe.pinned_image() for pe in self._pes]),
            len(self._pes),
            keys.ctypes.data,
            count,
            stop_at_occupied,
            codes.ctypes.data,
            raws.ctypes.data,
            answered,
            tally.buffer_info()[0],
        )
        words = tally.tolist()
        pe_cycles = 0
        for at, pe in zip(range(0, len(words), native.QUERY_TALLY_WORDS), self._pes):
            if words[at + native.Q_STARTED]:
                pe_cycles += pe.book_query(words[at : at + native.QUERY_TALLY_WORDS])
        if failed >= 0:
            raise self._pes[failed].query_failure()
        if answered.value < count:
            codes, raws = codes[: answered.value], raws[: answered.value]
        cycles = answered.value * self.config.timing.query_issue_cycles + pe_cycles
        self.queries_served += answered.value
        self.total_cycles += cycles
        return codes, raws, cycles

    def average_cycles_per_query(self) -> float:
        """Mean query service latency in cycles."""
        if self.queries_served == 0:
            return 0.0
        return self.total_cycles / self.queries_served
