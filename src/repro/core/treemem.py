"""TreeMem: the banked SRAM that stores the partitioned octree.

Each PE contains eight single-port SRAM banks (T-Mem0 .. T-Mem7).  One *row*
(the same address across all eight banks) holds the eight children of one
parent node, child ``i`` living in bank ``i`` -- so a parent update or a
pruning check fetches all eight children in a single cycle, which is the 8x
memory-bandwidth improvement of Section IV-B.

Every 64-bit entry packs three fields (paper Fig. 5):

* ``pointer`` (bits [63:32]) -- row address of this node's own children
  block, or the null pointer if the node is a leaf;
* ``child_tags`` (bits [31:16]) -- eight 2-bit status tags, one per child:
  ``00`` unknown, ``01`` occupied, ``10`` free, ``11`` inner node;
* ``probability`` (bits [15:0]) -- the node's occupancy as a 16-bit
  fixed-point log-odds value.

The model stores the SRAM image itself: each bank keeps the three fields of
its entries in typed arrays (pointer ``u32``, the eight tags as one ``u16``
word, probability ``i16``) plus a valid byte per address.  Those arrays are
the only form of the map: the PE's native update kernel writes them in place,
and a shard snapshot copies them out and back
(:meth:`repro.core.accelerator.OMUAccelerator.image` / ``restore``).
:class:`TreeMemEntry` is the *decoded view* of one address that
:meth:`TreeMemBank.read` hands to verification and tests.  The access counts
are views of the PE's words of the accelerator's counter array
(:mod:`repro.core.counts`).

The arrays are sized to the map, not to the bank: they start at
:data:`INITIAL_ROWS` entries and double (up to the bank's ``num_entries``)
when a write needs a row beyond them.  Rows are handed out bottom-up by the
prune address manager, so every address from its next fresh row up -- every
one past the arrays' end among them -- is one never written (valid 0, pointer
:data:`NULL_POINTER`, tags 0, value 0), and reads there answer exactly that.
A snapshot therefore carries the rows below the next fresh row only.  Capacity, and the utilisation it is the
base of, stay the nominal ``num_entries``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional

import numpy as np

from repro.core import counts

__all__ = [
    "ChildStatus",
    "TreeMemEntry",
    "TreeMemBank",
    "BankedTreeMemory",
    "MemoryCapacityError",
    "NULL_POINTER",
]

NULL_POINTER = 0xFFFFFFFF
"""Pointer value marking "no children block" (a leaf node)."""

INITIAL_ROWS = 64
"""Addresses a bank's arrays hold before the map first outgrows them."""

# INITIAL_ROWS never-written entries per field (valid, pointer, tags, probability).
_UNWRITTEN = (
    array("B", bytes(INITIAL_ROWS)),
    array("I", [NULL_POINTER]) * INITIAL_ROWS,
    array("H", bytes(2 * INITIAL_ROWS)),
    array("h", bytes(2 * INITIAL_ROWS)),
)


class MemoryCapacityError(RuntimeError):
    """Raised when a PE's TreeMem runs out of rows for new children blocks."""


class ChildStatus(IntEnum):
    """2-bit per-child status tag stored in the TreeMem entry."""

    UNKNOWN = 0b00
    OCCUPIED = 0b01
    FREE = 0b10
    INNER = 0b11


@dataclass
class TreeMemEntry:
    """One decoded 64-bit TreeMem entry.

    Attributes:
        pointer: row address of the children block, or :data:`NULL_POINTER`.
        child_tags: list of eight :class:`ChildStatus` values.
        probability_raw: signed fixed-point log-odds value of this node.
    """

    pointer: int = NULL_POINTER
    child_tags: List[ChildStatus] = None  # type: ignore[assignment]
    probability_raw: int = 0

    def __post_init__(self) -> None:
        if self.child_tags is None:
            self.child_tags = [ChildStatus.UNKNOWN] * 8
        if len(self.child_tags) != 8:
            raise ValueError("child_tags must hold exactly eight tags")
        if not 0 <= self.pointer <= 0xFFFFFFFF:
            raise ValueError(f"pointer {self.pointer} does not fit in 32 bits")

    # ------------------------------------------------------------------
    # Field helpers
    # ------------------------------------------------------------------
    def tag(self, child_index: int) -> ChildStatus:
        """Status tag of child ``child_index`` (0..7)."""
        return self.child_tags[self._checked(child_index)]

    @staticmethod
    def _checked(child_index: int) -> int:
        if not 0 <= child_index <= 7:
            raise IndexError(f"child index {child_index} outside [0, 7]")
        return child_index

    @staticmethod
    def tags_from_word(word: int) -> List[ChildStatus]:
        """Decode a 16-bit tag field back into eight :class:`ChildStatus` values."""
        return [ChildStatus((word >> (2 * index)) & 0b11) for index in range(8)]


class TreeMemBank:
    """One single-port SRAM bank of a PE.

    The bank's image lives in four parallel arrays indexed by address:
    :attr:`valid`, :attr:`pointers`, :attr:`tags` and :attr:`probabilities`,
    holding the first :attr:`rows` addresses (see the module docstring).
    The PE's update kernel writes them in place and a restore copies them
    back; everything else reads through :meth:`read`.  Its access counts and
    live entries are views of ``words``, its PE's counter words (its own
    zeroed ones if none are given).
    """

    def __init__(self, bank_index: int, num_entries: int, words: Optional[np.ndarray] = None) -> None:
        if num_entries < 1:
            raise ValueError("a bank needs at least one entry")
        self.bank_index = bank_index
        self.num_entries = num_entries
        valid, pointers, tags, probabilities = _UNWRITTEN  # copied by slicing: the cheapest new array
        self.valid = valid[:num_entries]
        self.pointers = pointers[:num_entries]
        self.tags = tags[:num_entries]
        self.probabilities = probabilities[:num_entries]
        self._words = np.zeros(counts.PE_WORDS, dtype=np.int64) if words is None else words

    @property
    def rows(self) -> int:
        """Addresses the arrays hold now (every one above is unwritten)."""
        return len(self.valid)

    @property
    def read_accesses(self) -> int:
        """Single-entry reads of this bank so far (a row read counts one per bank)."""
        return int(counts.bank_reads(self._words)[self.bank_index])

    @property
    def write_accesses(self) -> int:
        """Single-entry writes of this bank so far (a row write counts one per bank)."""
        return int(counts.bank_writes(self._words)[self.bank_index])

    def reserve(self, rows: int) -> None:
        """Make the arrays hold at least ``rows`` addresses, doubling, at most ``num_entries``.

        The arrays grow in place, so their buffers may move: whoever holds
        their addresses (the PE's native kernel) must take them again.
        """
        size = self.rows
        if rows <= size:
            return
        target = size
        while target < rows:
            target *= 2
        extra = min(target, self.num_entries) - size
        self.valid.frombytes(bytes(extra))
        self.pointers.frombytes(b"\xff" * (4 * extra))
        self.tags.frombytes(bytes(2 * extra))
        self.probabilities.frombytes(bytes(2 * extra))

    def read(self, address: int) -> Optional[TreeMemEntry]:
        """Read the entry at ``address`` (None if never written): one decoded read access."""
        self._check_address(address)
        self._words[counts.DECODED + self.bank_index] += 1
        if address >= self.rows or not self.valid[address]:
            return None
        return TreeMemEntry(
            self.pointers[address],
            TreeMemEntry.tags_from_word(self.tags[address]),
            self.probabilities[address],
        )

    def occupied_entries(self) -> int:
        """Number of valid entries currently stored (a live count, not a scan)."""
        return int(self._words[counts.OCCUPIED + self.bank_index])

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.num_entries:
            raise IndexError(
                f"address {address} outside bank {self.bank_index} "
                f"(capacity {self.num_entries} entries)"
            )


class BankedTreeMemory:
    """The eight-bank TreeMem of one PE.

    Descending the tree touches one bank per level; a parent update or a
    pruning check reads all eight children of a row at once.  The kernel
    does both on the bank arrays; the counts here and in every bank read
    ``words``, the PE's counter words (its own zeroed ones if none are
    given).  :meth:`read_entry` is the decoded read of verification and tests.
    """

    def __init__(self, num_banks: int, entries_per_bank: int, words: Optional[np.ndarray] = None) -> None:
        if num_banks != 8:
            raise ValueError("the child-per-bank layout requires exactly 8 banks")
        self.num_banks = num_banks
        self.entries_per_bank = entries_per_bank
        self._words = np.zeros(counts.PE_WORDS, dtype=np.int64) if words is None else words
        self.banks = [TreeMemBank(index, entries_per_bank, self._words) for index in range(num_banks)]

    @property
    def rows(self) -> int:
        """Addresses every bank's arrays hold now."""
        return min(bank.rows for bank in self.banks)

    def reserve(self, rows: int) -> None:
        """Grow every bank to hold at least ``rows`` addresses (see :meth:`TreeMemBank.reserve`)."""
        for bank in self.banks:
            bank.reserve(rows)

    # -- single-entry access -------------------------------------------------
    def read_entry(self, row: int, bank: int) -> Optional[TreeMemEntry]:
        """Read one child entry (one bank access)."""
        return self.banks[self._checked_bank(bank)].read(row)

    # -- statistics: views of the PE's counter words ------------------------------
    @property
    def row_reads(self) -> int:
        """Whole-row reads: one children row per parent of each completed update."""
        return int(counts.parents(self._words))

    @property
    def row_writes(self) -> int:
        """Whole-row writes: a prune clearing a row, an expansion filling one."""
        return int(self._words[counts.ROW_WRITES])

    def total_reads(self) -> int:
        """Total single-bank read accesses (row reads count as 8)."""
        return int(counts.bank_reads(self._words).sum())

    def total_writes(self) -> int:
        """Total single-bank write accesses (row writes count as 8)."""
        return int(counts.bank_writes(self._words).sum())

    def occupied_entries(self) -> int:
        """Number of valid entries across all banks."""
        return int(self._words[counts.OCCUPIED : counts.OCCUPIED + 8].sum())

    def _checked_bank(self, bank: int) -> int:
        if not 0 <= bank < self.num_banks:
            raise IndexError(f"bank {bank} outside [0, {self.num_banks - 1}]")
        return bank
