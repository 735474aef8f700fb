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

The model stores the SRAM image itself, one :class:`SRAMImage` per
accelerator: each field of every entry of every PE in one array --
``valid`` bytes, ``pointers`` (``u32``), ``tags`` (the eight tags as one
``u16`` word) and ``probabilities`` (``i16``), each ``(num_pes, 8, rows)`` --
next to the prune address managers' arrays and the local-root flags, and the
``PEImage`` structs the native kernels read their addresses from.  Those
arrays are the only form of the map: the PE kernels write them in place, and
a shard snapshot copies them out and back
(:meth:`repro.core.accelerator.OMUAccelerator.image` / ``restore``).
:class:`BankedTreeMemory` and :class:`TreeMemBank` are views of one PE's,
or one bank's, part of an image; built alone, each gets a one-PE image of its
own.  :class:`TreeMemEntry` is the *decoded view* of one address that
:meth:`TreeMemBank.read` hands to verification and tests.  The access counts
are views of the PE's words of the accelerator's counter array
(:mod:`repro.core.counts`).

The bank arrays are sized to the map, not to the bank: they start at
:data:`INITIAL_ROWS` rows and :meth:`SRAMImage.grow` doubles them (up to the
bank's ``num_entries``) for every PE at once, when a PE's next update could
need a row beyond them.  Rows are handed out bottom-up by the prune address
manager, so every address from a PE's next fresh row up -- every one past the
arrays' end among them -- is one never written (valid 0, pointer
:data:`NULL_POINTER`, tags 0, value 0), and reads there answer exactly that.
A snapshot therefore carries the rows below the next fresh row only.
Capacity, and the utilisation it is the base of, stay the nominal
``num_entries``.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional

import numpy as np

from repro.core import counts, native

__all__ = [
    "ChildStatus",
    "TreeMemEntry",
    "TreeMemBank",
    "BankedTreeMemory",
    "SRAMImage",
    "MemoryCapacityError",
    "NULL_POINTER",
]

NULL_POINTER = 0xFFFFFFFF
"""Pointer value marking "no children block" (a leaf node)."""

INITIAL_ROWS = 64
"""Addresses the bank arrays hold before the map first outgrows them."""

#: The bank arrays' four fields, in ``PEImage``'s order, and the numpy type of their words.
BANK_FIELDS = (("valid", np.uint8), ("pointers", np.uint32), ("tags", np.uint16), ("probabilities", np.int16))

# Word index of each PEImage field, viewing the struct as int64 words; the 32 bank addresses lead.
_WORD = {name: getattr(native.PEImage, name).offset // 8 for name, _ in native.PEImage._fields_}
_ITEMSIZES = np.array([np.dtype(dtype).itemsize for _, dtype in BANK_FIELDS])[:, None]


def _unwritten(name: str, dtype, shape) -> np.ndarray:
    """Never-written words of one bank field: all zero, but a pointer, which is null."""
    if name == "pointers":
        return np.full(shape, NULL_POINTER, dtype)
    return np.zeros(shape, dtype)


class SRAMImage:
    """The TreeMem and allocator state of ``num_pes`` PEs as one set of arrays, and the kernels' structs over it.

    Per PE: the four bank fields :attr:`valid`, :attr:`pointers`, :attr:`tags`
    and :attr:`probabilities`, each ``(num_pes, 8, rows)``; its prune address
    manager's state words :attr:`allocator` ``(num_pes, 7)`` ``int64``, stack
    :attr:`stack` ``(num_pes, num_rows)`` ``int32`` and on-the-stack flags
    :attr:`stacked` ``(num_pes, num_rows)`` ``uint8``; and its local-root
    flags :attr:`roots` ``(num_pes, 8)``.  :attr:`kernel` holds one
    ``PEImage`` per PE, with those arrays' addresses and the update kernel's
    constants (``depth`` and the quantised occupancy ``params``, which an
    image only Python reads and writes does without), and :attr:`table`
    their addresses, the ``images`` argument of the batch entries.  Neither
    ever moves.  Only :meth:`grow` moves the bank arrays, and it points every
    PE's struct at the new ones before it returns.
    """

    def __init__(self, num_pes: int, num_rows: int, reserved_rows: int = 1, depth: int = 0, params=None) -> None:
        if num_rows < 1:
            raise ValueError("a bank needs at least one entry")
        self.num_pes = num_pes
        self.num_rows = num_rows
        shape = (num_pes, 8, min(INITIAL_ROWS, num_rows))
        for name, dtype in BANK_FIELDS:
            setattr(self, name, _unwritten(name, dtype, shape))
        self.allocator = np.zeros((num_pes, 7), dtype=np.int64)
        self.allocator[:, 0] = reserved_rows  # every manager's next fresh row
        self.stack = np.zeros((num_pes, num_rows), dtype=np.int32)
        self.stacked = np.zeros((num_pes, num_rows), dtype=np.uint8)
        self.roots = np.zeros((num_pes, 8), dtype=np.uint8)
        self.kernel = (native.PEImage * num_pes)()
        self._words = np.frombuffer(self.kernel, dtype=np.int64).reshape(num_pes, -1)
        per_pe = np.arange(num_pes)
        self._words[:, _WORD["num_rows"]] = num_rows
        self._words[:, _WORD["reserved_rows"]] = reserved_rows
        for name in ("stack", "stacked", "allocator", "roots"):
            state = getattr(self, name)
            self._words[:, _WORD[name]] = state.ctypes.data + per_pe * state[0].nbytes
        if params is not None:
            self._words[:, _WORD["depth"] :] = (
                depth, params.raw_hit, params.raw_miss, params.raw_threshold, params.raw_clamp_min, params.raw_clamp_max
            )
        self.table = (ctypes.c_void_p * num_pes)()
        np.frombuffer(self.table, dtype=np.int64)[:] = ctypes.addressof(self.kernel) + per_pe * ctypes.sizeof(
            native.PEImage
        )
        self._banks = np.arange(num_pes * 8).reshape(num_pes, 1, 8)  # (PE, field, bank): each bank's array index
        self._pin()

    @property
    def rows(self) -> int:
        """Addresses every bank array holds now (every one above is unwritten)."""
        return self.valid.shape[2]

    def grow(self, rows: int) -> None:
        """Make every PE's bank arrays hold at least ``rows`` addresses, doubling, at most ``num_rows``.

        Each field becomes a new array with the old rows copied in, so a view
        of the old ones (a bank's, a walk's) must be taken again.
        """
        size = self.rows
        if rows <= size or size == self.num_rows:
            return
        target = size
        while target < rows:
            target *= 2
        target = min(target, self.num_rows)
        for name, dtype in BANK_FIELDS:
            grown = _unwritten(name, dtype, (self.num_pes, 8, target))
            grown[:, :, :size] = getattr(self, name)
            setattr(self, name, grown)
        self._pin()

    def _pin(self) -> None:
        """Write every PE's 32 bank addresses and its capacity into its struct."""
        bases = np.array([getattr(self, name).ctypes.data for name, _ in BANK_FIELDS], dtype=np.int64)[:, None]
        rows = self.rows
        self._words[:, :32] = (bases + self._banks * (_ITEMSIZES * rows)).reshape(self.num_pes, 32)
        self._words[:, _WORD["capacity"]] = rows


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


def _bank_field(name: str) -> property:
    def view(self) -> memoryview:
        return memoryview(getattr(self.image, name)[self._pe, self.bank_index])

    return property(view, doc=f"This bank's ``{name}`` words: a view of its image's array, stale once that grows.")


class TreeMemBank:
    """One single-port SRAM bank of a PE: a view of one bank of an :class:`SRAMImage`.

    :attr:`valid`, :attr:`pointers`, :attr:`tags` and :attr:`probabilities`
    are views of the bank's words, the first :attr:`rows` addresses (see the
    module docstring); the PE's update kernel writes them in place and a
    restore copies them back; everything else reads through :meth:`read`.
    Its access counts and live entries are views of ``words``, its PE's
    counter words.  Built alone, it gets zeroed words and a one-PE image.
    """

    def __init__(
        self,
        bank_index: int,
        num_entries: int,
        words: Optional[np.ndarray] = None,
        image: Optional[SRAMImage] = None,
        pe: int = 0,
    ) -> None:
        if num_entries < 1:
            raise ValueError("a bank needs at least one entry")
        self.bank_index = bank_index
        self.num_entries = num_entries
        self.image = SRAMImage(1, num_entries) if image is None else image
        self._pe = pe
        self._words = np.zeros(counts.PE_WORDS, dtype=np.int64) if words is None else words

    valid = _bank_field("valid")
    pointers = _bank_field("pointers")
    tags = _bank_field("tags")
    probabilities = _bank_field("probabilities")

    @property
    def rows(self) -> int:
        """Addresses the arrays hold now (every one above is unwritten)."""
        return self.image.rows

    @property
    def read_accesses(self) -> int:
        """Single-entry reads of this bank so far (a row read counts one per bank)."""
        return int(counts.bank_reads(self._words)[self.bank_index])

    @property
    def write_accesses(self) -> int:
        """Single-entry writes of this bank so far (a row write counts one per bank)."""
        return int(counts.bank_writes(self._words)[self.bank_index])

    def read(self, address: int) -> Optional[TreeMemEntry]:
        """Read the entry at ``address`` (None if never written): one decoded read access."""
        self._check_address(address)
        self._words[counts.DECODED + self.bank_index] += 1
        image, at = self.image, (self._pe, self.bank_index, address)
        if address >= image.rows or not image.valid[at]:
            return None
        return TreeMemEntry(
            int(image.pointers[at]),
            TreeMemEntry.tags_from_word(int(image.tags[at])),
            int(image.probabilities[at]),
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
    """The eight-bank TreeMem of one PE: a view of PE ``pe`` of an :class:`SRAMImage`.

    Descending the tree touches one bank per level; a parent update or a
    pruning check reads all eight children of a row at once.  The kernel
    does both on the image's arrays; the counts here and in every bank read
    ``words``, the PE's counter words.  Built alone, it gets zeroed words and
    a one-PE image.  :meth:`read_entry` is the decoded read of verification
    and tests.
    """

    def __init__(
        self,
        num_banks: int,
        entries_per_bank: int,
        words: Optional[np.ndarray] = None,
        image: Optional[SRAMImage] = None,
        pe: int = 0,
    ) -> None:
        if num_banks != 8:
            raise ValueError("the child-per-bank layout requires exactly 8 banks")
        self.num_banks = num_banks
        self.entries_per_bank = entries_per_bank
        self.image = SRAMImage(1, entries_per_bank) if image is None else image
        self._pe = pe
        self._words = np.zeros(counts.PE_WORDS, dtype=np.int64) if words is None else words

    @functools.cached_property
    def banks(self) -> List[TreeMemBank]:
        """The eight banks, each a view of this PE's part of the image."""
        return [
            TreeMemBank(index, self.entries_per_bank, self._words, self.image, self._pe)
            for index in range(self.num_banks)
        ]

    @property
    def rows(self) -> int:
        """Addresses every bank's arrays hold now."""
        return self.image.rows

    def field(self, name: str) -> List[memoryview]:
        """One field of every bank as the kernels index it, ``field[bank][row]``: views, stale once the image grows."""
        return [memoryview(bank) for bank in getattr(self.image, name)[self._pe]]

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
