"""Dynamic pruning address manager (paper Section IV-C, Fig. 6).

When a subtree is pruned its children block (one TreeMem row) becomes free;
when a new branch is created (tree expansion) a fresh row is needed.  The
prune address manager keeps a **stack** of freed row pointers so that
expansion reuses pruned rows before claiming never-used ones, keeping SRAM
utilisation high and relaxing the total capacity requirement.  The paper uses
a stack rather than a FIFO because it is the cheapest structure that provides
the reuse property.

This model also owns the bump allocator for never-used rows, so a PE obtains
every children-block address from a single place and the allocation policy
(reuse-first) is enforced here.

The state lives in the PE's part of its accelerator's
:class:`~repro.core.treemem.SRAMImage` -- the counters as ``int64`` words
(:attr:`PruneAddressManager.state`), the stack as ``int32`` words and an "on
the stack" flag per row -- because the PE's native update kernel
(``pe_kernel.c``) allocates and frees rows in those arrays, in place; a shard
snapshot copies the state words and the live part of the stack, and a
restore rebuilds the flags from the stack.  This class is a view of that
state: it reads it out, and words the kernel's refusals
(:meth:`~PruneAddressManager.exhausted`, :meth:`~PruneAddressManager.free_error`,
in the kernel's order of checks).  Built alone, it gets a one-PE image.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.core.treemem import MemoryCapacityError, SRAMImage

__all__ = ["PruneAddressManager"]

# Words of PruneAddressManager.state (the kernel's A_* indices).
NEXT_FRESH, DEPTH, ALLOCATIONS, FRESH, REUSED, FREES, PEAK = range(7)


class PruneAddressManager:
    """The TreeMem row-allocation state of one PE, which its kernel allocates and recycles rows in.

    Args:
        num_rows: number of rows in the PE's TreeMem (entries per bank).
        reserved_rows: rows reserved at the bottom of the address space (row 0
            holds the PE's local root block and is never recycled).
        image, pe: the image holding the state, and the PE's index in it
            (a one-PE image of its own if none is given).
    """

    def __init__(
        self, num_rows: int, reserved_rows: int = 1, image: Optional[SRAMImage] = None, pe: int = 0
    ) -> None:
        if num_rows < reserved_rows + 1:
            raise ValueError(
                f"num_rows={num_rows} leaves no allocatable rows after "
                f"reserving {reserved_rows}"
            )
        self._num_rows = num_rows
        self._reserved_rows = reserved_rows
        self._image = SRAMImage(1, num_rows, reserved_rows) if image is None else image
        self._pe = pe

    # Views of the image's arrays, which never move.
    @functools.cached_property
    def state(self) -> memoryview:
        """Next fresh row, stack depth, then the statistics used by the memory-utilisation
        experiments: allocations (fresh + reused), fresh and reused ones, frees and the peak stack depth."""
        return memoryview(self._image.allocator[self._pe])

    @functools.cached_property
    def stack(self) -> memoryview:
        """The freed rows, bottom first; :attr:`stack_depth` of them are live."""
        return memoryview(self._image.stack[self._pe])

    @functools.cached_property
    def stacked(self) -> memoryview:
        """Per row, 1 while it is on the stack (for the O(1) double-free check)."""
        return memoryview(self._image.stacked[self._pe])

    def exhausted(self) -> MemoryCapacityError:
        """The error of an allocation that finds neither a pruned nor a fresh row."""
        return MemoryCapacityError(
            f"TreeMem exhausted: all {self._num_rows} rows are in use and "
            "the prune stack is empty (increase bank_kilobytes or reduce "
            "the mapped volume)"
        )

    def free_error(self, row: int) -> Optional[ValueError]:
        """Why ``row`` cannot be freed now, or None if it can."""
        if not self._reserved_rows <= row < self._num_rows:
            return ValueError(
                f"row {row} is not an allocatable address "
                f"(valid range [{self._reserved_rows}, {self._num_rows - 1}])"
            )
        if self.stacked[row]:
            return ValueError(f"row {row} freed twice (double prune)")
        if row >= self.state[NEXT_FRESH]:
            return ValueError(f"row {row} freed but was never allocated")
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Total rows managed (including reserved ones)."""
        return self._num_rows

    @property
    def reserved_rows(self) -> int:
        """Rows at the bottom of the address space that are never handed out."""
        return self._reserved_rows

    @property
    def next_fresh_row(self) -> int:
        """The lowest row never handed out (everything above it is untouched)."""
        return self.state[NEXT_FRESH]

    @property
    def allocations(self) -> int:
        """Rows handed out, fresh plus reused (a refused allocation is not one)."""
        return self.state[ALLOCATIONS]

    @property
    def reused_allocations(self) -> int:
        """Rows handed out from the prune stack."""
        return self.state[REUSED]

    @property
    def peak_stack_depth(self) -> int:
        """The deepest the prune stack has been."""
        return self.state[PEAK]

    @property
    def stack_depth(self) -> int:
        """Number of freed rows currently waiting for reuse."""
        return self.state[DEPTH]

    @property
    def rows_in_use(self) -> int:
        """Rows currently holding live children blocks."""
        return self.rows_touched - self.stack_depth

    @property
    def rows_touched(self) -> int:
        """Rows ever handed out (the high-water mark without reuse)."""
        return self.next_fresh_row - self._reserved_rows

    def reuse_fraction(self) -> float:
        """Fraction of allocations served from the prune stack."""
        return self.reused_allocations / self.allocations if self.allocations else 0.0
