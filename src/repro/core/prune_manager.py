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
"""

from __future__ import annotations

from typing import List, Set

from repro.core.treemem import MemoryCapacityError

__all__ = ["PruneAddressManager"]


class PruneAddressManager:
    """Allocates and recycles TreeMem row addresses for one PE.

    Args:
        num_rows: number of rows in the PE's TreeMem (entries per bank).
        reserved_rows: rows reserved at the bottom of the address space (row 0
            holds the PE's local root block and is never recycled).
    """

    def __init__(self, num_rows: int, reserved_rows: int = 1) -> None:
        if num_rows < reserved_rows + 1:
            raise ValueError(
                f"num_rows={num_rows} leaves no allocatable rows after "
                f"reserving {reserved_rows}"
            )
        self._num_rows = num_rows
        self._reserved_rows = reserved_rows
        self._next_fresh_row = reserved_rows
        self._stack: List[int] = []
        self._stacked: Set[int] = set()  # the stack's rows, for the O(1) double-free check
        # Statistics used by the memory-utilisation experiments.
        self.allocations = 0
        self.fresh_allocations = 0
        self.reused_allocations = 0
        self.frees = 0
        self.peak_stack_depth = 0

    # ------------------------------------------------------------------
    # Allocation interface
    # ------------------------------------------------------------------
    def allocate_row(self) -> int:
        """Return a free row address, reusing pruned rows first.

        Raises:
            MemoryCapacityError: when no pruned row is available and every
                fresh row has already been handed out.
        """
        if self._stack:
            self.reused_allocations += 1
            row = self._stack.pop()
            self._stacked.remove(row)
        else:
            if self._next_fresh_row >= self._num_rows:
                raise MemoryCapacityError(
                    f"TreeMem exhausted: all {self._num_rows} rows are in use and "
                    "the prune stack is empty (increase bank_kilobytes or reduce "
                    "the mapped volume)"
                )
            self.fresh_allocations += 1
            row = self._next_fresh_row
            self._next_fresh_row += 1
        self.allocations += 1
        return row

    def free_row(self, row: int) -> None:
        """Push a pruned children-block row onto the reuse stack."""
        if not self._reserved_rows <= row < self._num_rows:
            raise ValueError(
                f"row {row} is not an allocatable address "
                f"(valid range [{self._reserved_rows}, {self._num_rows - 1}])"
            )
        if row in self._stacked:
            raise ValueError(f"row {row} freed twice (double prune)")
        if row >= self._next_fresh_row:
            raise ValueError(f"row {row} freed but was never allocated")
        self.frees += 1
        self._stack.append(row)
        self._stacked.add(row)
        self.peak_stack_depth = max(self.peak_stack_depth, len(self._stack))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Total rows managed (including reserved ones)."""
        return self._num_rows

    @property
    def stack_depth(self) -> int:
        """Number of freed rows currently waiting for reuse."""
        return len(self._stack)

    @property
    def rows_in_use(self) -> int:
        """Rows currently holding live children blocks."""
        return (self._next_fresh_row - self._reserved_rows) - len(self._stack)

    @property
    def rows_touched(self) -> int:
        """Rows ever handed out (the high-water mark without reuse)."""
        return self._next_fresh_row - self._reserved_rows

    @property
    def free_rows(self) -> int:
        """Rows still available (fresh plus recycled)."""
        return (self._num_rows - self._next_fresh_row) + len(self._stack)

    def utilization(self) -> float:
        """Fraction of allocatable rows currently in use."""
        allocatable = self._num_rows - self._reserved_rows
        return self.rows_in_use / allocatable if allocatable else 0.0

    def reuse_fraction(self) -> float:
        """Fraction of allocations served from the prune stack."""
        return self.reused_allocations / self.allocations if self.allocations else 0.0
