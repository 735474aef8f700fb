"""Unit tests for the dynamic pruning address manager (stack of freed rows)."""

import pytest

from repro.core.prune_manager import PruneAddressManager
from repro.core.treemem import MemoryCapacityError


class TestAllocation:
    def test_fresh_rows_are_handed_out_in_order(self):
        manager = PruneAddressManager(num_rows=8, reserved_rows=1)
        assert [manager.allocate_row() for _ in range(3)] == [1, 2, 3]

    def test_reserved_rows_are_never_allocated(self):
        manager = PruneAddressManager(num_rows=8, reserved_rows=2)
        assert manager.allocate_row() == 2

    def test_capacity_exhaustion_raises(self):
        manager = PruneAddressManager(num_rows=4, reserved_rows=1)
        for _ in range(3):
            manager.allocate_row()
        with pytest.raises(MemoryCapacityError):
            manager.allocate_row()

    def test_a_refused_allocation_is_not_counted(self):
        """allocations == fresh + reused, also after exhaustion and after free -> reuse -> exhaustion."""
        manager = PruneAddressManager(num_rows=4, reserved_rows=1)
        rows = [manager.allocate_row() for _ in range(3)]
        with pytest.raises(MemoryCapacityError):
            manager.allocate_row()
        assert (manager.allocations, manager.fresh_allocations, manager.reused_allocations) == (3, 3, 0)
        manager.free_row(rows[1])
        assert manager.allocate_row() == rows[1]
        with pytest.raises(MemoryCapacityError):
            manager.allocate_row()
        assert (manager.allocations, manager.fresh_allocations, manager.reused_allocations) == (4, 3, 1)
        assert manager.reuse_fraction() == 0.25

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PruneAddressManager(num_rows=1, reserved_rows=1)


class TestReuse:
    def test_freed_row_is_reused_before_fresh_rows(self):
        manager = PruneAddressManager(num_rows=16)
        first = manager.allocate_row()
        manager.allocate_row()
        manager.free_row(first)
        assert manager.allocate_row() == first

    def test_stack_order_is_lifo(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [manager.allocate_row() for _ in range(4)]
        for row in rows:
            manager.free_row(row)
        assert manager.allocate_row() == rows[-1]
        assert manager.allocate_row() == rows[-2]

    def test_reuse_extends_effective_capacity(self):
        """With reuse, far more allocations than rows can be served."""
        manager = PruneAddressManager(num_rows=4, reserved_rows=1)
        for _ in range(50):
            row = manager.allocate_row()
            manager.free_row(row)
        assert manager.allocations == 50
        assert manager.reuse_fraction() > 0.9

    def test_free_validation_rejects_unallocated_rows(self):
        manager = PruneAddressManager(num_rows=8)
        with pytest.raises(ValueError, match="row 5 freed but was never allocated"):
            manager.free_row(5)

    def test_free_validation_rejects_reserved_row(self):
        manager = PruneAddressManager(num_rows=8, reserved_rows=1)
        with pytest.raises(ValueError):
            manager.free_row(0)

    def test_double_free_rejected(self):
        manager = PruneAddressManager(num_rows=8)
        row = manager.allocate_row()
        manager.free_row(row)
        with pytest.raises(ValueError, match=f"row {row} freed twice"):
            manager.free_row(row)

    def test_a_reused_row_can_be_freed_again(self):
        """The double-free check follows the stack: a popped row is live again."""
        manager = PruneAddressManager(num_rows=8)
        first, second = manager.allocate_row(), manager.allocate_row()
        manager.free_row(first)
        manager.free_row(second)
        assert manager.allocate_row() == second
        manager.free_row(second)
        with pytest.raises(ValueError, match=f"row {first} freed twice"):
            manager.free_row(first)
        assert (manager.frees, manager.reused_allocations, manager.peak_stack_depth) == (3, 1, 2)

    def test_free_out_of_range_rejected(self):
        manager = PruneAddressManager(num_rows=8)
        with pytest.raises(ValueError):
            manager.free_row(99)


class TestStatistics:
    def test_rows_in_use_tracks_allocations_and_frees(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [manager.allocate_row() for _ in range(5)]
        assert manager.rows_in_use == 5
        manager.free_row(rows[0])
        manager.free_row(rows[1])
        assert manager.rows_in_use == 3
        assert manager.stack_depth == 2

    def test_utilization(self):
        manager = PruneAddressManager(num_rows=11, reserved_rows=1)
        for _ in range(5):
            manager.allocate_row()
        assert manager.utilization() == pytest.approx(0.5)

    def test_rows_touched_is_a_high_water_mark(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [manager.allocate_row() for _ in range(4)]
        for row in rows:
            manager.free_row(row)
        for _ in range(4):
            manager.allocate_row()
        assert manager.rows_touched == 4, "reuse keeps the fresh-row high-water mark flat"

    def test_peak_stack_depth(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [manager.allocate_row() for _ in range(6)]
        for row in rows:
            manager.free_row(row)
        assert manager.peak_stack_depth == 6

    def test_free_rows_counts_fresh_and_recycled(self):
        manager = PruneAddressManager(num_rows=10, reserved_rows=1)
        rows = [manager.allocate_row() for _ in range(4)]
        manager.free_row(rows[0])
        assert manager.free_rows == (9 - 4) + 1

    def test_reuse_fraction_zero_without_allocations(self):
        assert PruneAddressManager(num_rows=4).reuse_fraction() == 0.0
