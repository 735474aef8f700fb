"""Unit tests for the dynamic pruning address manager (stack of freed rows).

The PE kernel allocates and frees rows in the manager's arrays; the oracle's
``allocate_row`` / ``free_row`` do the same in Python, with the same checks in
the same order, and are what these tests drive.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prune_manager import FREES, FRESH, PruneAddressManager
from repro.core.treemem import MemoryCapacityError

from oracle_pe import allocate_row, free_row


class TestAllocation:
    def test_fresh_rows_are_handed_out_in_order(self):
        manager = PruneAddressManager(num_rows=8, reserved_rows=1)
        assert [allocate_row(manager) for _ in range(3)] == [1, 2, 3]

    def test_reserved_rows_are_never_allocated(self):
        manager = PruneAddressManager(num_rows=8, reserved_rows=2)
        assert allocate_row(manager) == 2

    def test_capacity_exhaustion_raises(self):
        manager = PruneAddressManager(num_rows=4, reserved_rows=1)
        for _ in range(3):
            allocate_row(manager)
        with pytest.raises(MemoryCapacityError):
            allocate_row(manager)

    def test_a_refused_allocation_is_not_counted(self):
        """allocations == fresh + reused, also after exhaustion and after free -> reuse -> exhaustion."""
        manager = PruneAddressManager(num_rows=4, reserved_rows=1)
        rows = [allocate_row(manager) for _ in range(3)]
        with pytest.raises(MemoryCapacityError):
            allocate_row(manager)
        assert (manager.allocations, manager.state[FRESH], manager.reused_allocations) == (3, 3, 0)
        free_row(manager, rows[1])
        assert allocate_row(manager) == rows[1]
        with pytest.raises(MemoryCapacityError):
            allocate_row(manager)
        assert (manager.allocations, manager.state[FRESH], manager.reused_allocations) == (4, 3, 1)
        assert manager.reuse_fraction() == 0.25

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PruneAddressManager(num_rows=1, reserved_rows=1)


class TestReuse:
    def test_freed_row_is_reused_before_fresh_rows(self):
        manager = PruneAddressManager(num_rows=16)
        first = allocate_row(manager)
        allocate_row(manager)
        free_row(manager, first)
        assert allocate_row(manager) == first

    def test_stack_order_is_lifo(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [allocate_row(manager) for _ in range(4)]
        for row in rows:
            free_row(manager, row)
        assert allocate_row(manager) == rows[-1]
        assert allocate_row(manager) == rows[-2]

    def test_reuse_extends_effective_capacity(self):
        """With reuse, far more allocations than rows can be served."""
        manager = PruneAddressManager(num_rows=4, reserved_rows=1)
        for _ in range(50):
            row = allocate_row(manager)
            free_row(manager, row)
        assert manager.allocations == 50
        assert manager.reuse_fraction() > 0.9

    def test_free_validation_rejects_unallocated_rows(self):
        manager = PruneAddressManager(num_rows=8)
        with pytest.raises(ValueError, match="row 5 freed but was never allocated"):
            free_row(manager, 5)

    def test_free_validation_rejects_reserved_row(self):
        manager = PruneAddressManager(num_rows=8, reserved_rows=1)
        with pytest.raises(ValueError):
            free_row(manager, 0)

    def test_double_free_rejected(self):
        manager = PruneAddressManager(num_rows=8)
        row = allocate_row(manager)
        free_row(manager, row)
        with pytest.raises(ValueError, match=f"row {row} freed twice"):
            free_row(manager, row)

    def test_a_reused_row_can_be_freed_again(self):
        """The double-free check follows the stack: a popped row is live again."""
        manager = PruneAddressManager(num_rows=8)
        first, second = allocate_row(manager), allocate_row(manager)
        free_row(manager, first)
        free_row(manager, second)
        assert allocate_row(manager) == second
        free_row(manager, second)
        with pytest.raises(ValueError, match=f"row {first} freed twice"):
            free_row(manager, first)
        assert (manager.state[FREES], manager.reused_allocations, manager.peak_stack_depth) == (3, 1, 2)

    def test_free_out_of_range_rejected(self):
        manager = PruneAddressManager(num_rows=8)
        with pytest.raises(ValueError):
            free_row(manager, 99)


class TestStatistics:
    def test_rows_in_use_tracks_allocations_and_frees(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [allocate_row(manager) for _ in range(5)]
        assert manager.rows_in_use == 5
        free_row(manager, rows[0])
        free_row(manager, rows[1])
        assert manager.rows_in_use == 3
        assert manager.stack_depth == 2

    def test_rows_touched_is_a_high_water_mark(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [allocate_row(manager) for _ in range(4)]
        for row in rows:
            free_row(manager, row)
        for _ in range(4):
            allocate_row(manager)
        assert manager.rows_touched == 4, "reuse keeps the fresh-row high-water mark flat"

    def test_peak_stack_depth(self):
        manager = PruneAddressManager(num_rows=16)
        rows = [allocate_row(manager) for _ in range(6)]
        for row in rows:
            free_row(manager, row)
        assert manager.peak_stack_depth == 6

    def test_utilization(self):
        manager = PruneAddressManager(num_rows=11, reserved_rows=1)
        for _ in range(5):
            allocate_row(manager)
        assert manager.rows_in_use == 5
        for _ in range(5):
            allocate_row(manager)
        assert manager.rows_in_use == manager.num_rows - manager.reserved_rows
        with pytest.raises(MemoryCapacityError):
            allocate_row(manager)

    def test_free_rows_counts_fresh_and_recycled(self):
        manager = PruneAddressManager(num_rows=10, reserved_rows=1)
        rows = [allocate_row(manager) for _ in range(4)]
        free_row(manager, rows[0])
        free_rows = (manager.num_rows - manager.next_fresh_row) + manager.stack_depth
        assert free_rows == (9 - 4) + 1
        for _ in range(free_rows):
            allocate_row(manager)
        with pytest.raises(MemoryCapacityError):
            allocate_row(manager)

    def test_reuse_fraction_zero_without_allocations(self):
        assert PruneAddressManager(num_rows=4).reuse_fraction() == 0.0


@given(st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=50)
def test_prune_manager_never_hands_out_a_live_row(operations):
    """Allocate (True) / free-the-oldest (False): live rows stay unique."""
    manager = PruneAddressManager(num_rows=64)
    live = []
    for allocate in operations:
        if allocate:
            if len(live) == manager.num_rows - manager.reserved_rows:
                continue
            row = allocate_row(manager)
            assert row not in live
            live.append(row)
        elif live:
            free_row(manager, live.pop(0))
    assert manager.rows_in_use == len(live)
