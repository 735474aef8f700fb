"""Unit tests for the operation counters."""

import dataclasses

from repro.octomap.counters import OperationCounters, OperationKind


class TestOperationKind:
    def test_ordered_stages_match_the_paper(self):
        assert OperationKind.ordered() == (
            OperationKind.RAY_CASTING,
            OperationKind.UPDATE_LEAF,
            OperationKind.UPDATE_PARENTS,
            OperationKind.PRUNE_EXPAND,
        )

    def test_values_are_stable_strings(self):
        assert OperationKind.PRUNE_EXPAND.value == "prune_expand"


class TestOperationCounters:
    def test_fresh_counters_are_zero(self):
        values = dataclasses.asdict(OperationCounters())
        assert values.pop("extra") == {}
        assert set(values.values()) == {0}

    def test_merge_accumulates_all_fields(self):
        a = OperationCounters(leaf_updates=1, ray_steps=2, child_reads=8)
        b = OperationCounters(leaf_updates=3, prunes=1)
        b.extra["pe_updates"] = 7
        a.merge(b)
        assert a.leaf_updates == 4
        assert a.ray_steps == 2
        assert a.prunes == 1
        assert a.extra["pe_updates"] == 7

    def test_merge_extra_accumulates(self):
        a = OperationCounters()
        a.extra["x"] = 1
        b = OperationCounters()
        b.extra["x"] = 2
        a.merge(b)
        assert a.extra["x"] == 3

    def test_copy_is_independent(self):
        original = OperationCounters(leaf_updates=1)
        duplicate = original.copy()
        duplicate.leaf_updates = 99
        duplicate.extra["y"] = 1
        assert original.leaf_updates == 1
        assert "y" not in original.extra
