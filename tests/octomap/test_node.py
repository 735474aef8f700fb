"""Unit tests for the octree node and the pruning predicate."""

import pytest

from repro.octomap.node import OcTreeNode


class TestChildManagement:
    def test_new_node_is_a_leaf(self):
        node = OcTreeNode(0.5)
        assert not node.has_children()
        assert node.log_odds == pytest.approx(0.5)

    def test_create_child_inherits_value(self):
        node = OcTreeNode()
        child = node.create_child(3, log_odds=1.25)
        assert node.child_exists(3)
        assert child.log_odds == pytest.approx(1.25)

    def test_create_child_is_idempotent(self):
        node = OcTreeNode()
        first = node.create_child(2, 1.0)
        second = node.create_child(2, 9.0)
        assert first is second
        assert second.log_odds == pytest.approx(1.0)

    def test_child_index_bounds(self):
        node = OcTreeNode()
        with pytest.raises(IndexError):
            node.create_child(8)
        with pytest.raises(IndexError):
            node.child(-1)

    def test_delete_children_returns_count(self):
        node = OcTreeNode()
        for index in range(4):
            node.create_child(index)
        assert node.delete_children() == 4
        assert node.delete_children() == 0

    def test_children_iteration_yields_existing_only(self):
        node = OcTreeNode()
        node.create_child(1)
        node.create_child(6)
        indices = [index for index, _ in node.children()]
        assert indices == [1, 6]


class TestOccupancyAggregation:
    def test_max_child_log_odds(self):
        node = OcTreeNode()
        node.create_child(0, -1.0)
        node.create_child(1, 2.0)
        node.create_child(2, 0.5)
        assert node.max_child_log_odds() == pytest.approx(2.0)

    def test_max_child_without_children_raises(self):
        with pytest.raises(ValueError):
            OcTreeNode().max_child_log_odds()

    def test_update_occupancy_from_children(self):
        node = OcTreeNode(-5.0)
        node.create_child(0, 0.3)
        node.create_child(7, 0.9)
        node.update_occupancy_from_children()
        assert node.log_odds == pytest.approx(0.9)


class TestPruning:
    def _node_with_identical_children(self, value: float = 1.5) -> OcTreeNode:
        node = OcTreeNode()
        for index in range(8):
            node.create_child(index, value)
        return node

    def test_prunable_with_eight_identical_leaves(self):
        assert self._node_with_identical_children().is_prunable()

    def test_not_prunable_with_missing_child(self):
        node = OcTreeNode()
        for index in range(7):
            node.create_child(index, 1.0)
        assert not node.is_prunable()

    def test_not_prunable_with_differing_values(self):
        node = self._node_with_identical_children()
        node.child(3).log_odds = 0.25
        assert not node.is_prunable()

    def test_not_prunable_when_a_child_has_children(self):
        node = self._node_with_identical_children()
        node.child(0).create_child(0, 1.5)
        assert not node.is_prunable()

    def test_leaf_is_not_prunable(self):
        assert not OcTreeNode(1.0).is_prunable()

    def test_prune_collapses_children_and_adopts_value(self):
        node = self._node_with_identical_children(0.75)
        deleted = node.prune()
        assert deleted == 8
        assert not node.has_children()
        assert node.log_odds == pytest.approx(0.75)

    def test_prune_on_non_prunable_node_is_a_no_op(self):
        node = OcTreeNode()
        node.create_child(0, 1.0)
        assert node.prune() == 0
        assert node.has_children()

    def test_prune_tolerates_tiny_float_noise(self):
        node = self._node_with_identical_children(1.0)
        node.child(4).log_odds = 1.0 + 1e-12
        assert node.is_prunable()

    def test_expand_recreates_children_with_parent_value(self):
        node = OcTreeNode(0.6)
        created = node.expand()
        assert created == 8
        assert len(list(node.children())) == 8
        assert all(child.log_odds == pytest.approx(0.6) for _, child in node.children())

    def test_expand_on_inner_node_raises(self):
        node = OcTreeNode()
        node.create_child(0)
        with pytest.raises(ValueError):
            node.expand()

    def test_prune_then_expand_roundtrip(self):
        node = self._node_with_identical_children(-0.4)
        node.prune()
        node.expand()
        assert node.is_prunable()
        assert node.max_child_log_odds() == pytest.approx(-0.4)
