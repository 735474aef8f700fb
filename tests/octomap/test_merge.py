"""Tree merging (shard stitching): grafting leaves, coarse regions, errors."""

from __future__ import annotations

import pytest

from repro.octomap import OccupancyOcTree, graft_leaf, merge_tree, merge_trees
from repro.octomap.keys import OcTreeKey


def _tree(resolution=0.25, depth=16):
    return OccupancyOcTree(resolution, tree_depth=depth)


def test_merge_disjoint_trees_preserves_every_leaf():
    left, right = _tree(), _tree()
    left.update_node(1.0, 1.0, 1.0, occupied=True)
    left.update_node(2.0, 1.0, 0.5, occupied=False)
    right.update_node(-1.0, -1.0, -1.0, occupied=True)

    target = _tree()
    assert merge_tree(target, left) == left.num_leaf_nodes()
    assert merge_tree(target, right) == right.num_leaf_nodes()

    for source in (left, right):
        for leaf in source.iter_leafs():
            node = target.search(leaf.key)
            assert node is not None
            assert node.log_odds == pytest.approx(leaf.log_odds)
    assert target.size() == _count_nodes(target.root)


def _count_nodes(node):
    if node is None:
        return 0
    return 1 + sum(_count_nodes(child) for _, child in node.children())


def test_merge_preserves_classification_against_single_tree_build():
    # Build the same map in one tree, and split across two trees by x sign.
    updates = [
        (1.0, 0.5, 0.2, True),
        (1.5, -0.5, 0.2, True),
        (-1.0, 0.5, 0.2, False),
        (-1.5, 1.5, 0.0, True),
        (1.0, 0.5, 0.2, True),  # re-observe
    ]
    whole, left, right = _tree(), _tree(), _tree()
    for x, y, z, occupied in updates:
        whole.update_node(x, y, z, occupied=occupied)
        (left if x < 0 else right).update_node(x, y, z, occupied=occupied)
    whole.prune()

    stitched = merge_trees([left, right])
    assert stitched.occupancy_grid() == whole.occupancy_grid()


def test_graft_coarse_leaf_covers_whole_region():
    source = _tree()
    # A pruned homogeneous region: all eight children of one depth-15 node.
    base = OcTreeKey(32768, 32768, 32768)
    for dx in range(2):
        for dy in range(2):
            for dz in range(2):
                source.update_node(
                    OcTreeKey(base.x + dx, base.y + dy, base.z + dz), occupied=True
                )
    source.prune()
    coarse = [leaf for leaf in source.iter_leafs() if leaf.depth < source.tree_depth]
    assert coarse, "pruning should have produced a coarse leaf"

    target = _tree()
    merge_tree(target, source)
    for dx in range(2):
        for dy in range(2):
            for dz in range(2):
                key = OcTreeKey(base.x + dx, base.y + dy, base.z + dz)
                node = target.search(key)
                assert node is not None
                assert target.is_node_occupied(node)


def test_graft_replaces_finer_structure():
    target = _tree()
    key = OcTreeKey(32770, 32770, 32770)
    target.update_node(key, occupied=True)
    # Graft a coarse free region over the occupied leaf.
    graft_leaf(target, key, 13, -1.5)
    target.update_inner_occupancy()
    node = target.search(key)
    assert node is not None
    assert not target.is_node_occupied(node)
    assert target.size() == _count_nodes(target.root)


def test_merge_validates_geometry():
    with pytest.raises(ValueError, match="resolution mismatch"):
        merge_tree(_tree(resolution=0.25), _tree(resolution=0.2))
    with pytest.raises(ValueError, match="depth mismatch"):
        merge_tree(_tree(depth=16), _tree(depth=12))
    with pytest.raises(ValueError, match="at least one source"):
        merge_trees([])


def test_merge_into_empty_and_from_empty():
    source = _tree()
    source.update_node(0.5, 0.5, 0.5, occupied=True)
    target = _tree()
    merge_tree(target, _tree())  # empty source: no-op
    assert target.root is None
    merge_tree(target, source)
    assert target.root is not None


def test_graft_leaf_validates_depth():
    tree = _tree()
    with pytest.raises(ValueError, match="depth"):
        graft_leaf(tree, OcTreeKey(0, 0, 0), 17, 0.5)
