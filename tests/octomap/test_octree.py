"""Unit and behavioural tests for the occupancy octree."""

import pytest

from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import DEFAULT_PARAMS
from repro.octomap.octree import OccupancyOcTree


@pytest.fixture
def tree() -> OccupancyOcTree:
    return OccupancyOcTree(0.1)


class TestBasics:
    def test_new_tree_is_empty(self, tree):
        assert tree.root is None
        assert tree.size() == 0
        assert tree.search(0.0, 0.0, 0.0) is None

    def test_properties(self, tree):
        assert tree.resolution == pytest.approx(0.1)
        assert tree.tree_depth == 16
        assert tree.params is DEFAULT_PARAMS

    def test_node_size_delegation(self, tree):
        assert tree.node_size(16) == pytest.approx(0.1)
        assert tree.node_size(15) == pytest.approx(0.2)


class TestUpdateAndSearch:
    def test_single_occupied_update_creates_full_path(self, tree):
        node = tree.update_node(0.55, 0.55, 0.55, occupied=True)
        assert node.log_odds == pytest.approx(DEFAULT_PARAMS.log_odds_hit)
        # root + one node per level below it
        assert tree.size() == 1 + tree.tree_depth

    def test_search_finds_updated_voxel(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        node = tree.search(0.55, 0.55, 0.55)
        assert node is not None
        assert tree.is_node_occupied(node)

    def test_search_by_key(self, tree):
        key = tree.coord_to_key(0.55, 0.55, 0.55)
        tree.update_node(key, occupied=True)
        assert tree.search(key) is not None

    def test_unobserved_sibling_is_unknown(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        assert tree.search(0.55, 0.55, 0.85) is None
        assert tree.classify(0.55, 0.55, 0.85) == "unknown"

    def test_free_update_classifies_as_free(self, tree):
        tree.update_node(0.35, 0.35, 0.35, occupied=False)
        assert tree.classify(0.35, 0.35, 0.35) == "free"

    def test_repeated_hits_saturate_at_clamp(self, tree):
        for _ in range(30):
            node = tree.update_node(1.0, 1.0, 1.0, occupied=True)
        assert node.log_odds == pytest.approx(DEFAULT_PARAMS.clamp_max)

    def test_hits_then_misses_can_flip_classification(self, tree):
        for _ in range(2):
            tree.update_node(1.0, 1.0, 1.0, occupied=True)
        for _ in range(8):
            tree.update_node(1.0, 1.0, 1.0, occupied=False)
        assert tree.classify(1.0, 1.0, 1.0) == "free"

    def test_parent_takes_max_of_children(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        tree.update_node(0.45, 0.55, 0.55, occupied=False)
        parent = tree.search(0.55, 0.55, 0.55, depth=tree.tree_depth - 1)
        assert parent is not None
        assert parent.log_odds == pytest.approx(DEFAULT_PARAMS.log_odds_hit)

    def test_parent_search_at_coarse_depth(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        coarse = tree.search(0.55, 0.55, 0.55, depth=4)
        assert coarse is not None
        assert tree.is_node_occupied(coarse)

    def test_metric_lookup_requires_all_coordinates(self, tree):
        with pytest.raises(TypeError):
            tree.search(1.0)

    def test_update_counts_leaf_updates(self, tree):
        tree.update_node(0.1, 0.1, 0.1, occupied=True)
        tree.update_node(0.1, 0.1, 0.1, occupied=True)
        assert tree.counters.leaf_updates == 2

    def test_set_node_log_odds(self, tree):
        key = tree.coord_to_key(0.9, 0.9, 0.9)
        node = tree.set_node_log_odds(key, 1.1)
        assert node.log_odds == pytest.approx(1.1)
        assert tree.classify(0.9, 0.9, 0.9) == "occupied"

    def test_set_node_log_odds_clamps(self, tree):
        key = tree.coord_to_key(0.9, 0.9, 0.9)
        node = tree.set_node_log_odds(key, 99.0)
        assert node.log_odds == pytest.approx(DEFAULT_PARAMS.clamp_max)


class TestPruningBehaviour:
    def _fill_block(self, tree: OccupancyOcTree, base=(1.0, 1.0, 1.0), occupied=True, repeats=20, lazy_eval=False):
        """Saturate the eight sibling voxels of one parent block."""
        base_key = tree.coord_to_key(*base)
        # Align to an even key so the eight siblings share one parent.
        kx, ky, kz = (component & ~1 for component in base_key.as_tuple())
        for dx in range(2):
            for dy in range(2):
                for dz in range(2):
                    key = OcTreeKey(kx + dx, ky + dy, kz + dz)
                    for _ in range(repeats):
                        tree.update_node(key, occupied=occupied, lazy_eval=lazy_eval)
        return OcTreeKey(kx, ky, kz)

    def test_saturated_block_is_pruned_automatically(self, tree):
        self._fill_block(tree)
        assert tree.counters.prunes >= 1

    def test_pruned_block_still_answers_queries(self, tree):
        base_key = self._fill_block(tree)
        node = tree.search(base_key)
        assert node is not None
        assert tree.is_node_occupied(node)

    def test_pruning_reduces_node_count(self, tree):
        eager = OccupancyOcTree(tree.resolution)
        self._fill_block(eager)
        self._fill_block(tree, lazy_eval=True)
        assert tree.size() > eager.size()
        tree.update_inner_occupancy()
        assert tree.prune() >= 1
        assert tree.size() == eager.size()

    def test_update_inside_pruned_region_expands(self, tree):
        base_key = self._fill_block(tree)
        expansions_before = tree.counters.expansions
        # A free observation inside the pruned block must force re-expansion.
        tree.update_node(base_key, occupied=False)
        assert tree.counters.expansions > expansions_before

    def test_explicit_prune_is_idempotent(self, tree):
        self._fill_block(tree)
        first = tree.prune()
        second = tree.prune()
        assert second == 0
        assert first >= 0


class TestIterationAndBounds:
    def test_iter_leafs_contains_updated_voxel(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        leaves = list(tree.iter_leafs())
        assert len(leaves) == 1
        leaf = leaves[0]
        assert leaf.depth == tree.tree_depth
        assert leaf.center == pytest.approx((0.55, 0.55, 0.55))

    def test_iter_occupied_and_free_partition_leaves(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        tree.update_node(-0.55, -0.55, -0.55, occupied=False)
        occupied = list(tree.iter_occupied())
        free = list(tree.iter_free())
        assert len(occupied) == 1
        assert len(free) == 1

    def test_iter_leafs_with_depth_cutoff(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        coarse = list(tree.iter_leafs(max_depth=4))
        assert len(coarse) == 1
        assert coarse[0].depth == 4

    def test_num_leaf_nodes(self, two_scan_graph):
        tree = OccupancyOcTree(0.2)
        for scan in two_scan_graph:
            tree.insert_point_cloud(scan.world_cloud(), scan.origin())
        assert tree.num_leaf_nodes() == len(list(tree.iter_leafs()))

    def test_occupancy_grid_matches_leaves(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True)
        grid = tree.occupancy_grid()
        key = tree.coord_to_key(0.55, 0.55, 0.55)
        assert key.as_tuple() in grid
        assert grid[key.as_tuple()] == pytest.approx(DEFAULT_PARAMS.log_odds_hit)


class TestLazyEvaluation:
    def test_lazy_updates_need_inner_occupancy_refresh(self, tree):
        tree.update_node(0.55, 0.55, 0.55, occupied=True, lazy_eval=True)
        tree.update_inner_occupancy()
        coarse = tree.search(0.55, 0.55, 0.55, depth=2)
        assert coarse is not None
        assert tree.is_node_occupied(coarse)

    def test_lazy_insertion_then_prune_matches_eager(self, two_scan_graph):
        eager = OccupancyOcTree(0.2)
        lazy = OccupancyOcTree(0.2)
        for scan in two_scan_graph:
            eager.insert_point_cloud(scan.world_cloud(), scan.origin())
            lazy.insert_point_cloud(scan.world_cloud(), scan.origin(), lazy_prune=True)
        eager.prune()
        lazy.prune()
        assert eager.occupancy_grid() == pytest.approx(lazy.occupancy_grid())
