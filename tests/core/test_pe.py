"""Unit tests for the processing element (leaf update, parents, prune/expand)."""

import numpy as np
import pytest

from repro.core.config import OMUConfig
from repro.core.pe import ProcessingElement
from repro.core.prune_manager import FREES
from repro.core.treemem import MemoryCapacityError
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.counters import OperationKind

import oracle_pe


@pytest.fixture
def config() -> OMUConfig:
    return OMUConfig(resolution_m=0.2)


@pytest.fixture
def pe(config: OMUConfig) -> ProcessingElement:
    return ProcessingElement(pe_id=0, config=config)


@pytest.fixture
def converter(config: OMUConfig) -> KeyConverter:
    return KeyConverter(config.resolution_m, config.tree_depth)


def key_at(converter: KeyConverter, x: float, y: float, z: float) -> OcTreeKey:
    return converter.coord_to_key(x, y, z)


class TestVoxelUpdate:
    def test_first_update_builds_the_path(self, pe, converter):
        key = key_at(converter, 1.0, 1.0, 1.0)
        cycles = oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        assert cycles > 0
        assert pe.counters.leaf_updates == 1
        # A full path needs one node per level: local root + 15 below it.
        assert pe.counters.node_allocations == pe.config.tree_depth

    def test_update_then_query_occupied(self, pe, converter):
        key = key_at(converter, 1.0, 1.0, 1.0)
        oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        status, raw = oracle_pe.kernel_query_voxel(pe, key)
        assert status == "occupied"
        assert raw == pe.params.raw_hit

    def test_update_then_query_free(self, pe, converter):
        key = key_at(converter, 0.5, 0.5, 0.5)
        oracle_pe.kernel_update_voxel(pe, key, occupied=False)
        status, raw = oracle_pe.kernel_query_voxel(pe, key)
        assert status == "free"
        assert raw == pe.params.raw_miss

    def test_unobserved_voxel_is_unknown(self, pe, converter):
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 1.0, 1.0, 1.0), occupied=True)
        status, raw = oracle_pe.kernel_query_voxel(pe, key_at(converter, 5.0, 5.0, 5.0))
        assert status == "unknown"
        assert raw is None

    def test_query_on_empty_pe_is_unknown(self, pe, converter):
        status, raw = oracle_pe.kernel_query_voxel(pe, key_at(converter, 1.0, 1.0, 1.0))
        assert status == "unknown"

    def test_repeated_updates_accumulate(self, pe, converter):
        key = key_at(converter, 1.0, 1.0, 1.0)
        for _ in range(3):
            oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        _, raw = oracle_pe.kernel_query_voxel(pe, key)
        assert raw == 3 * pe.params.raw_hit

    def test_updates_saturate_at_clamp(self, pe, converter):
        key = key_at(converter, 1.0, 1.0, 1.0)
        for _ in range(40):
            oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        _, raw = oracle_pe.kernel_query_voxel(pe, key)
        assert raw == pe.params.raw_clamp_max

    def test_cycles_are_charged_to_stages(self, pe, converter):
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 1.0, 1.0, 1.0), occupied=True)
        cycles = pe.stats.breakdown.cycles
        assert cycles[OperationKind.UPDATE_LEAF] > 0
        assert cycles[OperationKind.UPDATE_PARENTS] > 0

    def test_second_voxel_reuses_shared_path(self, pe, converter):
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 1.0, 1.0, 1.0), occupied=True)
        allocations_first = pe.counters.node_allocations
        # A neighbouring voxel shares almost the whole path.
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 1.2, 1.0, 1.0), occupied=True)
        assert pe.counters.node_allocations < 2 * allocations_first

    def test_stats_track_voxel_updates(self, pe, converter):
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 1.0, 1.0, 1.0), occupied=True)
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 2.0, 2.0, 2.0), occupied=False)
        assert pe.stats.voxel_updates == 2
        assert pe.stats.busy_cycles() > 0


class TestPruneAndExpand:
    def _sibling_keys(self, converter):
        """The eight leaf voxels sharing one parent block around (1, 1, 1)."""
        base = key_at(converter, 1.0, 1.0, 1.0)
        kx, ky, kz = (component & ~1 for component in base.as_tuple())
        return [
            OcTreeKey(kx + dx, ky + dy, kz + dz)
            for dx in range(2)
            for dy in range(2)
            for dz in range(2)
        ]

    def _saturate_block(self, pe, converter, occupied=True, repeats=20):
        for key in self._sibling_keys(converter):
            for _ in range(repeats):
                oracle_pe.kernel_update_voxel(pe, key, occupied=occupied)

    def test_identical_saturated_children_are_pruned(self, pe, converter):
        self._saturate_block(pe, converter)
        assert pe.counters.prunes >= 1

    def test_prune_returns_rows_to_the_allocator(self, pe, converter):
        self._saturate_block(pe, converter)
        assert pe.allocator.state[FREES] >= 1

    def test_pruned_region_still_answers_queries(self, pe, converter):
        self._saturate_block(pe, converter)
        for key in self._sibling_keys(converter):
            status, raw = oracle_pe.kernel_query_voxel(pe, key)
            assert status == "occupied"
            assert raw == pe.params.raw_clamp_max

    def test_update_into_pruned_region_expands(self, pe, converter):
        self._saturate_block(pe, converter)
        expansions_before = pe.counters.expansions
        oracle_pe.kernel_update_voxel(pe, self._sibling_keys(converter)[0], occupied=False)
        assert pe.counters.expansions > expansions_before

    def test_expansion_preserves_sibling_values(self, pe, converter):
        self._saturate_block(pe, converter)
        keys = self._sibling_keys(converter)
        oracle_pe.kernel_update_voxel(pe, keys[0], occupied=False)
        # The other seven siblings must still report the saturated value.
        for key in keys[1:]:
            _, raw = oracle_pe.kernel_query_voxel(pe, key)
            assert raw == pe.params.raw_clamp_max

    def test_prune_charges_the_prune_stage(self, pe, converter):
        self._saturate_block(pe, converter)
        assert pe.stats.breakdown.cycles[OperationKind.PRUNE_EXPAND] > 0

    def test_free_block_prunes_too(self, pe, converter):
        self._saturate_block(pe, converter, occupied=False)
        assert pe.counters.prunes >= 1
        status, raw = oracle_pe.kernel_query_voxel(pe, self._sibling_keys(converter)[0])
        assert status == "free"
        assert raw == pe.params.raw_clamp_min


class TestExportAndCapacity:
    def test_memory_utilization_grows_with_updates(self, pe, converter):
        assert pe.memory.occupied_entries() == 0
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 1.0, 1.0, 1.0), occupied=True)
        assert pe.memory.occupied_entries() > 0

    def test_export_contains_every_leaf(self, pe, converter):
        keys = [key_at(converter, x, 1.0, 1.0) for x in (0.5, 1.5, 2.5)]
        for key in keys:
            oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        exported = list(pe.export_nodes())
        leaves = [node for node in exported if node.is_leaf]
        assert len(leaves) == 3
        assert all(len(node.path) == pe.config.tree_depth for node in leaves)

    def test_exported_paths_match_key_paths(self, pe, converter):
        key = key_at(converter, 1.0, 1.0, 1.0)
        oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        leaves = [node for node in pe.export_nodes() if node.is_leaf]
        assert leaves[0].path == key.path(pe.config.tree_depth)

    def test_export_marks_pruned_regions_homogeneous(self, pe, converter):
        TestPruneAndExpand()._saturate_block(pe, converter)
        homogeneous = [node for node in pe.export_nodes() if node.homogeneous]
        assert homogeneous, "the pruned block must export as one homogeneous leaf"

    def test_capacity_error_on_tiny_memory(self, converter):
        """The error leaves ``update_paths`` where it struck: what came before is applied and charged."""
        tiny = OMUConfig(resolution_m=0.2, bank_kilobytes=1)
        pe = ProcessingElement(0, tiny)
        keys = [key_at(converter, 0.2 * x, 0.2 * y, 1.0) for x in range(200) for y in range(10)]
        paths = np.array([key.path(tiny.tree_depth) for key in keys], dtype=np.uint8)
        with pytest.raises(MemoryCapacityError):
            oracle_pe.kernel_update_paths(pe, paths, [True] * len(keys))
        done = pe.stats.voxel_updates
        assert 0 < done < len(keys)
        assert pe.counters.leaf_updates == done
        assert pe.stats.bank_reads == done * tiny.tree_depth
        assert all(oracle_pe.kernel_query_voxel(pe, key)[0] == "occupied" for key in keys[:done])
        # The update that found no row is neither charged nor visible: the
        # nodes it stored on the way down are listed by no parent.
        assert oracle_pe.kernel_query_voxel(pe, keys[done])[0] == "unknown"

    def test_tag_memory_consistency_guard(self, pe, converter):
        """Tampering with the memory image behind the tags is detected."""
        key = key_at(converter, 1.0, 1.0, 1.0)
        oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        root_bank = key.child_index(0, pe.config.tree_depth)
        root = pe.memory.read_entry(0, root_bank)
        with oracle_pe.tallying(pe) as tally:
            oracle_pe.clear_row(tally, pe.memory, root.pointer)
        with pytest.raises(RuntimeError, match="tag/memory mismatch"):
            oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        with pytest.raises(RuntimeError, match="dangling tag"):
            oracle_pe.kernel_query_voxel(pe, key)

    def test_childless_parent_guard(self, pe, converter):
        """A parent whose children row holds nothing cannot be recomputed."""
        key = key_at(converter, 1.0, 1.0, 1.0)
        oracle_pe.kernel_update_voxel(pe, key, occupied=True)
        root = pe.memory.read_entry(0, key.child_index(0, pe.config.tree_depth))
        with oracle_pe.tallying(pe) as tally:
            oracle_pe.clear_row(tally, pe.memory, root.pointer)
        with pytest.raises(RuntimeError, match=f"row {root.pointer} has no children"):
            oracle_pe.read_children(pe, root.pointer)

    def test_live_node_count_equals_a_full_scan_after_pruning(self, pe, converter):
        """nodes_stored is maintained at every write and clear, prunes included."""
        blocks = TestPruneAndExpand()
        for occupied in (True, False, True):  # saturate, flip (expand + re-prune), flip back
            blocks._saturate_block(pe, converter, occupied=occupied, repeats=40)
        oracle_pe.kernel_update_voxel(pe, key_at(converter, 3.0, -2.0, 0.4), occupied=False)
        assert pe.counters.prunes >= 3 and pe.counters.expansions >= 2
        assert pe.allocator.reused_allocations >= 1
        assert pe.memory.occupied_entries() == sum(sum(bank.valid) for bank in pe.memory.banks)
