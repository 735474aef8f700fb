"""Integration-level tests of the OMU accelerator top level."""

import dataclasses

import numpy as np
import pytest

from repro.core import OMUAccelerator, OMUConfig, counts
from repro.octomap import PointCloud
from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.keys import OcTreeKey
from repro.octomap.scan_insertion import compute_update_keys_for_converter


class TestConstruction:
    def test_default_construction(self, default_config):
        accelerator = OMUAccelerator(default_config)
        assert len(accelerator.pes) == 8
        assert accelerator.scans_processed == 0
        assert accelerator.map_critical_path_cycles() == 0

    def test_more_than_eight_pes_rejected(self):
        """The configuration is the one PE-count check: a ninth PE would own no branch."""
        with pytest.raises(ValueError, match=r"num_pes must be in \[1, 8\], got 9"):
            OMUConfig(num_pes=9)

    def test_reduced_pe_count(self):
        accelerator = OMUAccelerator(OMUConfig(num_pes=2, resolution_m=0.2))
        assert len(accelerator.pes) == 2


class TestScanProcessing:
    def test_process_scan_returns_timing(self, accelerator, ring_scan):
        timing = accelerator.process_scan(ring_scan.world_cloud(), ring_scan.origin())
        assert timing.voxel_updates > 0
        assert timing.critical_path_cycles() > 0
        assert timing.pe_cycles_total >= timing.pe_cycles_max
        assert accelerator.scans_processed == 1

    @pytest.mark.parametrize(
        "last, origin",
        [
            ((float("nan"), 1.0, 0.0), (0.05, 0.05, 0.05)),
            ((float("inf"), 1.0, 0.0), (0.05, 0.05, 0.05)),
            ((0.0, float("-inf"), 0.0), (0.05, 0.05, 0.05)),
            ((1.0, 1.0, 0.0), (7000.0, 0.0, 0.0)),
        ],
        ids=["nan-point", "inf-point", "minus-inf-point", "origin-outside-the-volume"],
    )
    def test_a_rejected_scan_leaves_the_accelerator_untouched(self, accelerator, last, origin):
        """The ray cast refuses a non-finite beam, or an origin outside the
        volume with a beam ending inside it, before anything is counted or applied."""
        cloud = PointCloud([(3.0, 0.0, 0.0), (0.0, 3.0, 0.0), last])
        with pytest.raises(ValueError):
            accelerator.process_scan(cloud, origin)
        assert accelerator.counters().ray_steps == 0
        assert accelerator.map_timing.critical_path_cycles() == 0
        assert accelerator.map_timing.voxel_updates == 0
        assert accelerator.scans_processed == 0
        assert accelerator.scheduler.issued_updates == 0

    @pytest.mark.parametrize(
        "points",
        [[(10.0, 0.0, 0.0), (0.0, 12.0, 0.0), (2.0, -1.0, 0.3), (-1.5, 1.5, -0.2)], []],
        ids=["truncated-and-hit", "empty"],
    )
    def test_the_ray_cast_is_priced_per_step(self, default_config, points):
        """raycast_cycles is ray_step_cycles times the oracle's DDA steps, not the step count."""
        config = dataclasses.replace(
            default_config, timing=dataclasses.replace(default_config.timing, ray_step_cycles=3)
        )
        accelerator = OMUAccelerator(config)
        cloud, origin = PointCloud(points), (0.05, 0.05, 0.05)
        timing = accelerator.process_scan(cloud, origin, max_range=3.0)

        oracle = OperationCounters()
        free, occupied = compute_update_keys_for_converter(
            accelerator.address_generator.converter, cloud, origin, max_range=3.0, counters=oracle
        )
        assert timing.raycast_cycles == 3 * oracle.ray_steps
        assert timing.voxel_updates == len(free) + len(occupied)
        assert (timing.voxel_updates > 0) == bool(points)

    def test_process_scan_graph_accumulates(self, accelerator, two_scan_graph):
        total = accelerator.process_scan_graph(two_scan_graph)
        assert accelerator.scans_processed == 2
        assert total.voxel_updates == accelerator.map_timing.voxel_updates
        assert total.voxel_updates > 0

    def test_voxel_updates_split_across_multiple_pes(self, accelerator, ring_scan):
        accelerator.process_scan(ring_scan.world_cloud(), ring_scan.origin())
        busy = [pe for pe in accelerator.pes if pe.stats.voxel_updates > 0]
        assert len(busy) >= 4, "a ring around the origin must touch several octants"

    def test_breakdown_has_all_pipeline_stages(self, accelerator, ring_scan):
        timing = accelerator.process_scan(ring_scan.world_cloud(), ring_scan.origin())
        cycles = timing.breakdown.cycles
        assert cycles[OperationKind.UPDATE_LEAF] > 0
        assert cycles[OperationKind.UPDATE_PARENTS] > 0
        assert cycles[OperationKind.PRUNE_EXPAND] >= 0

    def test_prune_share_is_small_on_the_accelerator(self, accelerator, two_scan_graph):
        """The paper's Fig. 10 claim: prune/expand drops below ~20 % on OMU."""
        total = accelerator.process_scan_graph(two_scan_graph)
        fractions = total.breakdown.fractions()
        assert fractions[OperationKind.PRUNE_EXPAND] < 0.25

    def test_map_level_accounting(self, accelerator, two_scan_graph):
        accelerator.process_scan_graph(two_scan_graph)
        assert accelerator.map_critical_path_cycles() > 0
        assert accelerator.map_cycles_per_update() > 0
        assert 1.0 <= accelerator.map_parallel_speedup() <= accelerator.config.num_pes

    def test_pipelined_latency_not_above_barrier_latency(self, accelerator, two_scan_graph):
        accelerator.process_scan_graph(two_scan_graph)
        assert accelerator.map_critical_path_cycles() <= accelerator.map_timing.critical_path_cycles()

    def test_max_range_limits_updates(self, default_config, ring_scan):
        unlimited = OMUAccelerator(default_config)
        limited = OMUAccelerator(default_config)
        full = unlimited.process_scan(ring_scan.world_cloud(), ring_scan.origin())
        truncated = limited.process_scan(ring_scan.world_cloud(), ring_scan.origin(), max_range=1.5)
        assert truncated.voxel_updates < full.voxel_updates


class TestQueriesAndExport:
    def test_classify_matches_scene(self, loaded_accelerator):
        assert loaded_accelerator.classify(3.0, 0.1, 0.4) == "occupied"
        assert loaded_accelerator.classify(1.0, 0.0, 0.4) == "free"
        assert loaded_accelerator.classify(30.0, 30.0, 30.0) == "unknown"

    def test_query_returns_probability(self, loaded_accelerator):
        result = loaded_accelerator.query(3.0, 0.1, 0.4)
        assert result.status == "occupied"
        assert 0.5 < result.probability <= 1.0

    def test_occupancy_probability_of_raw(self, default_config):
        """A voxel hit once reads back the sensor model's hit probability."""
        accelerator = OMUAccelerator(default_config)
        key = OcTreeKey(32768, 32768, 32768)
        accelerator.apply_update_batch(np.array([key.as_tuple()]), np.array([True]))
        assert accelerator.query_key(key).probability == pytest.approx(0.7, abs=0.01)

    def test_export_octree_roundtrip(self, loaded_accelerator):
        tree = loaded_accelerator.export_octree()
        assert tree.size() > 0
        assert tree.classify(3.0, 0.1, 0.4) == "occupied"
        assert tree.classify(1.0, 0.0, 0.4) == "free"

    def test_counters_merge_pes_and_raycaster(self, loaded_accelerator):
        counters = loaded_accelerator.counters()
        assert counters.leaf_updates == loaded_accelerator.map_timing.voxel_updates
        assert counters.ray_steps > 0

    def test_statistics_shape(self, loaded_accelerator):
        stats = loaded_accelerator.statistics()
        assert stats.voxel_updates > 0
        assert stats.sram_reads > 0
        assert stats.sram_writes > 0
        assert stats.nodes_stored > 0
        assert 0.0 < stats.memory_utilization < 1.0
        assert len(stats.per_pe_cycles) == 8


class TestPEScalingBehaviour:
    def test_fewer_pes_increase_effective_cycles_per_update(self, ring_graph):
        """Halving the PE count must not make the accelerator faster."""
        results = {}
        for num_pes in (1, 8):
            accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2, num_pes=num_pes))
            accelerator.process_scan_graph(ring_graph)
            results[num_pes] = accelerator.map_cycles_per_update()
        assert results[1] > results[8]

    def test_single_pe_has_no_parallel_speedup(self, ring_graph):
        accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2, num_pes=1))
        accelerator.process_scan_graph(ring_graph)
        assert accelerator.map_parallel_speedup() == pytest.approx(1.0)


class TestStateImage:
    def test_the_image_carries_a_copy_of_the_counter_array(self, loaded_accelerator, default_config):
        image = loaded_accelerator.image()
        before = loaded_accelerator.statistics()
        image["counters"][:] = 0
        assert loaded_accelerator.statistics() == before
        restored = OMUAccelerator(default_config)
        restored.restore(loaded_accelerator.image())
        assert restored.statistics() == before
        assert restored.counters() == loaded_accelerator.counters()
        assert restored.map_timing == loaded_accelerator.map_timing
        assert restored.scans_processed == loaded_accelerator.scans_processed

    @pytest.mark.parametrize("tamper", ["live-entry word", "valid byte"])
    def test_live_entries_that_are_not_the_valid_bytes_are_refused(self, loaded_accelerator, default_config, tamper):
        """An image off a socket carries each bank's live-entry word beside the valid bytes it
        counts; a restore refuses one whose words and bytes disagree, before writing anything."""
        image = loaded_accelerator.image()
        pe = next(part for part in image["pes"] if part["valid"].shape[1] > 1)
        if tamper == "live-entry word":
            image["counters"][counts.ACCELERATOR_WORDS + counts.OCCUPIED + 3] += 1
        else:  # an orphan entry set valid: every check of the arrays alone passes
            bank, row = np.argwhere(pe["valid"][:, 1:] == 0)[0]
            pe["valid"][bank, row + 1] = 1
        fresh = OMUAccelerator(default_config)
        with pytest.raises(ValueError, match="live entries per bank"):
            fresh.restore(image)
        assert not any(any(pe._local_roots) for pe in fresh.pes)
        assert not fresh.image()["counters"].any()
