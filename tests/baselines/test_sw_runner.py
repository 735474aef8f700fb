"""Tests for the instrumented software OctoMap runner."""

import pytest

from repro.baselines.sw_runner import _update_stage_weights, run_software_octomap
from repro.octomap.counters import OperationKind
from repro.octomap.octree import OccupancyOcTree


class TestRunSoftwareOctomap:
    def test_produces_the_same_map_as_direct_insertion(self, two_scan_graph):
        result = run_software_octomap(two_scan_graph, resolution_m=0.2)
        direct = OccupancyOcTree(0.2)
        for scan in two_scan_graph:
            direct.insert_point_cloud(scan.world_cloud(), scan.origin())
        assert result.tree.occupancy_grid() == pytest.approx(direct.occupancy_grid())

    def test_counts_points_and_updates(self, two_scan_graph):
        result = run_software_octomap(two_scan_graph, resolution_m=0.2)
        assert result.total_points == two_scan_graph.total_points()
        assert result.voxel_updates == result.counters.leaf_updates
        assert result.voxel_updates > 0

    def test_stage_seconds_cover_all_stages(self, two_scan_graph):
        result = run_software_octomap(two_scan_graph, resolution_m=0.2)
        assert set(result.stage_seconds) == set(OperationKind.ordered())
        assert all(seconds >= 0.0 for seconds in result.stage_seconds.values())
        assert sum(result.stage_seconds.values()) > 0.0

    def test_stage_fractions_sum_to_one(self, two_scan_graph):
        """The update loop's time is split across its three stages: none lost, none counted twice."""
        result = run_software_octomap(two_scan_graph, resolution_m=0.2)
        weights = _update_stage_weights(result.counters)
        assert set(weights) == {OperationKind.UPDATE_LEAF, OperationKind.UPDATE_PARENTS, OperationKind.PRUNE_EXPAND}
        assert all(weight >= 0.0 for weight in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_max_range_reduces_updates(self, two_scan_graph):
        full = run_software_octomap(two_scan_graph, resolution_m=0.2)
        truncated = run_software_octomap(two_scan_graph, resolution_m=0.2, max_range=1.0)
        assert truncated.voxel_updates < full.voxel_updates

    def test_custom_params_are_used(self, ring_graph):
        from repro.core.config import DEFAULT_CONFIG

        params = DEFAULT_CONFIG.quantized_params().as_float_params()
        result = run_software_octomap(ring_graph, resolution_m=0.2, params=params)
        assert result.tree.params.prob_hit == pytest.approx(params.prob_hit)

    def test_empty_graph(self):
        from repro.octomap.pointcloud import ScanGraph

        result = run_software_octomap(ScanGraph(name="empty"), resolution_m=0.2)
        assert result.voxel_updates == 0
        assert result.stage_seconds[OperationKind.PRUNE_EXPAND] == 0.0
