"""Unit tests for the Table II dataset catalog."""

import pytest

from repro.datasets.catalog import (
    ALL_DATASETS,
    EQUIVALENT_FRAME_UPDATES,
    FR079_CORRIDOR,
    FREIBURG_CAMPUS,
    NEW_COLLEGE,
    dataset_by_name,
)


class TestCatalogContents:
    def test_three_datasets(self):
        assert len(ALL_DATASETS) == 3
        assert {d.name for d in ALL_DATASETS} == {
            "FR-079 corridor",
            "Freiburg campus",
            "New College",
        }

    def test_table2_statistics_fr079(self):
        d = FR079_CORRIDOR
        assert d.scan_number == 66
        assert d.average_points_per_scan == pytest.approx(89_000)
        assert d.point_cloud_total == 5_900_000
        assert d.voxel_updates_total == 101_000_000
        assert d.resolution_m == pytest.approx(0.2)

    def test_table2_statistics_campus_and_college(self):
        assert FREIBURG_CAMPUS.scan_number == 81
        assert FREIBURG_CAMPUS.voxel_updates_total == 1_031_000_000
        assert NEW_COLLEGE.scan_number == 92_361
        assert NEW_COLLEGE.average_points_per_scan == pytest.approx(156)

    def test_paper_reference_speedups(self):
        paper = FR079_CORRIDOR.paper
        assert paper.speedup_over_i9 == pytest.approx(12.8, abs=0.1)
        assert paper.speedup_over_a57 == pytest.approx(62.4, abs=0.2)
        assert paper.energy_benefit == pytest.approx(710.0, abs=5.0)

    def test_cpu_breakdown_fractions_sum_to_about_one(self):
        for descriptor in ALL_DATASETS:
            assert sum(descriptor.paper.cpu_breakdown) == pytest.approx(1.0, abs=0.02)

    def test_lookup_by_name_and_scene(self):
        assert dataset_by_name("FR-079 corridor") is FR079_CORRIDOR
        assert dataset_by_name("corridor") is FR079_CORRIDOR
        assert dataset_by_name("campus") is FREIBURG_CAMPUS

    def test_lookup_unknown_name(self):
        with pytest.raises(KeyError):
            dataset_by_name("does-not-exist")


class TestDerivedMetrics:
    def test_fps_definition_reproduces_paper_i9_numbers(self):
        """The FPS metric must map the paper's latencies back to its FPS."""
        for descriptor in ALL_DATASETS:
            fps = descriptor.fps_from_latency(descriptor.paper.i9_latency_s)
            assert fps == pytest.approx(descriptor.paper.i9_fps, rel=0.05)

    def test_fps_definition_reproduces_paper_a57_numbers(self):
        for descriptor in ALL_DATASETS:
            fps = descriptor.fps_from_latency(descriptor.paper.a57_latency_s)
            assert fps == pytest.approx(descriptor.paper.a57_fps, rel=0.08)

    def test_fps_definition_reproduces_paper_omu_numbers(self):
        for descriptor in ALL_DATASETS:
            fps = descriptor.fps_from_latency(descriptor.paper.omu_latency_s)
            assert fps == pytest.approx(descriptor.paper.omu_fps, rel=0.08)

    def test_fps_requires_positive_latency(self):
        with pytest.raises(ValueError):
            FR079_CORRIDOR.fps_from_latency(0.0)

    def test_equivalent_frames_definition(self):
        d = FR079_CORRIDOR
        assert d.equivalent_frames == pytest.approx(d.voxel_updates_total / EQUIVALENT_FRAME_UPDATES)

    def test_voxel_updates_per_point_in_plausible_range(self):
        for descriptor in ALL_DATASETS:
            assert 10.0 < descriptor.voxel_updates_total / descriptor.point_cloud_total < 60.0

    def test_paper_energy_is_power_times_latency(self):
        """Table V is consistent with the A57's measured 2.6-2.9 W."""
        for descriptor in ALL_DATASETS:
            implied_power = descriptor.paper.a57_energy_j / descriptor.paper.a57_latency_s
            assert 2.5 < implied_power < 3.0
