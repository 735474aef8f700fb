"""End-to-end integration tests across all subsystems.

These tests run the full pipeline -- synthetic dataset generation, the OMU
accelerator model, the software baseline, the performance / energy models and
the experiment drivers -- on a small workload, and assert the paper's
headline claims hold qualitatively.
"""

import pytest

from repro.analysis.experiments import evaluate_dataset
from repro.baselines.cpu_model import A57_COST_MODEL, I9_COST_MODEL
from repro.core import OMUAccelerator, OMUConfig
from repro.core.verification import verify_against_software
from repro.datasets.catalog import dataset_by_name
from repro.datasets.generator import GenerationSpec, generate_scan_graph
from repro.energy.power_model import PowerModel
from repro.octomap.serialization import deserialize_tree, serialize_tree


@pytest.fixture(scope="module")
def corridor_graph():
    descriptor = dataset_by_name("corridor")
    spec = GenerationSpec(num_scans=2, beams_azimuth=72, beams_elevation=3, max_range_m=12.0)
    return descriptor, spec, generate_scan_graph(descriptor, spec)


class TestFullPipeline:
    def test_synthetic_dataset_to_accelerator_to_verified_map(self, corridor_graph):
        descriptor, spec, graph = corridor_graph
        accelerator = OMUAccelerator(OMUConfig(resolution_m=descriptor.resolution_m))
        timing = accelerator.process_scan_graph(graph, max_range=spec.max_range_m)
        assert timing.voxel_updates > 1000

        report = verify_against_software(accelerator, graph, max_range=spec.max_range_m)
        assert report.equivalent, report.summary()

    def test_accelerator_map_round_trips_through_serialization(self, corridor_graph):
        descriptor, spec, graph = corridor_graph
        accelerator = OMUAccelerator(OMUConfig(resolution_m=descriptor.resolution_m))
        accelerator.process_scan_graph(graph, max_range=spec.max_range_m)
        tree = accelerator.export_octree()
        restored = deserialize_tree(serialize_tree(tree))
        assert restored.size() == tree.size()

    def test_accelerator_energy_is_far_below_the_a57(self, corridor_graph):
        descriptor, spec, graph = corridor_graph
        config = OMUConfig(resolution_m=descriptor.resolution_m)
        accelerator = OMUAccelerator(config)
        accelerator.process_scan_graph(graph, max_range=spec.max_range_m)

        power = PowerModel(config).power_from_statistics(accelerator.statistics())
        omu_latency = descriptor.voxel_updates_total * accelerator.map_cycles_per_update() / config.clock_hz
        omu_energy = power.total_w * omu_latency
        a57_energy = A57_COST_MODEL.energy_joules(descriptor)
        assert a57_energy / omu_energy > 100.0

    def test_headline_claims_hold_on_every_dataset(self):
        """OMU beats both CPUs and clears 30 FPS on all three maps (smoke scale)."""
        for name in ("FR-079 corridor", "Freiburg campus", "New College"):
            evaluation = evaluate_dataset(name, scale="smoke")
            assert evaluation.omu_latency_s < evaluation.i9_latency_s < evaluation.a57_latency_s
            assert evaluation.omu_fps > evaluation.i9_fps > evaluation.a57_fps
            assert evaluation.i9_fps == pytest.approx(5.0, abs=1.0)
            assert evaluation.a57_fps == pytest.approx(1.0, abs=0.3)

    def test_cost_models_reproduce_table_iii_cpu_columns(self):
        for name in ("FR-079 corridor", "Freiburg campus", "New College"):
            descriptor = dataset_by_name(name)
            assert I9_COST_MODEL.latency_seconds(descriptor) == pytest.approx(
                descriptor.paper.i9_latency_s, rel=0.05
            )
            assert A57_COST_MODEL.latency_seconds(descriptor) == pytest.approx(
                descriptor.paper.a57_latency_s, rel=0.10
            )

    def test_pruning_keeps_accelerator_memory_bounded(self, corridor_graph):
        """Revisiting the same scene twice must not double the stored nodes."""
        descriptor, spec, graph = corridor_graph
        accelerator = OMUAccelerator(OMUConfig(resolution_m=descriptor.resolution_m))
        accelerator.process_scan_graph(graph, max_range=spec.max_range_m)
        nodes_after_first_pass = accelerator.statistics().nodes_stored
        accelerator.process_scan_graph(graph, max_range=spec.max_range_m)
        nodes_after_second_pass = accelerator.statistics().nodes_stored
        assert nodes_after_second_pass < 1.5 * nodes_after_first_pass
