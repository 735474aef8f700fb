"""The accelerator's scan front end, held to the scalar ray cast.

:meth:`OMUAccelerator.process_scan` ray-casts a scan in one native call
(:func:`repro.octomap.raycast_vec.compute_scan_update_arrays`).  Each case
below builds the same scan's update stream from the scalar oracle
(:func:`compute_update_keys_for_converter`: free keys then occupied, each
sorted), applies it to a second accelerator with ``apply_update_batch``, and
requires both machines to end in the same state -- SRAM image, allocator,
per-PE statistics and counters -- with the ray cast priced at
``ray_step_cycles`` per oracle DDA step and hidden behind the busiest PE.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np
import pytest

from repro.core import OMUAccelerator, OMUConfig
from repro.core.verification import compare_trees
from repro.octomap import OccupancyOcTree, PointCloud
from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.keys import KeyConverter
from repro.octomap.scan_insertion import compute_update_keys_for_converter

from update_columns import update_columns

SMALL_EDGE = KeyConverter(0.1, tree_depth=6).max_coordinate  # +/- 3.2 m at depth 6


class Case(NamedTuple):
    name: str
    points: Sequence[Tuple[float, float, float]]
    origin: Tuple[float, float, float]
    max_range: float = -1.0
    resolution: float = 0.2
    depth: int = 16


def ring(radius: float, beams: int, z: float = 0.0):
    return [
        (radius * math.cos(azimuth), radius * math.sin(azimuth), z)
        for azimuth in np.linspace(-math.pi, math.pi, beams, endpoint=False)
    ]


def random_cloud(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return rng.uniform((-4.0, -4.0, -1.0), (4.0, 4.0, 1.0), size=(count, 3)).tolist()


OCTANTS = [(2.0 * sx, 1.5 * sy, 1.0 * sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
AXES = [(0.05 + dx, 0.05 + dy, 0.05 + dz) for dx, dy, dz in np.vstack((np.eye(3), -np.eye(3))).tolist()]

CASES = [
    Case("ring", ring(3.0, 180), (0.0, 0.0, 0.4)),
    Case("ring-at-5-cm", ring(1.5, 90, z=0.1), (0.01, 0.02, 0.03), resolution=0.05),
    Case("all-beams-truncated", [(10.0, 0.0, 0.0), (0.0, 12.0, 0.0)], (0.0, 0.0, 0.0), max_range=3.0),
    Case("truncated-and-hit", [(10.0, 0.0, 0.0), (2.0, -1.0, 0.3), (-1.5, 1.5, -0.2)], (0.05, 0.05, 0.05), 3.0),
    Case("zero-length-beam", [(0.02, 0.02, 0.02)], (0.01, 0.01, 0.01)),
    Case("coincident-endpoint", [(0.05, 0.05, 0.05)], (0.05, 0.05, 0.05)),
    Case("axis-aligned-beams", AXES, (0.05, 0.05, 0.05)),
    Case("duplicate-endpoints", [(1.0, 0.0, 0.0)] * 5 + [(1.0, 0.02, 0.0)], (0.0, 0.0, 0.0)),
    Case("occupied-beats-free", [(0.55, 0.05, 0.05), (1.55, 0.05, 0.05)], (0.05, 0.05, 0.05)),
    Case("endpoints-on-voxel-faces", [(0.4, 0.6, -0.8), (1.0, 1.0, 1.0), (-0.2, 0.0, 0.2)], (0.0, 0.0, 0.0)),
    Case("all-eight-octants", OCTANTS, (-0.7, 0.3, -0.1)),
    Case("random-cloud", random_cloud(7, 300), (0.1, -0.2, 0.3), max_range=3.5),
    Case("long-beams", [(60.0, 5.0, 1.0), (-45.0, 30.0, -2.0)], (0.0, 0.0, 0.0)),
    Case("clipped-at-the-volume-edge", [(SMALL_EDGE * 3.0, 0.1, 0.1), (1.0, 1.0, 0.5)], (0.0, 0.0, 0.0),
         resolution=0.1, depth=6),
    Case("origin-outside-the-volume", [(SMALL_EDGE * 3.0, 0.0, 0.0)], (SMALL_EDGE * 2.0, 0.0, 0.0),
         resolution=0.1, depth=6),
    Case("outside-origin-drops-a-nan", [(math.nan, 0.0, 0.0), (SMALL_EDGE * 3.0, 0.0, 0.0)],
         (SMALL_EDGE * 2.0, 0.0, 0.0), resolution=0.1, depth=6),
    Case("empty", [], (0.0, 0.0, 0.0)),
]


def oracle_stream(accelerator: OMUAccelerator, cloud: PointCloud, origin, max_range: float = -1.0):
    """The scalar ray cast's updates, free then occupied, each in key order, and its DDA steps."""
    counters = OperationCounters()
    with np.errstate(invalid="ignore"):  # the scalar clip multiplies a nan by zero
        free, occupied = compute_update_keys_for_converter(
            accelerator.address_generator.converter, cloud, origin, max_range=max_range, counters=counters
        )
    return update_columns(free, occupied), counters.ray_steps


def pe_state(pe) -> tuple:
    """What an update stream leaves behind in a PE, stale SRAM words included."""
    banks = [
        (bytes(bank.valid), bank.pointers.tobytes(), bank.tags.tobytes(), bank.probabilities.tobytes(),
         bank.read_accesses, bank.write_accesses)
        for bank in pe.memory.banks
    ]
    allocator = (pe.allocator.state.tolist(), pe.allocator.stack.tobytes())
    return banks, allocator, (pe.memory.row_reads, pe.memory.row_writes), pe.stats, pe.counters


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_process_scan_equals_the_oracle_stream_applied(case):
    config = OMUConfig(resolution_m=case.resolution, tree_depth=case.depth)
    cloud = PointCloud(case.points)
    scanned = OMUAccelerator(config)
    timing = scanned.process_scan(cloud, case.origin, max_range=case.max_range)

    reference = OMUAccelerator(config)
    stream, ray_steps = oracle_stream(reference, cloud, case.origin, case.max_range)
    expected = reference.apply_update_batch(*stream)

    assert timing.raycast_cycles == ray_steps * config.timing.ray_step_cycles
    assert scanned.counters().ray_steps == ray_steps
    for name in ("scheduler_cycles", "pe_cycles_max", "pe_cycles_total", "voxel_updates"):
        assert getattr(timing, name) == getattr(expected, name), name
    breakdown = dict(expected.breakdown.cycles)
    breakdown[OperationKind.RAY_CASTING] += max(0, timing.raycast_cycles - timing.pe_cycles_max)
    assert timing.breakdown.cycles == breakdown
    assert [pe_state(pe) for pe in scanned.pes] == [pe_state(pe) for pe in reference.pes]
    assert scanned.scheduler.per_pe_issued == reference.scheduler.per_pe_issued
    assert scanned.scans_processed == 1


def test_only_the_ray_cast_excess_reaches_the_breakdown(default_config):
    """A ray cast slower than the busiest PE shows up as RAY_CASTING, by its excess only."""
    config = dataclasses.replace(
        default_config, timing=dataclasses.replace(default_config.timing, ray_step_cycles=1000)
    )
    accelerator = OMUAccelerator(config)
    cloud, origin = PointCloud([(8.0, 1.0, 0.5)]), (0.05, 0.05, 0.05)
    timing = accelerator.process_scan(cloud, origin)
    _, ray_steps = oracle_stream(accelerator, cloud, origin)
    assert timing.raycast_cycles == 1000 * ray_steps > timing.pe_cycles_max
    assert timing.breakdown.cycles[OperationKind.RAY_CASTING] == timing.raycast_cycles - timing.pe_cycles_max
    assert timing.critical_path_cycles() == timing.scheduler_cycles + timing.raycast_cycles


def test_ray_steps_accumulate_across_scans(default_config, two_scan_graph):
    accelerator = OMUAccelerator(default_config)
    total = accelerator.process_scan_graph(two_scan_graph, max_range=2.0)
    steps = sum(
        oracle_stream(accelerator, scan.world_cloud(), scan.origin(), 2.0)[1] for scan in two_scan_graph
    )
    assert steps > 0
    assert accelerator.counters().ray_steps == steps
    assert total.raycast_cycles == accelerator.map_timing.raycast_cycles == steps * default_config.timing.ray_step_cycles


def test_process_scan_graph_is_a_loop_over_process_scan(default_config, two_scan_graph):
    graph = OMUAccelerator(default_config)
    total = graph.process_scan_graph(two_scan_graph, max_range=2.0)
    looped = OMUAccelerator(default_config)
    for scan in two_scan_graph:
        looped.process_scan(scan.world_cloud(), scan.origin(), max_range=2.0)
    assert dataclasses.asdict(total) == dataclasses.asdict(looped.map_timing) == dataclasses.asdict(graph.map_timing)
    assert graph.statistics() == looped.statistics()
    assert graph.counters() == looped.counters()
    assert [pe_state(pe) for pe in graph.pes] == [pe_state(pe) for pe in looped.pes]


def test_an_endpoint_stays_occupied_under_a_longer_beam(accelerator):
    """Occupied beats free within a scan: the short beam's endpoint is read back occupied."""
    accelerator.process_scan(PointCloud([(0.55, 0.05, 0.05), (1.55, 0.05, 0.05)]), (0.05, 0.05, 0.05))
    assert accelerator.query(0.55, 0.05, 0.05).status == "occupied"
    assert accelerator.query(1.05, 0.05, 0.05).status == "free"
    assert accelerator.query(1.55, 0.05, 0.05).status == "occupied"


def test_one_scan_maps_like_the_software_octree(accelerator, ring_scan):
    """One update per voxel, so each leaf is within half a fixed-point step of the float tree."""
    accelerator.process_scan(ring_scan.world_cloud(), ring_scan.origin())
    tree = OccupancyOcTree(accelerator.config.resolution_m)
    tree.insert_point_cloud(ring_scan.world_cloud(), ring_scan.origin())
    report = compare_trees(tree, accelerator.export_octree(), accelerator.config.fixed_point.scale / 2.0)
    assert report.equivalent, report.summary()
