"""Golden simulated statistics: every count the cycle model reports, pinned exactly.

``golden_pe_stats.json`` was generated by the per-object PE walk this repo
started with (``PYTHONPATH=src:tests python tests/core/test_golden_pe_stats.py``
rewrites it).  Any
host-side optimisation of the PE model must leave every figure here
bit-identical: they are what the paper-facing tables and the energy model
read.  One scenario uses pairwise-distinct ``TimingParams`` so a charge booked
to the wrong primitive cannot hide behind the all-ones defaults.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core import OMUAccelerator, OMUConfig
from repro.core.config import TimingParams
from repro.core.prune_manager import FREES, FRESH
from repro.core.timing import ScanTiming
from repro.datasets.streams import ClientSpec, generate_interleaved_stream
from repro.octomap.scan_insertion import compute_update_keys_for_converter
from repro.serving.sharding import ShardRouter

from update_columns import update_columns

GOLDEN = Path(__file__).with_name("golden_pe_stats.json")
SEED = 11
DISTINCT_TIMING = TimingParams(
    bank_read_cycles=2,
    bank_write_cycles=3,
    row_read_cycles=5,
    row_write_cycles=7,
    alu_cycles=11,
    prune_stack_cycles=13,
    scheduler_issue_cycles=17,
    query_issue_cycles=19,
)
QUERY_POINTS = [
    (0.1 + 0.9 * ix, -1.3 + 0.7 * iy, 0.1 + 0.5 * iz)
    for ix in range(-6, 7, 2)
    for iy in range(0, 4)
    for iz in range(0, 2)
]


@functools.lru_cache(maxsize=None)
def corridor_events():
    clients = [
        ClientSpec(f"robot-{index}", "map", num_scans=3, dropout=0.1) for index in range(2)
    ]
    return generate_interleaved_stream(clients, seed=SEED, beams_azimuth=64, beams_elevation=3)


def update_stream(accelerator: OMUAccelerator, event) -> Tuple[np.ndarray, np.ndarray]:
    """One scan's ordered updates: free voxels then occupied, each in key order."""
    return update_columns(
        *compute_update_keys_for_converter(
            accelerator.address_generator.converter,
            event.scan.world_cloud(),
            event.scan.origin(),
            max_range=event.max_range_m,
        )
    )


def timing_summary(timing: ScanTiming) -> Dict[str, object]:
    return {
        "scheduler_cycles": timing.scheduler_cycles,
        "raycast_cycles": timing.raycast_cycles,
        "pe_cycles_max": timing.pe_cycles_max,
        "pe_cycles_total": timing.pe_cycles_total,
        "voxel_updates": timing.voxel_updates,
        "critical_path_cycles": timing.critical_path_cycles(),
        "breakdown": {stage.value: cycles for stage, cycles in timing.breakdown.cycles.items()},
    }


def accelerator_summary(accelerator: OMUAccelerator) -> Dict[str, object]:
    statistics = dataclasses.asdict(accelerator.statistics())
    statistics["per_pe_cycles"] = {
        str(pe_id): cycles for pe_id, cycles in statistics["per_pe_cycles"].items()
    }
    return {
        "statistics": statistics,
        "map_timing": timing_summary(accelerator.map_timing),
        "counters": dataclasses.asdict(accelerator.counters()),
        "per_pe": [
            {
                "breakdown": {
                    stage.value: cycles for stage, cycles in pe.stats.breakdown.cycles.items()
                },
                "voxel_updates": pe.stats.voxel_updates,
                "bank_reads": pe.stats.bank_reads,
                "bank_writes": pe.stats.bank_writes,
                "row_accesses": pe.stats.row_accesses,
                "allocations": pe.allocator.allocations,
                "fresh_allocations": pe.allocator.state[FRESH],
                "reused_allocations": pe.allocator.reused_allocations,
                "frees": pe.allocator.state[FREES],
                "peak_stack_depth": pe.allocator.peak_stack_depth,
                "row_reads": pe.memory.row_reads,
                "row_writes": pe.memory.row_writes,
                "total_reads": pe.memory.total_reads(),
                "total_writes": pe.memory.total_writes(),
                "nodes_stored": pe.memory.occupied_entries(),
            }
            for pe in accelerator.pes
        ],
    }


def read_back(accelerator: OMUAccelerator) -> Dict[str, object]:
    """Query cycles for a fixed point list, then the access totals a read-back adds.

    The list is a grid around the first pose (free and unknown space) plus
    every 25th return of the first scan (walls: occupied leaves).
    """
    points = QUERY_POINTS + list(corridor_events()[0].scan.world_cloud())[::25]
    queries = [
        [result.status, result.probability, result.pe_id, result.cycles]
        for result in (accelerator.query(*point) for point in points)
    ]
    after_queries = accelerator.statistics().sram_reads
    exported = accelerator.export_octree()
    return {
        "queries": queries,
        "query_unit_cycles": accelerator.query_unit.total_cycles,
        "pe_query_cycles": [pe.query_cycles for pe in accelerator.pes],
        "sram_reads_after_queries": after_queries,
        "sram_reads_after_export": accelerator.statistics().sram_reads,
        "exported_leaves": exported.num_leaf_nodes(),
    }


def corridor_batch_accelerators(config: OMUConfig, num_shards: int):
    """The corridor stream through ``apply_update_batch``, one batch per scan per shard."""
    router = ShardRouter(config, num_shards)
    accelerators = [OMUAccelerator(config) for _ in range(num_shards)]
    batches: List[List[Dict[str, object]]] = []
    for event in corridor_events():
        per_shard = router.partition_key_arrays(*update_stream(accelerators[0], event))
        batches.append(
            [
                timing_summary(accelerator.apply_update_batch(keys, occupied))
                for accelerator, (keys, occupied) in zip(accelerators, per_shard)
            ]
        )
    return accelerators, batches


def batch_scenario(config: OMUConfig, num_shards: int) -> Dict[str, object]:
    accelerators, batches = corridor_batch_accelerators(config, num_shards)
    return {
        "batches": batches,
        "shards": [accelerator_summary(accelerator) for accelerator in accelerators],
        "read_back": [read_back(accelerator) for accelerator in accelerators],
    }


def corridor_scan_accelerator(config: OMUConfig):
    """The first two corridor scans through ``process_scan`` (on-chip ray caster included)."""
    accelerator = OMUAccelerator(config)
    scans = [
        timing_summary(
            accelerator.process_scan(
                event.scan.world_cloud(), event.scan.origin(), max_range=event.max_range_m
            )
        )
        for event in corridor_events()[:2]
    ]
    return accelerator, scans


def process_scan_scenario(config: OMUConfig) -> Dict[str, object]:
    accelerator, scans = corridor_scan_accelerator(config)
    return {
        "scans": scans,
        "accelerator": accelerator_summary(accelerator),
        "read_back": read_back(accelerator),
    }


def collect() -> Dict[str, object]:
    config = OMUConfig(resolution_m=0.2)
    return {
        "one_shard": batch_scenario(config, 1),
        "two_shards_distinct_timing": batch_scenario(dataclasses.replace(config, timing=DISTINCT_TIMING), 2),
        "process_scan": process_scan_scenario(config),
    }


def test_simulated_statistics_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # Through JSON and back, so tuples/lists and int/str keys compare alike.
    actual = json.loads(json.dumps(collect()))
    assert actual.keys() == golden.keys()
    for scenario in golden:
        assert actual[scenario] == golden[scenario], scenario


def test_the_golden_stream_prunes_and_reuses_rows():
    """The pinned stream must exercise what an optimisation could get wrong."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    counters = golden["one_shard"]["shards"][0]["counters"]
    assert counters["prunes"] > 0 and counters["expansions"] > 0
    assert golden["one_shard"]["shards"][0]["statistics"]["prune_reuse_fraction"] > 0.0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
