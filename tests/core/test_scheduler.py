"""Unit tests for the voxel scheduler (first-level-branch partitioning).

The routing runs in the native batch entry; what the scheduler books of it
is read back through the accelerator.
"""

import numpy as np
import pytest

from repro.core import OMUAccelerator
from repro.core.config import OMUConfig
from repro.core.scheduler import VoxelScheduler


@pytest.fixture
def config() -> OMUConfig:
    return OMUConfig(resolution_m=0.2)


@pytest.fixture
def accelerator(config: OMUConfig) -> OMUAccelerator:
    return OMUAccelerator(config)


def octant_keys(accelerator):
    """One key per octant, as ``(8, 3)`` components."""
    generator = accelerator.address_generator
    points = [(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    return np.array([generator.key_for_point(*point).as_tuple() for point in points])


def apply(accelerator, keys, occupied=False):
    return accelerator.apply_update_batch(keys, np.full(len(keys), occupied))


class TestScheduling:
    def test_an_empty_batch_issues_nothing(self, accelerator):
        timing = accelerator.apply_update_batch([])
        assert timing.voxel_updates == timing.scheduler_cycles == 0
        assert accelerator.scheduler.load_histogram() == (0,) * 8

    def test_keys_are_routed_by_octant(self, accelerator):
        apply(accelerator, octant_keys(accelerator))
        assert accelerator.scheduler.load_histogram() == (1,) * 8
        assert [pe.stats.voxel_updates for pe in accelerator.pes] == [1] * 8
        for pe, branch in zip(accelerator.pes, range(8)):
            assert pe._local_roots[branch] and sum(pe._local_roots) == 1

    def test_stream_order_is_kept_within_each_pe(self, accelerator, config):
        """Eight hits then a miss on one voxel, interleaved with another PE's updates."""
        keys = octant_keys(accelerator)
        mine, other = keys[0], keys[7]
        stream = np.array([row for _ in range(8) for row in (mine, other)] + [mine, other])
        flags = np.array([True, False] * 8 + [False, True])
        accelerator.apply_update_batch(stream, flags)
        params = config.quantized_params()
        assert accelerator.query_keys(mine[None])[1][0] == params.raw_clamp_max + params.raw_miss

    def test_issue_cycles_are_one_per_voxel(self, accelerator):
        keys = octant_keys(accelerator)
        timing = apply(accelerator, np.concatenate([keys, keys[:3]]))
        assert timing.scheduler_cycles == (len(keys) + 3) * accelerator.config.timing.scheduler_issue_cycles

    def test_issued_counters_accumulate_across_batches(self, accelerator):
        keys = octant_keys(accelerator)
        apply(accelerator, keys)
        apply(accelerator, keys, occupied=True)
        assert accelerator.scheduler.issued_updates == 2 * len(keys)
        assert sum(accelerator.scheduler.load_histogram()) == 2 * len(keys)

    def test_a_skewed_batch_loads_one_pe(self, accelerator):
        keys = octant_keys(accelerator)
        apply(accelerator, np.repeat(keys[5:6], 10, axis=0))
        assert accelerator.scheduler.load_histogram() == (0,) * 5 + (10,) + (0,) * 2

    def test_reduced_pe_count_routes_modulo(self):
        accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2, num_pes=2))
        keys = octant_keys(accelerator)
        timing = apply(accelerator, keys[:7])
        assert accelerator.scheduler.load_histogram() == (4, 3)
        assert timing.voxel_updates == 7
        assert [list(pe._local_roots) for pe in accelerator.pes] == [
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 0, 1, 0, 1, 0, 0],
        ]


def test_the_scheduler_books_what_it_is_told_was_issued(config):
    scheduler = VoxelScheduler(config)
    assert scheduler.issue([3, 0, 1, 0, 0, 0, 0, 2]) == 6 * config.timing.scheduler_issue_cycles
    assert scheduler.issue([1] * 8) == 8 * config.timing.scheduler_issue_cycles
    assert scheduler.load_histogram() == (4, 1, 2, 1, 1, 1, 1, 3)
    assert scheduler.issued_updates == 14
