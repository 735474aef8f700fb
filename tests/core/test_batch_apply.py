"""The ordered batch-apply path and the shard-aware address generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OMUAccelerator, OMUConfig
from repro.core.address_gen import AddressGenerator
from repro.core.scheduler import VoxelUpdateRequest
from repro.core.verification import compare_trees
from repro.octomap.keys import OcTreeKey


@pytest.fixture
def config() -> OMUConfig:
    return OMUConfig(resolution_m=0.2)


def test_apply_update_batch_matches_process_scan(config, ring_graph):
    """Feeding the ray-cast key stream through apply_update_batch must build
    the same map as process_scan on the same cloud."""
    reference = OMUAccelerator(config)
    scan = ring_graph[0]
    reference.process_scan(scan.world_cloud(), scan.origin())

    batched = OMUAccelerator(config)
    cast = OMUAccelerator(config).raycaster.cast_scan(scan.world_cloud(), scan.origin())
    stream = [VoxelUpdateRequest(key, occupied=False) for key in cast.free_keys]
    stream += [VoxelUpdateRequest(key, occupied=True) for key in cast.occupied_keys]
    timing = batched.apply_update_batch(stream)

    assert timing.voxel_updates == len(stream)
    tolerance = config.fixed_point.scale / 2.0
    report = compare_trees(reference.export_octree(), batched.export_octree(), tolerance)
    assert report.equivalent, report.summary()


def test_apply_update_batch_accumulates_map_timing(config):
    accelerator = OMUAccelerator(config)
    key = accelerator.address_generator.key_for_point(1.0, 1.0, 1.0)
    timing = accelerator.apply_update_batch([VoxelUpdateRequest(key, occupied=True)])
    assert timing.voxel_updates == 1
    assert accelerator.map_timing.voxel_updates == 1
    assert accelerator.map_timing.scheduler_cycles == timing.scheduler_cycles
    # Empty batches are harmless no-ops.
    empty = accelerator.apply_update_batch([])
    assert empty.voxel_updates == 0


def test_key_columns_are_validated_like_keys(config):
    """The column path builds no OcTreeKey, so it checks the key space itself."""
    accelerator = OMUAccelerator(config)
    for bad in ([[70000, 0, 0]], [[0, -1, 0]]):
        with pytest.raises(ValueError, match="outside"):
            accelerator.apply_update_batch(np.array(bad), np.array([True]))
    assert accelerator.statistics().voxel_updates == 0
    assert accelerator.scheduler.issued_updates == 0


def test_array_paths_match_the_scalar_address_generator(config):
    generator = AddressGenerator(config.resolution_m, config.tree_depth, 3)
    keys = np.array([[0, 0, 0], [65535, 65535, 65535], [32768, 1, 40000], [12345, 54321, 999]])
    paths = generator.paths_for_keys(keys)
    assert paths.dtype == np.uint8 and paths.shape == (4, config.tree_depth)
    for row, pe, key in zip(paths.tolist(), generator.pes_for_paths(paths).tolist(), keys.tolist()):
        assert tuple(row) == generator.full_path(OcTreeKey(*key))
        assert pe == generator.pe_for_key(OcTreeKey(*key))


def test_a_request_stream_applies_in_stream_order(config):
    """Saturate, then miss: the clamped add does not commute, so only stream order gives this value."""
    accelerator = OMUAccelerator(config)
    key = accelerator.address_generator.key_for_point(0.5, 0.5, 0.5)
    flags = [True] * 8 + [False]
    timing = accelerator.apply_update_batch([VoxelUpdateRequest(key, occupied) for occupied in flags])
    params = config.quantized_params()
    assert accelerator.query_keys(np.array([key.as_tuple()]))[1][0] == params.raw_clamp_max + params.raw_miss
    assert timing.scheduler_cycles == len(flags) * config.timing.scheduler_issue_cycles


def test_shard_prefix_and_index(config):
    generator = AddressGenerator(config.resolution_m, config.tree_depth, config.num_pes)
    key = generator.key_for_point(1.0, -2.0, 0.4)
    prefix = generator.shard_prefix(key, 3)
    assert prefix == key.path(config.tree_depth)[:3]
    assert generator.shard_index(key, 1) == 0
    folded = 0
    for child_index in prefix:
        folded = folded * 8 + child_index
    assert generator.shard_index(key, 5, 3) == folded % 5


def test_shard_index_partitions_the_key_space(config):
    generator = AddressGenerator(config.resolution_m, config.tree_depth, config.num_pes)
    shards = set()
    for dx in range(-10, 10):
        for dy in range(-10, 10):
            key = OcTreeKey(32768 + dx, 32768 + dy, 32768)
            shard = generator.shard_index(key, 4, 12)
            assert 0 <= shard < 4
            shards.add(shard)
    assert shards == {0, 1, 2, 3}


def test_shard_parameter_validation(config):
    generator = AddressGenerator(config.resolution_m, config.tree_depth, config.num_pes)
    key = OcTreeKey(0, 0, 0)
    with pytest.raises(ValueError, match="prefix_levels"):
        generator.shard_prefix(key, 0)
    with pytest.raises(ValueError, match="prefix_levels"):
        generator.shard_prefix(key, 17)
    with pytest.raises(ValueError, match="num_shards"):
        generator.shard_index(key, 0)
