"""Microbenchmarks of the core accelerator datapaths (not tied to a figure).

These track the Python model's own performance (voxel updates per second,
queries per second, ray-casting throughput) so regressions in the simulator
are visible independent of the paper-facing experiments.
"""

import math
import pickle

import numpy as np
import pytest

from repro.core import OMUAccelerator, OMUConfig
from repro.datasets.streams import ClientSpec, generate_interleaved_stream
from repro.octomap import OccupancyOcTree, PointCloud
from repro.serving import MapSession, ScanRequest, SessionConfig, ShardUpdateBatch


def _ring_cloud(points: int = 360) -> PointCloud:
    return PointCloud(
        [
            (4.0 * math.cos(azimuth), 4.0 * math.sin(azimuth), 0.3 * math.sin(3 * azimuth))
            for azimuth in np.linspace(-math.pi, math.pi, points, endpoint=False)
        ]
    )


def test_accelerator_scan_processing_throughput(benchmark):
    cloud = _ring_cloud()

    def process():
        accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2))
        return accelerator.process_scan(cloud, (0.0, 0.0, 0.0)).voxel_updates

    updates = benchmark(process)
    assert updates > 500


def test_software_octomap_insertion_throughput(benchmark):
    cloud = _ring_cloud()

    def insert():
        tree = OccupancyOcTree(0.2)
        tree.insert_point_cloud(cloud, (0.0, 0.0, 0.0))
        return tree.size()

    size = benchmark(insert)
    assert size > 500


def test_voxel_query_throughput(benchmark):
    accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2))
    accelerator.process_scan(_ring_cloud(), (0.0, 0.0, 0.0))
    probe_points = [(x * 0.37, y * 0.53, 0.0) for x in range(-5, 6) for y in range(-5, 6)]

    def query_all():
        return sum(1 for point in probe_points if accelerator.classify(*point) != "unknown")

    known = benchmark(query_all)
    assert known > 20


@pytest.fixture(scope="module")
def corridor_shard_batch():
    """What one of two shards receives from a 4-scan corridor flush (~3.4k updates).

    Captured from a real session's dispatch, so it is the stream the service
    issues (per scan the sorted free keys, then the end points; the scans one
    after another; one 12-level prefix class).  Two robots drive the same
    corridor, so about half of the updates repeat a key.
    """
    config = SessionConfig(num_shards=2, batch_size=4, accelerator=OMUConfig(resolution_m=0.2))
    robots = [ClientSpec(f"robot-{index}", "map", num_scans=2, dropout=0.1) for index in range(2)]
    session = MapSession("map", config)
    try:
        dispatched = []
        apply_async = session.backend.apply_async

        def recording_apply_async(batches):
            dispatched.append(list(batches))
            return apply_async(batches)

        session.backend.apply_async = recording_apply_async
        for event in generate_interleaved_stream(robots, seed=0):
            session.submit(ScanRequest.from_scan_node("map", event.scan, max_range=event.max_range_m))
        session.flush_all()
    finally:
        session.close()
    ((batch, _other_shard),) = dispatched
    return config.accelerator, batch.keys, batch.occupied


@pytest.mark.parametrize("order", ["front_end", "shuffled", "flipped"])
def test_shard_batch_apply_throughput_by_stream_order(benchmark, corridor_shard_batch, order):
    """What the stream's order is worth to the update kernel, and what its worst case costs.

    The kernel resumes each descent where the stream left it (``shuffled``
    takes that away) and derives each parent from the child that changed;
    ``flipped`` applies the batch and then again with every measurement
    inverted, so children that held their parent's maximum fall and saturated
    blocks re-expand and re-prune: the case where the upward pass still reads
    rows.
    """
    config, keys, occupied = corridor_shard_batch
    if order == "shuffled":
        # Reordering updates of one voxel changes the map (the clamp), not the count.
        shuffle = np.random.default_rng(16).permutation(len(keys))
        keys, occupied = keys[shuffle], occupied[shuffle]
    streams = [(keys, occupied), (keys, ~occupied)] if order == "flipped" else [(keys, occupied)]

    def apply():
        accelerator = OMUAccelerator(config)
        for stream in streams:
            accelerator.apply_update_batch(*stream)
        return accelerator.statistics().voxel_updates

    assert benchmark(apply) == len(streams) * len(keys) > 2500


def test_shard_batch_row_reads_per_update(corridor_shard_batch):
    """The upward pass asks the children row only what the stored entry cannot answer.

    Recomputing every climbed parent from its row cost 1.53 row reads per
    update on this batch; at most one is the bound this pins.
    """
    config, keys, occupied = corridor_shard_batch
    accelerator = OMUAccelerator(config)
    accelerator.apply_update_batch(keys, occupied)
    assert accelerator.statistics().voxel_updates == len(keys)
    # One native call for the batch: each PE's count is that call's.
    assert sum(pe.host_row_reads for pe in accelerator.pes) <= len(keys)


@pytest.mark.parametrize("direction", ["dumps", "loads"])
def test_shard_batch_wire_cost(benchmark, corridor_shard_batch, direction):
    """What a pipe or socket backend pays per shard batch: one uint16 and one bool column."""
    _config, keys, occupied = corridor_shard_batch
    batch = ShardUpdateBatch.from_key_arrays(0, keys, occupied)
    wire = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
    # 6 B of key and 1 B of flag per update, plus the two array headers.
    assert len(wire) <= 7 * len(batch) + 512
    if direction == "dumps":
        assert benchmark(pickle.dumps, batch, pickle.HIGHEST_PROTOCOL) == wire
    else:
        received = benchmark(pickle.loads, wire)
        assert np.array_equal(received.keys, batch.keys)
        assert np.array_equal(received.occupied, batch.occupied)
