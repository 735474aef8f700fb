"""Pipeline-level front-end equivalence: what the pipeline dispatches vs the scalar oracle.

The kernel-level suite (``tests/octomap/test_raycast_vec.py``) pins the
vectorized DDA against the scalar one per scan; this suite pins the whole
ingestion path.  The expected per-shard update streams and accounting are
computed here from the scalar kernel
(:func:`~repro.octomap.scan_insertion.compute_update_keys_for_converter`)
and a reference partitioner that routes key by key with
:meth:`ShardRouter.shard_for_key` (:func:`_partition`), flush by flush; the
session must hand its backend exactly those batches, report
exactly those counts, and end up with a map leaf-for-leaf identical to the
expected streams applied on a fresh inline backend -- on every backend, for
hypothesis-generated workloads.  It also covers the batch plumbing around
the kernel: the ``from_key_arrays`` wire form and the converter hoist
(exactly one converter derivation per session, however many flushes run).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np
import pytest
from conftest import update_batch
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verification import compare_trees
from repro.octomap import PointCloud
from repro.octomap.counters import OperationCounters
from repro.octomap.keys import OcTreeKey
from repro.octomap.merge import merge_trees
from repro.octomap.scan_insertion import compute_update_keys_for_converter
from repro.serving import MapSession, ScanRequest, SessionConfig, make_backend
from repro.serving.types import ShardUpdateBatch

from update_columns import update_columns

Scan = Tuple[List[Tuple[float, float, float]], Tuple[float, float, float], float]

ACCOUNTING_FIELDS = (
    "rays_cast",
    "ray_voxels_visited",
    "voxel_updates",
    "duplicates_removed",
    "shard_updates",
)


def _partition(router, keys: np.ndarray, occupied: np.ndarray) -> List[List[Tuple[int, int, int, bool]]]:
    """Split an ordered update stream into per-shard ``(x, y, z, occupied)`` streams, key by key.

    Stream order is kept inside each shard, and every update of a voxel lands
    on the same shard: together that keeps per-voxel update order, which is
    what makes sharded ingestion equivalent to sequential insertion.
    """
    per_shard: List[List[Tuple[int, int, int, bool]]] = [[] for _ in range(router.num_shards)]
    for (x, y, z), hit in zip(keys.tolist(), occupied.tolist()):
        per_shard[router.shard_for_key(OcTreeKey(x, y, z))].append((x, y, z, hit))
    return per_shard


def _expected_flush(router, scans: List[Scan]):
    """One flush from the oracle: per-shard batches plus the accounting fields."""
    counters = OperationCounters()
    streams = []
    occupied_visits = 0
    for points, origin, max_range in scans:
        free_keys, occupied_keys = compute_update_keys_for_converter(
            router.converter, PointCloud(points), origin, max_range=max_range, counters=counters
        )
        occupied_visits += len(occupied_keys)
        streams.append(update_columns(free_keys, occupied_keys))
    keys = np.concatenate([keys for keys, _occupied in streams])
    occupied = np.concatenate([occupied for _keys, occupied in streams])
    per_shard = _partition(router, keys, occupied)
    batches = [update_batch(shard_id, shard_stream) for shard_id, shard_stream in enumerate(per_shard)]
    visits = counters.ray_steps + occupied_visits
    accounting = {
        "rays_cast": sum(len(points) for points, _origin, _max_range in scans),
        "ray_voxels_visited": visits,
        "voxel_updates": len(keys),
        "duplicates_removed": visits - len(keys),
        "shard_updates": tuple(len(shard_stream) for shard_stream in per_shard),
    }
    return batches, accounting


def _assert_pipeline_matches_oracle(scans: List[Scan], config: SessionConfig) -> None:
    session = MapSession("map", config)
    try:
        dispatched: List[List[ShardUpdateBatch]] = []
        apply_async = session.backend.apply_async

        def recording_apply_async(batches):
            dispatched.append(list(batches))
            return apply_async(batches)

        session.backend.apply_async = recording_apply_async
        for request_id, (points, origin, max_range) in enumerate(scans):
            session.submit(
                ScanRequest(
                    session_id="map",
                    request_id=request_id,
                    cloud=PointCloud(points),
                    origin=origin,
                    max_range=max_range,
                )
            )
        reports = session.flush_all()
        tree = session.export_octree()
        stats = session.stats
    finally:
        session.close()

    flushes = [
        _expected_flush(session.router, scans[start : start + config.batch_size])
        for start in range(0, len(scans), config.batch_size)
    ]
    assert len(dispatched) == len(reports) == len(flushes)
    for sent, (batches, _accounting) in zip(dispatched, flushes):
        assert [batch.shard_id for batch in sent] == [batch.shard_id for batch in batches]
        for got, expected in zip(sent, batches):
            assert np.array_equal(got.keys, expected.keys)
            assert np.array_equal(got.occupied, expected.occupied)
    for report, (_batches, accounting) in zip(reports, flushes):
        for name in ACCOUNTING_FIELDS:
            assert getattr(report, name) == accounting[name], name
    for name in ACCOUNTING_FIELDS[:-1]:
        assert getattr(stats, name) == sum(accounting[name] for _b, accounting in flushes), name
    assert tuple(stats.shard_updates) == tuple(
        sum(column) for column in zip(*(accounting["shard_updates"] for _b, accounting in flushes))
    )
    assert stats.scans_ingested == len(scans)
    assert stats.batches_dispatched == len(flushes)
    assert stats.frontend_converter_builds == 1

    reference = make_backend("inline", config.accelerator, config.num_shards)
    try:
        for batches, _accounting in flushes:
            reference.apply_shard_batches(batches)
        expected_tree = merge_trees(reference.export_all())
    finally:
        reference.close()
    report = compare_trees(expected_tree, tree, tolerance=0.0)
    assert report.equivalent, report.summary()


scan_points = st.lists(
    st.tuples(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-2.0, max_value=2.0),
    ),
    min_size=1,
    max_size=12,
)
scan_strategy = st.tuples(
    scan_points,
    st.tuples(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-0.5, max_value=0.5),
    ),
    st.sampled_from([-1.0, 2.0, 6.0]),
)


class TestFrontendEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(scans=st.lists(scan_strategy, min_size=1, max_size=4))
    def test_inline_backend_random_scans(self, scans):
        _assert_pipeline_matches_oracle(scans, SessionConfig(num_shards=2, batch_size=2))

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_fixed_workload_all_inprocess_backends(self, backend):
        rng = np.random.default_rng(23)
        scans = []
        for _ in range(6):
            n = int(rng.integers(5, 40))
            points = [tuple(row) for row in rng.uniform(-4.0, 4.0, size=(n, 3)).tolist()]
            origin = tuple(rng.uniform(-0.5, 0.5, size=3).tolist())
            scans.append((points, origin, float(rng.choice([-1.0, 5.0]))))
        _assert_pipeline_matches_oracle(
            scans, SessionConfig(num_shards=3, batch_size=4, backend=backend)
        )

    @pytest.mark.slow
    def test_fixed_workload_process_backend(self):
        rng = np.random.default_rng(29)
        scans = []
        for _ in range(4):
            points = [tuple(row) for row in rng.uniform(-3.0, 3.0, size=(10, 3)).tolist()]
            origin = tuple(rng.uniform(-0.5, 0.5, size=3).tolist())
            scans.append((points, origin, -1.0))
        _assert_pipeline_matches_oracle(
            scans, SessionConfig(num_shards=2, batch_size=2, backend="process")
        )

    def test_boundary_clipped_scan_through_pipeline(self):
        # Beams leaving the addressable volume must carve free space but no
        # endpoint, exactly as the scalar kernel does (the PR-5 no-hit fix).
        # A shallow tree keeps the volume (and the clipped beam) small: at
        # depth 8 / 0.2 m the addressable cube is +/- 25.6 m, and the router
        # derives its 4-level prefix from that depth.
        base = SessionConfig(num_shards=2, batch_size=2)
        config = replace(base, accelerator=replace(base.accelerator, tree_depth=8))
        far = config.accelerator.resolution_m * (1 << (config.accelerator.tree_depth - 1))
        scans = [
            ([(far * 3.0, 0.0, 0.0), (1.0, 1.0, 0.5)], (0.0, 0.0, 0.0), -1.0),
            ([(0.0, far * 2.0, 0.3)], (0.2, 0.2, 0.2), -1.0),
        ]
        _assert_pipeline_matches_oracle(scans, config)


class TestBatchWirePlumbing:
    def test_from_key_arrays_ships_uint16_and_bool_columns(self):
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 0x10000, size=(50, 3), dtype=np.int64)
        keys[0], keys[1] = 0, 0xFFFF  # both ends of the key space survive the narrowing
        occupied = rng.integers(0, 2, size=50).astype(bool)
        # A strided, reversed view: the wire form is C-contiguous whatever comes in.
        batch = ShardUpdateBatch.from_key_arrays(3, keys[::2][::-1], occupied[::2][::-1])
        assert (batch.shard_id, len(batch)) == (3, 25)
        assert batch.keys.dtype == np.uint16 and batch.keys.shape == (25, 3)
        assert batch.occupied.dtype == np.bool_ and batch.occupied.shape == (25,)
        assert batch.keys.flags.c_contiguous and batch.occupied.flags.c_contiguous
        # int64 -> uint16 -> int64 is the identity on every key component.
        assert np.array_equal(batch.keys.astype(np.int64), keys[::2][::-1])
        assert np.array_equal(batch.occupied, occupied[::2][::-1])

    def test_converter_derived_once_across_many_flushes(self):
        config = SessionConfig(num_shards=2, batch_size=1)
        session = MapSession("map", config)
        try:
            for request_id in range(5):
                session.submit(
                    ScanRequest(
                        session_id="map",
                        request_id=request_id,
                        cloud=PointCloud([(1.0 + 0.1 * request_id, 0.3, 0.2)]),
                        origin=(0.0, 0.0, 0.0),
                        max_range=-1.0,
                    )
                )
                session.flush_all()
            assert session.stats.batches_dispatched == 5
            assert session.stats.frontend_converter_builds == 1
        finally:
            session.close()
