"""Native front-end kernel: equivalence with the scalar DDA, edge cases.

The contract under test is strict: for any scan, the packed key arrays of
:mod:`repro.octomap.raycast_vec` must match the scalar reference
(:func:`~repro.octomap.scan_insertion.compute_update_keys_for_converter`)
key for key -- including max-range truncation, endpoint clipping at the
addressable-volume boundary (clipped beams register no occupied endpoint),
the out-of-range-origin raise semantics, and the pre-dedup visit count the
stats layer consumes.  A hypothesis suite pins the equivalence on random
scans; the named tests nail the edge cases one at a time.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.address_gen import AddressGenerator
from repro.octomap import raycast_vec
from repro.octomap.counters import OperationCounters
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.raycast_vec import (
    compute_batch_update_arrays,
    compute_scan_update_arrays,
    pack_key_array,
    unpack_key_array,
)
from repro.octomap.scan_insertion import compute_update_keys_for_converter


@pytest.fixture
def converter() -> KeyConverter:
    return KeyConverter(0.1)


def _scalar(converter, points, origin, max_range=-1.0, counters=None):
    return compute_update_keys_for_converter(
        converter, np.asarray(points, dtype=np.float64), origin,
        max_range=max_range, counters=counters,
    )


def _vectorized(converter, points, origin, max_range=-1.0, counters=None):
    cast = compute_scan_update_arrays(
        converter, np.asarray(points, dtype=np.float64), origin,
        max_range=max_range, counters=counters,
    )
    return tuple(
        {OcTreeKey(*key) for key in unpack_key_array(packed).tolist()}
        for packed in (cast.free_packed, cast.occupied_packed)
    )


def _assert_equivalent(converter, points, origin, max_range=-1.0):
    scalar_counters = OperationCounters()
    vector_counters = OperationCounters()
    scalar_error = vector_error = None
    try:
        free_s, occ_s = _scalar(converter, points, origin, max_range, scalar_counters)
    except ValueError as exc:
        scalar_error = exc
    try:
        free_v, occ_v = _vectorized(converter, points, origin, max_range, vector_counters)
    except ValueError as exc:
        vector_error = exc
    assert (scalar_error is None) == (vector_error is None), (
        scalar_error,
        vector_error,
    )
    if scalar_error is not None:
        return
    assert free_v == free_s
    assert occ_v == occ_s
    assert vector_counters.ray_steps == scalar_counters.ray_steps


class TestPackedKeys:
    def test_pack_unpack_roundtrip(self):
        keys = np.array(
            [[0, 0, 0], [1, 2, 3], [0xFFFF, 0xFFFF, 0xFFFF], [32768, 1, 65535]],
            dtype=np.int64,
        )
        assert np.array_equal(unpack_key_array(pack_key_array(keys)), keys)

    def test_packed_sort_order_matches_octreekey_sort(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 0x10000, size=(200, 3), dtype=np.int64)
        packed_sorted = unpack_key_array(np.sort(pack_key_array(keys)))
        object_sorted = sorted(OcTreeKey(x, y, z) for x, y, z in keys.tolist())
        assert [tuple(row) for row in packed_sorted.tolist()] == [
            key.as_tuple() for key in object_sorted
        ]


class TestCoordsToKeyArray:
    def test_matches_scalar_conversion(self, converter):
        rng = np.random.default_rng(11)
        coords = rng.uniform(-3.0, 3.0, size=(100, 3))
        keys = converter.coords_to_key_array(coords)
        for row, (x, y, z) in zip(keys.tolist(), coords.tolist()):
            assert tuple(row) == converter.coord_to_key(x, y, z).as_tuple()

    def test_key_array_to_coords_is_voxel_center(self, converter):
        rng = np.random.default_rng(12)
        coords = rng.uniform(-3.0, 3.0, size=(50, 3))
        for row, point in zip(converter.coords_to_key_array(coords).tolist(), coords.tolist()):
            key = OcTreeKey(*row)
            centre = converter.key_to_coord(key)
            assert max(abs(c - p) for c, p in zip(centre, point)) <= converter.resolution / 2.0 + 1e-9
            assert converter.coord_to_key(*centre) == key

    def test_out_of_range_coordinate_raises(self):
        small = KeyConverter(0.1, tree_depth=4)
        coords = np.array([[0.0, 0.0, 0.0], [0.0, small.max_coordinate + 1.0, 0.0]])
        with pytest.raises(ValueError):
            small.coords_to_key_array(coords)


class TestShardIndicesArray:
    def test_matches_scalar_shard_index(self):
        generator = AddressGenerator(0.2, 16, 8)
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 0x10000, size=(300, 3), dtype=np.int64)
        for num_shards, prefix_levels in [(2, 1), (4, 3), (12, 12), (7, 16)]:
            vector = generator.shard_indices(keys, num_shards, prefix_levels)
            scalar = [
                generator.shard_index(OcTreeKey(x, y, z), num_shards, prefix_levels)
                for x, y, z in keys.tolist()
            ]
            assert vector.tolist() == scalar


class TestVectorizedEdgeCases:
    def test_empty_cloud(self, converter):
        result = compute_scan_update_arrays(
            converter, np.empty((0, 3)), (0.0, 0.0, 0.0)
        )
        assert result.free_packed.size == 0
        assert result.occupied_packed.size == 0
        assert result.ray_steps == 0

    def test_malformed_points_raise(self, converter):
        with pytest.raises(ValueError, match="shape"):
            compute_scan_update_arrays(converter, np.zeros((4, 2)), (0.0, 0.0, 0.0))

    def test_zero_length_ray(self, converter):
        # Endpoint in the origin voxel: occupied update only, no free voxels.
        _assert_equivalent(converter, [[0.02, 0.02, 0.02]], (0.01, 0.01, 0.01))
        free, occ = _vectorized(converter, [[0.02, 0.02, 0.02]], (0.01, 0.01, 0.01))
        assert free == set()
        assert occ == {converter.coord_to_key(0.02, 0.02, 0.02)}

    def test_exactly_coincident_endpoint(self, converter):
        _assert_equivalent(converter, [[0.05, 0.05, 0.05]], (0.05, 0.05, 0.05))

    def test_axis_aligned_ray_visits_every_voxel(self, converter):
        origin = (0.05, 0.05, 0.05)
        free, occ = _vectorized(converter, [[1.05, 0.05, 0.05]], origin)
        assert len(free) == 9  # voxels strictly between origin and endpoint
        _assert_equivalent(converter, [[1.05, 0.05, 0.05]], origin)
        for endpoint in ([0.05, 1.05, 0.05], [0.05, 0.05, 1.05], [-1.05, 0.05, 0.05]):
            _assert_equivalent(converter, [endpoint], origin)

    def test_single_ray_scan(self, converter):
        _assert_equivalent(converter, [[1.3, -0.7, 0.4]], (0.0, 0.0, 0.0))

    def test_max_range_truncation_marks_no_endpoint(self, converter):
        origin = (0.0, 0.0, 0.0)
        points = [[5.0, 0.0, 0.0]]
        free, occ = _vectorized(converter, points, origin, max_range=1.0)
        assert occ == set()  # truncated beams carve free space only
        assert free  # ... but still carve it
        _assert_equivalent(converter, points, origin, max_range=1.0)

    def test_boundary_clipped_ray_has_no_occupied_endpoint(self):
        # The PR-5 serving fix: a beam whose endpoint lies outside the
        # addressable volume is clipped at the boundary and must register
        # free voxels but NO occupied endpoint -- in the array path too.
        small = KeyConverter(0.1, tree_depth=6)
        origin = (0.0, 0.0, 0.0)
        points = [[small.max_coordinate * 3.0, 0.1, 0.1]]
        free, occ = _vectorized(small, points, origin)
        assert occ == set()
        assert free
        _assert_equivalent(small, points, origin)

    def test_out_of_range_origin_with_in_range_endpoint_raises(self):
        small = KeyConverter(0.1, tree_depth=6)
        bad_origin = (small.max_coordinate * 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            compute_scan_update_arrays(small, np.array([[0.1, 0.1, 0.1]]), bad_origin)
        with pytest.raises(ValueError):
            _scalar(small, [[0.1, 0.1, 0.1]], bad_origin)

    def test_out_of_range_origin_with_all_endpoints_out_of_range_is_silent(self):
        small = KeyConverter(0.1, tree_depth=6)
        bad_origin = (small.max_coordinate * 2.0, 0.0, 0.0)
        points = [[small.max_coordinate * 3.0, 0.0, 0.0]]
        result = compute_scan_update_arrays(small, np.array(points), bad_origin)
        assert result.free_packed.size == 0
        assert result.occupied_packed.size == 0
        free_s, occ_s = _scalar(small, points, bad_origin)
        assert free_s == set() and occ_s == set()

    def test_duplicate_endpoints_deduplicate(self, converter):
        points = [[1.0, 0.0, 0.0]] * 5 + [[1.0, 0.02, 0.0]]
        counters = OperationCounters()
        result = compute_scan_update_arrays(
            converter, np.array(points), (0.0, 0.0, 0.0), counters=counters
        )
        assert result.occupied_packed.size == np.unique(result.occupied_packed).size
        # Pre-dedup visits exceed the dedup'd free set for overlapping rays.
        assert counters.ray_steps > result.free_packed.size
        _assert_equivalent(converter, points, (0.0, 0.0, 0.0))

    def test_occupied_beats_free_within_scan(self, converter):
        # A long beam passes through a short beam's endpoint voxel: that
        # voxel must come out occupied, not free.
        points = [[0.55, 0.05, 0.05], [1.55, 0.05, 0.05]]
        free, occ = _vectorized(converter, points, (0.05, 0.05, 0.05))
        short_end = converter.coord_to_key(0.55, 0.05, 0.05)
        assert short_end in occ
        assert short_end not in free
        _assert_equivalent(converter, points, (0.05, 0.05, 0.05))


class TestBatchKernel:
    def test_batch_matches_per_scan_results(self, converter):
        rng = np.random.default_rng(17)
        scans = []
        for _ in range(5):
            n = int(rng.integers(0, 25))
            points = rng.uniform(-4.0, 4.0, size=(n, 3))
            origin = rng.uniform(-0.5, 0.5, size=3)
            scans.append((points, origin, float(rng.choice([-1.0, 2.0]))))
        batch_counters = OperationCounters()
        batch = compute_batch_update_arrays(converter, scans, counters=batch_counters)
        single_counters = OperationCounters()
        singles = [
            compute_scan_update_arrays(converter, *scan, counters=single_counters)
            for scan in scans
        ]
        assert batch_counters.ray_steps == single_counters.ray_steps
        assert len(batch) == len(singles)
        for got, expected in zip(batch, singles):
            assert np.array_equal(got.free_packed, expected.free_packed)
            assert np.array_equal(got.occupied_packed, expected.occupied_packed)
            assert got.ray_steps == expected.ray_steps

    def test_batch_dedup_is_per_scan_not_per_batch(self, converter):
        # Two identical scans in one batch must each keep their updates.
        points = np.array([[1.0, 0.0, 0.0]])
        origin = (0.0, 0.0, 0.0)
        batch = compute_batch_update_arrays(
            converter, [(points, origin, -1.0), (points, origin, -1.0)]
        )
        assert batch[0].free_packed.size == batch[1].free_packed.size > 0
        assert batch[0].occupied_packed.size == batch[1].occupied_packed.size == 1

    def test_batch_with_empty_and_raising_scans(self):
        small = KeyConverter(0.1, tree_depth=6)
        bad_origin = (small.max_coordinate * 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            compute_batch_update_arrays(
                small,
                [
                    (np.empty((0, 3)), (0.0, 0.0, 0.0), -1.0),
                    (np.array([[0.1, 0.1, 0.1]]), bad_origin, -1.0),
                ],
            )


class TestNativeKernel:
    def test_the_call_releases_the_interpreter_lock(self):
        # A ctypes.CDLL function drops the GIL for the call; a PyDLL one, or
        # one flagged to use the Python API, would hold it.
        assert not raycast_vec._cast_scans._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_keys_spanning_more_than_a_byte_per_axis(self):
        # 1 cm voxels and beams of metres: per-axis key offsets above 255,
        # straddling the key-space centre, so every radix pass of the
        # kernel's sort runs.
        converter = KeyConverter(0.01)
        points = np.random.default_rng(23).uniform(-4.0, 4.0, size=(30, 3))
        _assert_equivalent(converter, points, (0.003, -0.002, 0.001))
        _assert_equivalent(converter, points, (0.003, -0.002, 0.001), max_range=2.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_point_raises_like_the_oracle(self, converter, bad):
        points = [[1.0, 0.5, 0.0], [bad, 0.0, 0.0]]
        with np.errstate(invalid="ignore"):  # the oracle clips inf to inf * 0
            _assert_equivalent(converter, points, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="beam endpoint"):
            _vectorized(converter, points, (0.0, 0.0, 0.0))

    def test_a_non_finite_point_from_an_outside_origin_is_dropped_like_the_oracle(self):
        small = KeyConverter(0.1, tree_depth=6)
        bad_origin = (small.max_coordinate * 2.0, 0.0, 0.0)
        points = [[np.nan, 0.0, 0.0], [small.max_coordinate * 3.0, 0.0, 0.0]]
        _assert_equivalent(small, points, bad_origin)
        assert _vectorized(small, points, bad_origin) == (set(), set())

    def test_the_error_names_the_scan(self):
        small = KeyConverter(0.1, tree_depth=6)
        bad_origin = (small.max_coordinate * 2.0, 0.0, 0.0)
        scans = [(np.array([[0.5, 0.0, 0.0]]), (0.0, 0.0, 0.0), -1.0), (np.array([[0.1, 0.1, 0.1]]), bad_origin, -1.0)]
        with pytest.raises(ValueError, match="scan origin .* of scan 1 outside"):
            compute_batch_update_arrays(small, scans)

    def test_results_are_consecutive_slices_in_dispatch_order(self, converter):
        rng = np.random.default_rng(29)
        scans = [(rng.uniform(-2.0, 2.0, size=(n, 3)), (0.0, 0.1, 0.0), -1.0) for n in (7, 0, 12)]
        results = compute_batch_update_arrays(converter, scans)
        flat = np.concatenate([np.concatenate((r.free_packed, r.occupied_packed)) for r in results])
        base = results[0].free_packed.base
        assert all(r.free_packed.base is base and r.occupied_packed.base is base for r in results)
        assert np.array_equal(base, flat)


scan_strategy = st.tuples(
    st.lists(
        st.tuples(*[st.floats(min_value=-9.0, max_value=9.0)] * 3),
        min_size=0,
        max_size=12,
    ),
    st.tuples(*[st.floats(min_value=-4.0, max_value=4.0)] * 3),
    st.sampled_from([-1.0, 1.5, 4.0]),
)

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
    ),
    min_size=1,
    max_size=25,
)
origin_strategy = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        points=points_strategy,
        origin=origin_strategy,
        max_range=st.sampled_from([-1.0, 1.5, 4.0]),
        resolution=st.sampled_from([0.1, 0.25]),
        tree_depth=st.sampled_from([6, 8, 16]),
    )
    def test_vectorized_matches_scalar_on_random_scans(
        self, points, origin, max_range, resolution, tree_depth
    ):
        converter = KeyConverter(resolution, tree_depth=tree_depth)
        _assert_equivalent(converter, points, origin, max_range)

    @settings(max_examples=60, deadline=None)
    @given(
        scans=st.lists(scan_strategy, min_size=1, max_size=4),
        resolution=st.sampled_from([0.1, 0.25]),
        tree_depth=st.sampled_from([5, 6, 16]),
    )
    def test_one_native_call_matches_the_scalar_oracle_scan_by_scan(self, scans, resolution, tree_depth):
        # Small trees put origins and beams outside the volume: clipping,
        # dropped beams and the raise all happen inside one batch.
        converter = KeyConverter(resolution, tree_depth=tree_depth)
        scans = [
            (np.array(points, dtype=np.float64).reshape(-1, 3), origin, max_range)
            for points, origin, max_range in scans
        ]
        expected, oracle_counters, oracle_error = [], OperationCounters(), None
        try:
            for points, origin, max_range in scans:
                expected.append(_scalar(converter, points, origin, max_range, oracle_counters))
        except ValueError as error:
            oracle_error = error
        native_counters = OperationCounters()
        if oracle_error is not None:
            with pytest.raises(ValueError):
                compute_batch_update_arrays(converter, scans, counters=native_counters)
            return
        results = compute_batch_update_arrays(converter, scans, counters=native_counters)
        assert native_counters.ray_steps == oracle_counters.ray_steps
        for result, (free, occupied) in zip(results, expected):
            assert np.array_equal(result.free_packed, np.sort(_packed(free)))
            assert np.array_equal(result.occupied_packed, np.sort(_packed(occupied)))


def _packed(keys) -> np.ndarray:
    return pack_key_array(np.array([key.as_tuple() for key in keys], dtype=np.int64).reshape(-1, 3))
