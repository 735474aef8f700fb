"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.accelerator import OMUAccelerator
from repro.core.pe import QUERY_STATUSES
from repro.core.config import DEFAULT_CONFIG
from repro.core.fixedpoint import DEFAULT_FORMAT
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.logodds import DEFAULT_PARAMS, log_odds, probability
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.raycast import compute_ray_keys

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
coordinates = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
key_components = st.integers(min_value=0, max_value=0xFFFF)
probabilities = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


# ---------------------------------------------------------------------------
# Log-odds
# ---------------------------------------------------------------------------
@given(probabilities)
def test_log_odds_probability_roundtrip(p):
    assert probability(log_odds(p)) == pytest_approx(p)


def pytest_approx(value, rel=1e-9, abs_tol=1e-9):
    class _Approx:
        def __eq__(self, other):
            return math.isclose(other, value, rel_tol=rel, abs_tol=abs_tol)

    return _Approx()


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), st.booleans())
def test_clamped_update_always_stays_in_bounds(value, hit):
    updated = DEFAULT_PARAMS.update(value, hit)
    assert DEFAULT_PARAMS.clamp_min <= updated <= DEFAULT_PARAMS.clamp_max


@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_update_sequences_stay_clamped(sequence):
    value = 0.0
    for hit in sequence:
        value = DEFAULT_PARAMS.update(value, hit)
        assert DEFAULT_PARAMS.clamp_min <= value <= DEFAULT_PARAMS.clamp_max


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
@given(coordinates, coordinates, coordinates)
def test_coord_key_roundtrip_error_is_below_half_resolution(x, y, z):
    converter = KeyConverter(0.1)
    key = converter.coord_to_key(x, y, z)
    centre = converter.key_to_coord(key)
    for original, restored in zip((x, y, z), centre):
        assert abs(original - restored) <= converter.resolution / 2.0 + 1e-9


@given(key_components, key_components, key_components)
def test_key_path_reconstructs_the_key(kx, ky, kz):
    key = OcTreeKey(kx, ky, kz)
    rx = ry = rz = 0
    for level, index in enumerate(key.path(16)):
        bit = 15 - level
        rx |= ((index >> 0) & 1) << bit
        ry |= ((index >> 1) & 1) << bit
        rz |= ((index >> 2) & 1) << bit
    assert (rx, ry, rz) == key.as_tuple()


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------
@given(coordinates, coordinates, coordinates, coordinates, coordinates, coordinates)
@settings(max_examples=50)
def test_ray_traversal_is_six_connected(ox, oy, oz, ex, ey, ez):
    converter = KeyConverter(0.2)
    keys = compute_ray_keys(converter, (ox, oy, oz), (ex, ey, ez))
    path = [converter.coord_to_key(ox, oy, oz)] + keys
    for previous, current in zip(path, path[1:]):
        distance = sum(abs(a - b) for a, b in zip(previous.as_tuple(), current.as_tuple()))
        assert distance == 1
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_fixed_point_quantisation_error_is_half_lsb(value):
    fmt = DEFAULT_FORMAT
    assert abs(fmt.to_value(fmt.to_raw(value)) - value) <= fmt.scale / 2.0 + 1e-12


@given(st.lists(st.booleans(), min_size=1, max_size=32))
@settings(max_examples=30, deadline=None)
def test_quantised_updates_stay_within_clamps_or_initial_range(hits):
    """The PE datapath's raw log-odds never leaves the quantised clamps, whatever the sequence."""
    quantized = DEFAULT_CONFIG.quantized_params()
    accelerator = OMUAccelerator(DEFAULT_CONFIG)
    key = np.array([[32768, 32768, 32768]])
    for hit in hits:
        accelerator.apply_update_batch(key, np.array([hit]))
        assert quantized.raw_clamp_min <= accelerator.query_keys(key)[1][0] <= quantized.raw_clamp_max


# ---------------------------------------------------------------------------
# Octree / accelerator functional invariants
# ---------------------------------------------------------------------------
voxel_updates = st.lists(
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


@given(voxel_updates)
@settings(max_examples=30, deadline=None)
def test_octree_values_always_clamped_and_queries_consistent(updates):
    tree = OccupancyOcTree(0.25)
    for x, y, z, occupied in updates:
        tree.update_node(x, y, z, occupied=occupied)
    for leaf in tree.iter_leafs():
        assert DEFAULT_PARAMS.clamp_min <= leaf.log_odds <= DEFAULT_PARAMS.clamp_max
    # Node count bookkeeping must match an actual traversal.
    assert tree.size() == _count_nodes(tree.root)


def _count_nodes(node):
    if node is None:
        return 0
    return 1 + sum(_count_nodes(child) for _, child in node.children())


@given(voxel_updates)
@settings(max_examples=20, deadline=None)
def test_pe_and_software_tree_agree_on_random_update_sequences(updates):
    """The PE datapath matches the quantised software tree for any sequence."""
    config = DEFAULT_CONFIG.with_resolution(0.25)
    quantized = config.quantized_params()
    software = OccupancyOcTree(0.25, params=quantized.as_float_params())
    accelerator = OMUAccelerator(config)  # eight PEs: one per first-level branch
    converter = KeyConverter(0.25, config.tree_depth)

    for x, y, z, occupied in updates:
        key = converter.coord_to_key(x, y, z)
        software.update_node(key, occupied=occupied)
        accelerator.apply_update_batch(np.array([key.as_tuple()]), np.array([occupied]))

    fmt = config.fixed_point
    for x, y, z, _ in updates:
        key = converter.coord_to_key(x, y, z)
        node = software.search(key)
        (code,), (raw,), _ = accelerator.query_keys(np.array([key.as_tuple()]))
        status = QUERY_STATUSES[code]
        assert node is not None
        assert fmt.to_raw(node.log_odds) == raw
        expected = "occupied" if software.is_node_occupied(node) else "free"
        assert status == expected
