"""The bulk query kernel answers, and counts, like one point query per key.

Two accelerators are loaded with the same update stream (bursts that
saturate, prune and re-expand blocks, as in ``test_fused_kernel_properties``);
one then serves a list of keys through ``query_keys``, the other the same keys
one ``query`` at a time.  Answers must agree key for key (and with the
exported software map), and every simulated count a query touches --
``counters.queries``, per-bank ``read_accesses``, ``stats.bank_reads``,
``query_cycles`` and the query unit's ``queries_served`` / ``total_cycles``
-- must end up equal.  A stopping read (a collision ray's run) must equal
the point queries up to and including its first occupied key.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QUERY_STATUSES, OMUAccelerator, OMUConfig
from repro.core.config import TimingParams
from repro.core.pe import ProcessingElement
from repro.core.query_unit import VoxelQueryUnit
from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import probability as logodds_to_probability
from test_fused_kernel_properties import update_streams
from test_golden_pe_stats import DISTINCT_TIMING

Key = Tuple[int, int, int]


def small_config(depth: int, timing: TimingParams = DISTINCT_TIMING) -> OMUConfig:
    return OMUConfig(resolution_m=0.2, tree_depth=depth, bank_kilobytes=8, timing=timing)


def query_counts(unit: VoxelQueryUnit, pes: Sequence[ProcessingElement]) -> dict:
    """Every simulated count a query may move."""
    return {
        "queries_served": unit.queries_served,
        "total_cycles": unit.total_cycles,
        "per_pe": [
            {
                "queries": pe.counters.queries,
                "bank_reads": pe.stats.bank_reads,
                "query_cycles": pe.query_cycles,
                "read_accesses": [bank.read_accesses for bank in pe.memory.banks],
                "write_accesses": [bank.write_accesses for bank in pe.memory.banks],
                "row_reads": pe.memory.row_reads,
            }
            for pe in pes
        ],
    }


def assert_bulk_equals_scalar(
    bulk: VoxelQueryUnit,
    bulk_pes: Sequence[ProcessingElement],
    scalar: VoxelQueryUnit,
    scalar_pes: Sequence[ProcessingElement],
    keys: List[Key],
    stop_at_occupied: bool = False,
) -> None:
    """With ``stop_at_occupied`` the scalar side stops after its first
    occupied answer, as a collision ray does."""
    config = bulk.config
    converter = bulk.address_generator.converter
    codes, raws, cycles = bulk.query_keys(
        np.array(keys, dtype=np.uint16).reshape(-1, 3), stop_at_occupied
    )
    assert codes.dtype == np.uint8 and raws.dtype == np.int16
    results = []
    for key in keys:
        results.append(scalar.query(*converter.key_to_coord(OcTreeKey(*key))))
        if stop_at_occupied and results[-1].status == "occupied":
            break

    assert [QUERY_STATUSES[code] for code in codes.tolist()] == [r.status for r in results]
    assert [
        logodds_to_probability(config.fixed_point.to_value(raw)) if code else None
        for code, raw in zip(codes.tolist(), raws.tolist())
    ] == [r.probability for r in results]
    assert cycles == sum(r.cycles for r in results)
    assert query_counts(bulk, bulk_pes) == query_counts(scalar, scalar_pes)


@st.composite
def loaded_maps_and_keys(draw):
    depth, stream = draw(update_streams())
    component = st.integers(min_value=0, max_value=(1 << depth) - 1)
    # Stored voxels (duplicates included), their pruned neighbourhoods, and
    # keys nothing was ever written near (absent blocks and absent roots).
    stored = st.sampled_from([(x, y, z) for x, y, z, _ in stream])
    keys = draw(st.lists(st.one_of(stored, st.tuples(component, component, component)), max_size=60))
    return depth, stream, keys


@given(loaded_maps_and_keys(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_query_keys_equals_sequential_point_queries(case, stop_at_occupied):
    depth, stream, keys = case
    config = small_config(depth)
    columns = np.array(stream, dtype=np.int64)
    bulk, scalar = OMUAccelerator(config), OMUAccelerator(config)
    for accelerator in (bulk, scalar):
        accelerator.apply_update_batch(columns[:, :3], columns[:, 3] != 0)
    assert_bulk_equals_scalar(
        bulk.query_unit, bulk.pes, scalar.query_unit, scalar.pes, keys, stop_at_occupied
    )
    # Reading changed nothing a later write would see, and the answers are
    # the exported map's (pruned regions answer for the voxels inside them).
    assert bulk.statistics() == scalar.statistics()
    tree = bulk.export_octree()
    assert tree.occupancy_grid() == scalar.export_octree().occupancy_grid()
    codes, _raws, _cycles = bulk.query_keys(np.array(keys, dtype=np.uint16).reshape(-1, 3))
    assert [QUERY_STATUSES[code] for code in codes.tolist()] == [
        tree.classify(OcTreeKey(*key)) for key in keys
    ]


def test_query_voxel_is_the_kernel_with_one_path():
    """A point read (``pe_query_key``) answers and counts as a one-key ``pe_query_batch``."""
    config = small_config(4)
    by_key, by_batch = OMUAccelerator(config), OMUAccelerator(config)
    for accelerator in by_key, by_batch:
        accelerator.apply_update_batch(np.array([[5, 9, 3]] * 3), np.array([True] * 3))
    statuses = []
    for key in (OcTreeKey(5, 9, 3), OcTreeKey(5, 9, 2), OcTreeKey(15, 15, 15)):
        result = by_key.query_key(key)
        (code,), (raw,), cycles = by_batch.query_keys(np.array([key.as_tuple()]))
        probability = logodds_to_probability(config.fixed_point.to_value(raw)) if code else None
        assert (result.status, result.probability, result.cycles) == (QUERY_STATUSES[code], probability, cycles)
        statuses.append(result.status)
    assert statuses == ["occupied", "unknown", "unknown"]
    assert query_counts(by_key.query_unit, by_key.pes) == query_counts(by_batch.query_unit, by_batch.pes)


def test_a_dangling_tag_books_what_was_walked_before_it_raises():
    config = small_config(3)
    accelerator = OMUAccelerator(config)
    accelerator.apply_update_batch(np.array([[1, 2, 3], [6, 5, 4]]), np.array([True, False]))
    key = OcTreeKey(1, 2, 3)
    pe = accelerator.pes[accelerator.address_generator.pe_for_key(key)]
    path = key.path(3)
    leaf_row = pe._pointers[path[1]][pe._pointers[path[0]][0]]
    pe._valid[path[2]][leaf_row] = 0  # corrupt the image under the tags
    reads_before = pe.stats.bank_reads
    with pytest.raises(RuntimeError, match=f"PE {pe.pe_id}: dangling tag"):
        accelerator.query_keys(np.array([key.as_tuple()] * 2))
    assert pe.counters.queries == 1
    assert pe.stats.bank_reads - reads_before == 3
    assert pe.query_cycles == 3 * config.timing.bank_read_cycles
    assert accelerator.query_unit.queries_served == 0


extreme_component = st.one_of(st.integers(0, 0xFFFF), st.sampled_from([0, 1, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF]))


@given(
    st.lists(st.tuples(extreme_component, extreme_component, extreme_component), min_size=1, max_size=12),
    st.lists(st.booleans(), min_size=12, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_a_point_read_by_key_equals_the_read_by_its_centre(keys, written):
    """``query_key`` is ``query`` without the key -> centre -> key round
    trip: same ``QueryResult``, same counts, at the corners of the key space too."""
    config = small_config(16)
    stored = np.array([key for key, write in zip(keys, written) if write], dtype=np.int64).reshape(-1, 3)
    by_key, by_centre = OMUAccelerator(config), OMUAccelerator(config)
    for accelerator in (by_key, by_centre):
        accelerator.apply_update_batch(stored, np.ones(len(stored), dtype=bool))
    converter = by_key.address_generator.converter
    for key in (OcTreeKey(*components) for components in keys):
        assert by_key.query_key(key) == by_centre.query(*converter.key_to_coord(key))
    assert query_counts(by_key.query_unit, by_key.pes) == query_counts(by_centre.query_unit, by_centre.pes)
