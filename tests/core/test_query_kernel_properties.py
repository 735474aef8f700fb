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
from repro.core.address_gen import AddressGenerator
from repro.core.config import TimingParams
from repro.core.pe import ProcessingElement
from repro.core.query_unit import VoxelQueryUnit
from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import probability as logodds_to_probability
from test_fused_kernel_properties import update_streams
from test_golden_pe_stats import DISTINCT_TIMING

import oracle_pe

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


@given(loaded_maps_and_keys(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_query_keys_on_more_than_eight_pes(case, stop_at_occupied):
    """Twelve PEs split on the second level too; built by hand, as the
    accelerator itself caps the PE array at eight."""
    depth, stream, keys = case
    config = small_config(depth)
    columns = np.array(stream, dtype=np.int64)
    units = []
    for _ in range(2):
        generator = AddressGenerator(config.resolution_m, depth, num_pes=12)
        pes = [ProcessingElement(pe_id, config) for pe_id in range(12)]
        paths = generator.paths_for_keys(columns[:, :3])
        owners = generator.pes_for_paths(paths)
        for pe_id in np.unique(owners).tolist():
            mine = owners == pe_id
            oracle_pe.kernel_update_paths(pes[pe_id], paths[mine], (columns[mine, 3] != 0).tolist())
        units.append((VoxelQueryUnit(config, generator, pes), pes))
    (bulk, bulk_pes), (scalar, scalar_pes) = units
    assert_bulk_equals_scalar(bulk, bulk_pes, scalar, scalar_pes, keys, stop_at_occupied)


def test_query_voxel_is_the_kernel_with_one_path():
    config = small_config(4)
    accelerator = OMUAccelerator(config)
    accelerator.apply_update_batch(np.array([[5, 9, 3]] * 3), np.array([True] * 3))
    key = OcTreeKey(5, 9, 3)
    pe = accelerator.pes[accelerator.address_generator.pe_for_key(key)]
    status, raw = pe.query_voxel(key)
    codes, raws, cycles = pe.query_paths([key.path(4)])
    assert (status, raw) == (QUERY_STATUSES[codes[0]], raws[0]) == ("occupied", raw)
    assert pe.query_cycles == 2 * cycles
    assert pe.query_voxel(OcTreeKey(15, 15, 15)) == ("unknown", None)


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
    with pytest.raises(RuntimeError, match="dangling tag"):
        pe.query_paths([path, path])
    assert pe.counters.queries == 1
    assert pe.stats.bank_reads - reads_before == 3
    assert pe.query_cycles == 3 * config.timing.bank_read_cycles


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
