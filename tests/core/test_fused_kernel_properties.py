"""Properties of the array-backed PE kernels on shallow trees.

At ``tree_depth`` 3-5 a few hundred updates saturate leaves, prune blocks,
re-expand them and recycle their rows, so every branch of the fused update
loop (and its early exit on the way up) runs in each example.  The kernels
must build the map sequential software OctoMap builds, leave a consistent
SRAM image behind, and charge the same cycles whether a batch arrives as
columns or as request objects.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import OMUAccelerator, OMUConfig
from repro.core.pe import ProcessingElement
from repro.core.scheduler import VoxelUpdateRequest
from repro.core.treemem import NULL_POINTER, ChildStatus, TreeMemEntry
from repro.core.verification import compare_trees
from repro.octomap.keys import OcTreeKey
from repro.octomap.octree import OccupancyOcTree

Update = Tuple[int, int, int, bool]
BATCH = 96


def small_config(depth: int) -> OMUConfig:
    return OMUConfig(resolution_m=0.2, tree_depth=depth, bank_kilobytes=8)


@st.composite
def update_streams(draw) -> Tuple[int, List[Update]]:
    """Bursts of hits or misses on one voxel or on the eight voxels of one block."""
    depth = draw(st.integers(min_value=3, max_value=5))
    component = st.integers(min_value=0, max_value=(1 << depth) - 1)
    bursts = draw(
        st.lists(
            st.tuples(component, component, component, st.booleans(), st.booleans(), st.integers(1, 16)),
            min_size=1,
            max_size=40,
        )
    )
    stream: List[Update] = []
    for kx, ky, kz, occupied, whole_block, repeats in bursts:
        if whole_block:
            corner = (kx & ~1, ky & ~1, kz & ~1)
            voxels = [(corner[0] + dx, corner[1] + dy, corner[2] + dz)
                      for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
        else:
            voxels = [(kx, ky, kz)]
        for _ in range(repeats):
            stream.extend((x, y, z, occupied) for x, y, z in voxels)
    return depth, stream


def apply_in_batches(accelerator: OMUAccelerator, stream: List[Update], as_columns: bool):
    timings = []
    for start in range(0, len(stream), BATCH):
        chunk = stream[start : start + BATCH]
        if as_columns:
            columns = np.array(chunk, dtype=np.int64)
            timings.append(accelerator.apply_update_batch(columns[:, :3], columns[:, 3] != 0))
        else:
            timings.append(
                accelerator.apply_update_batch(
                    [VoxelUpdateRequest(OcTreeKey(x, y, z), occupied) for x, y, z, occupied in chunk]
                )
            )
    return timings


def check_image(pe: ProcessingElement) -> None:
    """Walk the PE's tree: tags match children, entries round-trip, nothing leaks."""
    depth = pe.config.tree_depth
    classify = pe.probability_unit.classify
    reachable = inner = 0
    pending = [(pe.memory.read_entry(0, bank), 1) for bank in pe._local_roots.values()]
    while pending:
        entry, level = pending.pop()
        assert entry is not None
        reachable += 1
        assert TreeMemEntry.unpack(entry.pack()) == entry
        if entry.pointer == NULL_POINTER:
            if level < depth:  # a pruned region: uniform tags of its own class
                assert entry.child_tags == [classify(entry.probability_raw)] * 8
            continue
        inner += 1
        children = pe.memory.read_row(entry.pointer)
        for child, tag in zip(children, entry.child_tags):
            if child is None:
                assert tag == ChildStatus.UNKNOWN
            elif child.pointer != NULL_POINTER:
                assert tag == ChildStatus.INNER
            else:
                assert tag == classify(child.probability_raw)
        present = [child for child in children if child is not None]
        assert entry.probability_raw == max(child.probability_raw for child in present)
        pending.extend((child, level + 1) for child in present)
    assert reachable == pe.nodes_stored() == sum(sum(bank.valid) for bank in pe.memory.banks)
    assert inner == pe.allocator.rows_in_use


def check_stream(depth: int, stream: List[Update]) -> OMUAccelerator:
    config = small_config(depth)
    by_columns, by_requests = OMUAccelerator(config), OMUAccelerator(config)
    assert apply_in_batches(by_columns, stream, True) == apply_in_batches(by_requests, stream, False)
    assert by_columns.statistics() == by_requests.statistics()
    assert by_columns.counters() == by_requests.counters()
    for left, right in zip(by_columns.pes, by_requests.pes):
        assert left.stats == right.stats

    reference = OccupancyOcTree(
        config.resolution_m, tree_depth=depth, params=config.quantized_params().as_float_params()
    )
    for x, y, z, occupied in stream:
        reference.update_node(OcTreeKey(x, y, z), occupied=occupied)
    reference.prune()
    report = compare_trees(reference, by_columns.export_octree(), config.fixed_point.scale / 2)
    assert report.equivalent, report.summary()

    for pe in by_columns.pes:
        check_image(pe)
    return by_columns


def _block(occupied: bool, repeats: int = 1) -> List[Update]:
    return [
        (x, y, z, occupied) for _ in range(repeats) for x in (0, 1) for y in (0, 1) for z in (0, 1)
    ]


@given(update_streams())
# A pruned block whose re-expansion leaves its parent's tags and value as they
# were: the upward pass must still walk on, the parent turned from leaf to inner.
@example((3, [(0, 0, 0, False)] * 15 + _block(False, 5) + _block(True) + [(0, 0, 0, False)]))
@settings(max_examples=40, deadline=None)
def test_fused_kernels_match_sequential_octomap_and_keep_the_image_consistent(case):
    check_stream(*case)


def test_a_stream_that_saturates_prunes_expands_and_reuses_rows():
    """The same checks on a stream known to take every branch of the kernel."""
    block = [(2 + dx, 4 + dy, 6 + dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    other = [(4 + dx, 4 + dy, 6 + dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    stream: List[Update] = []
    for occupied in (True, False, True):
        for _ in range(20):  # saturate the block (prune), then flip it (expand, re-prune)
            stream.extend((x, y, z, occupied) for x, y, z in block)
        stream.extend((x, y, z, True) for x, y, z in other)  # fresh rows between the flips
    accelerator = check_stream(4, stream)
    counters = accelerator.counters()
    assert counters.prunes >= 3 and counters.expansions >= 2
    assert sum(pe.allocator.reused_allocations for pe in accelerator.pes) >= 1


def test_updates_to_one_voxel_in_one_batch_apply_in_stream_order():
    """The clamped add does not commute once a value saturates."""
    config = small_config(4)
    params = config.quantized_params()
    key = np.array([[5, 9, 3]])
    hits_then_miss = [True] * 8 + [False]
    finals = []
    for flags in (hits_then_miss, hits_then_miss[::-1]):
        accelerator = OMUAccelerator(config)
        accelerator.apply_update_batch(np.repeat(key, len(flags), axis=0), np.array(flags))
        pe = accelerator.pes[accelerator.address_generator.pe_for_key(OcTreeKey(5, 9, 3))]
        finals.append(pe.query_voxel(OcTreeKey(5, 9, 3))[1])
    assert finals == [params.raw_clamp_max + params.raw_miss, params.raw_clamp_max]
