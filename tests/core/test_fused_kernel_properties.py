"""Properties of the array-backed PE kernels on shallow trees.

At ``tree_depth`` 3-5 a few hundred updates saturate leaves, prune blocks,
re-expand them and recycle their rows, so every branch of the fused update
loop (and its early exit on the way up) runs in each example.  The kernels
must build the map sequential software OctoMap builds, leave a consistent
SRAM image behind.

The update kernel resumes each descent below the prefix it shares with the
previous update of the same call.  A call of one update never resumes, so
"one call over N updates" against "N calls of one update" is the differential
that pins the resume: same SRAM bytes, same allocator, same statistics, in
whatever order the stream arrives.

On the way up the kernel derives each parent from the entry it stores and the
one child that changed, and reads the children row only to find a new maximum
or to confirm a prune.  ``check_ancestors`` recomputes every ancestor from its
row after each update, the golden image file pins the bytes, and the directed
streams at the bottom take each arm of that rule with a known number of row
reads.

The kernel is native (``pe_kernel.c``); ``oracle_pe.py`` is the same loop in
Python.  Every stream here also runs on the oracle, which must leave the same
SRAM bytes (stale words included), allocator stack, statistics, counters and
per-bank access counts -- on the way to a failure too, and across the calls
in which the image outgrows its arrays and the native kernel is issued again
for the rest of the stream.
"""

from __future__ import annotations

import functools
import math
import random
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import OMUAccelerator, OMUConfig, counts
from repro.core.pe import ProcessingElement
from repro.core.treemem import INITIAL_ROWS, NULL_POINTER, ChildStatus, MemoryCapacityError, TreeMemEntry
from repro.core.verification import compare_trees
from repro.octomap.keys import OcTreeKey
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.pointcloud import PointCloud
from repro.octomap.raycast_vec import compute_scan_update_arrays, unpack_key_array

import oracle_pe

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


def apply_in_batches(accelerator: OMUAccelerator, stream: List[Update]):
    timings = []
    for start in range(0, len(stream), BATCH):
        columns = np.array(stream[start : start + BATCH], dtype=np.int64)
        timings.append(accelerator.apply_update_batch(columns[:, :3], columns[:, 3] != 0))
    return timings


def classify(pe: ProcessingElement, raw: int) -> ChildStatus:
    """The tag of a leaf holding ``raw``."""
    return ChildStatus.OCCUPIED if raw > pe.params.raw_threshold else ChildStatus.FREE


def check_entry(pe: ProcessingElement, entry: TreeMemEntry, level: int) -> list:
    """One stored entry against its children row: the implied tag word and maximum."""
    if entry.pointer == NULL_POINTER:
        if level < pe.config.tree_depth:  # a pruned region: uniform tags of its own class
            assert entry.child_tags == [classify(pe, entry.probability_raw)] * 8
        return []
    children = [pe.memory.read_entry(entry.pointer, bank) for bank in range(8)]
    for child, tag in zip(children, entry.child_tags):
        if child is None:
            assert tag == ChildStatus.UNKNOWN
        elif child.pointer != NULL_POINTER:
            assert tag == ChildStatus.INNER
        else:
            assert tag == classify(pe, child.probability_raw)
    assert entry.probability_raw == max(
        child.probability_raw for child in children if child is not None
    )
    return children


def check_invariant(pe: ProcessingElement) -> None:
    """What the upward pass leans on: every inner entry equals ``read_children`` of its block."""
    for valid, pointers, tags, probabilities in zip(pe._valid, pe._pointers, pe._tags, pe._probabilities):
        for row, live in enumerate(valid):
            if live and pointers[row] != NULL_POINTER:
                word, values = oracle_pe.read_children(pe, pointers[row])
                assert (tags[row], probabilities[row]) == (word, max(values)), row


def check_image(pe: ProcessingElement) -> None:
    """Walk the PE's tree: tags match children, entries round-trip, nothing leaks."""
    check_invariant(pe)
    reachable = inner = 0
    pending = [(pe.memory.read_entry(0, bank), 1) for bank, live in enumerate(pe._local_roots) if live]
    while pending:
        entry, level = pending.pop()
        assert entry is not None
        reachable += 1
        present = [child for child in check_entry(pe, entry, level) if child is not None]
        inner += entry.pointer != NULL_POINTER
        pending.extend((child, level + 1) for child in present)
    assert reachable == pe.memory.occupied_entries() == sum(sum(bank.valid) for bank in pe.memory.banks)
    assert inner == pe.allocator.rows_in_use


def check_ancestors(pe: ProcessingElement, path: np.ndarray) -> None:
    """``check_entry`` on the only entries one update writes: the voxel's ancestors."""
    entry, level = pe.memory.read_entry(0, int(path[0])), 1
    while entry.pointer != NULL_POINTER:
        entry, level = check_entry(pe, entry, level)[int(path[level])], level + 1
    check_entry(pe, entry, level)


def check_stream(depth: int, stream: List[Update]) -> OMUAccelerator:
    config = small_config(depth)
    by_native, by_oracle = OMUAccelerator(config), OMUAccelerator(config)
    oracle_pe.use_oracle(by_oracle)
    assert apply_in_batches(by_native, stream) == apply_in_batches(by_oracle, stream)
    assert by_native.statistics() == by_oracle.statistics()
    assert by_native.counters() == by_oracle.counters()
    for native_pe, oracle in zip(by_native.pes, by_oracle.pes):
        assert machine_state(native_pe) == machine_state(oracle)

    reference = OccupancyOcTree(
        config.resolution_m, tree_depth=depth, params=config.quantized_params().as_float_params()
    )
    for x, y, z, occupied in stream:
        reference.update_node(OcTreeKey(x, y, z), occupied=occupied)
    reference.prune()
    report = compare_trees(reference, by_native.export_octree(), config.fixed_point.scale / 2)
    assert report.equivalent, report.summary()

    for pe in by_native.pes:
        check_image(pe)
    return by_native


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
        finals.append(int(accelerator.query_keys(key)[1][0]))
    assert finals == [params.raw_clamp_max + params.raw_miss, params.raw_clamp_max]


# -- one call over the stream == one call per update ---------------------------
def machine_state(pe: ProcessingElement) -> dict:
    """Everything an update can leave behind in a PE, stale SRAM words and stack words included."""
    banks, allocator = pe.memory.banks, pe.allocator
    return {
        "image": [
            (bytes(bank.valid), bank.pointers.tobytes(), bank.tags.tobytes(), bank.probabilities.tobytes())
            for bank in banks
        ],
        "accesses": [(bank.read_accesses, bank.write_accesses, bank.occupied_entries()) for bank in banks],
        "rows": (pe.memory.row_reads, pe.memory.row_writes),
        # next fresh row, stack depth, allocations (all, fresh, reused), frees, peak depth
        "allocator": (allocator.state.tolist(), allocator.stack.tobytes(), allocator.stacked.tobytes()),
        "roots": bytes(pe._local_roots),
        "words": pe._words.tolist(),
        "stats": pe.stats,
        "counters": pe.counters,
        "query_cycles": pe.query_cycles,
    }


def check_resumed_equals_cold(config, paths: np.ndarray, occupied: List[bool]) -> ProcessingElement:
    """Both PEs own every first-level branch, so any stream can be fed to them whole.

    The one-update calls never resume but do take the value-only exit on the
    way up, so that exit gets a reference of its own: a third PE on which,
    after *every* update, each ancestor of the voxel -- those above the level
    the upward pass stopped at included -- is recomputed from its children
    row (``check_entry``).  A pass that stopped too early fails at that
    update, not only if the stale entry survives to the end of the stream.
    (A third PE because the check reads through the counted SRAM ports.)
    A fourth takes the whole stream in one call of the Python oracle.
    """
    resumed, cold, walked, oracle = (ProcessingElement(0, config) for _ in range(4))
    charged = oracle_pe.kernel_update_paths(resumed, paths, occupied)
    assert oracle_pe.update_paths(oracle, paths, occupied) == charged
    assert machine_state(resumed) == machine_state(oracle)
    assert resumed.host_row_reads == oracle.host_row_reads
    for index, hit in enumerate(occupied):
        oracle_pe.kernel_update_paths(cold, paths[index : index + 1], [hit])
        oracle_pe.kernel_update_paths(walked, paths[index : index + 1], [hit])
        check_ancestors(walked, paths[index])
    assert machine_state(resumed) == machine_state(cold)
    assert charged == cold.stats.breakdown
    check_image(resumed)
    return resumed


def stream_columns(depth: int, stream: List[Update]):
    config = small_config(depth)
    columns = np.array(stream, dtype=np.int64)
    paths = oracle_pe.paths_for_keys(columns[:, :3], depth)
    return config, paths, (columns[:, 3] != 0).tolist()


@given(update_streams())
@settings(max_examples=40, deadline=None)
def test_one_call_over_a_stream_equals_one_call_per_update_in_any_order(case):
    """As drawn (bursts: duplicate-heavy), sorted (longest shared prefixes) and shuffled."""
    depth, stream = case
    shuffled = list(stream)
    random.Random(len(stream)).shuffle(shuffled)
    for ordered in (stream, sorted(stream), shuffled):
        check_resumed_equals_cold(*stream_columns(depth, ordered))


def _cube(side: int, occupied: bool, repeats: int) -> List[Update]:
    cells = range(side)
    return [(x, y, z, occupied) for _ in range(repeats) for x in cells for y in cells for z in cells]


# (1, 0, 0) flips free -> occupied under a parent whose max stays (0, 0, 0)'s:
# the upward pass stops there, after writing the new tag word.
TAG_FLIP = [(0, 0, 0, True)] * 3 + [(1, 0, 0, False), (1, 0, 0, True)]


@pytest.mark.parametrize(
    "stream, prunes, expansions",
    [
        # (i) Every round of misses ends with eight equal leaves: (1, 1, 1)
        # prunes the block at level 1, and the next update -- sharing two
        # levels, or all three for the closing hit -- must re-expand the
        # pruned leaf, not walk into the row the prune just freed.
        (_block(False, 5) + [(1, 1, 1, True)], 5, 5),
        # ... and with all 64 voxels of a branch, each round's last prune
        # cascades to the local root (8 + 1 prunes): resume from row 0, and
        # re-expand two levels.
        (_cube(4, False, 5) + [(3, 3, 3, True)], 45, 4 * 9 + 2),
        # (ii) Identical consecutive paths: nothing to descend.
        ([(5, 6, 3, True)] * 8 + [(5, 6, 3, False)] * 3, 0, 0),
        # (iii) A new first-level branch in the middle of the stream.
        ([(0, 0, 0, True), (1, 0, 0, True), (7, 7, 7, False), (1, 0, 0, True)], 0, 0),
        # (iv) A tag flip under an unchanged maximum (see TAG_FLIP).
        (TAG_FLIP, 0, 0),
    ],
)
def test_directed_streams_through_the_resumed_kernel(stream, prunes, expansions):
    check_stream(3, stream)
    pe = check_resumed_equals_cold(*stream_columns(3, stream))
    assert (pe.counters.prunes, pe.counters.expansions) == (prunes, expansions)


def test_a_tag_flip_under_an_unchanged_maximum_reaches_the_parent_entry():
    """Case (iv) read off the stored word: the value-only exit wrote the tag first."""
    pe = check_resumed_equals_cold(*stream_columns(3, TAG_FLIP))
    block = pe.memory.read_entry(pe.memory.read_entry(0, 0).pointer, 0)
    assert block.tag(0) == block.tag(1) == ChildStatus.OCCUPIED
    three_hits = 3 * pe.params.raw_hit
    assert block.probability_raw == three_hits == pe.memory.read_entry(0, 0).probability_raw


def test_a_depth_16_lidar_stream_applied_seven_times_over():
    """Ray-ordered free voxels then end points; repeats saturate, prune and re-expand."""
    config = OMUConfig(resolution_m=0.2)
    accelerator = OMUAccelerator(config)
    cloud = PointCloud(
        [
            (4.0 * math.cos(azimuth), 4.0 * math.sin(azimuth), height)
            for height in (-0.3, 0.0, 0.3)
            for azimuth in np.linspace(-math.pi, math.pi, 120, endpoint=False)
        ]
    )
    cast = compute_scan_update_arrays(accelerator.address_generator.converter, cloud.points, (0.05, 0.05, 0.05))
    keys = unpack_key_array(np.concatenate((cast.free_packed, cast.occupied_packed)))
    occupied = np.arange(len(keys)) >= cast.free_packed.size
    paths = oracle_pe.paths_for_keys(keys, config.tree_depth)
    pes = paths[:, 0] % config.num_pes
    mine = pes == np.bincount(pes).argmax()  # the busiest PE's queue
    pe = check_resumed_equals_cold(config, np.tile(paths[mine], (7, 1)), occupied[mine].tolist() * 7)
    assert pe.counters.prunes >= 1 and pe.counters.expansions >= 1


def test_the_path_register_does_not_outlive_the_call():
    """The image is tampered between two calls that walk the same path: the second must notice."""
    config, paths, occupied = stream_columns(4, [(5, 9, 3, True)] * 2)
    pe = ProcessingElement(0, config)
    oracle_pe.kernel_update_paths(pe, paths, occupied)
    with oracle_pe.tallying(pe) as tally:
        oracle_pe.clear_row(tally, pe.memory, pe.memory.read_entry(0, int(paths[0, 0])).pointer)
    with pytest.raises(RuntimeError, match="tag/memory mismatch"):
        oracle_pe.kernel_update_paths(pe, paths, occupied)


# -- the image outgrows its arrays inside a call; a call fails half way ----------
def scattered(depth: int, count: int, seed: int) -> List[Update]:
    rng = random.Random(seed)
    side = 1 << depth
    return [(*(rng.randrange(side) for _ in range(3)), rng.random() < 0.5) for _ in range(count)]


@pytest.mark.parametrize("order", ["drawn", "sorted"])
def test_one_call_that_outgrows_the_image_several_times(order):
    """Hundreds of fresh rows in one call: the kernel stops before each doubling and is issued again."""
    stream = scattered(5, 300, seed=26)
    if order == "sorted":
        stream.sort()
    pe = check_resumed_equals_cold(*stream_columns(5, stream))
    assert pe.memory.rows >= 8 * INITIAL_ROWS  # three doublings or more, in the one call
    assert pe.memory.rows <= pe.config.entries_per_bank


def check_failure_matches_oracle(config, stream, error, match, prefix=None, tamper=lambda pe: None):
    """``prefix``, ``tamper``, then ``stream`` in one call that fails, natively and on the oracle.

    Both must raise ``error`` with the same message (matching ``match``),
    having applied and charged the same updates before it and left the same
    partial image.  Returns the native PE.
    """
    native, oracle = ProcessingElement(0, config), ProcessingElement(0, config)
    failures = []
    for pe, update in (
        (native, functools.partial(oracle_pe.kernel_update_paths, native)),
        (oracle, functools.partial(oracle_pe.update_paths, oracle)),
    ):
        if prefix is not None:
            update(*prefix)
        tamper(pe)
        with pytest.raises(error, match=match) as raised:
            update(*stream)
        failures.append((type(raised.value), str(raised.value)))
    assert failures[0] == failures[1]
    assert machine_state(native) == machine_state(oracle)
    assert native.host_row_reads == oracle.host_row_reads
    return native


def test_capacity_exhaustion_mid_call_matches_the_oracle():
    config = OMUConfig(resolution_m=0.2, tree_depth=5, bank_kilobytes=1)  # 128 rows
    stream = scattered(5, 300, seed=3)
    _, paths, occupied = stream_columns(5, stream)
    pe = check_failure_matches_oracle(config, (paths, occupied), MemoryCapacityError, "all 128 rows are in use")
    assert 0 < pe.stats.voxel_updates < len(stream)
    assert pe.memory.rows == pe.allocator.num_rows == 128  # grown to the cap on the way
    with pytest.raises(MemoryCapacityError):
        oracle_pe.kernel_update_paths(pe, paths, occupied)


def test_a_tampered_tag_matches_the_oracle():
    """The local root is made to list child 7, which its bank does not hold; (4, 4, 4) walks into it."""
    stream = _block(True, 2) + [(4, 4, 4, False), (1, 1, 1, False)]
    config, paths, occupied = stream_columns(4, stream)

    def list_child_7(pe):
        pe._tags[0][0] |= ChildStatus.FREE << 14

    prefix = (paths[:8], occupied[:8])
    pe = check_failure_matches_oracle(
        config, (paths[8:], occupied[8:]), RuntimeError, "tag/memory mismatch at row 1 bank 7", prefix, list_child_7
    )
    assert pe.stats.voxel_updates == 8 + 8  # the second round of the block, then the mismatch
    assert pe.counters.leaf_updates == 16


def test_a_childless_parent_matches_the_oracle():
    """A node pointing at its own row: its prune empties the row its parent then reads.

    Row 1 holds the local root's eight children, all free leaves at the
    clamp, and the one in bank 1 also points back at row 1 as its own
    children block, listing all eight as free.  A miss at (2, 1, 0) -- path
    0, 1, 2 -- descends 0 -> row 1 bank 1 -> row 1 bank 2, prunes row 1 under
    bank 1's node, and the root, now seeing eight free leaves, reads the row
    it points at: empty.
    """
    config, paths, occupied = stream_columns(3, [(7, 7, 7, True), (2, 1, 0, False)])
    floor = config.quantized_params().raw_clamp_min

    def cyclic_image(pe):
        row = oracle_pe.allocate_row(pe.allocator)
        free = 0x5555 * ChildStatus.FREE
        with oracle_pe.tallying(pe) as tally:
            inner_at_1 = free ^ (ChildStatus.FREE ^ ChildStatus.INNER) << 2
            oracle_pe.store(tally, pe.memory.banks[0], 0, row, inner_at_1, floor)
            pe._local_roots[0] = 1
            for bank in range(8):
                oracle_pe.store(tally, pe.memory.banks[bank], row, row if bank == 1 else NULL_POINTER, free, floor)

    pe = check_failure_matches_oracle(config, (paths, occupied), RuntimeError, "parent at row 1 has no children",
                                      tamper=cyclic_image)
    # One update completed; the failed one's prune is booked with it, as its events always were.
    assert pe.stats.voxel_updates == 1 and pe.counters.prunes == 1
    assert pe.allocator.stack[: pe.allocator.stack_depth].tolist() == [1]


def test_a_row_freed_twice_matches_the_oracle():
    """The block about to prune is pushed onto the prune stack while still live."""
    stream = _block(False, 4) + _block(False)[:7] + [(1, 1, 1, False)]
    config, paths, occupied = stream_columns(3, stream)

    def free_the_live_block(pe):
        level_1 = pe.memory.read_entry(pe.memory.read_entry(0, 0).pointer, 0)
        oracle_pe.free_row(pe.allocator, level_1.pointer)

    pe = check_failure_matches_oracle(
        config, (paths[-1:], occupied[-1:]), ValueError, "freed twice", (paths[:-1], occupied[:-1]), free_the_live_block
    )
    assert pe.stats.voxel_updates == len(stream) - 1


def test_a_pointer_past_the_image_is_a_mismatch_not_a_stray_write():
    """No row past the arrays' end was ever handed out: the kernel refuses to follow a pointer there.

    The tag is cleared too, so without the check the kernel would store the
    child there -- past the end of the bank's arrays.
    """
    config, paths, occupied = stream_columns(4, [(5, 9, 3, True)])
    pe = ProcessingElement(0, config)
    oracle_pe.kernel_update_paths(pe, paths, occupied)
    root, child, beyond = int(paths[0, 0]), int(paths[0, 1]), pe.memory.rows + 5
    pe._pointers[root][0] = beyond
    pe._tags[root][0] &= ~(0b11 << 2 * child)
    before = machine_state(pe)
    with pytest.raises(RuntimeError, match=f"tag/memory mismatch at row {beyond} bank {child}"):
        oracle_pe.kernel_update_paths(pe, paths, occupied)
    after = machine_state(pe)
    after["words"][counts.ISSUED] -= 1  # the update was issued, and nothing else counted
    assert after == before


# -- the upward pass: one directed stream per arm of the rule --------------------
def row_reads_of_the_last_update(stream: List[Update]) -> int:
    """Apply a depth-3 stream (checked against every reference) and count the closing update's row reads."""
    config, paths, occupied = stream_columns(3, stream)
    check_stream(3, stream)
    check_resumed_equals_cold(config, paths, occupied)
    pe = ProcessingElement(0, config)
    oracle_pe.kernel_update_paths(pe, paths[:-1], occupied[:-1])
    before = pe.host_row_reads
    oracle_pe.kernel_update_paths(pe, paths[-1:], occupied[-1:])
    check_image(pe)
    return pe.host_row_reads - before


# Depth 3: (0, 0, 0) and (1, 0, 0) are leaves of one block, (2, 0, 0) starts the
# block next to it under the same local root; an update climbs two parents.
# One hit and three misses leave a voxel at -377, above a single miss (-415).
@pytest.mark.parametrize(
    "stream, row_reads",
    [
        # The child rises to a new maximum, at both levels.
        ([(0, 0, 0, True)] * 2, 0),
        # The child stays under a maximum another child holds: the walk ends there.
        ([(0, 0, 0, True)] * 3 + [(1, 0, 0, True)] * 2, 0),
        # The child held the maximum and falls: its row, then the root's, say what is left.
        ([(0, 0, 0, True)] * 3 + [(1, 0, 0, True), (0, 0, 0, False)], 2),
        # A new child under an inner node whose maximum is below the zero the
        # child started from: not listed, so it never held that maximum.
        ([(0, 0, 0, True)] + [(0, 0, 0, False)] * 3 + [(1, 0, 0, False)], 0),
        # The first child of a fresh node: the node's own zero is not a maximum.
        ([(0, 0, 0, False), (2, 0, 0, False)], 0),
        # A clamped no-op on a pruned block: expanded, confirmed equal, pruned again.
        (_block(False, 5) + [(1, 1, 1, False)], 1),
        # Eight occupied leaves, the changed one above the rest: confirmed unequal.
        (_block(True) + [(0, 0, 0, True)], 1),
        # The last of eight to saturate held the maximum: one read finds the
        # new one and confirms the prune; the root's row answers for the root.
        (_block(False, 4) + _block(False)[:7] + [(1, 1, 1, False)], 2),
        # A tag flip under an unchanged maximum.
        (TAG_FLIP, 0),
    ],
)
def test_each_arm_of_the_upward_rule_reads_the_row_only_when_it_must(stream, row_reads):
    assert row_reads_of_the_last_update(stream) == row_reads


def restorable_state(pe: ProcessingElement) -> dict:
    """:func:`machine_state` less the stack words above its depth, which no kernel reads before writing."""
    state = machine_state(pe)
    state["allocator"] = (pe.allocator.state.tolist(), pe.allocator.stack[: pe.allocator.stack_depth].tolist(), pe.allocator.stacked.tobytes())
    return state


def test_a_restored_image_is_the_accelerator_it_was_taken_from():
    """image -> restore on a fresh accelerator, then updates on top of both: as if never restored."""
    depth, stream = 4, _cube(4, False, 5) + _block(True, 2) + [(9, 3, 5, True), (3, 3, 3, True)]
    original = check_stream(depth, stream)
    assert original.counters().prunes > 0 and any(pe.allocator.stack_depth for pe in original.pes)
    restored = OMUAccelerator(small_config(depth))
    restored.restore(original.image())
    assert [restorable_state(pe) for pe in restored.pes] == [restorable_state(pe) for pe in original.pes]
    # Falls, flips and re-prunes on top of the restored entries.
    more = _cube(4, True, 1) + _block(False, 6) + _cube(4, False, 9)
    assert apply_in_batches(original, more) == apply_in_batches(restored, more)
    assert (restored.statistics(), restored.counters()) == (original.statistics(), original.counters())
    assert [restorable_state(pe) for pe in restored.pes] == [restorable_state(pe) for pe in original.pes]
    for pe in restored.pes:
        check_image(pe)
