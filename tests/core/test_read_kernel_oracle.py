"""The native read kernel against its oracle, the Python walk of ``oracle_pe``.

Two accelerators take the same updates; then one serves reads through the
native entries (``VoxelQueryUnit.query_keys`` -> ``pe_query_batch``,
``query_key`` -> ``pe_query_key``) and the other the same reads through
``oracle_pe.query_keys`` / ``query_key`` (``np.unique`` split or same-PE
stretches over ``oracle_pe.query_paths``).  Reads and update batches
interleave, so a read also meets an image the last batch grew.  After every
read both must agree on codes (and their dtype), raws, cycles, each PE's
``counters.queries``, per-bank ``read_accesses``, ``stats.bank_reads`` and
``query_cycles``, the unit's ``queries_served`` and ``total_cycles``, and
the whole ``image()`` -- for 1 to 8 PEs, depths 4 to 16 and both stop modes.

A corrupt image must stop both sides at the same key with the same
``RuntimeError`` naming the PE, and leave the same counts behind: a tag whose
child is not valid (a dangling tag), and an inner entry's pointer at or past
the rows its bank arrays hold.

Every read count is a view of the accelerator's counter array, which a
snapshot copies: reads of every kind and a map export before the cut must
be counted alike on the restored accelerator and the one never stopped.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OMUAccelerator, OMUConfig
from repro.core.treemem import NULL_POINTER
from repro.octomap.keys import OcTreeKey
from test_fused_kernel_properties import machine_state, restorable_state

import oracle_pe

Key = Tuple[int, int, int]


def config_for(depth: int, num_pes: int) -> OMUConfig:
    return OMUConfig(resolution_m=0.2, tree_depth=depth, num_pes=num_pes, bank_kilobytes=8)


def state(accelerator: OMUAccelerator, pe_state=machine_state) -> dict:
    """Every count a read may move -- the raw counter words and every view of them -- and the image it reads."""
    unit = accelerator.query_unit
    image = accelerator.image()
    return {
        "unit": (unit.queries_served, unit.total_cycles),
        "pes": [pe_state(pe) for pe in accelerator.pes],
        "views": (accelerator.statistics(), accelerator.counters(), accelerator.map_timing),
        "counters": image["counters"].tolist(),
        "images": [
            {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in pe.items()}
            for pe in image["pes"]
        ],
    }


def outcome(read, *args):
    """What a read returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except (RuntimeError, ValueError) as error:
        return type(error), str(error)


def same_answers(native, oracle) -> None:
    if isinstance(native, tuple) and isinstance(native[0], np.ndarray):
        (codes, raws, cycles), (want_codes, want_raws, want_cycles) = native, oracle
        assert codes.dtype == want_codes.dtype == np.uint8 and raws.dtype == want_raws.dtype == np.int16
        assert (codes.tolist(), raws.tolist(), cycles) == (want_codes.tolist(), want_raws.tolist(), want_cycles)
    else:
        assert native == oracle


def read_both(pair, keys: List[Key], stop_at_occupied: bool) -> None:
    """One bulk read, then each key as a point read, on both sides: equal answers and state."""
    native, oracle = pair
    columns = np.array(keys, dtype=np.uint16).reshape(-1, 3)
    same_answers(
        outcome(native.query_unit.query_keys, columns, stop_at_occupied),
        outcome(oracle_pe.query_keys, oracle.query_unit, columns, stop_at_occupied),
    )
    assert state(native) == state(oracle)
    for key in map(OcTreeKey, *zip(*keys)) if keys else ():
        same_answers(outcome(native.query_unit.query_key, key), outcome(oracle_pe.query_key, oracle.query_unit, key))
    assert state(native) == state(oracle)


@st.composite
def sessions(draw):
    """A map near the centre of the key space (every first-level branch), then reads between batches.

    The reads draw written voxels, their block mates, voxels anywhere and the
    corners of the key space: leaves, pruned regions, unknown children and
    branches no PE stored.
    """
    depth = draw(st.integers(min_value=4, max_value=16))
    num_pes = draw(st.integers(min_value=1, max_value=8))
    centre = 1 << (depth - 1)
    near = st.integers(min_value=centre - 6, max_value=centre + 5)
    anywhere = st.integers(min_value=0, max_value=(1 << depth) - 1)
    bursts = draw(
        st.lists(st.tuples(near, near, near, st.booleans(), st.booleans(), st.integers(1, 12)), min_size=1, max_size=24)
    )
    stream = []
    for kx, ky, kz, occupied, whole_block, repeats in bursts:
        voxels = [(kx, ky, kz)]
        if whole_block:
            voxels = [((kx & ~1) + dx, (ky & ~1) + dy, (kz & ~1) + dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
        stream += [(x, y, z, occupied) for _ in range(repeats) for x, y, z in voxels]
    written = st.sampled_from([update[:3] for update in stream])
    mate = written.map(lambda key: tuple(component ^ 1 for component in key))
    corner = st.tuples(*[st.sampled_from([0, (1 << depth) - 1])] * 3)
    key = st.one_of(written, mate, st.tuples(anywhere, anywhere, anywhere), st.tuples(near, near, near), corner)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), min_size=1, max_size=3)))
    batches = [stream[start:end] for start, end in zip([0, *cuts], [*cuts, len(stream)])]
    reads = [(draw(st.lists(key, max_size=40)), draw(st.booleans())) for _ in batches]
    return config_for(depth, num_pes), batches, reads


def apply_both(pair, batch) -> None:
    columns = np.array(batch, dtype=np.int64).reshape(-1, 4)
    for accelerator in pair:
        accelerator.apply_update_batch(columns[:, :3], columns[:, 3] != 0)


@given(sessions())
@settings(max_examples=60, deadline=None)
def test_the_read_kernel_matches_the_oracle(case):
    config, batches, reads = case
    pair = OMUAccelerator(config), OMUAccelerator(config)
    for batch, (keys, stop_at_occupied) in zip(batches, reads):
        apply_both(pair, batch)
        read_both(pair, keys, stop_at_occupied)


@given(sessions())
@settings(max_examples=30, deadline=None)
def test_read_and_export_counts_survive_a_restore(case):
    """Point, bulk and stopping reads and an export, then a snapshot cut: the restored pair reads on
    as the pair that never stopped, native against oracle on both sides."""
    config, batches, reads = case
    pair = OMUAccelerator(config), OMUAccelerator(config)
    for batch, (keys, stop_at_occupied) in zip(batches, reads):
        apply_both(pair, batch)
        read_both(pair, keys, stop_at_occupied)
        read_both(pair, keys, not stop_at_occupied)
    for accelerator in pair:
        accelerator.export_octree()
    assert state(pair[0]) == state(pair[1])
    restored = OMUAccelerator(config), OMUAccelerator(config)
    for fresh, accelerator in zip(restored, pair):
        fresh.restore(accelerator.image())
    assert state(restored[0], restorable_state) == state(pair[0], restorable_state)
    for keys, stop_at_occupied in reads:
        read_both(pair, keys, stop_at_occupied)
        read_both(restored, keys, stop_at_occupied)
    for accelerator in (*pair, *restored):
        accelerator.export_octree()
    assert state(restored[0], restorable_state) == state(pair[0], restorable_state)


def inner_entries(pe) -> List[Tuple[int, int, int]]:
    """``(bank, row, child)`` of every valid inner entry and each child its tag lists."""
    found = []
    for bank in range(8):
        for row, (live, pointer) in enumerate(zip(pe._valid[bank], pe._pointers[bank])):
            if live and pointer != NULL_POINTER:
                found += [(bank, row, child) for child in range(8) if (pe._tags[bank][row] >> (2 * child)) & 3]
    return found


def corrupt(pe, bank: int, row: int, child: int, how: str, past: int) -> None:
    """A dangling tag (the child's entry no longer valid) or a pointer at or past the arrays' rows."""
    if how == "dangling":
        pe._valid[child][pe._pointers[bank][row]] = 0
    else:
        pe._pointers[bank][row] = min(pe.memory.rows + past, NULL_POINTER - 1)


@given(sessions(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_corrupt_image_stops_both_sides_alike(case, data):
    """Each side is corrupted the same way, then read: the same answers up to the same ``RuntimeError``."""
    config, batches, reads = case
    pair = OMUAccelerator(config), OMUAccelerator(config)
    for batch in batches:
        apply_both(pair, batch)
    candidates = [(index, entry) for index, pe in enumerate(pair[0].pes) for entry in inner_entries(pe)]
    if candidates:
        index, (bank, row, child) = data.draw(st.sampled_from(candidates), label="entry")
        how = data.draw(st.sampled_from(["dangling", "pointer"]), label="how")
        past = data.draw(st.sampled_from([0, 1, 1 << 20, 1 << 32]), label="past")
        for accelerator in pair:
            corrupt(accelerator.pes[index], bank, row, child, how, past)
    for keys, stop_at_occupied in reads:
        read_both(pair, keys, stop_at_occupied)


def loaded_pair(num_pes: int) -> Tuple[OMUAccelerator, OMUAccelerator]:
    """One voxel in each first-level branch of a depth-4 tree, hit three times."""
    pair = OMUAccelerator(config_for(4, num_pes)), OMUAccelerator(config_for(4, num_pes))
    keys = [(x, y, z) for x in (6, 9) for y in (6, 9) for z in (6, 9)]
    apply_both(pair, [(*key, True) for key in keys] * 3)
    return pair


@pytest.mark.parametrize("how", ["dangling", "pointer"])
def test_a_corrupt_pe_books_the_pes_before_it_and_no_other(how):
    """Without a stop the PEs read in ``pe_id`` order: a stream whose first key is in the last
    PE reaches the corrupt PE 1 only after PE 0, and PE 2 never."""
    native, oracle = loaded_pair(3)
    keys = [(9, 6, 9), (6, 6, 6), (9, 6, 6), (6, 9, 9)]  # PEs 2, 0, 1, 0
    child = OcTreeKey(9, 6, 6).path(4)[1]
    for accelerator in native, oracle:
        corrupt(accelerator.pes[1], 1, 0, child, how, past=0)  # the root of branch 1
    read_both((native, oracle), keys, stop_at_occupied=False)
    # The bulk read, then one point read per key.
    assert [pe.counters.queries for pe in native.pes] == [2 + 2, 1 + 1, 0 + 1]
    with pytest.raises(RuntimeError, match="PE 1: dangling tag during query"):
        native.query_keys(np.array(keys))


def test_a_stopping_read_ends_after_its_first_occupied_key():
    native, oracle = loaded_pair(8)
    keys = [(0, 0, 0), (6, 6, 6), (9, 9, 9), (6, 9, 6)]  # unknown, then three occupied
    read_both((native, oracle), keys, stop_at_occupied=True)
    codes, raws, _ = native.query_keys(np.array(keys), stop_at_occupied=True)
    assert codes.tolist() == [0, 2] and raws[0] == 0 and raws[1] > 0
    # Two keys for each stopping read, and one point read per key.
    assert native.query_unit.queries_served == 2 + len(keys) + 2
