"""The native batch entry -- scheduler and every PE in one call -- against its oracle.

``OMUAccelerator.apply_update_batch`` hands the whole stream to one C call
that derives each key's path and PE and runs the PEs in order.  The oracle
is the same stream the long way round: ``oracle_pe.paths_for_keys``, a stable
split by PE, then ``oracle_pe.update_paths`` on each PE in turn
(``oracle_pe.use_oracle``).  Both must leave byte-equal PE images, prune
stacks and allocator words, equal timing statistics, operation counters and
bank access counts, the same scheduler load histogram, and return equal
``ScanTiming`` -- for one PE, three (several branches per PE) and eight, on
shallow trees and at the full depth of 16, across image growth in several
PEs of one call and a capacity failure in a PE between others.

Guards that must hold whatever runs the loop: a key component outside 16
bits is refused before anything is applied (never wrapped onto another
voxel), a bank array that grows between two batches, outside the kernel, is
pinned again before the next one, and the entry refuses buffers the kernel
cannot index.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OMUAccelerator, OMUConfig, counts, native
from repro.core.pe import apply_keys
from repro.core.treemem import INITIAL_ROWS, NULL_POINTER, MemoryCapacityError
from repro.serving.sharding import MapShardWorker
from repro.serving.types import ShardUpdateBatch
from test_fused_kernel_properties import machine_state

import oracle_pe

Update = Tuple[int, int, int, bool]


def config_for(depth: int, num_pes: int, bank_kilobytes: int = 8) -> OMUConfig:
    return OMUConfig(resolution_m=0.2, tree_depth=depth, num_pes=num_pes, bank_kilobytes=bank_kilobytes)


def accelerator_state(accelerator: OMUAccelerator) -> dict:
    return {
        "pes": [(machine_state(pe), pe.host_row_reads) for pe in accelerator.pes],
        "load": tuple(accelerator.scheduler.per_pe_issued),
        "issued": accelerator.scheduler.issued_updates,
        "map_timing": accelerator.map_timing,
        "statistics": accelerator.statistics(),
        "counters": accelerator.counters(),
        "words": accelerator.image()["counters"].tolist(),
    }


def native_and_oracle(config: OMUConfig) -> Tuple[OMUAccelerator, OMUAccelerator]:
    native, oracle = OMUAccelerator(config), OMUAccelerator(config)
    oracle_pe.use_oracle(oracle)
    return native, oracle


def apply_both(pair, batches: List[List[Update]]) -> None:
    """Each batch as columns on both accelerators: equal timings, equal state after every batch."""
    native, oracle = pair
    for batch in batches:
        columns = np.array(batch, dtype=np.int64).reshape(-1, 4)
        keys, occupied = columns[:, :3].astype(np.uint16), columns[:, 3] != 0
        assert native.apply_update_batch(keys, occupied) == oracle.apply_update_batch(keys, occupied)
        assert accelerator_state(native) == accelerator_state(oracle)


@st.composite
def batched_streams(draw) -> Tuple[int, List[List[Update]]]:
    """Bursts on one voxel or one block, around the centre of the key space so every branch is hit.

    At depth ``d`` the key space is ``[0, 2**d)``; the voxels are drawn within
    four of its centre, which is where the eight first-level branches meet.
    """
    depth = draw(st.sampled_from([4, 16]))
    centre = 1 << (depth - 1)
    component = st.integers(min_value=centre - 4, max_value=centre + 3)
    bursts = draw(
        st.lists(
            st.tuples(component, component, component, st.booleans(), st.booleans(), st.integers(1, 12)),
            min_size=1,
            max_size=30,
        )
    )
    stream: List[Update] = []
    for kx, ky, kz, occupied, whole_block, repeats in bursts:
        voxels = [(kx, ky, kz)]
        if whole_block:
            cells = (0, 1)
            voxels = [((kx & ~1) + dx, (ky & ~1) + dy, (kz & ~1) + dz) for dx in cells for dy in cells for dz in cells]
        for _ in range(repeats):
            stream.extend((x, y, z, occupied) for x, y, z in voxels)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=3)))
    batches = [stream[start:end] for start, end in zip([0, *cuts], [*cuts, len(stream)])]
    return depth, batches


@given(batched_streams(), st.sampled_from([1, 3, 8]))
@settings(max_examples=40, deadline=None)
def test_the_batch_entry_matches_the_oracle(case, num_pes):
    depth, batches = case
    apply_both(native_and_oracle(config_for(depth, num_pes)), batches)


def scattered(count: int, low: Tuple[int, int, int], side: int, seed: int) -> List[Update]:
    rng = random.Random(seed)
    return [(*(corner + rng.randrange(side) for corner in low), rng.random() < 0.5) for _ in range(count)]


@pytest.mark.parametrize("num_pes", [3, 8])
def test_several_pes_outgrow_their_images_in_one_call(num_pes):
    """Every PE needs several doublings, each a stop and a reissue of the same call."""
    stream = scattered(1500, (0, 0, 0), 64, seed=30)
    pair = native_and_oracle(config_for(6, num_pes, bank_kilobytes=16))
    apply_both(pair, [stream])
    native = pair[0]
    assert sum(pe.memory.rows >= 4 * INITIAL_ROWS for pe in native.pes) >= 2


@pytest.mark.parametrize("num_pes", [3, 8])
def test_running_out_of_rows_in_a_middle_pe(num_pes):
    """PE 1 runs out of its 128 rows: PE 0 is applied and charged, PE 2 and on are untouched."""
    depth, side = 5, 16
    branch_0 = scattered(10, (0, 0, 0), side, seed=1) * 30
    branch_1 = scattered(900, (side, 0, 0), side, seed=2)  # x >= 16: first-level branch 1
    branch_2 = scattered(10, (0, side, 0), side, seed=3) * 30  # y >= 16: branch 2
    stream = branch_0 + branch_1 + branch_2
    random.Random(4).shuffle(stream)
    config = config_for(depth, num_pes, bank_kilobytes=1)
    native, oracle = native_and_oracle(config)
    warm_up = [(4, 20, 4, True)]  # branch 2: PE 2 holds state before the failing call
    apply_both((native, oracle), [warm_up])
    before = [machine_state(pe) for pe in native.pes]
    messages = []
    keys, occupied = _columns(stream)
    for accelerator in (native, oracle):
        with pytest.raises(MemoryCapacityError, match="all 128 rows are in use") as raised:
            accelerator.apply_update_batch(keys, occupied)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert accelerator_state(native) == accelerator_state(oracle)
    pe_0, pe_1, *later = native.pes
    assert pe_0.stats.voxel_updates == len(branch_0)
    assert 0 < pe_1.stats.voxel_updates < len(branch_1)
    # Issued, never run: the issued-update words are all that moved in them.
    untouched = [machine_state(pe) for pe in later]
    for state in untouched + before[2:]:
        del state["words"][counts.ISSUED]
    assert untouched == before[2:]
    assert native.scheduler.per_pe_issued[2] == len(warm_up) + len(branch_2)
    # The whole stream was issued; the failed call left no timing behind.
    assert native.scheduler.issued_updates == len(stream) + len(warm_up)
    assert native.map_timing.voxel_updates == len(warm_up)


# -- guards ---------------------------------------------------------------------
@pytest.mark.parametrize("bad", [65536, -1])
def test_a_key_outside_16_bits_is_refused_not_wrapped(bad):
    config = config_for(16, 8)
    accelerator = OMUAccelerator(config)
    keys = np.array([[5, 9, 3], [bad, 9, 3]], dtype=np.int64)
    with pytest.raises(ValueError, match="outside"):
        accelerator.apply_update_batch(keys, np.array([True, True]))
    assert accelerator.statistics().voxel_updates == accelerator.scheduler.issued_updates == 0
    assert not any(any(pe._local_roots) for pe in accelerator.pes)

    worker = MapShardWorker(0, config)
    with pytest.raises(ValueError, match="outside"):
        worker.apply_message(ShardUpdateBatch(0, keys, np.array([True, True])))
    assert (worker.generation, worker.batches_applied, worker.updates_applied) == (0, 0, 0)
    wrapped = np.array([[bad & 0xFFFF, 9, 3]])
    assert worker.accelerator.query_keys(wrapped)[0].tolist() == [0]  # unknown: nothing landed there


def test_columns_of_different_lengths_are_refused():
    accelerator = OMUAccelerator(config_for(4, 8))
    with pytest.raises(ValueError, match="keys but occupied flags"):
        accelerator.apply_update_batch(np.zeros((3, 3), dtype=np.uint16), np.array([True, False]))
    assert accelerator.scheduler.issued_updates == 0


def test_a_bank_grown_between_batches_is_pinned_again():
    """One bank grown to its last row, and written there, moves its buffers between two native calls."""
    pair = native_and_oracle(config_for(6, 3))
    apply_both(pair, [scattered(200, (0, 0, 0), 64, seed=7)])
    for accelerator in pair:
        memory = accelerator.pes[1].memory
        bank = memory.banks[5]
        bank.reserve(memory.entries_per_bank)
        with oracle_pe.tallying(bank) as tally:
            oracle_pe.store(tally, bank, memory.entries_per_bank - 1, NULL_POINTER, 0, 7)
        assert bank.rows == memory.entries_per_bank > memory.rows
    apply_both(pair, [scattered(400, (0, 0, 0), 64, seed=8)])


def test_a_restore_after_the_images_were_pinned_is_pinned_again():
    """An empty batch pins every PE; ``restore`` then grows the arrays the pins point into."""
    config = config_for(6, 8)
    source = OMUAccelerator(config)
    source.apply_update_batch(*_columns(scattered(2000, (0, 0, 0), 64, seed=9)))
    snapshot = source.image()
    native, oracle = native_and_oracle(config)
    for accelerator in (native, oracle):
        accelerator.apply_update_batch(np.zeros((0, 3), dtype=np.uint16), np.zeros(0, dtype=bool))
        accelerator.restore(snapshot)
    assert max(pe.memory.rows for pe in native.pes) > INITIAL_ROWS
    apply_both((native, oracle), [scattered(500, (0, 0, 0), 64, seed=10)])


def _columns(stream: List[Update]):
    columns = np.array(stream, dtype=np.int64)
    return columns[:, :3], columns[:, 3] != 0


def test_the_batch_entry_refuses_what_the_kernel_cannot_index():
    pes = OMUAccelerator(config_for(4, 8)).pes
    keys, flags = np.zeros((2, 3), dtype=np.uint16), np.zeros(2, dtype=bool)
    for bad_pes, bad_keys, bad_flags in [
        (pes * 2, keys, flags),  # more PEs than first-level branches
        (pes, keys.astype(np.int64), flags),
        (pes, keys[:, :2], flags),
        (pes, keys, flags.astype(np.uint8)),
        (pes, np.asfortranarray(keys), flags),
    ]:
        table = native.image_table([pe.pinned_image() for pe in bad_pes])
        with pytest.raises(ValueError):
            apply_keys(bad_pes, table, bad_keys, bad_flags, native.tallies(len(bad_pes)))
    assert all(pe.stats.voxel_updates == 0 and not any(pe._local_roots) for pe in pes)
