"""The accelerator's counter array: its cost table, its fold and its views.

Every modelled count is a view of one ``int64`` array per accelerator
(``repro.core.counts``).  The cycles are the raw tally words times a cost
table; here the table is held to the closed-form charges of the PE model --
a completed update reads ``depth`` entries down and one children row per
parent up, and each event costs its primitive -- with pairwise-distinct
primitive costs, so a coefficient on the wrong word cannot hide.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OMUAccelerator, OMUConfig, counts, native
from repro.core.config import TimingParams
from test_golden_pe_stats import DISTINCT_TIMING


def closed_form(words, timing: TimingParams, depth: int):
    """Each stage's cycles and the read cycles of one PE's words, primitive by primitive."""
    done, new_nodes, allocations = words[counts.DONE], words[counts.NEW_NODES], words[counts.ALLOCATIONS]
    expansions, prunes = words[counts.EXPANSIONS], words[counts.PRUNES]
    parents = done * (depth - 1)
    leaf = done * (depth * timing.bank_read_cycles + timing.alu_cycles + timing.bank_write_cycles)
    leaf += (new_nodes + allocations) * timing.bank_write_cycles
    up = parents * (timing.row_read_cycles + timing.alu_cycles + timing.bank_write_cycles)
    prune = parents * timing.alu_cycles + (allocations + prunes) * timing.prune_stack_cycles
    prune += (expansions + prunes) * timing.row_write_cycles
    reads = sum(words[counts.READS : counts.READS + 8]) + words[counts.ABSENT]
    query = reads * timing.bank_read_cycles + words[counts.KNOWN] * timing.alu_cycles
    return [0, leaf, up, prune, query]


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=counts.PE_WORDS, max_size=counts.PE_WORDS),
    st.integers(min_value=2, max_value=16),
    st.sampled_from([TimingParams(), DISTINCT_TIMING]),
)
@settings(max_examples=60, deadline=None)
def test_the_cost_table_is_the_closed_form_charge(words, depth, timing):
    priced = (np.array(words, dtype=np.int64) @ counts.costs(timing, depth)).tolist()
    assert priced == closed_form(words, timing, depth)


def test_a_fold_adds_every_update_word_but_the_two_error_words():
    tally = native.tallies(2)
    tally[:] = np.arange(2 * native.TALLY_WORDS).reshape(tally.shape) + 1
    words = np.zeros((2, counts.PE_WORDS), dtype=np.int64)
    stages = counts.fold_updates(words, tally, counts.costs(DISTINCT_TIMING, 5))
    kept = [word for word in range(native.TALLY_WORDS) if word not in (native.T_ERROR_ROW, native.T_ERROR_BANK)]
    assert words[:, : counts.QUERY].tolist() == tally[:, kept].tolist()
    assert not words[:, counts.QUERY :].any()
    assert stages.tolist() == [closed_form(row, DISTINCT_TIMING, 5)[:4] for row in words.tolist()]


def test_every_count_is_a_sum_of_the_raw_words():
    """After updates, reads and an export, each view agrees with every other view of the same words."""
    accelerator = OMUAccelerator(OMUConfig(resolution_m=0.2, tree_depth=6, num_pes=3, timing=DISTINCT_TIMING))
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 64, size=(600, 3))
    accelerator.apply_update_batch(keys, rng.random(600) < 0.5)
    accelerator.query_keys(keys[::7])
    accelerator.query_keys(keys[::5], stop_at_occupied=True)
    accelerator.export_octree()
    words = accelerator.image()["counters"][counts.ACCELERATOR_WORDS :].reshape(3, counts.PE_WORDS)
    statistics, pes = accelerator.statistics(), accelerator.pes
    assert statistics.sram_reads == sum(bank.read_accesses for pe in pes for bank in pe.memory.banks)
    assert statistics.sram_writes == sum(pe.memory.total_writes() for pe in pes)
    assert statistics.nodes_stored == sum(int(np.count_nonzero(bank.valid)) for pe in pes for bank in pe.memory.banks)
    assert accelerator.scheduler.per_pe_issued == words[:, counts.ISSUED].tolist()
    assert accelerator.map_timing.voxel_updates == sum(pe.stats.voxel_updates for pe in pes) == 600
    assert statistics.per_pe_cycles == {pe.pe_id: pe.stats.busy_cycles() for pe in pes}
    assert accelerator.counters().queries == sum(pe.counters.queries for pe in pes) > 0
    assert [pe.query_cycles for pe in pes] == [closed_form(row, DISTINCT_TIMING, 6)[4] for row in words.tolist()]
