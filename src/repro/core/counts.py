"""The accelerator's counters: one ``int64`` array that the kernels' raw tallies add up in.

Every count the model reports -- the cycles of Tables III-V, the stage split
of Fig. 10, the SRAM accesses of the energy model -- is a sum of what the PE
kernels tally per call, and an :class:`~repro.core.accelerator.OMUAccelerator`
keeps those sums, and nothing else, in one array: first
:data:`ACCELERATOR_WORDS` of its own (the map timing -- a ``ScanTiming``'s
five counts, then its four stages, which follow each call's busiest PE and
so are no sum of PE words -- the scans, the ray-cast steps, and the queries
served with their cycles); then :data:`PE_WORDS` per PE: the update tally
words but the two error words (:data:`KEPT`), the read tally words (from
:data:`QUERY`) and the decoded reads per bank (from :data:`DECODED`).

A kernel call tallies into a zeroed scratch block that one ``+=`` adds to the
array.  Every other count is a view, linear in a PE's words (or a stack of
them): cycles are the words times :func:`costs`, SRAM accesses the sums below.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core import native
from repro.core.config import TimingParams
from repro.octomap.counters import OperationCounters

__all__ = ["ACCELERATOR_WORDS", "PE_WORDS", "costs", "fold_updates", "bank_reads", "bank_writes", "operation_counters"]

# -- the accelerator's words --------------------------------------------------
#: The map timing: ScanTiming's five counts, then (from MAP_STAGES) its breakdown's four stages.
MAP_STAGES, MAP_WORDS = 5, 9
SCANS, RAY_STEPS, QUERIES_SERVED, QUERY_CYCLES = range(MAP_WORDS, MAP_WORDS + 4)
ACCELERATOR_WORDS = MAP_WORDS + 4

# -- one PE's words -------------------------------------------------------------
#: The update tally words a PE keeps, in the kernel's order: all but the two error words.
KEPT = (*range(native.T_ERROR_ROW), *range(native.T_WRITES, native.TALLY_WORDS))
ISSUED, DONE, NEW_NODES, ALLOCATIONS, EXPANSIONS, PRUNES, ROW_READS, ROW_WRITES = range(native.T_ERROR_ROW)
WRITES, OCCUPIED, PATH_NODES = map(KEPT.index, (native.T_WRITES, native.T_OCCUPIED, native.T_PATH_NODES))
QUERY = len(KEPT)
STARTED, ABSENT, KNOWN, READS = range(QUERY, QUERY + native.Q_READS + 1)
DECODED = QUERY + native.QUERY_TALLY_WORDS
PE_WORDS = DECODED + 8
_KEPT = np.array(KEPT)


@functools.lru_cache(maxsize=None)
def costs(timing: TimingParams, depth: int) -> np.ndarray:
    """``(PE_WORDS, 5)``: a unit of each PE word's cycles per stage (``OperationKind.ordered()``), then in reads.

    A completed update reads an entry per level, and pays an ALU pass and a
    write for its leaf and a row read, an ALU pass and a write for each of its
    ``depth - 1`` parents, plus the ALU pass of its prune check; a new node or
    a row allocation is one more write; an allocation or a prune one stack
    operation, an expansion or a prune one row write.  A read walk pays a bank
    read per entry it reads (one for a key under an absent branch) and an ALU
    pass per key answered free or occupied.
    """
    table = np.zeros((PE_WORDS, 5), dtype=np.int64)
    leaf, parents, prune, query = 1, 2, 3, 4
    table[DONE, leaf] = depth * timing.bank_read_cycles + timing.alu_cycles + timing.bank_write_cycles
    table[[NEW_NODES, ALLOCATIONS], leaf] = timing.bank_write_cycles
    table[DONE, parents] = (depth - 1) * (timing.row_read_cycles + timing.alu_cycles + timing.bank_write_cycles)
    table[DONE, prune] = (depth - 1) * timing.alu_cycles
    table[[ALLOCATIONS, PRUNES], prune] += timing.prune_stack_cycles
    table[[EXPANSIONS, PRUNES], prune] += timing.row_write_cycles
    table[[ABSENT, *range(READS, READS + 8)], query] = timing.bank_read_cycles
    table[KNOWN, query] = timing.alu_cycles
    table.flags.writeable = False
    return table


def fold_updates(words: np.ndarray, tally: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Add an update call's ``(P, TALLY_WORDS)`` tally to ``(P, PE_WORDS)`` words; returns its stage cycles."""
    call = tally.take(_KEPT, axis=1)
    words[:, :QUERY] += call
    return call @ table[:QUERY, :4]


def parents(words: np.ndarray) -> np.ndarray:
    """Children rows read on the way up: one per parent of each completed update."""
    return words[..., PATH_NODES : PATH_NODES + 8].sum(-1) - words[..., DONE]


def bank_reads(words: np.ndarray) -> np.ndarray:
    """``(..., 8)`` read accesses per bank: update paths, children rows, read walks and decoded reads."""
    path = words[..., PATH_NODES : PATH_NODES + 8]
    return path + parents(words)[..., None] + words[..., READS : READS + 8] + words[..., DECODED : DECODED + 8]


def bank_writes(words: np.ndarray) -> np.ndarray:
    """``(..., 8)`` write accesses per bank: update paths, and every entry the kernel stored or cleared."""
    return words[..., PATH_NODES : PATH_NODES + 8] + words[..., WRITES : WRITES + 8]


def operation_counters(words: np.ndarray) -> OperationCounters:
    """The operation counts of one PE's words, or of a sum of them (``pe_updates`` once an update was issued)."""
    w = words.tolist()
    checks = sum(w[PATH_NODES : PATH_NODES + 8]) - w[DONE]
    counters = OperationCounters(
        leaf_updates=w[DONE], parent_updates=checks - w[PRUNES], child_reads=8 * checks, prune_checks=checks,
        prunes=w[PRUNES], expansions=w[EXPANSIONS], node_allocations=w[NEW_NODES] + 8 * w[EXPANSIONS],
        node_deletions=8 * w[PRUNES], queries=w[STARTED],
    )
    if w[ISSUED]:
        counters.extra["pe_updates"] = w[DONE]
    return counters
