"""The PE update kernel in Python: the differential oracle of ``pe_kernel.c``.

:func:`update_paths` is the loop the native kernel runs for one PE, written
over the same state -- the bank arrays, the prune address manager, the
local-root flags -- through the Python APIs that own it
(:meth:`TreeMemBank.store`, :meth:`BankedTreeMemory.clear_row`,
:meth:`PruneAddressManager.allocate_row` / ``free_row``), so every count the
native kernel tallies and hands back is counted here where it happens.  It
grows the image by the same rule (double before an update whose fresh rows
could pass the arrays' end), raises what the native call raises, and charges
through the PE's own ``_charge``.  :func:`apply_keys` is the native batch
entry's scheduler in numpy: each key's path (``paths_for_keys``), a stable
split by PE, then :func:`update_paths` on each PE in order.  The suites hold
the two to byte-equal images, stacks, statistics, counters and access
counts, failures included.

Use it on a PE with ``oracle_pe.update_paths(pe, paths, occupied)``, or make
an accelerator run on it with :func:`use_oracle`.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

import numpy as np

from repro.core import accelerator as accelerator_module
from repro.core import native
from repro.core.address_gen import AddressGenerator
from repro.core.pe import ProcessingElement
from repro.core.timing import CycleBreakdown
from repro.core.treemem import NULL_POINTER, ChildStatus

# Tag words of a row whose eight children all classify alike, and the
# (occupied, free, inner) tag of each child shifted to its place in the word.
_ALL_OCCUPIED = 0x5555 * ChildStatus.OCCUPIED
_ALL_FREE = 0x5555 * ChildStatus.FREE
_CHILD_TAGS = tuple(
    tuple(int(status) << (2 * child) for status in (ChildStatus.OCCUPIED, ChildStatus.FREE, ChildStatus.INNER))
    for child in range(8)
)


def use_oracle(accelerator) -> None:
    """Make every update stream of ``accelerator`` run on :func:`apply_keys` instead of the native entry."""
    execute = accelerator._execute

    def on_the_oracle(*args):
        native_entry, accelerator_module.apply_keys = accelerator_module.apply_keys, apply_keys
        try:
            return execute(*args)
        finally:
            accelerator_module.apply_keys = native_entry

    accelerator._execute = on_the_oracle


def apply_keys(pes: Sequence[ProcessingElement], keys: np.ndarray, flags: np.ndarray, tally: array):
    """What ``repro.core.pe.apply_keys`` does, a PE at a time."""
    config = pes[0].config
    paths = AddressGenerator(config.resolution_m, config.tree_depth, len(pes)).paths_for_keys(keys)
    owners = paths[:, 0] % len(pes)
    tally[native.T_ISSUED :: native.TALLY_WORDS] = array("q", np.bincount(owners, minlength=len(pes)).tolist())
    breakdowns = []
    for index, pe in enumerate(pes):
        mine = owners == index
        breakdowns.append(update_paths(pe, paths[mine], flags[mine].tolist()))
    return breakdowns


def read_children(pe: ProcessingElement, block: int) -> Tuple[int, List[int]]:
    """One banked row read: the tag word the row implies and its valid children's values."""
    word = 0
    values = []
    threshold = pe.probability_unit.params.raw_threshold
    for bank, (occupied, free, inner) in zip(pe.memory.banks, _CHILD_TAGS):
        if bank.valid[block]:
            value = bank.probabilities[block]
            values.append(value)
            if bank.pointers[block] != NULL_POINTER:
                word |= inner
            elif value > threshold:
                word |= occupied
            else:
                word |= free
    if not values:
        raise RuntimeError(f"PE {pe.pe_id}: parent at row {block} has no children")
    return word, values


def update_paths(pe: ProcessingElement, paths: np.ndarray, occupied: Sequence[bool]) -> CycleBreakdown:
    """What ``pe.update_paths(paths, occupied)`` does, one Python statement at a time."""
    pe.host_row_reads = 0
    if not len(paths):
        return CycleBreakdown()
    banks = pe.memory.banks
    valid, pointers, tags, probabilities = pe._valid, pe._pointers, pe._tags, pe._probabilities
    params = pe.probability_unit.params
    raw_hit, raw_miss, threshold = params.raw_hit, params.raw_miss, params.raw_threshold
    clamp_min, clamp_max = params.raw_clamp_min, params.raw_clamp_max
    allocator = pe.allocator
    roots = pe._local_roots
    depth = pe.config.tree_depth
    ancestors = range(depth - 2, -1, -1)
    # shared[i]: how many leading levels update i's path has in common
    # with update i-1's (the first update of a call shares none).
    same = paths[1:] == paths[:-1]
    shared = [0]
    shared.extend(np.where(same.all(axis=1), depth, same.argmin(axis=1)).tolist())
    # The path register: rows[level] is the row holding the current
    # path's node at that level (its bank is path[level]), and the first
    # ``intact`` of them survived the previous update's prunes.
    rows: List[int] = []
    intact = 0
    new_nodes = allocations = expansions = prunes = done = row_reads = 0
    try:
        for path, hit, resume in zip(paths.tolist(), occupied, shared):
            # --- the image holds every fresh row this update could take ---
            while allocator.next_fresh_row + depth - 1 > pe.memory.rows and pe.memory.rows < allocator.num_rows:
                pe.memory.reserve(2 * pe.memory.rows)
            if resume > intact:
                resume = intact
            if resume:
                # --- resume below the prefix the last update walked -----
                del rows[resume:]
                bank, row = path[resume - 1], rows[-1]
            else:
                # --- locate (or create) the local root of this branch ---
                resume = 1
                bank, row = path[0], 0
                if not roots[bank]:
                    banks[bank].store(0, NULL_POINTER, 0, 0)
                    roots[bank] = 1
                    new_nodes += 1
                rows = [0]

            # --- walk down the key path, allocating / expanding ---------
            # From level ``grown`` down, the path's nodes were leaves
            # before this update gave them rows; every level above the
            # resume point still has the children it had a moment ago.
            grown = depth
            for child in path[resume:]:
                block = pointers[bank][row]
                if block == NULL_POINTER:
                    block = allocator.allocate_row()
                    allocations += 1
                    grown = min(grown, len(rows) - 1)
                    if tags[bank][row]:
                        # A pruned leaf covering a uniform region: the
                        # eight children are re-materialised with its value.
                        value = probabilities[bank][row]
                        uniform = _ALL_OCCUPIED if value > threshold else _ALL_FREE
                        for sibling in banks:
                            sibling.store(block, NULL_POINTER, uniform, value)
                        pe.memory.row_writes += 1
                        expansions += 1
                    else:
                        banks[child].store(block, NULL_POINTER, 0, 0)
                        new_nodes += 1
                    # Persist the parent's new pointer immediately; the
                    # upward pass rewrites the entry anyway but a
                    # partially-written tree must never be observable by
                    # queries issued between updates.
                    pointers[bank][row] = block
                    banks[bank].write_accesses += 1
                elif not (tags[bank][row] >> (child + child)) & 0b11:
                    banks[child].store(block, NULL_POINTER, 0, 0)
                    new_nodes += 1
                if not valid[child][block]:
                    # The tag said the child exists but the bank holds
                    # nothing: tags and memory image are out of sync.
                    raise RuntimeError(f"PE {pe.pe_id}: tag/memory mismatch at row {block} bank {child}")
                rows.append(block)
                bank, row = child, block

            # --- leaf update (paper eq. (2)): saturating add, clamped ---
            stored = probabilities[bank][row]
            value = stored + (raw_hit if hit else raw_miss)
            value = clamp_min if value < clamp_min else clamp_max if value > clamp_max else value
            probabilities[bank][row] = value

            # --- upward pass: parent update (eq. (3)) and pruning -------
            # Each parent follows from its stored entry and the one child
            # that changed: ``child_old -> child_new``, now tagged ``tag``
            # (an index into that child's occupied, free, inner tags; the
            # inner tag, 0b11, is also the mask of the child's two bits).
            intact = depth
            tag = 0 if value > threshold else 1
            for level in ancestors:
                child_tags, child_old, child_new = _CHILD_TAGS[bank], stored, value
                bank, row = path[level], rows[level]
                block = pointers[bank][row]
                word, stored = tags[bank][row], probabilities[bank][row]
                listed = word & child_tags[2]
                values = None
                # ``value`` stays the child's: the new maximum, or the
                # first child of a node this update created (no tags yet)
                # -- unless the child is below the stored maximum.
                if child_new < stored and word:
                    if child_old < stored or not listed:
                        value = stored  # another child holds it and keeps it
                    else:
                        # The child held it and fell: the row says who does now.
                        row_reads += 1
                        values = read_children(pe, block)[1]
                        value = max(values)
                word = word ^ listed | child_tags[tag]
                tags[bank][row] = word
                if child_new == value and (word == _ALL_OCCUPIED or word == _ALL_FREE):
                    # Eight leaves of one class, the changed one at the
                    # maximum: the row says whether all are equal.
                    if values is None:
                        row_reads += 1
                        values = read_children(pe, block)[1]
                    if len(values) == 8 and min(values) == value:
                        pe.memory.clear_row(block)
                        allocator.free_row(block)
                        pointers[bank][row] = NULL_POINTER
                        prunes += 1
                        intact = level + 1
                        probabilities[bank][row] = value
                        tag = 0 if value > threshold else 1
                        continue
                if level < grown and value == stored:
                    # This node was inner before the update and keeps its
                    # value (its tag word, which may be new, is written
                    # above).  Its parent's children row shows a child's
                    # pointer and value, never its tag word, so that row
                    # reads as it did: no ancestor changes, and none can
                    # prune over an inner child.  Their (fixed) accesses
                    # are charged unwalked.
                    break
                probabilities[bank][row] = value
                tag = 2
            done += 1
    finally:
        pe.host_row_reads = row_reads
        path_nodes = np.bincount(paths[:done].ravel(), minlength=8).tolist()
        charged = pe._charge(done, path_nodes, new_nodes, allocations, expansions, prunes)
    return charged
