"""The PE kernels in Python: the differential oracles of ``pe_kernel.c``.

:func:`walk_paths` is the loop the native kernel runs for one PE, written
over the same state -- the bank arrays, the prune address manager, the
local-root flags -- through the small write model below (:func:`store`,
:func:`clear_row`, :func:`allocate_row`, :func:`free_row`: the kernel's own
``store``, prune clear, ``allocate_row`` and ``free_row``, with the same
checks in the same order).  Every event is tallied where it happens, into
the kernel's own tally words (``native.T_*``) of the PE's block, so the
suites compare the raw words one for one.  It grows the image by the same
rule (double every PE's rows before an update whose fresh rows could pass
the arrays' end) and raises what the native call raises.  It walks
``memoryview`` views of the image's arrays (``BankedTreeMemory.field``),
whose items are Python ints as the kernel's are C ints, and takes them again
after each growth, which moves the arrays.  :func:`apply_keys` is the native
batch entry's scheduler in numpy: each key's path (:func:`paths_for_keys`),
a stable split by PE, then :func:`walk_paths` on each PE in order; the
accelerator adds its tally to the counter array as it adds the native
one's.  The suites hold the two to byte-equal images, stacks, counter words,
statistics, counters and access counts, failures included.

The read side likewise: :func:`query_paths` is the walk of the native
``query_walk`` over one PE's paths, tallying every read in the kernel's
read tally words (``native.Q_*``); :func:`query_keys` / :func:`query_key`
are what ``VoxelQueryUnit.query_keys`` / ``query_key`` do around it (per-PE
split, or stream-order stretches until the first occupied key), adding the
tallies to the counter words and pricing them (:func:`read_cycles`) on
their own.

Use it on a PE with ``oracle_pe.update_paths(pe, paths, occupied)``, or make
an accelerator run on it with :func:`use_oracle`.  :func:`kernel_update_paths`,
:func:`kernel_update_voxel` and :func:`kernel_query_voxel` run the *native*
kernels on one PE alone, the form the PE-level tests drive them in
(:func:`image_table` is the ``images`` argument for any list of PEs).  Writes
outside an update call (a test tampering with an image) are tallied in a
:func:`tallying` block.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import accelerator as accelerator_module
from repro.core import counts, native
from repro.core.pe import QUERY_STATUSES, ProcessingElement
from repro.core.pe import apply_keys as native_apply_keys
from repro.core.query_unit import QueryResult, VoxelQueryUnit
from repro.core.prune_manager import ALLOCATIONS, DEPTH, FREES, FRESH, NEXT_FRESH, PEAK, REUSED, PruneAddressManager
from repro.core.timing import CycleBreakdown
from repro.core.treemem import BANK_FIELDS, NULL_POINTER, BankedTreeMemory, ChildStatus, TreeMemBank
from repro.octomap.counters import OperationKind
from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import probability as logodds_to_probability

# Tag words of a row whose eight children all classify alike, and the
# (occupied, free, inner) tag of each child shifted to its place in the word.
_ALL_OCCUPIED = 0x5555 * ChildStatus.OCCUPIED
_ALL_FREE = 0x5555 * ChildStatus.FREE
_CHILD_TAGS = tuple(
    tuple(int(status) << (2 * child) for status in (ChildStatus.OCCUPIED, ChildStatus.FREE, ChildStatus.INNER))
    for child in range(8)
)


# -- the write model of the oracle (the kernel's is C) ---------------------------
def bank_fields(pe: ProcessingElement) -> Tuple[List[memoryview], ...]:
    """``(valid, pointers, tags, probabilities)`` of ``pe``, each ``field[bank][row]``; stale once the image grows."""
    return tuple(pe.memory.field(name) for name, _ in BANK_FIELDS)


def _store(tally, fields, bank: int, address: int, pointer: int, tags: int, probability_raw: int) -> None:
    """:func:`store` on :func:`bank_fields` views."""
    valid, pointers, tag_words, probabilities = fields
    tally[native.T_WRITES + bank] += 1
    tally[native.T_OCCUPIED + bank] += not valid[bank][address]
    valid[bank][address] = 1
    pointers[bank][address] = pointer
    tag_words[bank][address] = tags
    probabilities[bank][address] = probability_raw


def store(tally, bank: TreeMemBank, address: int, pointer: int, tags: int, probability_raw: int) -> None:
    """One write access given as raw field values, at an address below the bank's ``rows``.

    ``tally`` is the PE's update tally block, in the kernel's layout.
    """
    tally[native.T_WRITES + bank.bank_index] += 1
    tally[native.T_OCCUPIED + bank.bank_index] += not bank.valid[address]
    bank.valid[address] = 1
    bank.pointers[address] = pointer
    bank.tags[address] = tags
    bank.probabilities[address] = probability_raw


def clear_row(tally, memory: BankedTreeMemory, row: int) -> None:
    """Invalidate a whole row in one row write (a prune freeing its block)."""
    tally[native.T_ROW_WRITES] += 1
    for bank, valid in enumerate(memory.field("valid")):
        tally[native.T_WRITES + bank] += 1
        if row < memory.rows:
            tally[native.T_OCCUPIED + bank] -= valid[row]
            valid[row] = 0


@contextlib.contextmanager
def tallying(holder) -> Iterator[np.ndarray]:
    """A zeroed update tally block whose words are added to ``holder``'s counter words when the block ends.

    ``holder`` is a PE, its memory or one of its banks: the writes of a
    :func:`store` or :func:`clear_row` outside an update call count as the
    kernel's do.
    """
    tally = native.tallies(1)
    yield tally[0]
    holder._words[: counts.QUERY] += tally[0, list(counts.KEPT)]


def allocate_row(allocator: PruneAddressManager) -> int:
    """A free row, reusing pruned rows first; ``MemoryCapacityError`` when none is left."""
    state = allocator.state
    if state[DEPTH]:
        state[DEPTH] -= 1
        row = allocator.stack[state[DEPTH]]
        allocator.stacked[row] = 0
        state[REUSED] += 1
    else:
        row = state[NEXT_FRESH]
        if row >= allocator.num_rows:
            raise allocator.exhausted()
        state[NEXT_FRESH] = row + 1
        state[FRESH] += 1
    state[ALLOCATIONS] += 1
    return row


def free_row(allocator: PruneAddressManager, row: int) -> None:
    """Push a pruned children-block row onto the reuse stack (``free_error`` says why not)."""
    error = allocator.free_error(row)
    if error is not None:
        raise error
    state = allocator.state
    allocator.stack[state[DEPTH]] = row
    allocator.stacked[row] = 1
    state[DEPTH] += 1
    state[FREES] += 1
    state[PEAK] = max(state[PEAK], state[DEPTH])


# -- the native kernel on one PE ----------------------------------------------------
def on_one_pe(pe: ProcessingElement, run) -> CycleBreakdown:
    """``run(tally)`` an update call on ``pe`` alone, then add its tally to the PE's words, as an accelerator does.

    Returns the call's cycles by stage.
    """
    tally = native.tallies(1)
    try:
        run(tally)
    finally:
        stages = counts.fold_updates(pe._words[None], tally, pe._costs)
    return CycleBreakdown(dict(zip(OperationKind.ordered(), stages[0].tolist())))


def kernel_update_paths(pe: ProcessingElement, paths: np.ndarray, occupied: Sequence[bool]) -> CycleBreakdown:
    """``repro.core.pe.apply_keys`` with ``pe`` as the only PE, fed ``(N, tree_depth)`` paths.

    The paths go back to the keys they encode, and with one PE every key is its own.
    """
    depth = pe.config.tree_depth
    paths = np.asarray(paths, dtype=np.int64).reshape(-1, depth)
    # Bit a of child index l is bit depth-1-l of key component a.
    axes = (paths[:, None, :] >> np.arange(3)[:, None]) & 1
    keys = np.ascontiguousarray(axes @ (1 << np.arange(depth - 1, -1, -1)), dtype=np.uint16)
    flags = np.ascontiguousarray(occupied, dtype=np.bool_)
    table = image_table([pe])
    return on_one_pe(pe, lambda tally: native_apply_keys([pe], table, keys, flags, tally))


def image_table(pes: Sequence[ProcessingElement]) -> ctypes.Array:
    """The ``images`` argument of the batch entries for ``pes``: their kernel structs' addresses, in order."""
    return (ctypes.c_void_p * len(pes))(*(ctypes.addressof(pe.kernel_image) for pe in pes))


def kernel_update_voxel(pe: ProcessingElement, key: OcTreeKey, occupied: bool) -> int:
    """One update of ``key`` by the native kernel; returns the cycles it cost the PE."""
    return kernel_update_paths(pe, [key.path(pe.config.tree_depth)], [occupied]).total()


def kernel_query_voxel(pe: ProcessingElement, key: OcTreeKey) -> Tuple[str, Optional[int]]:
    """One read of ``key`` by the native kernel on ``pe``, counted: ``(status, raw)``, raw None where unknown."""
    tally = native.query_tallies(1)
    raw = ctypes.c_int16()
    code = native.query_key(pe.kernel_image, key.x, key.y, key.z, raw, tally.ctypes.data)
    pe._words[counts.QUERY : counts.DECODED] += tally[0]
    if code < 0:
        raise pe.query_failure()
    return QUERY_STATUSES[code], raw.value if code else None


# -- the oracle ------------------------------------------------------------------------
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


def apply_keys(pes: Sequence[ProcessingElement], table, keys: np.ndarray, flags: np.ndarray, tally: np.ndarray) -> None:
    """What ``repro.core.pe.apply_keys`` does, a PE at a time."""
    paths = paths_for_keys(keys, pes[0].config.tree_depth)
    owners = paths[:, 0] % len(pes)
    tally[:, native.T_ISSUED] = np.bincount(owners, minlength=len(pes))
    for index, pe in enumerate(pes):
        mine = owners == index
        walk_paths(pe, paths[mine], flags[mine].tolist(), tally[index])


def paths_for_keys(keys: np.ndarray, depth: int) -> np.ndarray:
    """``(N, depth)`` ``uint8`` child indices, root first, of ``(N, 3)`` keys: ``OcTreeKey.path`` row by row."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    if keys.size and not (0 <= keys.min() and keys.max() <= 0xFFFF):
        raise ValueError("key component outside [0, 65535]")
    axes = (keys[:, :, None] >> np.arange(depth - 1, -1, -1)) & 1
    return (axes[:, 0] | (axes[:, 1] << 1) | (axes[:, 2] << 2)).astype(np.uint8)


def read_children(pe: ProcessingElement, block: int) -> Tuple[int, List[int]]:
    """One banked row read: the tag word the row implies and its valid children's values."""
    return _read_children(pe, bank_fields(pe), block)


def _read_children(pe: ProcessingElement, fields, block: int) -> Tuple[int, List[int]]:
    """:func:`read_children` on :func:`bank_fields` views."""
    valid, pointers, _, probabilities = fields
    word = 0
    values = []
    threshold = pe.params.raw_threshold
    for bank, (occupied, free, inner) in enumerate(_CHILD_TAGS):
        if valid[bank][block]:
            value = probabilities[bank][block]
            values.append(value)
            if pointers[bank][block] != NULL_POINTER:
                word |= inner
            elif value > threshold:
                word |= occupied
            else:
                word |= free
    if not values:
        raise RuntimeError(f"PE {pe.pe_id}: parent at row {block} has no children")
    return word, values


def update_paths(pe: ProcessingElement, paths: np.ndarray, occupied: Sequence[bool]) -> CycleBreakdown:
    """:func:`kernel_update_paths` on the oracle: :func:`walk_paths` on ``pe`` alone, added to its words."""

    def run(tally):
        tally[0, native.T_ISSUED] = len(paths)
        walk_paths(pe, paths, occupied, tally[0])

    return on_one_pe(pe, run)


def walk_paths(pe: ProcessingElement, paths: np.ndarray, occupied: Sequence[bool], pe_tally: np.ndarray) -> None:
    """The native kernel's loop over one PE's updates, one Python statement at a time, tallied in ``pe_tally``."""
    if not len(paths):
        return
    tally = [0] * native.TALLY_WORDS
    fields = bank_fields(pe)
    valid, pointers, tags, probabilities = fields
    params = pe.params
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
    done = 0
    try:
        for path, hit, resume in zip(paths.tolist(), occupied, shared):
            # --- the image holds every fresh row this update could take ---
            while allocator.next_fresh_row + depth - 1 > pe.memory.rows and pe.memory.rows < allocator.num_rows:
                pe.memory.image.grow(2 * pe.memory.rows)  # every PE's rows, at once
                fields = bank_fields(pe)  # the arrays moved
                valid, pointers, tags, probabilities = fields
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
                    _store(tally, fields, bank, 0, NULL_POINTER, 0, 0)
                    roots[bank] = 1
                    tally[native.T_NEW_NODES] += 1
                rows = [0]

            # --- walk down the key path, allocating / expanding ---------
            # From level ``grown`` down, the path's nodes were leaves
            # before this update gave them rows; every level above the
            # resume point still has the children it had a moment ago.
            grown = depth
            for child in path[resume:]:
                block = pointers[bank][row]
                if block == NULL_POINTER:
                    block = allocate_row(allocator)
                    tally[native.T_ALLOCATIONS] += 1
                    grown = min(grown, len(rows) - 1)
                    if tags[bank][row]:
                        # A pruned leaf covering a uniform region: the
                        # eight children are re-materialised with its value.
                        value = probabilities[bank][row]
                        uniform = _ALL_OCCUPIED if value > threshold else _ALL_FREE
                        for sibling in range(8):
                            _store(tally, fields, sibling, block, NULL_POINTER, uniform, value)
                        tally[native.T_ROW_WRITES] += 1
                        tally[native.T_EXPANSIONS] += 1
                    else:
                        _store(tally, fields, child, block, NULL_POINTER, 0, 0)
                        tally[native.T_NEW_NODES] += 1
                    # Persist the parent's new pointer immediately; the
                    # upward pass rewrites the entry anyway but a
                    # partially-written tree must never be observable by
                    # queries issued between updates.
                    pointers[bank][row] = block
                    tally[native.T_WRITES + bank] += 1
                elif not (tags[bank][row] >> (child + child)) & 0b11:
                    _store(tally, fields, child, block, NULL_POINTER, 0, 0)
                    tally[native.T_NEW_NODES] += 1
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
                        tally[native.T_ROW_READS] += 1
                        values = _read_children(pe, fields, block)[1]
                        value = max(values)
                word = word ^ listed | child_tags[tag]
                tags[bank][row] = word
                if child_new == value and (word == _ALL_OCCUPIED or word == _ALL_FREE):
                    # Eight leaves of one class, the changed one at the
                    # maximum: the row says whether all are equal.
                    if values is None:
                        tally[native.T_ROW_READS] += 1
                        values = _read_children(pe, fields, block)[1]
                    if len(values) == 8 and min(values) == value:
                        clear_row(tally, pe.memory, block)
                        free_row(allocator, block)
                        pointers[bank][row] = NULL_POINTER
                        tally[native.T_PRUNES] += 1
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
        tally[native.T_DONE] = done
        tally[native.T_PATH_NODES : native.T_PATH_NODES + 8] = np.bincount(paths[:done].ravel(), minlength=8).tolist()
        pe_tally += tally


# -- the read oracle -------------------------------------------------------------------
def query_paths(
    pe: ProcessingElement, paths: Sequence[Sequence[int]], tally: np.ndarray, stop_at_occupied: bool = False
) -> Tuple[List[int], List[int]]:
    """The native ``query_walk`` over a stream of ``pe``'s paths, one Python statement at a time.

    ``paths`` holds one row of ``tree_depth`` child indices (plain ints) per
    voxel.  Returns ``(codes, raws)``: per voxel its index into
    ``QUERY_STATUSES`` and its fixed-point log-odds (0 where unknown).  With
    ``stop_at_occupied`` the stream ends after its first occupied voxel.
    The loop tallies the keys walked, absent and answered and the reads per
    bank, and adds them to ``tally``, the PE's read tally block, once at the
    end -- also when a corrupt image stops it half way.
    """
    valid, pointers, tags, probabilities = bank_fields(pe)
    roots = pe._local_roots
    threshold = pe.params.raw_threshold
    capacity = pe.memory.rows
    bank_reads = [0] * 8
    codes: List[int] = []
    raws: List[int] = []
    started = absent = 0
    try:
        for path in paths:
            started += 1
            levels = iter(path)
            bank = next(levels)
            row = 0
            if not roots[bank]:
                absent += 1
                codes.append(0)
                raws.append(0)
                continue
            bank_reads[bank] += 1
            known = True
            for child in levels:
                block = pointers[bank][row]
                word = tags[bank][row]
                if block == NULL_POINTER:
                    # Leaf above the finest depth: homogeneous region
                    # (pruned) or an unobserved fresh node.
                    known = word != 0
                    break
                if not (word >> (child + child)) & 0b11:
                    known = False
                    break
                bank_reads[child] += 1
                if block >= capacity or not valid[child][block]:
                    raise RuntimeError(f"PE {pe.pe_id}: dangling tag during query")
                bank, row = child, block
            if known:
                value = probabilities[bank][row]
                raws.append(value)
                if value > threshold:
                    codes.append(2)
                    if stop_at_occupied:
                        break
                else:
                    codes.append(1)
            else:
                codes.append(0)
                raws.append(0)
    finally:
        tally += [started, absent, len(codes) - codes.count(0), *bank_reads]
    return codes, raws


def read_cycles(unit: VoxelQueryUnit, tally: np.ndarray) -> int:
    """The cycles of read tally blocks: a bank read per entry read (one per key under an absent
    branch) and an ALU pass per key answered free or occupied."""
    timing = unit.config.timing
    absent, known = tally[..., native.Q_ABSENT].sum(), tally[..., native.Q_KNOWN].sum()
    return int((absent + tally[..., native.Q_READS :].sum()) * timing.bank_read_cycles + known * timing.alu_cycles)


def _served(unit: VoxelQueryUnit, tally: np.ndarray, answered: int) -> int:
    """Count ``answered`` queries served, whose walks ``tally`` holds; returns their cycles."""
    cycles = answered * unit.config.timing.query_issue_cycles + read_cycles(unit, tally)
    unit._served += (answered, cycles)
    return cycles


def query_key(unit: VoxelQueryUnit, key: OcTreeKey) -> QueryResult:
    """What ``unit.query_key(key)`` does, on :func:`query_paths`."""
    pe_id = unit.address_generator.pe_for_key(key)
    tally = native.query_tallies(len(unit._pes))
    try:
        (code,), (raw,) = query_paths(unit._pes[pe_id], (key.path(unit.config.tree_depth),), tally[pe_id])
    finally:
        unit._reads += tally
    cycles = _served(unit, tally, 1)
    probability = logodds_to_probability(unit.config.fixed_point.to_value(raw)) if code else None
    return QueryResult(status=QUERY_STATUSES[code], probability=probability, pe_id=pe_id, cycles=cycles)


def query_keys(
    unit: VoxelQueryUnit, keys: np.ndarray, stop_at_occupied: bool = False
) -> Tuple[np.ndarray, np.ndarray, int]:
    """What ``unit.query_keys(keys, stop_at_occupied)`` does, on :func:`query_paths`.

    Without a stop every PE walks its share (a stable split) in PE order;
    with one the keys go in consecutive same-PE stretches, in order, until a
    stretch answers occupied.
    """
    pes = unit._pes
    paths = paths_for_keys(keys, unit.config.tree_depth)
    pe_ids = paths[:, 0] % len(pes)
    tally = native.query_tallies(len(pes))
    try:
        if stop_at_occupied:
            starts = np.flatnonzero(np.diff(pe_ids)) + 1
            bounds = [0, *starts.tolist(), len(paths)] if len(paths) else [0]
            all_codes: List[int] = []
            all_raws: List[int] = []
            rows = paths.tolist()
            for start, stop in zip(bounds, bounds[1:]):
                pe_id = int(pe_ids[start])
                codes, raws = query_paths(pes[pe_id], rows[start:stop], tally[pe_id], stop_at_occupied=True)
                all_codes += codes
                all_raws += raws
                if codes[-1] == 2:
                    break
            codes, raws = np.array(all_codes, dtype=np.uint8), np.array(all_raws, dtype=np.int16)
        else:
            codes = np.zeros(len(paths), dtype=np.uint8)
            raws = np.zeros(len(paths), dtype=np.int16)
            for pe_id in np.unique(pe_ids).tolist():
                mine = pe_ids == pe_id
                codes[mine], raws[mine] = query_paths(pes[pe_id], paths[mine].tolist(), tally[pe_id])
    finally:
        unit._reads += tally
    return codes, raws, _served(unit, tally, len(codes))
