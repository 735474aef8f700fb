"""Processing element (PE): stores and updates one partition of the octree.

Each PE owns the subtree(s) hanging off one (or more) first-level branches of
the global octree (Section IV-A).  Internally it combines:

* a :class:`~repro.core.treemem.BankedTreeMemory` holding the packed 64-bit
  node entries, eight children per row (Section IV-B, Fig. 5);
* a :class:`~repro.core.prune_manager.PruneAddressManager` recycling the rows
  freed by pruning (Section IV-C, Fig. 6);
* a :class:`~repro.core.probability_unit.ProbabilityUpdateUnit` implementing
  the fixed-point occupancy arithmetic.

The PE's local root(s) -- the depth-1 nodes of the global tree -- live in row
0, bank = branch index, so up to eight branches can share one PE (used by the
PE-count ablation).  A voxel update walks down the key path reading one entry
per level, updates the leaf, then walks back up reading each parent's whole
children row in a single banked access, recomputing the max occupancy,
re-deriving the status tags and applying the pruning rule.  Every primitive
action is charged to the pipeline stage it belongs to, so the accelerator
reproduces the paper's runtime breakdown (Fig. 10) structurally rather than by
fiat.  The walks are integer loops over the TreeMem arrays: no entry object is
built on the update or query path.

That is what the model *charges*.  What the host *walks* is less, because the
update kernel leans on one invariant of the image between completed updates:
every stored inner entry equals ``(tag word its children row implies, max of
its children's values)``.  Three consequences, all exact:

* The scheduler issues voxels in stream order and the front ends emit them
  spatially sorted, so consecutive updates share most of their path.  Within
  one :meth:`ProcessingElement.update_paths` call the kernel keeps the
  previous update's row per level (a path register) and resumes the descent
  below the shared prefix, cut back to the lowest level that update pruned.
  The register is a local of the call, never PE state: whatever happens to
  the image between calls (restore, tampering, a query) is met by a walk from
  row 0, guards included.
* An update changes one child of each row it climbs through, so a parent's
  new entry follows from the one it stores and that child's old value, new
  value and new tag: the stored word with the child's two bits replaced, and
  as maximum the child's new value if that reaches the stored one, else the
  stored one if the child was below it or is new to the node.  The row itself
  (:meth:`ProcessingElement._read_children`, the one row-read primitive) is
  asked two things only: who holds the maximum once the child that held it
  fell, and -- when the word says eight leaves of one class with the changed
  child at the maximum -- whether all eight are equal, i.e. whether to prune.
* A parent's children row shows an inner child's pointer and value, never its
  tag word.  So on the way up, an inner node whose value did not change ends
  the walk once its own tag word is written: every ancestor would recompute
  exactly what it already stores, and none can prune over an inner child.

The invariant holds between *completed* updates only.  An update that raises
during its descent (``MemoryCapacityError``, ``tag/memory mismatch``) has
stored nodes its parents do not list; the updates of the call before it are
applied and charged, it is not, and the shortcuts above are no longer exact
on that image -- the serving layer fail-stops a shard backend on any apply
error.

A level-synchronous (array-at-a-time) form of the update loop was sized
against the serving layer's real PE queues and ruled out: ~47% of a queue's
updates repeat a key already in it (a batch is several scans), so blocks
prune and re-expand *inside* one batch and the row-allocation order -- hence
every statistic downstream of the prune stack -- is only reproduced by
applying the updates one after another.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OMUConfig
from repro.core.prune_manager import PruneAddressManager
from repro.core.probability_unit import ProbabilityUpdateUnit
from repro.core.treemem import (
    BankedTreeMemory,
    ChildStatus,
    NULL_POINTER,
    TreeMemEntry,
)
from repro.core.timing import CycleBreakdown, PETimingStats
from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.keys import OcTreeKey

__all__ = ["ProcessingElement", "ExportedNode", "QUERY_STATUSES"]

#: What a voxel look-up can answer; :meth:`ProcessingElement.query_paths`
#: reports each voxel as an index into this tuple.
QUERY_STATUSES = ("unknown", "free", "occupied")

# Tag words of a row whose eight children all classify alike, and the
# (occupied, free, inner) tag of each child shifted to its place in the word.
_ALL_OCCUPIED = 0x5555 * ChildStatus.OCCUPIED
_ALL_FREE = 0x5555 * ChildStatus.FREE
_CHILD_TAGS = tuple(
    tuple(int(status) << (2 * child) for status in (ChildStatus.OCCUPIED, ChildStatus.FREE, ChildStatus.INNER))
    for child in range(8)
)


class ExportedNode:
    """One node streamed out of a PE when the map is read back.

    Attributes:
        path: child indices from the *global* root down to this node (the
            first element is the first-level branch).
        probability_raw: fixed-point log-odds value of the node.
        is_leaf: True if the node has no children block.
        homogeneous: True if the node is a leaf above the finest depth, i.e.
            it stands for a pruned, uniformly-observed region.
    """

    __slots__ = ("path", "probability_raw", "is_leaf", "homogeneous")

    def __init__(self, path: Tuple[int, ...], probability_raw: int, is_leaf: bool, homogeneous: bool) -> None:
        self.path = path
        self.probability_raw = probability_raw
        self.is_leaf = is_leaf
        self.homogeneous = homogeneous


class ProcessingElement:
    """One OMU processing element."""

    def __init__(self, pe_id: int, config: OMUConfig) -> None:
        self.pe_id = pe_id
        self.config = config
        self.memory = BankedTreeMemory(config.banks_per_pe, config.entries_per_bank)
        self.allocator = PruneAddressManager(config.entries_per_bank, reserved_rows=1)
        self.probability_unit = ProbabilityUpdateUnit(config.quantized_params())
        self.counters = OperationCounters()
        self.stats = PETimingStats(pe_id=pe_id)
        self.query_cycles = 0
        # Which first-level branches have an initialised local root in row 0.
        self._local_roots: Dict[int, int] = {}
        # The SRAM image as the kernels index it: field[bank][row].
        banks = self.memory.banks
        self._valid = [bank.valid for bank in banks]
        self._pointers = [bank.pointers for bank in banks]
        self._tags = [bank.tags for bank in banks]
        self._probabilities = [bank.probabilities for bank in banks]
        self._columns = tuple(zip(self._valid, self._pointers, self._probabilities, _CHILD_TAGS))
        self._threshold = self.probability_unit.params.raw_threshold

    # ------------------------------------------------------------------
    # Voxel update (the main datapath)
    # ------------------------------------------------------------------
    def update_voxel(self, key: OcTreeKey, occupied: bool) -> int:
        """Integrate one measurement for one voxel owned by this PE.

        Returns the number of cycles the update consumed on this PE.
        """
        path = np.array([key.path(self.config.tree_depth)], dtype=np.uint8)
        return self.update_paths(path, (occupied,)).total()

    def update_paths(self, paths: np.ndarray, occupied: Sequence[bool]) -> CycleBreakdown:
        """Integrate an ordered stream of measurements for voxels this PE owns.

        ``paths`` is an ``(N, tree_depth)`` array of child indices from the
        global root down to each leaf voxel, ``occupied`` the N measurements.
        Returns the cycles the stream consumed on this PE, by stage.

        Each update is one fused integer loop over the SRAM image: down the
        path (allocating or expanding as needed), the leaf update of eq. (2),
        then back up updating each parent from the child that changed
        (eq. (3)) and pruning.  Whatever it finds, an update costs one bank
        read per level down and one row read, ALU pass, prune check and
        write-back per level up; only new nodes, row allocations, expansions
        and prunes add to that, so the loop tallies those four and
        :meth:`_charge` books the whole stream from ``TimingParams`` afterwards.

        The loop walks only the levels whose outcome is open: down from where
        this path leaves the previous one (the module docstring says why that
        is exact), up until an inner node keeps its value, reading a children
        row only where the stored entry cannot answer.  The order of the
        stream decides how much that saves, never what is stored or charged.
        """
        if not len(paths):
            return CycleBreakdown()
        banks = self.memory.banks
        valid, pointers, tags, probabilities = self._valid, self._pointers, self._tags, self._probabilities
        params = self.probability_unit.params
        raw_hit, raw_miss, threshold = params.raw_hit, params.raw_miss, self._threshold
        clamp_min, clamp_max = params.raw_clamp_min, params.raw_clamp_max
        allocator = self.allocator
        roots = self._local_roots
        depth = self.config.tree_depth
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
        new_nodes = allocations = expansions = prunes = done = 0
        try:
            for path, hit, resume in zip(paths.tolist(), occupied, shared):
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
                    if bank not in roots:
                        banks[bank].store(0, NULL_POINTER, 0, 0)
                        roots[bank] = bank
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
                            self.memory.row_writes += 1
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
                        raise RuntimeError(
                            f"PE {self.pe_id}: tag/memory mismatch at row {block} bank {child}"
                        )
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
                            values = self._read_children(block)[1]
                            value = max(values)
                    word = word ^ listed | child_tags[tag]
                    tags[bank][row] = word
                    if child_new == value and (word == _ALL_OCCUPIED or word == _ALL_FREE):
                        # Eight leaves of one class, the changed one at the
                        # maximum: the row says whether all are equal.
                        if values is None:
                            values = self._read_children(block)[1]
                        if len(values) == 8 and min(values) == value:
                            self.memory.clear_row(block)
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
            charged = self._charge(paths[:done], new_nodes, allocations, expansions, prunes)
        return charged

    def _read_children(self, block: int) -> Tuple[int, List[int]]:
        """One banked row read: the tag word the row implies and its valid children's values."""
        word = 0
        values = []
        for child_valid, child_pointers, child_probabilities, (occupied, free, inner) in self._columns:
            if child_valid[block]:
                value = child_probabilities[block]
                values.append(value)
                if child_pointers[block] != NULL_POINTER:
                    word |= inner
                elif value > self._threshold:
                    word |= occupied
                else:
                    word |= free
        if not values:
            raise RuntimeError(f"PE {self.pe_id}: parent at row {block} has no children")
        return word, values

    def _charge(
        self, paths: np.ndarray, new_nodes: int, allocations: int, expansions: int, prunes: int
    ) -> CycleBreakdown:
        """Book ``len(paths)`` completed updates plus the tallied events, stage by stage."""
        timing = self.config.timing
        depth = self.config.tree_depth
        updates = len(paths)
        parents = updates * (depth - 1)
        # Every new node is one bank write, every row allocation one more
        # (the parent's pointer); an expansion's eight nodes are a row write.
        event_writes = new_nodes + allocations
        breakdown = CycleBreakdown()
        breakdown.charge(
            OperationKind.UPDATE_LEAF,
            updates * (depth * timing.bank_read_cycles + timing.alu_cycles + timing.bank_write_cycles)
            + event_writes * timing.bank_write_cycles,
        )
        breakdown.charge(
            OperationKind.UPDATE_PARENTS,
            parents * (timing.row_read_cycles + timing.alu_cycles + timing.bank_write_cycles),
        )
        breakdown.charge(
            OperationKind.PRUNE_EXPAND,
            parents * timing.alu_cycles
            + (allocations + prunes) * timing.prune_stack_cycles
            + (expansions + prunes) * timing.row_write_cycles,
        )
        self.stats.breakdown.merge(breakdown)
        self.stats.voxel_updates += updates
        self.stats.bank_reads += updates * depth
        self.stats.bank_writes += updates * depth + event_writes
        self.stats.row_accesses += parents + expansions + prunes
        self.memory.charge_update_accesses(
            np.bincount(paths.ravel(), minlength=8).tolist(), row_reads=parents
        )
        counters = self.counters
        counters.leaf_updates += updates
        counters.child_reads += 8 * parents
        counters.prune_checks += parents
        counters.parent_updates += parents - prunes
        counters.prunes += prunes
        counters.node_deletions += 8 * prunes
        counters.expansions += expansions
        counters.node_allocations += new_nodes + 8 * expansions
        counters.extra["pe_updates"] = counters.extra.get("pe_updates", 0) + updates
        return breakdown

    # ------------------------------------------------------------------
    # Voxel query (service used by collision detection etc.)
    # ------------------------------------------------------------------
    def query_voxel(self, key: OcTreeKey) -> Tuple[str, Optional[int]]:
        """Return ``(status, probability_raw)`` for a voxel owned by this PE.

        ``status`` is ``"occupied"``, ``"free"`` or ``"unknown"``;
        ``probability_raw`` is None for unknown voxels.
        """
        (code,), (raw,), _ = self.query_paths((key.path(self.config.tree_depth),))
        return (QUERY_STATUSES[code], raw if code else None)

    def query_paths(self, paths: Sequence[Sequence[int]]) -> Tuple[List[int], List[int], int]:
        """Look up a stream of voxels this PE owns: the read-side :meth:`update_paths`.

        ``paths`` holds one row of ``tree_depth`` child indices (plain ints:
        an array's ``tolist()``) per voxel, from the global root down to the
        leaf.  Returns ``(codes, raws, cycles)``: per voxel its index into
        :data:`QUERY_STATUSES` and its fixed-point log-odds (0 where
        unknown), and the cycles the whole stream took on this PE.

        One fused integer loop over the SRAM image.  A look-up reads one
        entry per level until it reaches a leaf (a pruned region answers for
        every voxel inside it) or a child the tags call unknown, then pays
        one ALU pass to classify what it found; a voxel under a first-level
        branch this PE never stored costs the one read that finds that out.
        The loop tallies reads per bank and answers given, and books them
        once at the end -- also when a corrupt image stops it half way.
        """
        valid, pointers, tags, probabilities = self._valid, self._pointers, self._tags, self._probabilities
        roots = self._local_roots
        threshold = self._threshold
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
                if bank not in roots:
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
                    if not valid[child][block]:
                        raise RuntimeError(f"PE {self.pe_id}: dangling tag during query")
                    bank, row = child, block
                if known:
                    value = probabilities[bank][row]
                    codes.append(2 if value > threshold else 1)
                    raws.append(value)
                else:
                    codes.append(0)
                    raws.append(0)
        finally:
            timing = self.config.timing
            reads = sum(bank_reads)
            cycles = (absent + reads) * timing.bank_read_cycles + (
                len(codes) - codes.count(0)
            ) * timing.alu_cycles
            for bank, count in zip(self.memory.banks, bank_reads):
                bank.read_accesses += count
            self.stats.bank_reads += reads
            self.counters.queries += started
            self.query_cycles += cycles
        return codes, raws, cycles

    # ------------------------------------------------------------------
    # Map read-back (verification / host transfer)
    # ------------------------------------------------------------------
    def export_nodes(self) -> Iterator[ExportedNode]:
        """Stream every stored node out of the PE (pre-order).

        The exported paths start at the global root, so nodes from different
        PEs can be merged directly into one software octree.
        """
        for branch, bank in sorted(self._local_roots.items()):
            entry = self.memory.read_entry(0, bank)
            if entry is None:
                continue
            yield from self._export_recurs(entry, (branch,))

    def _export_recurs(self, entry: TreeMemEntry, path: Tuple[int, ...]) -> Iterator[ExportedNode]:
        is_leaf = entry.pointer == NULL_POINTER
        observed = any(tag != ChildStatus.UNKNOWN for tag in entry.child_tags)
        homogeneous = is_leaf and observed and len(path) < self.config.tree_depth
        yield ExportedNode(path, entry.probability_raw, is_leaf, homogeneous)
        if is_leaf:
            return
        for child_index in range(8):
            if entry.tag(child_index) == ChildStatus.UNKNOWN:
                continue
            child = self.memory.read_entry(entry.pointer, child_index)
            if child is None:
                continue
            yield from self._export_recurs(child, path + (child_index,))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def nodes_stored(self) -> int:
        """Number of valid node entries currently held in TreeMem."""
        return self.memory.occupied_entries()

    def memory_utilization(self) -> float:
        """Fraction of this PE's SRAM holding live entries."""
        return self.memory.utilization()

    def busy_cycles(self) -> int:
        """Cycles of useful work performed so far."""
        return self.stats.busy_cycles()
