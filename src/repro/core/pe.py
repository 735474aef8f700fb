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

Where the loops live.  The update loop is C: ``pe_kernel.c``, built and
loaded by :mod:`repro.core.native`.  Its one entry is the whole PE array's:
:func:`apply_keys` hands it an accelerator's update stream as ``(N, 3)``
``uint16`` keys in one ``ctypes`` call, which releases the interpreter lock,
so the accelerators of different shards update on different cores at once.
The kernel derives each key's path and PE (the voxel scheduler of Fig. 7),
then runs PE 0, 1, ... each over its own updates in stream order.  It works
in place on each PE's bank arrays and prune address manager arrays, whose
addresses the PE pins once per buffer (again only after the image grew), and
returns what it did per PE as counts that :meth:`ProcessingElement._book`
charges.  :meth:`ProcessingElement.update_paths` goes through the same entry
with its PE alone.  The same loop in Python, one PE at a time, is the
kernel's differential oracle, ``tests/core/oracle_pe.py``.  The query loop
(:meth:`ProcessingElement.query_paths`) stays Python: a point read is one
short walk, which a foreign call would make slower, not faster.

That is what the model *charges*.  What the host *walks* is less, because the
update kernel leans on one invariant of the image between completed updates:
every stored inner entry equals ``(tag word its children row implies, max of
its children's values)``.  Three consequences, all exact:

* The scheduler issues voxels in stream order and the front ends emit them
  spatially sorted, so consecutive updates share most of their path.  Within
  one call the kernel keeps each PE's previous update's row per level (a path
  register) and resumes the descent below the shared prefix, cut back to the
  lowest level that update pruned.
  The register is a local of the call, never PE state: whatever happens to
  the image between calls (restore, tampering, a query) is met by a walk from
  row 0, guards included.
* An update changes one child of each row it climbs through, so a parent's
  new entry follows from the one it stores and that child's old value, new
  value and new tag: the stored word with the child's two bits replaced, and
  as maximum the child's new value if that reaches the stored one, else the
  stored one if the child was below it or is new to the node.  The row itself
  (``read_children``, the one row-read primitive) is asked two things only:
  who holds the maximum once the child that held it fell, and -- when the
  word says eight leaves of one class with the changed child at the maximum
  -- whether all eight are equal, i.e. whether to prune.
  :attr:`ProcessingElement.host_row_reads` counts those reads per call.
* A parent's children row shows an inner child's pointer and value, never its
  tag word.  So on the way up, an inner node whose value did not change ends
  the walk once its own tag word is written: every ancestor would recompute
  exactly what it already stores, and none can prune over an inner child.

Failure contract.  The kernel stops at the first update it cannot complete
and returns a code saying why: no row left (``MemoryCapacityError``), a tag
listing a child its bank does not hold (``tag/memory mismatch``), a parent
with no children, or a row the prune address manager refuses to take back.
The PEs before the failing one and that PE's updates before it are applied
and charged, the PEs after it are untouched, and :func:`apply_keys` raises
the exception the Python kernel raised, with its message.  The invariant
above holds between *completed* updates only: the failed update has stored
nodes its parents do not list, the shortcuts are no longer exact on that
image, and the serving layer fail-stops a shard backend on any apply error.
One code is not a failure: "grow" means a PE's next update could take a fresh
row past the end of its image's arrays, which are sized to the map
(:mod:`repro.core.treemem`); that PE doubles them and pins them again, and
the call is issued again, every PE going on after the updates it has done.

A level-synchronous (array-at-a-time) form of the update loop was sized
against the serving layer's real PE queues and ruled out: ~47% of a queue's
updates repeat a key already in it (a batch is several scans), so blocks
prune and re-expand *inside* one batch and the row-allocation order -- hence
every statistic downstream of the prune stack -- is only reproduced by
applying the updates one after another.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import native
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
        #: Children rows the host read for this PE in the last update call
        #: that reached it (the model charges one per parent regardless).
        self.host_row_reads = 0
        # Per first-level branch: 1 once its local root is initialised in row 0.
        self._local_roots = array("B", bytes(8))
        # The SRAM image as the kernels index it: field[bank][row].
        banks = self.memory.banks
        self._valid = [bank.valid for bank in banks]
        self._pointers = [bank.pointers for bank in banks]
        self._tags = [bank.tags for bank in banks]
        self._probabilities = [bank.probabilities for bank in banks]
        self._threshold = self.probability_unit.params.raw_threshold
        # What the native kernel works on, made by the first update (_pin).
        self._image: Optional[native.PEImage] = None
        self._pinned_entries = 0  # the bank arrays' total length when last pinned
        self._bank_arrays = self._valid + self._pointers + self._tags + self._probabilities  # PEImage's order

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

        Each update is one fused integer loop over the SRAM image, run by the
        native kernel (the module docstring says where, and how it fails):
        down the path (allocating or expanding as needed), the leaf update of
        eq. (2), then back up updating each parent from the child that
        changed (eq. (3)) and pruning.  Whatever it finds, an update costs one
        bank read per level down and one row read, ALU pass, prune check and
        write-back per level up; only new nodes, row allocations, expansions
        and prunes add to that, so the kernel tallies those four and
        :meth:`_charge` books the whole stream from ``TimingParams`` afterwards.

        The loop walks only the levels whose outcome is open: down from where
        this path leaves the previous one, up until an inner node keeps its
        value, reading a children row only where the stored entry cannot
        answer.  The order of the stream decides how much that saves, never
        what is stored or charged.

        The paths go back to the keys they encode, and :func:`apply_keys`
        runs them with this PE as the only one, so every key is its own.
        """
        self.host_row_reads = 0
        if not len(paths):
            return CycleBreakdown()
        # The kernel indexes the image with these: shape, dtype and range are checked here.
        depth = self.config.tree_depth
        paths = np.asarray(paths)
        flags = np.ascontiguousarray(occupied, dtype=np.bool_)
        count = len(flags)
        if paths.shape != (count, depth) or paths.dtype.kind not in "ui":
            raise ValueError(f"{count} updates need ({count}, {depth}) integer paths, not {paths.dtype} {paths.shape}")
        if paths.min() < 0 or paths.max() > 7:
            raise ValueError("a path holds a child index outside [0, 7]")
        # Bit a of child index l is bit depth-1-l of key component a.
        axes = (paths.astype(np.int64)[:, None, :] >> np.arange(3)[:, None]) & 1
        keys = np.ascontiguousarray(axes @ (1 << np.arange(depth - 1, -1, -1)), dtype=np.uint16)
        (breakdown,) = apply_keys([self], keys, flags, native.tallies(1))
        return breakdown

    def pinned_image(self) -> native.PEImage:
        """What the native kernel works on, with the bank arrays' current addresses.

        A check as cheap as the arrays' total length finds an image that grew
        since it was last pinned, inside the kernel's calls or outside them
        (a restore, :meth:`BankedTreeMemory.write_entry` past :attr:`rows`).
        """
        if sum(map(len, self._valid)) != self._pinned_entries:
            self._pin()
        return self._image

    def _pin(self) -> None:
        """Hand the kernel the bank arrays' current addresses (they move when the image grows)."""
        if self._image is None:
            allocator, params = self.allocator, self.probability_unit.params
            self._image = native.PEImage(
                num_rows=allocator.num_rows,
                reserved_rows=allocator.reserved_rows,
                stack=allocator.stack.buffer_info()[0],
                stacked=allocator.stacked.buffer_info()[0],
                allocator=allocator.state.buffer_info()[0],
                roots=self._local_roots.buffer_info()[0],
                depth=self.config.tree_depth,
                raw_hit=params.raw_hit,
                raw_miss=params.raw_miss,
                threshold=params.raw_threshold,
                clamp_min=params.raw_clamp_min,
                clamp_max=params.raw_clamp_max,
            )
        # One slice assignment over the image's first 32 words: about a third of the cost of 32 item writes.
        (ctypes.c_void_p * 32).from_buffer(self._image)[:] = [field.buffer_info()[0] for field in self._bank_arrays]
        self._image.capacity = self.memory.rows
        self._pinned_entries = sum(map(len, self._valid))

    def _book(self, tally: Sequence[int]) -> CycleBreakdown:
        """Charge what one PE's tally block says the kernel did."""
        self.memory.charge_kernel_writes(
            tally[native.T_WRITES : native.T_WRITES + 8],
            tally[native.T_OCCUPIED : native.T_OCCUPIED + 8],
            tally[native.T_ROW_WRITES],
        )
        self.host_row_reads = tally[native.T_ROW_READS]
        return self._charge(
            tally[native.T_DONE],
            tally[native.T_PATH_NODES : native.T_PATH_NODES + 8],
            tally[native.T_NEW_NODES],
            tally[native.T_ALLOCATIONS],
            tally[native.T_EXPANSIONS],
            tally[native.T_PRUNES],
        )

    def _failure(self, code: int, row: int, bank: int) -> Exception:
        """The exception a kernel return code stands for."""
        if code == native.CAPACITY:
            return self.allocator.exhausted()
        if code == native.MISMATCH:
            return RuntimeError(f"PE {self.pe_id}: tag/memory mismatch at row {row} bank {bank}")
        if code == native.CHILDLESS:
            return RuntimeError(f"PE {self.pe_id}: parent at row {row} has no children")
        # native.FREE_ROW: the kernel left the allocator as it found it, so its own check says why.
        return self.allocator.free_error(row)

    def _charge(
        self,
        updates: int,
        path_nodes: Sequence[int],
        new_nodes: int,
        allocations: int,
        expansions: int,
        prunes: int,
    ) -> CycleBreakdown:
        """Book ``updates`` completed updates plus the tallied events, stage by stage.

        ``path_nodes[b]`` of the nodes on those updates' paths live in bank ``b``.
        """
        timing = self.config.timing
        depth = self.config.tree_depth
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
        self.memory.charge_update_accesses(path_nodes, row_reads=parents)
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
        for branch, live in enumerate(self._local_roots):
            if not live:
                continue
            entry = self.memory.read_entry(0, branch)
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


def apply_keys(
    pes: Sequence[ProcessingElement], keys: np.ndarray, flags: np.ndarray, tally: array
) -> List[CycleBreakdown]:
    """Apply an ordered update stream to ``pes`` in one native call, and book it.

    ``keys`` is the stream's C-ordered ``(N, 3)`` ``uint16`` key components,
    ``flags`` its ``(N,)`` ``bool`` measurements and ``tally`` a zeroed
    :func:`native.tallies` for ``pes``.  Key ``i`` belongs to
    ``pes[path[0] % len(pes)]``, its first-level branch modulo the PE count.
    Returns each PE's cycles by stage -- an empty breakdown, and no charge,
    for a PE the stream gives nothing.  The module docstring says how a PE
    that runs out of image is grown and how a call fails.
    """
    num_pes, count = len(pes), len(flags)
    # What the kernel indexes with: anything else would read or write past a buffer.
    if not (1 <= num_pes <= 8 and keys.shape == (count, 3) and keys.dtype == np.uint16 and flags.dtype == np.bool_):
        raise ValueError(f"{num_pes} PEs, keys {keys.dtype}{keys.shape}, flags {flags.dtype}{flags.shape}")
    if not (keys.flags.c_contiguous and flags.flags.c_contiguous):
        raise ValueError("keys and flags must be C-contiguous")
    table = native.image_table([pe.pinned_image() for pe in pes])
    order = np.empty(count, dtype=np.int64)
    addresses = keys.ctypes.data, flags.ctypes.data, count, order.ctypes.data, tally.buffer_info()[0]
    while True:
        code = native.apply_batch(table, num_pes, *addresses)
        if code != native.GROW:
            break
        # The PE the call stopped in is the first with updates left.
        blocks = range(0, num_pes * native.TALLY_WORDS, native.TALLY_WORDS)
        pe = next(pe for pe, at in zip(pes, blocks) if tally[at + native.T_DONE] < tally[at + native.T_ISSUED])
        pe.memory.reserve(2 * pe.memory.rows)
        pe._pin()
    words = tally.tolist()
    breakdowns = []
    for index, pe in enumerate(pes):
        block = words[index * native.TALLY_WORDS : (index + 1) * native.TALLY_WORDS]
        if not block[native.T_ISSUED]:
            pe.host_row_reads = 0
            breakdowns.append(CycleBreakdown())
            continue
        breakdowns.append(pe._book(block))
        if block[native.T_DONE] < block[native.T_ISSUED]:
            raise pe._failure(code, block[native.T_ERROR_ROW], block[native.T_ERROR_BANK])
    return breakdowns
