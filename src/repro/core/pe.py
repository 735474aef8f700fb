"""Processing element (PE): stores and updates one partition of the octree.

Each PE owns the subtree(s) hanging off one (or more) first-level branches of
the global octree (Section IV-A).  Internally it combines:

* a :class:`~repro.core.treemem.BankedTreeMemory` holding the packed 64-bit
  node entries, eight children per row (Section IV-B, Fig. 5);
* a :class:`~repro.core.prune_manager.PruneAddressManager` recycling the rows
  freed by pruning (Section IV-C, Fig. 6);
* the fixed-point occupancy arithmetic of eqs. (2)-(3), as the quantised
  parameters of :meth:`~repro.core.config.OMUConfig.quantized_params`.

The PE's local root(s) -- the depth-1 nodes of the global tree -- live in row
0, bank = branch index, so up to eight branches can share one PE (used by the
PE-count ablation).  A voxel update walks down the key path reading one entry
per level, updates the leaf, then walks back up reading each parent's whole
children row in a single banked access, recomputing the max occupancy,
re-deriving the status tags and applying the pruning rule.  Every primitive
action is tallied, and the cost table of :mod:`repro.core.counts` prices each
tally word in the pipeline stage it belongs to, so the accelerator reproduces
the paper's runtime breakdown (Fig. 10) structurally rather than by fiat.  The
walks are integer loops over the TreeMem arrays: no entry object is built on
the update or query path.

Where the loops live.  The update loop is C: ``pe_kernel.c``, built and
loaded by :mod:`repro.core.native`.  Its one entry is the whole PE array's:
:func:`apply_keys` hands it an accelerator's update stream as ``(N, 3)``
``uint16`` keys in one ``ctypes`` call, which releases the interpreter lock,
so the accelerators of different shards update on different cores at once.
The kernel derives each key's path and PE (the voxel scheduler of Fig. 7),
then runs PE 0, 1, ... each over its own updates in stream order.  It works
in place on each PE's bank arrays and prune address manager arrays, whose
addresses the PE pins in its ``PEImage`` (again only after the image grew),
and tallies what it did per PE into a scratch block that the accelerator adds
to its counter array (:mod:`repro.core.counts`).  A PE holds no count of its
own: :attr:`ProcessingElement.stats`, :attr:`~ProcessingElement.counters`,
:attr:`~ProcessingElement.query_cycles` and its memory's access counts are
views of its words of that array.  The same loop in Python, one PE at a
time, is the kernel's differential oracle, ``tests/core/oracle_pe.py``.
Those arrays are the PE's whole state: :meth:`ProcessingElement.image`
copies them out for a shard snapshot and :meth:`ProcessingElement.restore`
copies them back, after :meth:`ProcessingElement.check_image` found nothing
the kernel could trip over.

Reads run in the same file: ``pe_query_batch`` walks a batch of keys over
the PE array's images in one call, and ``pe_query_key`` one key on its PE,
both through one ``query_walk`` (see :mod:`repro.core.query_unit`).  They
only read the image, and tally per PE the keys walked, absent and known
and the reads of each bank, which are added up the same way.  A point read
takes the foreign call too: with the key's
components as scalar arguments it costs ~1 us, against ~9 us for the Python
walk of a 16-level path.  The Python loop is their oracle,
``oracle_pe.query_paths``.

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
  :attr:`ProcessingElement.host_row_reads` counts those reads.
* A parent's children row shows an inner child's pointer and value, never its
  tag word.  So on the way up, an inner node whose value did not change ends
  the walk once its own tag word is written: every ancestor would recompute
  exactly what it already stores, and none can prune over an inner child.

Failure contract.  The kernel stops at the first update it cannot complete
and returns a code saying why: no row left (``MemoryCapacityError``), a tag
listing a child its bank does not hold (``tag/memory mismatch``), a parent
with no children, or a row the prune address manager refuses to take back.
The PEs before the failing one and that PE's updates before it are applied
and tallied, the PEs after it are untouched, and :func:`apply_keys` raises
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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import counts, native
from repro.core.config import OMUConfig
from repro.core.counts import ALLOCATIONS, DECODED, DONE, EXPANSIONS, NEW_NODES, PATH_NODES, PRUNES, READS
from repro.core.prune_manager import DEPTH, NEXT_FRESH, PruneAddressManager
from repro.core.treemem import BankedTreeMemory, NULL_POINTER
from repro.core.timing import CycleBreakdown, PETimingStats
from repro.octomap.counters import OperationCounters, OperationKind

__all__ = ["ProcessingElement", "ExportedNode", "QUERY_STATUSES"]

#: What a voxel look-up can answer; the read kernel reports each voxel as an
#: index into this tuple.
QUERY_STATUSES = ("unknown", "free", "occupied")

#: The bank arrays' four fields -- the PE holds each as ``_<name>[bank]`` --
#: and the numpy type of their words.
BANK_FIELDS = (("valid", np.uint8), ("pointers", np.uint32), ("tags", np.uint16), ("probabilities", np.int16))
_IMAGE_KEYS = frozenset(name for name, _ in BANK_FIELDS) | {"rows", "roots", "allocator", "stack"}


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
    """One OMU processing element.

    ``words`` are the PE's words of its accelerator's counter array
    (:mod:`repro.core.counts`); a PE built alone gets zeroed ones of its own.
    """

    def __init__(self, pe_id: int, config: OMUConfig, words: Optional[np.ndarray] = None) -> None:
        self.pe_id = pe_id
        self.config = config
        self._words = np.zeros(counts.PE_WORDS, dtype=np.int64) if words is None else words
        self._costs = counts.costs(config.timing, config.tree_depth)
        self.memory = BankedTreeMemory(config.banks_per_pe, config.entries_per_bank, self._words)
        self.allocator = PruneAddressManager(config.entries_per_bank, reserved_rows=1)
        self.params = config.quantized_params()
        # Per first-level branch: 1 once its local root is initialised in row 0.
        self._local_roots = array("B", bytes(8))
        # The SRAM image as the kernels index it: field[bank][row].
        banks = self.memory.banks
        self._valid = [bank.valid for bank in banks]
        self._pointers = [bank.pointers for bank in banks]
        self._tags = [bank.tags for bank in banks]
        self._probabilities = [bank.probabilities for bank in banks]
        self._bank_arrays = self._valid + self._pointers + self._tags + self._probabilities  # PEImage's order
        # What the native kernel works on.  The struct stays where it is for the PE's
        # life, so an image table of its address stays good; _pin rewrites it in place.
        allocator, params = self.allocator, self.params
        self._image = native.PEImage(
            num_rows=allocator.num_rows,
            reserved_rows=allocator.reserved_rows,
            stack=allocator.stack.buffer_info()[0],
            stacked=allocator.stacked.buffer_info()[0],
            allocator=allocator.state.buffer_info()[0],
            roots=self._local_roots.buffer_info()[0],
            depth=config.tree_depth,
            raw_hit=params.raw_hit,
            raw_miss=params.raw_miss,
            threshold=params.raw_threshold,
            clamp_min=params.raw_clamp_min,
            clamp_max=params.raw_clamp_max,
        )
        self._pin()

    # ------------------------------------------------------------------
    # Statistics: views of the PE's counter words
    # ------------------------------------------------------------------
    @property
    def stats(self) -> PETimingStats:
        """Cycles by stage and SRAM accesses of this PE so far."""
        words = self._words.tolist()
        nodes = sum(words[PATH_NODES : PATH_NODES + 8])
        cycles = (self._words @ self._costs).tolist()
        return PETimingStats(
            pe_id=self.pe_id,
            breakdown=CycleBreakdown(dict(zip(OperationKind.ordered(), cycles))),
            voxel_updates=words[DONE],
            bank_reads=nodes + sum(words[READS : READS + 8]),
            bank_writes=nodes + words[NEW_NODES] + words[ALLOCATIONS],
            row_accesses=nodes - words[DONE] + words[EXPANSIONS] + words[PRUNES],
        )

    @property
    def counters(self) -> OperationCounters:
        """Functional operation counts of this PE so far."""
        return counts.operation_counters(self._words)

    @property
    def query_cycles(self) -> int:
        """Cycles this PE spent walking reads."""
        return int(self._words @ self._costs[:, 4])

    @property
    def host_row_reads(self) -> int:
        """Children rows the host read for this PE's updates (the model charges one per parent regardless)."""
        return int(self._words[counts.ROW_READS])

    # ------------------------------------------------------------------
    # Voxel update (the main datapath): the native kernel, see apply_keys
    # ------------------------------------------------------------------
    def pinned_image(self) -> native.PEImage:
        """What the native kernel works on, with the bank arrays' current addresses.

        A check as cheap as the arrays' total length finds an image that grew
        since it was last pinned, inside the kernel's calls or outside them
        (a :meth:`~repro.core.treemem.BankedTreeMemory.reserve`).
        """
        if sum(map(len, self._valid)) != self._pinned_entries:
            self._pin()
        return self._image

    def _pin(self) -> None:
        """Hand the kernel the bank arrays' current addresses (they move when the image grows)."""
        # One slice assignment over the image's first 32 words: about a third of the cost of 32 item writes.
        (ctypes.c_void_p * 32).from_buffer(self._image)[:] = [field.buffer_info()[0] for field in self._bank_arrays]
        self._image.capacity = self.memory.rows
        self._pinned_entries = sum(map(len, self._valid))

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

    # ------------------------------------------------------------------
    # Voxel query (service used by collision detection etc.): the native
    # read kernel, see repro.core.query_unit
    # ------------------------------------------------------------------
    def query_failure(self) -> RuntimeError:
        """What a read the kernel stopped in this PE's image raises."""
        return RuntimeError(f"PE {self.pe_id}: dangling tag during query")

    # ------------------------------------------------------------------
    # Map read-back (verification / host transfer)
    # ------------------------------------------------------------------
    def export_nodes(self) -> Iterator[ExportedNode]:
        """Stream every stored node out of the PE (pre-order).

        The exported paths start at the global root, so nodes from different
        PEs can be merged directly into one software octree.  Each entry
        looked at -- every local root, every child a tag lists -- is one
        decoded read of its bank, added to the PE's words once the stream
        is through.
        """
        reads = [0] * 8
        for branch, live in enumerate(self._local_roots):
            if live:
                yield from self._export(0, branch, (branch,), reads)
        self._words[DECODED : DECODED + 8] += reads

    def _export(self, row: int, bank: int, path: Tuple[int, ...], reads: List[int]) -> Iterator[ExportedNode]:
        reads[bank] += 1
        if row >= len(self._valid[bank]) or not self._valid[bank][row]:
            return
        pointer, word = self._pointers[bank][row], self._tags[bank][row]
        is_leaf = pointer == NULL_POINTER
        homogeneous = is_leaf and word != 0 and len(path) < self.config.tree_depth
        yield ExportedNode(path, self._probabilities[bank][row], is_leaf, homogeneous)
        if is_leaf:
            return
        for child in range(8):
            if (word >> (2 * child)) & 0b11:
                yield from self._export(pointer, child, path + (child,), reads)

    # ------------------------------------------------------------------
    # State image (shard snapshots; see OMUAccelerator.image)
    # ------------------------------------------------------------------
    def image(self) -> Dict[str, object]:
        """This PE's state as numpy arrays and ints, what :meth:`restore` takes back.

        ``valid``, ``pointers``, ``tags`` and ``probabilities`` are ``(8, R)``
        arrays, bank by bank, of rows ``[0, R)`` with ``R`` the prune address
        manager's next fresh row: stale words of freed rows included, and
        nothing above, which was never written.  ``rows`` is how many
        addresses the bank arrays hold, ``roots`` the local-root flags,
        ``allocator`` the manager's state words and ``stack`` its live
        stack, bottom first.
        """
        allocator = self.allocator
        written = allocator.next_fresh_row
        image: Dict[str, object] = {
            name: np.array([np.frombuffer(field, dtype, written) for field in getattr(self, "_" + name)])
            for name, dtype in BANK_FIELDS
        }
        image.update(
            rows=self.memory.rows,
            roots=np.array(self._local_roots, dtype=np.uint8),
            allocator=np.array(allocator.state, dtype=np.int64),
            stack=np.frombuffer(allocator.stack, np.int32, allocator.stack_depth).copy(),
        )
        return image

    def check_image(self, image) -> None:
        """Raise ``ValueError`` unless this PE's kernels can run on ``image``.

        A snapshot may come off a socket, so this looks at everything a kernel
        indexes with before :meth:`restore` writes anything: each field's
        type and shape; the next fresh row within the manager's range and the
        arrays' ``rows`` between it and the bank size; valid bytes and root
        flags 0 or 1, a flag set exactly where a branch this PE owns has its
        local root; every pointer null or a row handed out; the stack as deep
        as the manager says, each row on it handed out and there once; and
        every tag of a valid inner entry that is not unknown naming a valid
        child.
        """
        where = f"PE {self.pe_id} image"
        if not isinstance(image, dict) or set(image) != _IMAGE_KEYS:
            raise ValueError(f"{where}: expected the fields {sorted(_IMAGE_KEYS)}")
        allocator = self.allocator
        reserved = allocator.reserved_rows
        state = _field(image, "allocator", np.int64, (len(allocator.state),), where)
        written, depth = int(state[NEXT_FRESH]), int(state[DEPTH])
        if not reserved <= written <= allocator.num_rows:
            raise ValueError(f"{where}: next fresh row {written} outside [{reserved}, {allocator.num_rows}]")
        rows = image["rows"]
        if type(rows) is not int or not written <= rows <= allocator.num_rows:
            raise ValueError(f"{where}: {rows!r} rows for a next fresh row of {written} in {allocator.num_rows}")
        valid, pointers, tags, _ = (_field(image, name, dtype, (8, written), where) for name, dtype in BANK_FIELDS)
        roots = _field(image, "roots", np.uint8, (8,), where)
        stack = _field(image, "stack", np.int32, (depth,), where)
        if valid.max() > 1 or roots.max() > 1:
            raise ValueError(f"{where}: a valid byte or a root flag other than 0 or 1")
        owned = np.arange(8) % self.config.num_pes == self.pe_id
        if np.any(roots != valid[:, 0]) or np.any(roots.astype(bool) & ~owned):
            raise ValueError(f"{where}: root flags {roots.tolist()} do not match the local roots stored")
        inner = pointers != NULL_POINTER
        if np.any(inner & ((pointers < reserved) | (pointers >= written))):
            raise ValueError(f"{where}: a pointer outside the rows handed out, [{reserved}, {written})")
        if stack.size and (stack.min() < reserved or stack.max() >= written or np.unique(stack).size < depth):
            raise ValueError(f"{where}: the prune stack holds a row twice or one never handed out")
        # Every tag of a valid inner entry that is not unknown must name a valid child in its block.
        banks, entries = np.nonzero(inner & (valid == 1))
        listed = (tags[banks, entries, None] >> (2 * np.arange(8))) & 0b11
        held = valid[:, pointers[banks, entries]].T
        dangling = np.argwhere((listed != 0) & (held == 0))
        if dangling.size:
            entry, child = dangling[0]
            raise ValueError(
                f"{where}: the entry at row {entries[entry]} bank {banks[entry]} lists child {child}, "
                "which its block does not hold"
            )

    def restore(self, image) -> None:
        """Copy a :meth:`check_image`-checked ``image`` into this fresh PE's arrays, in place.

        The arrays stay the objects ``_valid`` ... and the kernel pin name;
        they only grow to the image's ``rows``, and are pinned again.  The
        counts travel in the accelerator's counter array, not here.
        """
        allocator = self.allocator
        written = int(image["allocator"][NEXT_FRESH])
        self.memory.reserve(image["rows"])
        for name, dtype in BANK_FIELDS:
            for field, words in zip(getattr(self, "_" + name), image[name]):
                np.frombuffer(field, dtype)[:written] = words
        np.frombuffer(self._local_roots, np.uint8)[:] = image["roots"]
        np.frombuffer(allocator.state, np.int64)[:] = image["allocator"]
        stack = image["stack"]
        np.frombuffer(allocator.stack, np.int32)[: len(stack)] = stack
        np.frombuffer(allocator.stacked, np.uint8)[stack] = 1
        self._pin()


def _field(image: Dict[str, object], name: str, dtype, shape: Tuple[int, ...], where: str) -> np.ndarray:
    """``image[name]``, if it is a numpy array of ``dtype`` and ``shape``; else a ``ValueError``."""
    value = image[name]
    if not isinstance(value, np.ndarray) or value.dtype != dtype or value.shape != shape:
        found = f"{value.dtype}{value.shape}" if isinstance(value, np.ndarray) else type(value).__name__
        raise ValueError(f"{where}: {name} must be {np.dtype(dtype)}{shape}, not {found}")
    return value


def apply_keys(
    pes: Sequence[ProcessingElement], table: ctypes.Array, keys: np.ndarray, flags: np.ndarray, tally: np.ndarray
) -> None:
    """Apply an ordered update stream to ``pes`` in one native call.

    ``table`` is :func:`native.image_table` of the PEs' images, ``keys`` the
    stream's C-ordered ``(N, 3)`` ``uint16`` key components, ``flags`` its
    ``(N,)`` ``bool`` measurements and ``tally`` a zeroed
    :func:`native.tallies` for ``pes``, which the call fills: key ``i``
    belongs to ``pes[path[0] % len(pes)]``, its first-level branch modulo the
    PE count.  The caller adds the tally to the counters, also when this
    raises.  The module docstring says how a PE that runs out of image is
    grown and how a call fails.
    """
    num_pes, count = len(pes), len(flags)
    # What the kernel indexes with: anything else would read or write past a buffer.
    if not (1 <= num_pes <= 8 and keys.shape == (count, 3) and keys.dtype == np.uint16 and flags.dtype == np.bool_):
        raise ValueError(f"{num_pes} PEs, keys {keys.dtype}{keys.shape}, flags {flags.dtype}{flags.shape}")
    if not (keys.flags.c_contiguous and flags.flags.c_contiguous):
        raise ValueError("keys and flags must be C-contiguous")
    if len(table) != num_pes or tally.shape != (num_pes, native.TALLY_WORDS) or not tally.flags.c_contiguous:
        raise ValueError(f"an image table of {len(table)} and tallies of shape {tally.shape} for {num_pes} PEs")
    for pe in pes:
        pe.pinned_image()
    order = np.empty(count, dtype=np.int64)
    arguments = table, num_pes, keys.ctypes.data, flags.ctypes.data, count, order.ctypes.data, tally.ctypes.data
    code = native.apply_batch(*arguments)
    while code == native.GROW:
        # The PE the call stopped in is the first with updates left.
        pe = pes[int(np.argmax(tally[:, native.T_DONE] < tally[:, native.T_ISSUED]))]
        pe.memory.reserve(2 * pe.memory.rows)
        pe._pin()
        code = native.apply_batch(*arguments)
    if code != native.OK:
        index = int(np.argmax(tally[:, native.T_DONE] < tally[:, native.T_ISSUED]))
        raise pes[index]._failure(code, int(tally[index, native.T_ERROR_ROW]), int(tally[index, native.T_ERROR_BANK]))
