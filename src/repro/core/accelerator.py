"""The OMU accelerator top level.

:class:`OMUAccelerator` wires together the ray-casting front end (the native
DDA of :mod:`repro.octomap.raycast_vec`, which the service also uses), the
voxel scheduler, the PE array and the voxel query unit (paper Fig. 7) and
exposes the operations the evaluation needs.  The scheduler's routing and
every PE's update loop are one native call per update stream
(:func:`repro.core.pe.apply_keys`):


* :meth:`process_scan` -- integrate one point cloud (the native ray cast of
  :func:`~repro.octomap.raycast_vec.compute_scan_update_arrays` + parallel
  voxel updates) and return the scan's cycle accounting;
* :meth:`process_scan_graph` -- integrate a whole dataset and accumulate the
  map-level timing used by Tables III-V;
* :meth:`query` / :meth:`query_key` / :meth:`query_keys` -- the voxel query
  service, one point, one voxel key or an array of voxel keys at a time;
* :meth:`export_octree` -- read the distributed map back into a software
  :class:`~repro.octomap.octree.OccupancyOcTree` (verification / host use);
* :meth:`statistics` -- memory, utilisation and access counts feeding the
  energy model;
* :meth:`image` / :meth:`restore` -- the whole state as arrays (a shard
  snapshot), and a fresh accelerator made into the one it was taken from.

Every count lives in one ``int64`` array per accelerator (:mod:`repro.core.counts`):
the kernels' raw tallies add up there, and every object's counts are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core import counts, native
from repro.core.address_gen import AddressGenerator, key_columns
from repro.core.config import DEFAULT_CONFIG, OMUConfig
from repro.core.counts import ACCELERATOR_WORDS, MAP_STAGES, MAP_WORDS, OCCUPIED, PE_WORDS, RAY_STEPS, SCANS
from repro.core.pe import ProcessingElement, apply_keys
from repro.core.query_unit import QueryResult, VoxelQueryUnit
from repro.core.scheduler import VoxelScheduler
from repro.core.timing import CycleBreakdown, ScanTiming
from repro.core.treemem import SRAMImage
from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.keys import OcTreeKey
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.pointcloud import PointCloud, ScanGraph
from repro.octomap.raycast_vec import compute_scan_update_arrays, unpack_key_array

__all__ = ["OMUAccelerator", "AcceleratorStatistics"]


@dataclass
class AcceleratorStatistics:
    """Aggregate statistics of an accelerator run (feeds the energy model).

    Attributes:
        total_cycles: end-to-end critical-path cycles accumulated so far.
        voxel_updates: leaf updates performed across all PEs.
        sram_reads / sram_writes: single-bank SRAM accesses (row accesses
            count as eight) -- the dominant energy term (91 % in the paper).
        nodes_stored: live tree nodes across all PEs.
        memory_utilization: fraction of the total SRAM holding live nodes.
        prune_reuse_fraction: share of children-block allocations served from
            the prune-address stacks.
        per_pe_cycles: busy cycles of each PE (load balance view).
    """

    total_cycles: int = 0
    voxel_updates: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    nodes_stored: int = 0
    memory_utilization: float = 0.0
    prune_reuse_fraction: float = 0.0
    per_pe_cycles: Dict[int, int] = field(default_factory=dict)


class OMUAccelerator:
    """Functional + cycle-approximate model of the OMU accelerator."""

    def __init__(self, config: OMUConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.address_generator = AddressGenerator(
            config.resolution_m, config.tree_depth, config.num_pes
        )
        num_pes = config.num_pes
        # The only counter state (see repro.core.counts), and each PE's words of it.
        self._words = np.zeros(ACCELERATOR_WORDS + num_pes * PE_WORDS, dtype=np.int64)
        self._pe_words = self._words[ACCELERATOR_WORDS:].reshape(num_pes, PE_WORDS)
        self._costs = counts.costs(config.timing, config.tree_depth)
        # The only SRAM state: every PE's banks, allocator and roots, and the kernels' structs over them.
        self.sram = SRAMImage(num_pes, config.entries_per_bank, 1, config.tree_depth, config.quantized_params())
        self.pes: List[ProcessingElement] = [
            ProcessingElement(pe_id, config, self._pe_words[pe_id], self.sram) for pe_id in range(num_pes)
        ]
        # The update calls' scratch, zeroed before each.
        self._tally = native.tallies(num_pes)
        self.scheduler = VoxelScheduler(self._pe_words[:, counts.ISSUED])
        self.query_unit = VoxelQueryUnit(config, self.address_generator, self.pes, self._words, self.sram.table)

    @property
    def map_timing(self) -> ScanTiming:
        """The timing of everything integrated so far, scan after scan (the sum of every call's)."""
        return _scan_timing(self._words[:MAP_WORDS].tolist())

    @property
    def scans_processed(self) -> int:
        """Scans integrated through :meth:`process_scan`."""
        return int(self._words[SCANS])

    # ------------------------------------------------------------------
    # Map building
    # ------------------------------------------------------------------
    def process_scan(
        self,
        cloud: PointCloud,
        origin: Sequence[float],
        max_range: float = -1.0,
    ) -> ScanTiming:
        """Integrate one sensor scan and return its timing summary.

        The scan is ray-cast in one native call -- the same front end the
        serving layer uses -- into de-duplicated free and occupied keys (each
        voxel at most once per scan, occupied beats free), which the scheduler
        issues free before occupied, each set sorted, as the software
        insertion path orders them.  Ray casting costs ``ray_step_cycles`` per
        traversed voxel and runs ahead of the update pipeline, which hides it
        behind the PEs: only its excess over the busiest PE reaches the
        critical path (see :meth:`_execute`).  A scan the ray
        cast rejects raises before anything is counted or applied.
        """
        cast = compute_scan_update_arrays(self.address_generator.converter, cloud.points, origin, max_range)
        self._words[RAY_STEPS] += cast.ray_steps
        keys = unpack_key_array(np.concatenate((cast.free_packed, cast.occupied_packed))).astype(np.uint16)
        occupied = np.arange(len(keys)) >= cast.free_packed.size
        timing = self._execute(keys, occupied, cast.ray_steps * self.config.timing.ray_step_cycles)
        self._words[SCANS] += 1
        return timing

    def apply_update_batch(self, keys, occupied) -> ScanTiming:
        """Apply an ordered stream of pre-computed voxel updates.

        The serving layer ray-casts once in its shared front end and then
        dispatches per-shard key streams to worker accelerators; this entry
        point skips the on-chip ray caster and feeds the stream straight into
        the voxel scheduler.  Stream order is preserved per voxel, so a batch
        spanning several scans produces exactly the map that sequential
        :meth:`process_scan` calls would.

        Args:
            keys: ``(N, 3)`` key components of the stream, in issue order.
            occupied: ``(N,)`` flags aligned with ``keys`` (``True`` for a hit,
                ``False`` for a miss).

        Raises:
            ValueError: if a key component lies outside the 16-bit key space
                (what constructing the :class:`OcTreeKey` would reject), or
                the columns disagree on N; nothing is applied or issued.
        """
        keys = key_columns(keys)
        flags = np.ascontiguousarray(occupied, dtype=bool)
        if flags.shape != keys.shape[:1]:
            raise ValueError(f"{len(keys)} keys but occupied flags of shape {flags.shape}")
        return self._execute(keys, flags, 0)

    def _execute(self, keys: np.ndarray, occupied: np.ndarray, raycast_cycles: int) -> ScanTiming:
        """Issue an ordered update stream to the PE array, add up its tally (also when it fails) and time it.

        The PEs run in parallel, so the call's parallel section and stage mix
        (the paper's Fig. 10) are its busiest PE's; ray casting is hidden
        behind the update pipeline, so only its *excess* over that PE shows.
        """
        tally = self._tally
        tally.fill(0)
        try:
            apply_keys(self.pes, self.sram.table, keys, occupied, tally)
        finally:
            stages = counts.fold_updates(self._pe_words, tally, self._costs)
        per_pe_cycles = stages.sum(axis=1)
        busiest = int(per_pe_cycles.argmax())
        breakdown = stages[busiest].tolist()  # in OperationKind.ordered() order: ray casting first
        breakdown[0] = max(0, raycast_cycles - int(per_pe_cycles[busiest]))
        count = len(occupied)
        call = [
            count * self.config.timing.scheduler_issue_cycles,
            raycast_cycles,
            int(per_pe_cycles[busiest]),
            int(per_pe_cycles.sum()),
            count,
            *breakdown,
        ]
        self._words[:MAP_WORDS] += call
        return _scan_timing(call)

    def process_scan_graph(
        self,
        graph: ScanGraph,
        max_range: float = -1.0,
    ) -> ScanTiming:
        """Integrate every scan of a dataset; returns the accumulated timing."""
        before = self._words[:MAP_WORDS].copy()
        for scan in graph:
            self.process_scan(scan.world_cloud(), scan.origin(), max_range=max_range)
        return _scan_timing((self._words[:MAP_WORDS] - before).tolist())

    # ------------------------------------------------------------------
    # Whole-map (pipelined) latency accounting
    # ------------------------------------------------------------------
    def map_critical_path_cycles(self) -> int:
        """End-to-end cycles for everything processed so far, with pipelining.

        The paper's free / occupied voxel queues decouple the ray-casting
        front end and the voxel scheduler from the PE array, so a PE left idle
        by one scan's spatial distribution immediately receives work from the
        next scan -- there is no barrier at scan boundaries.  The whole-map
        latency is therefore the serial front-end time plus the *busiest PE's
        total* busy cycles (overlapped with the total ray-casting time),
        rather than the sum of per-scan maxima that :attr:`map_timing` would
        give.  This is the latency the Tables III-V extrapolation uses.
        """
        timing = self.map_timing
        return timing.scheduler_cycles + max(int(self._busy_cycles().max()), timing.raycast_cycles)

    def map_cycles_per_update(self) -> float:
        """Effective whole-map cycles per voxel update (pipelined accounting)."""
        if self.map_timing.voxel_updates == 0:
            return 0.0
        return self.map_critical_path_cycles() / self.map_timing.voxel_updates

    def map_parallel_speedup(self) -> float:
        """Work / critical-path ratio achieved by the PE array over the map."""
        cycles = self._busy_cycles()
        return int(cycles.sum()) / int(cycles.max()) if cycles.any() else 1.0

    def _busy_cycles(self) -> np.ndarray:
        """Each PE's cycles of update work so far (reads are the query unit's)."""
        return (self._pe_words @ self._costs[:, :4]).sum(axis=1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, x: float, y: float, z: float) -> QueryResult:
        """Occupancy query for the voxel containing ``(x, y, z)``."""
        return self.query_unit.query(x, y, z)

    def query_key(self, key: OcTreeKey) -> QueryResult:
        """Occupancy query for one voxel key."""
        return self.query_unit.query_key(key)

    def query_keys(self, keys, stop_at_occupied: bool = False):
        """Occupancy of ``(N, 3)`` voxel keys in one pass; see :meth:`VoxelQueryUnit.query_keys`."""
        return self.query_unit.query_keys(keys, stop_at_occupied)

    def classify(self, x: float, y: float, z: float) -> str:
        """Shorthand returning just the occupancy status string."""
        return self.query(x, y, z).status

    # ------------------------------------------------------------------
    # Map read-back and statistics
    # ------------------------------------------------------------------
    def export_octree(self) -> OccupancyOcTree:
        """Rebuild a software octree from the distributed PE memories.

        The exported tree uses the accelerator's quantised occupancy
        parameters so its values live on the same fixed-point grid.
        """
        quantized = self.config.quantized_params()
        tree = OccupancyOcTree(
            self.config.resolution_m,
            tree_depth=self.config.tree_depth,
            params=quantized.as_float_params(),
        )
        fmt = self.config.fixed_point
        for pe in self.pes:
            for node in pe.export_nodes():
                if not node.is_leaf:
                    continue
                log_odds = fmt.to_value(node.probability_raw)
                key = self._path_to_key(node.path)
                if len(node.path) == self.config.tree_depth:
                    # Propagation is deferred to one whole-tree pass below;
                    # per-leaf propagation would make the export quadratic.
                    tree.set_node_log_odds(key, log_odds, propagate=False)
                else:
                    # Homogeneous (pruned) region: replay it as the software
                    # tree's pruned representation by writing one child per
                    # octant at the next level down and letting prune() fold
                    # them back; cheaper: write the covering node directly.
                    self._write_coarse_leaf(tree, node.path, log_odds)
        tree.update_inner_occupancy()
        tree.prune()
        return tree

    def _write_coarse_leaf(self, tree: OccupancyOcTree, path, log_odds: float) -> None:
        """Materialise a pruned homogeneous region inside a software tree."""
        node = tree.root
        if node is None:
            from repro.octomap.node import OcTreeNode

            tree._root = OcTreeNode(0.0)
            tree._num_nodes = 1
            node = tree._root
        for child_index in path:
            if not node.child_exists(child_index):
                node.create_child(child_index, 0.0)
                tree._num_nodes += 1
            node = node.child(child_index)
        node.log_odds = tree.params.clamp(log_odds)
        node.delete_children()
        # No propagation here: export_octree runs one whole-tree
        # update_inner_occupancy() after all leaves (fine and coarse) are
        # written; a per-leaf pass would make pruned-map exports quadratic.

    def _path_to_key(self, path) -> OcTreeKey:
        depth = self.config.tree_depth
        kx = ky = kz = 0
        for level, child_index in enumerate(path):
            bit = depth - 1 - level
            kx |= ((child_index >> 0) & 1) << bit
            ky |= ((child_index >> 1) & 1) << bit
            kz |= ((child_index >> 2) & 1) << bit
        if len(path) < depth:
            half = 1 << (depth - len(path) - 1)
            kx += half
            ky += half
            kz += half
        return OcTreeKey(kx, ky, kz)

    def counters(self) -> OperationCounters:
        """Merged functional operation counters of all PEs and the ray cast."""
        merged = counts.operation_counters(self._pe_words.sum(axis=0))
        merged.ray_steps = int(self._words[RAY_STEPS])
        return merged

    def statistics(self) -> AcceleratorStatistics:
        """Aggregate statistics of the run so far (feeds the energy model)."""
        stats = AcceleratorStatistics()
        stats.total_cycles = self.map_critical_path_cycles()
        stats.voxel_updates = self.map_timing.voxel_updates
        words = self._pe_words
        stats.sram_reads = int(counts.bank_reads(words).sum())
        stats.sram_writes = int(counts.bank_writes(words).sum())
        stats.nodes_stored = int(words[:, OCCUPIED : OCCUPIED + 8].sum())
        stats.per_pe_cycles = dict(enumerate(self._busy_cycles().tolist()))
        total_allocations = sum(pe.allocator.allocations for pe in self.pes)
        total_reused = sum(pe.allocator.reused_allocations for pe in self.pes)
        capacity = self.config.node_capacity
        stats.memory_utilization = stats.nodes_stored / capacity if capacity else 0.0
        stats.prune_reuse_fraction = total_reused / total_allocations if total_allocations else 0.0
        return stats

    # ------------------------------------------------------------------
    # State image (shard snapshots)
    # ------------------------------------------------------------------
    def image(self) -> Dict[str, object]:
        """The accelerator's whole state as numpy arrays and ints: what :meth:`restore` takes back.

        Per PE, its SRAM rows, local roots and prune address manager
        (:meth:`ProcessingElement.image`: copies of its slices of
        :attr:`sram`); a copy of the counter array every count is a view of
        (:mod:`repro.core.counts`); and the three sizes
        the arrays are shaped by.  Nothing is walked or rebuilt, so the copy
        has the row layout, the prune stack and the lifetime counts of the
        original.
        """
        config = self.config
        return {
            "num_pes": config.num_pes,
            "tree_depth": config.tree_depth,
            "entries_per_bank": config.entries_per_bank,
            "counters": self._words.copy(),
            "pes": [pe.image() for pe in self.pes],
        }

    def restore(self, image) -> None:
        """Make this freshly built accelerator the one ``image`` was taken from.

        An image may have crossed a socket, so all of it is checked before any
        array is written (:meth:`ProcessingElement.check_image` per PE, and
        each bank's live-entry word against the valid bytes it counts): a
        malformed one raises ``ValueError`` and leaves this accelerator as it
        was.  Then each PE's arrays and the counter array are copied in place.
        """
        if self.sram.roots.any():
            raise ValueError("restore needs a freshly built accelerator (this one holds map state)")
        if not isinstance(image, dict) or set(image) != _IMAGE_KEYS:
            raise ValueError(f"not an accelerator image: expected the fields {sorted(_IMAGE_KEYS)}")
        config = self.config
        sizes = (image["num_pes"], image["tree_depth"], image["entries_per_bank"])
        if sizes != (config.num_pes, config.tree_depth, config.entries_per_bank):
            raise ValueError(
                f"an image of {sizes[0]} PEs at depth {sizes[1]} with {sizes[2]} entries per bank; this "
                f"accelerator has {config.num_pes} at depth {config.tree_depth} with {config.entries_per_bank}"
            )
        words, pes = image["counters"], image["pes"]
        if not (isinstance(words, np.ndarray) and words.dtype == np.int64 and words.shape == self._words.shape):
            raise ValueError(f"the image's counters must be int64{self._words.shape}")
        if not isinstance(pes, list) or len(pes) != len(self.pes):
            raise ValueError(f"the image must hold a list of {len(self.pes)} PE images")
        for pe, part in zip(self.pes, pes):
            pe.check_image(part)
        live = words[ACCELERATOR_WORDS:].reshape(self._pe_words.shape)[:, OCCUPIED : OCCUPIED + 8]
        held = np.array([part["valid"].sum(axis=1, dtype=np.int64) for part in pes])
        if np.any(live != held):
            raise ValueError(f"the image's live entries per bank, {live.tolist()}, are not its valid bytes")
        for pe, part in zip(self.pes, pes):
            pe.restore(part)
        self._words[:] = words


_IMAGE_KEYS = frozenset({"num_pes", "tree_depth", "entries_per_bank", "counters", "pes"})


def _scan_timing(words: List[int]) -> ScanTiming:
    """The :class:`ScanTiming` of map-timing words: its five counts, then its breakdown's four stages."""
    stages = CycleBreakdown(dict(zip(OperationKind.ordered(), words[MAP_STAGES:])))
    return ScanTiming(*words[:MAP_STAGES], breakdown=stages)
