"""The OMU accelerator top level.

:class:`OMUAccelerator` wires together the front end (host interface, ray
casting, voxel queues), the voxel scheduler, the PE array and the voxel query
unit (paper Fig. 7) and exposes the operations the evaluation needs.  The
scheduler's routing and every PE's update loop are one native call per update
stream (:func:`repro.core.pe.apply_keys`):


* :meth:`process_scan` -- integrate one point cloud (ray casting + parallel
  voxel updates) and return the scan's cycle accounting;
* :meth:`process_scan_graph` -- integrate a whole dataset and accumulate the
  map-level timing used by Tables III-V;
* :meth:`query` / :meth:`query_keys` -- the voxel query service, one point
  or an array of voxel keys at a time;
* :meth:`export_octree` -- read the distributed map back into a software
  :class:`~repro.octomap.octree.OccupancyOcTree` (verification / host use);
* :meth:`statistics` -- memory, utilisation and access counts feeding the
  energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core import native
from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG, OMUConfig
from repro.core.interconnect import HostInterface
from repro.core.pe import ProcessingElement, apply_keys
from repro.core.query_unit import QueryResult, VoxelQueryUnit
from repro.core.raycast_unit import RayCastingUnit
from repro.core.scheduler import VoxelScheduler
from repro.core.timing import CycleBreakdown, ScanTiming
from repro.octomap.counters import OperationCounters, OperationKind
from repro.octomap.logodds import probability as logodds_to_probability
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.pointcloud import PointCloud, ScanGraph

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
        if config.num_pes > 8:
            raise ValueError(
                "the first-level-branch partitioning supports at most 8 PEs; "
                f"got num_pes={config.num_pes}"
            )
        self.config = config
        self.address_generator = AddressGenerator(
            config.resolution_m, config.tree_depth, config.num_pes
        )
        self.pes: List[ProcessingElement] = [
            ProcessingElement(pe_id, config) for pe_id in range(config.num_pes)
        ]
        self.scheduler = VoxelScheduler(config)
        self.raycaster = RayCastingUnit(config, self.address_generator)
        self.query_unit = VoxelQueryUnit(config, self.address_generator, self.pes)
        self.host = HostInterface()
        self.map_timing = ScanTiming()
        self.scans_processed = 0

    # ------------------------------------------------------------------
    # Map building
    # ------------------------------------------------------------------
    def process_scan(
        self,
        cloud: PointCloud,
        origin: Sequence[float],
        max_range: float = -1.0,
    ) -> ScanTiming:
        """Integrate one sensor scan and return its timing summary."""
        self.host.configure(self.config.resolution_m, max_range, origin)
        self.host.stream_points(len(cloud))
        self.host.start()

        cast = self.raycaster.cast_scan(cloud, origin, max_range=max_range)
        # Free-space updates are issued before occupied ones, mirroring the
        # software insertion order (the key sets are de-duplicated upstream).
        keys = np.array([key.as_tuple() for key in (*cast.free_keys, *cast.occupied_keys)], dtype=np.uint16)
        occupied = np.arange(len(keys)) >= len(cast.free_keys)
        timing = self._execute(keys.reshape(-1, 3), occupied, cast.cycles)

        self.map_timing.merge(timing)
        self.scans_processed += 1
        self.host.finish(timing.critical_path_cycles())
        return timing

    def apply_update_batch(self, requests, occupied=None) -> ScanTiming:
        """Apply an ordered stream of pre-computed voxel updates.

        The serving layer ray-casts once in its shared front end and then
        dispatches per-shard key streams to worker accelerators; this entry
        point skips the on-chip ray caster and feeds the stream straight into
        the voxel scheduler.  Stream order is preserved per voxel, so a batch
        spanning several scans produces exactly the map that sequential
        :meth:`process_scan` calls would.

        The stream is either a sequence of
        :class:`~repro.core.scheduler.VoxelUpdateRequest` or, with
        ``occupied`` given, its columns: ``requests`` is then the ``(N, 3)``
        array of key components and ``occupied`` the ``(N,)`` flags.

        Raises:
            ValueError: if a key component lies outside the 16-bit key space
                (what constructing the :class:`OcTreeKey` would reject), or
                the columns disagree on N; nothing is applied or issued.
        """
        if occupied is None:
            occupied = [request.occupied for request in requests]
            requests = [request.key.as_tuple() for request in requests]
        keys = np.asarray(requests)
        if keys.dtype != np.uint16 and keys.size and not (0 <= keys.min() and keys.max() <= 0xFFFF):
            raise ValueError("key component outside [0, 65535]")
        keys = np.ascontiguousarray(keys, dtype=np.uint16).reshape(-1, 3)
        flags = np.ascontiguousarray(occupied, dtype=bool)
        if flags.shape != keys.shape[:1]:
            raise ValueError(f"{len(keys)} keys but occupied flags of shape {flags.shape}")
        timing = self._execute(keys, flags, 0)
        self.map_timing.merge(timing)
        return timing

    def _execute(self, keys: np.ndarray, occupied: np.ndarray, raycast_cycles: int) -> ScanTiming:
        """Issue an ordered update stream to the PE array and account its cycles."""
        tally = native.tallies(len(self.pes))
        try:
            per_pe_breakdowns = apply_keys(self.pes, keys, occupied, tally)
        finally:
            # The whole stream was issued, whatever became of it in the PEs.
            issue_cycles = self.scheduler.issue(tally[native.T_ISSUED :: native.TALLY_WORDS])
        per_pe_cycles = [breakdown.total() for breakdown in per_pe_breakdowns]
        timing = ScanTiming(
            scheduler_cycles=issue_cycles,
            raycast_cycles=raycast_cycles,
            pe_cycles_max=max(per_pe_cycles),
            pe_cycles_total=sum(per_pe_cycles),
            voxel_updates=len(occupied),
        )
        timing.breakdown = self._accelerator_breakdown(
            per_pe_cycles, per_pe_breakdowns, raycast_cycles
        )
        return timing

    def _accelerator_breakdown(
        self,
        per_pe_cycles: List[int],
        per_pe_breakdowns: List[CycleBreakdown],
        raycast_cycles: int,
    ) -> CycleBreakdown:
        """Accelerator-level breakdown: the critical-path PE's stage mix.

        The paper's Fig. 10 plots the share of each stage in the accelerator's
        runtime; since the PEs run in parallel, the relevant mix is that of
        the busiest PE (the critical path).  Ray casting is hidden behind the
        update pipeline, so only its *excess* over the busiest PE shows up.
        """
        breakdown = CycleBreakdown()
        busiest = max(range(len(per_pe_cycles)), key=per_pe_cycles.__getitem__)
        breakdown.merge(per_pe_breakdowns[busiest])
        excess_raycast = max(0, raycast_cycles - per_pe_cycles[busiest])
        if excess_raycast:
            breakdown.charge(OperationKind.RAY_CASTING, excess_raycast)
        return breakdown

    def process_scan_graph(
        self,
        graph: ScanGraph,
        max_range: float = -1.0,
    ) -> ScanTiming:
        """Integrate every scan of a dataset; returns the accumulated timing."""
        total = ScanTiming()
        for scan in graph:
            timing = self.process_scan(scan.world_cloud(), scan.origin(), max_range=max_range)
            total.merge(timing)
        return total

    # ------------------------------------------------------------------
    # Whole-map (pipelined) latency accounting
    # ------------------------------------------------------------------
    def map_critical_path_cycles(self) -> int:
        """End-to-end cycles for everything processed so far, with pipelining.

        The free / occupied voxel queues decouple the ray-casting front end
        and the voxel scheduler from the PE array, so a PE left idle by one
        scan's spatial distribution immediately receives work from the next
        scan -- there is no barrier at scan boundaries.  The whole-map latency
        is therefore the serial front-end time plus the *busiest PE's total*
        busy cycles (overlapped with the total ray-casting time), rather than
        the sum of per-scan maxima that :attr:`map_timing` would give.  This
        is the latency the Tables III-V extrapolation uses.
        """
        busiest_pe = max((pe.busy_cycles() for pe in self.pes), default=0)
        parallel_section = max(busiest_pe, self.map_timing.raycast_cycles)
        return self.map_timing.scheduler_cycles + parallel_section

    def map_cycles_per_update(self) -> float:
        """Effective whole-map cycles per voxel update (pipelined accounting)."""
        if self.map_timing.voxel_updates == 0:
            return 0.0
        return self.map_critical_path_cycles() / self.map_timing.voxel_updates

    def map_parallel_speedup(self) -> float:
        """Work / critical-path ratio achieved by the PE array over the map."""
        total_work = sum(pe.busy_cycles() for pe in self.pes)
        busiest = max((pe.busy_cycles() for pe in self.pes), default=0)
        if busiest == 0:
            return 1.0
        return total_work / busiest

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, x: float, y: float, z: float) -> QueryResult:
        """Occupancy query for the voxel containing ``(x, y, z)``."""
        return self.query_unit.query(x, y, z)

    def query_keys(self, keys):
        """Occupancy of ``(N, 3)`` voxel keys in one pass; see :meth:`VoxelQueryUnit.query_keys`."""
        return self.query_unit.query_keys(keys)

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

    def _path_to_key(self, path) -> "OcTreeKey":
        from repro.octomap.keys import OcTreeKey

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

    def load_octree(self, tree: OccupancyOcTree) -> None:
        """Rebuild the PE memories from a software octree (snapshot restore).

        The inverse of :meth:`export_octree`: every node of ``tree`` becomes
        a TreeMem entry on the PE owning its first-level branch, with the
        exact fixed-point raw value the export quantised it from (16-bit raws
        round-trip float32 losslessly, so serialize -> deserialize -> restore
        is bit-exact).  The PE array prunes eagerly under the same
        all-eight-equal-leaves rule the software tree uses, so the pruned
        tree maps 1:1 onto the PE node representation; a leaf above the
        finest depth is restored as a pruned homogeneous entry (NULL pointer,
        all eight tags carrying its classification).

        Restoration targets a *fresh* accelerator only -- cycle counters and
        access statistics restart at zero (they describe the new lifetime,
        not the snapshotted one's).
        """
        if any(any(pe._local_roots) for pe in self.pes):
            raise ValueError(
                "load_octree requires a freshly constructed accelerator "
                "(this one already holds map state)"
            )
        if tree.resolution != self.config.resolution_m:
            raise ValueError(
                f"snapshot resolution {tree.resolution} does not match the "
                f"accelerator's {self.config.resolution_m}"
            )
        if tree.tree_depth != self.config.tree_depth:
            raise ValueError(
                f"snapshot tree depth {tree.tree_depth} does not match the "
                f"accelerator's {self.config.tree_depth}"
            )
        root = tree.root
        if root is None:
            return
        if not root.has_children():
            # The whole map pruned to a single root leaf: re-materialise the
            # eight first-level branches as homogeneous pruned leaves.
            for branch in range(8):
                self._load_branch(branch, root)
            return
        for branch, child in root.children():
            self._load_branch(branch, child)

    def _load_branch(self, branch: int, node) -> None:
        """Restore one first-level branch subtree onto its owning PE."""
        pe = self.pes[branch % self.config.num_pes]
        entry = self._restore_entry(pe, node, depth=1)
        pe.memory.write_entry(0, branch, entry)
        pe._local_roots[branch] = 1

    def _restore_entry(self, pe, node, depth: int) -> "TreeMemEntry":
        """Build (and recursively store) the TreeMem image of one tree node."""
        from repro.core.treemem import NULL_POINTER, ChildStatus, TreeMemEntry

        fmt = self.config.fixed_point
        raw = fmt.to_raw(node.log_odds)
        entry = TreeMemEntry(probability_raw=raw)
        if not node.has_children():
            if depth < self.config.tree_depth:
                # Pruned homogeneous region: same representation the PE's
                # own pruning pass leaves behind (NULL pointer, all eight
                # tags set to the node's classification).
                status = pe.probability_unit.classify(raw)
                entry.child_tags = [status] * 8
            return entry
        row = pe.allocator.allocate_row()
        entry.pointer = row
        children = [None] * 8
        for index, child in node.children():
            child_entry = self._restore_entry(pe, child, depth + 1)
            children[index] = child_entry
            if child_entry.pointer != NULL_POINTER:
                entry.set_tag(index, ChildStatus.INNER)
            else:
                entry.set_tag(
                    index, pe.probability_unit.classify(child_entry.probability_raw)
                )
        pe.memory.write_row(row, children)
        return entry

    def counters(self) -> OperationCounters:
        """Merged functional operation counters of all PEs and the ray caster."""
        merged = OperationCounters()
        merged.merge(self.raycaster.counters)
        for pe in self.pes:
            merged.merge(pe.counters)
        return merged

    def statistics(self) -> AcceleratorStatistics:
        """Aggregate statistics of the run so far (feeds the energy model)."""
        stats = AcceleratorStatistics()
        stats.total_cycles = self.map_critical_path_cycles()
        stats.voxel_updates = self.map_timing.voxel_updates
        total_allocations = 0
        total_reused = 0
        for pe in self.pes:
            stats.sram_reads += pe.memory.total_reads()
            stats.sram_writes += pe.memory.total_writes()
            stats.nodes_stored += pe.memory.occupied_entries()
            stats.per_pe_cycles[pe.pe_id] = pe.busy_cycles()
            total_allocations += pe.allocator.allocations
            total_reused += pe.allocator.reused_allocations
        capacity = self.config.node_capacity
        stats.memory_utilization = stats.nodes_stored / capacity if capacity else 0.0
        stats.prune_reuse_fraction = total_reused / total_allocations if total_allocations else 0.0
        return stats

    def elapsed_seconds(self) -> float:
        """Wall-clock time of the modelled run at the configured frequency."""
        return self.config.cycles_to_seconds(self.map_critical_path_cycles())

    def occupancy_probability_of(self, raw: int) -> float:
        """Convert a raw fixed-point log-odds value to a probability."""
        return logodds_to_probability(self.config.fixed_point.to_value(raw))
