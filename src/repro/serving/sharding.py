"""Spatial sharding: octree-key-prefix routing and map shard workers.

A map session spreads its octree over a pool of shard workers, each a full
:class:`~repro.core.accelerator.OMUAccelerator` instance that owns a disjoint
region of the key space.  Routing reuses the accelerator's own
address-generation view of the key bits: the first ``prefix_levels`` child
indices of the root-to-leaf path select the subtree, and the subtree number
modulo the shard count selects the worker (see
:meth:`repro.core.address_gen.AddressGenerator.shard_index`).

This is the same first-level-branch partitioning the paper uses *inside* one
accelerator, lifted one level up: PEs parallelise within a chip, shards
parallelise across chips (or across processes, once the serving layer grows a
distributed backend).

Prefix depth picks the granularity.  ``prefix_levels=1`` shards by octant;
deeper prefixes shard by progressively smaller blocks (the session default of
12 gives 16x16x16-voxel blocks).  Because a shard can only prune a subtree
whose eight children it fully owns, and modulo routing never hands all eight
children of an above-prefix node to one shard (for ``num_shards >= 2``),
every exported leaf -- pruned or not -- stays inside its shard's own key
region, which is what makes the export stitch conflict-free.
"""

from __future__ import annotations

import threading
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accelerator import OMUAccelerator
from repro.core.address_gen import AddressGenerator
from repro.core.config import OMUConfig
from repro.core.query_unit import QueryResult
from repro.core.scheduler import VoxelUpdateRequest
from repro.core.timing import ScanTiming
from repro.octomap.keys import KeyConverter, OcTreeKey
from repro.octomap.octree import OccupancyOcTree
from repro.serving.types import (
    ShardApplyResult,
    ShardExportResult,
    ShardKeysQuery,
    ShardKeysResult,
    ShardQueryRequest,
    ShardQueryResult,
    ShardSnapshot,
    ShardUpdateBatch,
)

__all__ = ["ShardRouter", "MapShardWorker", "ShardHost"]


class ShardRouter:
    """Maps voxel keys (and metric points) to shard ids."""

    def __init__(self, config: OMUConfig, num_shards: int, prefix_levels: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if not 1 <= prefix_levels <= config.tree_depth:
            raise ValueError(
                f"prefix_levels must be in [1, {config.tree_depth}], got {prefix_levels}"
            )
        # With P prefix levels there are 8**P distinct subtrees; more shards
        # than subtrees would leave workers permanently idle.
        if num_shards > 8 ** prefix_levels:
            raise ValueError(
                f"{num_shards} shards but only 8**{prefix_levels} = "
                f"{8 ** prefix_levels} key-prefix subtrees; raise prefix_levels"
            )
        self.num_shards = num_shards
        self.prefix_levels = prefix_levels
        self._address_generator = AddressGenerator(
            config.resolution_m, config.tree_depth, config.num_pes
        )

    @property
    def converter(self) -> KeyConverter:
        """The coordinate <-> key converter shared by every shard."""
        return self._address_generator.converter

    def shard_for_key(self, key: OcTreeKey) -> int:
        """Shard id owning a voxel key."""
        return self._address_generator.shard_index(key, self.num_shards, self.prefix_levels)

    def shard_for_point(self, x: float, y: float, z: float) -> int:
        """Shard id owning the voxel containing a metric point."""
        return self.shard_for_key(self.converter.coord_to_key(x, y, z))

    def partition(
        self, requests: Sequence[VoxelUpdateRequest]
    ) -> List[List[VoxelUpdateRequest]]:
        """Split an ordered update stream into per-shard streams.

        Stream order is preserved inside each shard, and every update for a
        given voxel lands on the same shard -- together these guarantee that
        per-voxel update order matches the global stream, which is what makes
        sharded ingestion equivalent to sequential insertion.
        """
        per_shard: List[List[VoxelUpdateRequest]] = [[] for _ in range(self.num_shards)]
        for request in requests:
            per_shard[self.shard_for_key(request.key)].append(request)
        return per_shard

    def shard_indices_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Shard ids for an ``(N, 3)`` key-component array (vectorized)."""
        return self._address_generator.shard_indices(
            keys, self.num_shards, self.prefix_levels
        )

    def partition_key_arrays(
        self, keys: np.ndarray, occupied: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Array counterpart of :meth:`partition` for the front end's key arrays.

        Args:
            keys: ``(N, 3)`` key components of the ordered update stream.
            occupied: ``(N,)`` bool flags aligned with ``keys``.

        Returns:
            One ``(keys, occupied)`` pair per shard.  Boolean masking keeps
            stream order inside each shard, so the slices are element-for-
            element identical to what :meth:`partition` produces from the
            same stream.
        """
        shard_ids = self.shard_indices_for_keys(keys)
        per_shard: List[Tuple[np.ndarray, np.ndarray]] = []
        for shard in range(self.num_shards):
            mask = shard_ids == shard
            per_shard.append((keys[mask], occupied[mask]))
        return per_shard


class MapShardWorker:
    """One shard of a session's map: an accelerator plus a write generation.

    The worker is the unit of parallelism and of cache invalidation: every
    applied batch bumps :attr:`generation`, which the query cache uses to
    lazily drop stale entries for this shard only.
    """

    def __init__(self, shard_id: int, config: OMUConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        self._accelerator: Optional[OMUAccelerator] = None
        self.generation = 0
        self.batches_applied = 0
        self.updates_applied = 0

    @property
    def accelerator(self) -> OMUAccelerator:
        """This shard's accelerator, built on first use.

        Attaching a shard -- what creating a session costs -- then builds no
        PE array, and a shard that is never written or read builds none at
        all.  The worker is touched by one thread at a time (one apply in
        flight per session, reads behind it), as its SRAM image requires.
        """
        if self._accelerator is None:
            self._accelerator = OMUAccelerator(self.config)
        return self._accelerator

    def apply_updates(self, requests, occupied=None) -> ScanTiming:
        """Apply an ordered update stream and invalidate this shard's cache.

        Takes what :meth:`OMUAccelerator.apply_update_batch` takes: a sequence
        of :class:`VoxelUpdateRequest`, or an ``(N, 3)`` key array plus its
        ``(N,)`` ``occupied`` flags.
        """
        timing = self.accelerator.apply_update_batch(requests, occupied)
        if len(requests):
            self.generation += 1
            self.batches_applied += 1
            self.updates_applied += len(requests)
        return timing

    def query(self, x: float, y: float, z: float) -> QueryResult:
        """Occupancy query served by this shard's accelerator."""
        return self.accelerator.query(x, y, z)

    def query_key(self, key: OcTreeKey) -> QueryResult:
        """Occupancy query by voxel key (centre-of-voxel metric lookup)."""
        return self.accelerator.query(*self.accelerator.address_generator.converter.key_to_coord(key))

    def export_octree(self) -> OccupancyOcTree:
        """This shard's region of the map as a software octree."""
        return self.accelerator.export_octree()

    def busy_cycles(self) -> int:
        """Total modelled busy cycles of this shard's accelerator."""
        return self.accelerator.map_critical_path_cycles()

    # ------------------------------------------------------------------
    # Message-level API (shared by every execution backend)
    # ------------------------------------------------------------------
    # Execution engines talk to workers only through the pickle-safe
    # ``Shard*`` messages of :mod:`repro.serving.types`, delivered by
    # :class:`ShardHost`; routing them through these handlers keeps the
    # inline, thread, process and socket execution paths byte-identical.

    def apply_message(self, batch: ShardUpdateBatch) -> ShardApplyResult:
        """Apply one wire-format update batch and acknowledge it.

        The batch's columns go to the accelerator as they arrived.  A batch
        for another shard, or one whose columns are not ``(N, 3)`` integer
        keys and N flags, is refused before anything is applied.
        """
        if batch.shard_id != self.shard_id:
            raise ValueError(
                f"batch for shard {batch.shard_id} delivered to shard {self.shard_id}"
            )
        keys, occupied = np.asarray(batch.keys), np.asarray(batch.occupied)
        key_table = keys.ndim == 2 and keys.shape[1] == 3 and keys.dtype.kind in "iu"
        if not key_table or occupied.shape != keys.shape[:1]:
            raise ValueError(
                f"malformed update batch: keys {keys.dtype}{keys.shape}, occupied {occupied.shape}"
            )
        timing = self.apply_updates(keys, occupied)
        return ShardApplyResult(
            shard_id=self.shard_id,
            updates_applied=len(keys),
            critical_path_cycles=timing.critical_path_cycles() if len(keys) else 0,
            generation=self.generation,
        )

    def query_message(self, request: ShardQueryRequest) -> ShardQueryResult:
        """Answer one wire-format voxel-key lookup."""
        if request.shard_id != self.shard_id:
            raise ValueError(
                f"query for shard {request.shard_id} delivered to shard {self.shard_id}"
            )
        result = self.query_key(OcTreeKey(*request.key))
        return ShardQueryResult(
            shard_id=self.shard_id,
            status=result.status,
            probability=result.probability,
            cycles=result.cycles,
            generation=self.generation,
        )

    def query_keys_message(self, request: ShardKeysQuery) -> ShardKeysResult:
        """Answer one wire-format bulk lookup."""
        if request.shard_id != self.shard_id:
            raise ValueError(
                f"query for shard {request.shard_id} delivered to shard {self.shard_id}"
            )
        statuses, raws, cycles = self.accelerator.query_keys(request.keys)
        return ShardKeysResult(
            shard_id=self.shard_id,
            statuses=statuses,
            raws=raws,
            cycles=cycles,
            generation=self.generation,
        )

    def export_message(self) -> ShardExportResult:
        """Export this shard's subtree, stamped with its write generation."""
        return ShardExportResult(
            shard_id=self.shard_id,
            tree=self.export_octree(),
            generation=self.generation,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (live failover and durable checkpoints)
    # ------------------------------------------------------------------
    def snapshot_message(self) -> ShardSnapshot:
        """Point-in-time image of this shard: serialized subtree + counters."""
        from repro.octomap.serialization import serialize_tree

        return ShardSnapshot(
            shard_id=self.shard_id,
            generation=self.generation,
            batches_applied=self.batches_applied,
            updates_applied=self.updates_applied,
            payload=serialize_tree(self.export_octree()),
        )

    @classmethod
    def from_snapshot(cls, snapshot: ShardSnapshot, config: OMUConfig) -> "MapShardWorker":
        """Rehydrate a shard worker from a snapshot (on any host).

        The new worker's accelerator is rebuilt leaf-for-leaf from the
        snapshot payload and the externally visible counters (generation
        first among them) resume from the snapshotted values, so replaying
        the un-snapshotted flush tail lands the shard exactly where the
        dead worker's acknowledged state was.
        """
        from repro.octomap.serialization import deserialize_tree

        worker = cls(snapshot.shard_id, config)
        worker.accelerator.load_octree(deserialize_tree(snapshot.payload))
        worker.generation = snapshot.generation
        worker.batches_applied = snapshot.batches_applied
        worker.updates_applied = snapshot.updates_applied
        return worker


class ShardHost:
    """The shard workers one execution context hosts, and the verbs it serves.

    Every transport -- the in-process engine, a fleet worker process, a TCP
    worker server -- hosts shards the same way: a dict of
    :class:`MapShardWorker` keyed by the fleet-global ``gid`` the
    :class:`~repro.serving.fleet.BackendPool` assigned, driven by
    ``(verb, gid, payload)`` commands.  The gid only *names* the hosted
    worker; the worker itself (and every ``Shard*`` message it exchanges)
    keeps its session-local shard id, so the worker's "batch for shard X
    delivered to shard Y" check guards the routing end to end.
    """

    def __init__(self) -> None:
        self._workers: Dict[int, MapShardWorker] = {}
        # Guards membership changes against a concurrent listing: one TCP
        # worker serves several connections, each on its own thread.
        self._lock = threading.Lock()

    def handle(self, verb: str, gid=None, payload=None):
        """Serve one command; raises on an unknown verb or unhosted gid.

        Verbs: ``query`` / ``query_keys`` / ``apply`` / ``export`` /
        ``snapshot`` address the worker hosted under ``gid``; ``attach``
        (payload ``(shard_id, config)``) and ``restore`` (payload
        ``(snapshot, config)``) host a fresh or rehydrated worker under it,
        replacing any previous one; ``detach`` drops it (a no-op when
        absent); ``ping`` answers ``"pong"``.
        """
        if verb == "query":
            return self.worker(gid).query_message(payload)
        if verb == "query_keys":
            return self.worker(gid).query_keys_message(payload)
        if verb == "apply":
            return self.worker(gid).apply_message(payload)
        if verb == "export":
            return self.worker(gid).export_message()
        if verb == "snapshot":
            return self.worker(gid).snapshot_message()
        if verb == "ping":
            return "pong"
        with self._lock:
            if verb == "attach":
                shard_id, config = payload
                self._workers[gid] = MapShardWorker(shard_id, config)
            elif verb == "restore":
                snapshot, config = payload
                self._workers[gid] = MapShardWorker.from_snapshot(snapshot, config)
            elif verb == "detach":
                self._workers.pop(gid, None)
            else:
                raise ValueError(f"unknown shard command {verb!r}")
        return gid

    def reply(self, message) -> Tuple[str, object]:
        """Serve one wire command; the reply a worker loop sends back.

        ``("ok", result)``, or ``("error", {"message", "traceback"})`` --
        an exception (a malformed message included) is reported rather than
        killing the loop, so a poisoned request cannot silently lose every
        shard hosted here.
        """
        try:
            verb, gid, payload = message
            return ("ok", self.handle(verb, gid, payload))
        except Exception as error:  # noqa: BLE001 - report, don't die
            return (
                "error",
                {
                    "message": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(),
                },
            )

    def worker(self, gid: int) -> MapShardWorker:
        """The worker hosted under ``gid``; raises KeyError when absent."""
        worker = self._workers.get(gid)
        if worker is None:
            raise KeyError(f"shard gid {gid} is not hosted here")
        return worker

    def hosted(self) -> List[int]:
        """The gids currently hosted, sorted."""
        with self._lock:
            return sorted(self._workers)

    def clear(self) -> None:
        """Drop every hosted worker (shutdown, or a simulated crash)."""
        with self._lock:
            self._workers.clear()
