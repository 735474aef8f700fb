"""Request and response types of the occupancy-mapping service.

Everything a client exchanges with :class:`~repro.serving.manager.
MapSessionManager` is a small immutable dataclass defined here, so the
session, pipeline, query-engine and stats layers share one vocabulary; the
HTTP front end's JSON codecs (:mod:`repro.serving.http.wire`) map these
types to and from the network.

The ``Shard*`` messages at the bottom are the *internal* wire format between
a session and its shard execution backend
(:mod:`repro.serving.backends`).  They are deliberately flat -- ints, floats,
strings and tuples of them, or one numpy array per column -- so every
message pickles cheaply across a process boundary.  Voxel updates and bulk
reads both travel as columns: a ``uint16`` key array plus ``bool`` flags one
way, key and answer arrays the other, handed to the accelerator as they
arrive (no per-update object or tuple exists on either side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.octomap.pointcloud import PointCloud, ScanNode

__all__ = [
    "ScanRequest",
    "IngestReceipt",
    "ApplyTicket",
    "BatchReport",
    "QueryResponse",
    "BoxOccupancySummary",
    "BboxChunk",
    "RaycastResponse",
    "ShardUpdateBatch",
    "ShardApplyResult",
    "ShardQueryRequest",
    "ShardQueryResult",
    "ShardKeysQuery",
    "ShardKeysResult",
    "ShardExportResult",
    "ShardSnapshot",
]


@dataclass(frozen=True)
class ScanRequest:
    """One client scan awaiting ingestion into a map session.

    Attributes:
        session_id: name of the map session the scan belongs to.
        cloud: scan points already expressed in the world frame.
        origin: sensor origin in the world frame.
        max_range: beam truncation range (``-1`` disables truncation).
        deadline_s: absolute service deadline on the ``time.monotonic`` clock;
            a request popped for a flush after its deadline is counted as a
            deadline miss, and the async front door may shed it before it is
            queued.  ``inf`` means "no deadline".
        client_id: opaque client tag carried through to the stats layer.
        request_id: service-assigned monotonically increasing id (arrival
            order, which is also the order requests are applied in).
    """

    session_id: str
    cloud: PointCloud
    origin: Tuple[float, float, float]
    max_range: float = -1.0
    deadline_s: float = math.inf
    client_id: str = ""
    request_id: int = -1

    @classmethod
    def from_scan_node(
        cls,
        session_id: str,
        scan: ScanNode,
        max_range: float = -1.0,
        deadline_s: float = math.inf,
        client_id: str = "",
    ) -> "ScanRequest":
        """Build a request from a dataset scan node (world-frame conversion included)."""
        origin = scan.origin()
        return cls(
            session_id=session_id,
            cloud=scan.world_cloud(),
            origin=(float(origin[0]), float(origin[1]), float(origin[2])),
            max_range=max_range,
            deadline_s=deadline_s,
            client_id=client_id,
        )

    def with_request_id(self, request_id: int) -> "ScanRequest":
        """Copy of this request carrying the service-assigned id."""
        return ScanRequest(
            self.session_id, self.cloud, self.origin, self.max_range, self.deadline_s, self.client_id, request_id
        )


@dataclass(frozen=True)
class IngestReceipt:
    """Acknowledgement returned when a scan request is accepted."""

    request_id: int
    session_id: str
    num_points: int
    queue_depth: int


@dataclass(frozen=True)
class BatchReport:
    """Summary of one dispatched ingestion batch.

    Attributes:
        session_id: session the batch belonged to.
        batch_id: per-session batch sequence number.
        request_ids: requests in dispatch order (arrival order).
        scans: number of scans coalesced into the batch.
        rays_cast: beams ray-cast by the shared front end.
        ray_voxels_visited: voxel visits before de-duplication.
        voxel_updates: updates actually dispatched after de-duplication.
        duplicates_removed: visits removed by the overlapping-ray de-dup.
        shard_updates: updates dispatched to each shard (index = shard id).
        modelled_cycles: critical-path cycles of the batch (slowest shard;
            the shard workers run in parallel).
        wall_seconds: host-side wall-clock time spent processing the batch
            (front end + dispatch + drain wait).
        fanout_seconds: portion of ``wall_seconds`` spent inside the shard
            execution backend (dispatch + drain wait); the rest is the
            shared ray-casting front end.
        frontend_seconds: portion of ``wall_seconds`` spent in the shared
            ray-casting front end (pop + DDA + de-dup + partition).
        drain_wait_seconds: time the parent spent blocked waiting for the
            shard acknowledgements of *this* batch.
        backend: name of the shard execution backend that applied the batch.
        deadline_misses: requests in the batch whose ``deadline_s`` had
            already passed (on the ``time.monotonic`` clock) when they were
            popped for this flush.
    """

    session_id: str
    batch_id: int
    request_ids: Tuple[int, ...]
    scans: int
    rays_cast: int
    ray_voxels_visited: int
    voxel_updates: int
    duplicates_removed: int
    shard_updates: Tuple[int, ...]
    modelled_cycles: int
    wall_seconds: float
    fanout_seconds: float = 0.0
    frontend_seconds: float = 0.0
    drain_wait_seconds: float = 0.0
    backend: str = "inline"
    deadline_misses: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Answer to one point occupancy query.

    Attributes:
        status: ``"occupied"``, ``"free"`` or ``"unknown"``.
        probability: occupancy probability, or ``None`` when unknown.
        shard_id: shard that owns (or would own) the voxel.
        cached: True when the answer came from the query cache.
        cycles: modelled service cycles (0 for a cache hit and for every
            answer of a batch).
    """

    status: str
    probability: Optional[float]
    shard_id: int
    cached: bool = False
    cycles: int = 0

    @property
    def occupied(self) -> bool:
        """Shorthand collision predicate."""
        return self.status == "occupied"


@dataclass(frozen=True)
class BoxOccupancySummary:
    """Aggregate of a bounding-box occupancy sweep."""

    occupied: int
    free: int
    unknown: int
    voxels_scanned: int


@dataclass(frozen=True)
class BboxChunk:
    """One bounded slice of a streamed bounding-box sweep.

    :meth:`~repro.serving.query_engine.QueryEngine.iter_bbox` yields these
    instead of materialising a whole-box result, so a network front end can
    relay each slice as one chunked-transfer frame while the sweep is still
    running.

    Attributes:
        index: zero-based position of the chunk within its sweep.
        voxels: classified voxel centres ``(x, y, z, status)`` in sweep
            order, at most the sweep's ``chunk_voxels`` of them.
        occupied / free / unknown: per-status counts within this chunk.
        voxels_total: size of the *whole* sweep in voxels (every chunk
            carries it, so a consumer can report progress from any frame).
    """

    index: int
    voxels: Tuple[Tuple[float, float, float, str], ...]
    occupied: int
    free: int
    unknown: int
    voxels_total: int


@dataclass(frozen=True)
class RaycastResponse:
    """Result of a collision ray query.

    Attributes:
        hit: whether the ray struck an occupied voxel.
        hit_point: metric centre of the struck voxel (``None`` when no hit).
        distance: metric distance from the origin to the hit point.
        voxels_traversed: voxels inspected along the ray.
        cache_hits: inspections served from the query cache.
    """

    hit: bool
    hit_point: Optional[Tuple[float, float, float]]
    distance: float
    voxels_traversed: int
    cache_hits: int


# ---------------------------------------------------------------------------
# Shard backend wire messages (session <-> shard execution backend)
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ShardUpdateBatch:
    """One shard's slice of a flushed ingestion batch: the write-side ``ShardKeysQuery``.

    Attributes:
        shard_id: shard the slice is addressed to.
        keys: ``(N, 3)`` ``uint16`` voxel key components in dispatch order.
        occupied: ``(N,)`` ``bool`` measurement of each update.

    The worker hands both columns to its accelerator unchanged
    (:meth:`~repro.serving.sharding.MapShardWorker.apply_message`, which
    also refuses a batch whose columns do not have this form).
    """

    shard_id: int
    keys: np.ndarray
    occupied: np.ndarray

    @classmethod
    def from_key_arrays(cls, shard_id: int, keys, occupied) -> "ShardUpdateBatch":
        """Narrow an ``(N, 3)`` key array plus ``(N,)`` occupied flags for the wire.

        Raises ``ValueError`` for a key component that does not fit 16 bits:
        the cast would wrap it onto another voxel.
        """
        keys = np.asarray(keys)
        if keys.size and (keys.min() < 0 or keys.max() > 0xFFFF):
            raise ValueError(
                f"key components must be in [0, 65535], got [{keys.min()}, {keys.max()}]"
            )
        return cls(
            shard_id=shard_id,
            keys=np.ascontiguousarray(keys, dtype=np.uint16),
            occupied=np.ascontiguousarray(occupied, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class ApplyTicket:
    """Receipt for one dispatched flush, between its two halves.

    :meth:`~repro.serving.backends.ShardBackend.apply_async` returns a ticket
    instead of results; :meth:`~repro.serving.backends.ShardBackend.drain`
    redeems it for the per-shard acknowledgements once the workers finish.
    A backend has at most one ticket outstanding and serves no read until it
    is drained.

    Attributes:
        ticket_id: backend-assigned monotonically increasing id.
        shard_ids: shards that received a non-empty slice of the batch.
    """

    ticket_id: int
    shard_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ShardApplyResult:
    """A shard worker's acknowledgement of one applied update batch.

    Attributes:
        shard_id: shard that applied the batch.
        updates_applied: updates in the batch (echoed back for accounting).
        critical_path_cycles: modelled cycles of this batch on this shard's
            accelerator (0 for an empty batch).
        generation: the shard's write generation *after* the apply; the
            parent-side cache bookkeeping adopts this value, which keeps
            generation-stamped invalidation correct across process
            boundaries.
    """

    shard_id: int
    updates_applied: int
    critical_path_cycles: int
    generation: int


@dataclass(frozen=True)
class ShardQueryRequest:
    """One voxel-key occupancy lookup addressed to a shard."""

    shard_id: int
    key: Tuple[int, int, int]


@dataclass(frozen=True)
class ShardQueryResult:
    """A shard worker's answer to one voxel-key lookup."""

    shard_id: int
    status: str
    probability: Optional[float]
    cycles: int
    generation: int


@dataclass(frozen=True, eq=False)
class ShardKeysQuery:
    """A bulk occupancy lookup addressed to a shard: the read-side ``ShardUpdateBatch``.

    The bulk lane (batches, box sweeps) sends every row to be answered; a
    collision ray sends one run of its voxels with ``stop_at_occupied`` set,
    and the worker reads them in order, stopping after the first occupied
    one.

    Attributes:
        shard_id: shard that owns every key.
        keys: ``(N, 3)`` voxel key components (``uint16`` from the query
            engine; any integer dtype is read the same).
        stop_at_occupied: answer only up to and including the first
            occupied key.
    """

    shard_id: int
    keys: np.ndarray
    stop_at_occupied: bool = False


@dataclass(frozen=True, eq=False)
class ShardKeysResult:
    """A shard worker's answer to one :class:`ShardKeysQuery`, row for row.

    The rows are the answered prefix of the query's keys: all N of them,
    or -- for a ``stop_at_occupied`` query -- the rows up to and including
    the first occupied one.  Every simulated count the worker moved is that
    of point queries of exactly these rows.

    Attributes:
        shard_id: shard that answered.
        statuses: ``(M,)`` ``uint8`` indices into
            :data:`~repro.core.pe.QUERY_STATUSES`.
        raws: ``(M,)`` ``int16`` fixed-point log-odds (0 where unknown).
        cycles: modelled service cycles of the M lookups together.
        generation: the shard's write generation when it answered.
    """

    shard_id: int
    statuses: np.ndarray
    raws: np.ndarray
    cycles: int
    generation: int


@dataclass(frozen=True)
class ShardExportResult:
    """A shard worker's exported subtree, stamped with its write generation."""

    shard_id: int
    tree: object  # OccupancyOcTree; typed loosely to keep this module light
    generation: int


@dataclass(frozen=True)
class ShardSnapshot:
    """A durable point-in-time image of one shard's map state.

    The payload is the shard accelerator's state itself
    (:meth:`~repro.core.accelerator.OMUAccelerator.image`): each PE's SRAM
    rows, local roots and prune address manager, and a copy of its counter
    array (:mod:`repro.core.counts`), as numpy arrays and ints -- no object of
    this package inside.  A snapshot taken by one worker rehydrates the shard
    on any other (live failover) as the very accelerator it was, row layout and
    lifetime statistics included; the receiving worker checks every array
    (live-entry words against valid bytes too) before it writes one.  The
    accounting fields restore the shard's externally visible counters -- in
    particular ``generation``, which the query cache's invalidation stamps
    build on: a restored shard replays its un-snapshotted flushes on top of
    this image, each non-empty replayed batch bumps the generation by one,
    and the shard ends up at exactly the generation the parent last adopted.

    Attributes:
        shard_id: shard the image belongs to.
        generation: the shard's write generation when the image was taken.
        batches_applied: batches applied up to the image.
        updates_applied: voxel updates applied up to the image.
        payload: the accelerator image (``OMUAccelerator.image()``).
    """

    shard_id: int
    generation: int
    batches_applied: int
    updates_applied: int
    payload: Dict[str, object]
