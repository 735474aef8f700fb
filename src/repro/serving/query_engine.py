"""Query engine: point / batch / box / raycast queries over shards, on two lanes.

The engine is the read side of a map session.  Every query is resolved at
voxel-key granularity, on one of two lanes:

* **The cached lane** serves point queries and collision raycasts through
  the point LRU, keyed by the voxel's packed code (``x << 32 | y << 16 |
  z``, as :func:`~repro.octomap.raycast_vec.pack_key_array` packs it).  A
  point query computes the code from the key components alone; the cache
  entry is stamped with the owning shard's write generation (tracked by the
  execution backend, which stays correct even when the worker lives in
  another process), and a hit returns the cached response without building
  an :class:`OcTreeKey` or a shard id.  Only a miss reaches the shard
  worker's accelerator, in one
  :meth:`~repro.serving.backends.ShardBackend.query_key` round trip.
  A raycast is arrays from request to answer: one native call
  (:func:`~repro.octomap.raycast_vec.compute_ray_codes`) clips the ray and
  returns its voxels in ray order as packed codes, one vectorised call
  gives their owning shards, and the walk splits them into *runs*:
  consecutive voxels the cache does not hold and one shard owns.  Each run
  is one :meth:`~repro.serving.backends.ShardBackend.query_keys` round trip
  with ``stop_at_occupied`` on a slice of the ray's ``(N, 3)`` ``uint16``
  key array, answered in order up to the first occupied voxel, and its
  answers fill the cache through one
  :meth:`~repro.serving.cache.GenerationLRUCache.put_run`.  The cache, its
  counters, ``point_queries`` and every accelerator read counter end
  exactly where one point query per voxel would leave them; a ray of ~48
  voxels costs a few round trips instead of one per uncached voxel.
* **The bulk lane** serves pose batches and box sweeps: the keys of a whole
  batch (or of a bounded slice of a sweep) are built as one array, split by
  owning shard, and answered by one ``query_keys`` round trip per touched
  shard.  It neither reads nor fills the point cache -- a sweep would only
  flush the planner's hot points out of it -- while repeated sweeps of an
  unchanged map are still answered whole by the box-summary cache.

Both lanes turn a raw log-odds into a probability with the same scalar
functions, so a voxel answers float-identically on either.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pe import QUERY_STATUSES
from repro.octomap.keys import OcTreeKey
from repro.octomap.logodds import probability as logodds_to_probability
from repro.octomap.raycast_vec import compute_ray_codes
from repro.serving.backends import ShardBackend
from repro.serving.cache import BboxResultCache, GenerationLRUCache
from repro.serving.sharding import ShardRouter
from repro.serving.stats import SessionStats
from repro.serving.types import (
    BboxChunk,
    BoxOccupancySummary,
    QueryResponse,
    RaycastResponse,
    ShardQueryRequest,
)

__all__ = ["QueryEngine", "BULK_SLICE_KEYS", "MAX_BOX_VOXELS"]

#: Largest box sweep the engine accepts, in voxels: a guardrail against
#: accidental whole-map sweeps.
MAX_BOX_VOXELS = 200_000

#: Most keys one bulk read carries.  Larger batches and sweeps go out slice
#: by slice, so neither side of the wire ever holds the paths of a whole
#: guardrail-sized box.
BULK_SLICE_KEYS = 4096

#: Shifts that take a packed code's x, y and z components to its low 16 bits.
_COMPONENT_SHIFTS = np.array([32, 16, 0], dtype=np.uint64)


class QueryEngine:
    """Serves occupancy queries for one session, fronted by an LRU cache."""

    def __init__(
        self,
        router: ShardRouter,
        backend: ShardBackend,
        cache: GenerationLRUCache,
        stats: SessionStats,
    ) -> None:
        if backend.num_shards != router.num_shards:
            raise ValueError(
                f"router expects {router.num_shards} shards but the backend "
                f"executes {backend.num_shards}"
            )
        self.router = router
        self.backend = backend
        self.cache = cache
        self.stats = stats
        self.max_box_voxels = MAX_BOX_VOXELS
        #: whole-sweep summaries validated by the full generation vector;
        #: shares the point cache's counter block so one stats surface shows
        #: both hit rates.
        self.bbox_cache = BboxResultCache(stats=cache.stats)
        self._probabilities: Dict[int, float] = {}
        #: the shared cached responses of ray runs, by (shard, status code, raw)
        self._run_answers: Dict[Tuple[int, int, int], QueryResponse] = {}

    # ------------------------------------------------------------------
    # Generations (cache validity)
    # ------------------------------------------------------------------
    def generation_of(self, shard_id: int) -> int:
        """Current write generation of one shard (cache validity stamp)."""
        return self.backend.generation_of(shard_id)

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def query(self, x: float, y: float, z: float) -> QueryResponse:
        """Occupancy of the voxel containing a metric point."""
        component = self.router.converter.coord_to_key_component
        try:
            code = component(x) << 32 | component(y) << 16 | component(z)
        except ValueError:
            # Outside the addressable volume: unknown by definition.
            self.stats.point_queries += 1
            return QueryResponse(status="unknown", probability=None, shard_id=-1)
        return self._query_voxel(code)

    def _query_voxel(self, code: int) -> QueryResponse:
        """One voxel through the point cache, which holds it by its packed code.

        A hit is answered by the cached response itself, so it builds
        neither the :class:`OcTreeKey` nor the owning shard id; a miss
        builds both and reads the voxel from its shard.
        """
        self.stats.point_queries += 1
        cached = self.cache.get(code, self.generation_of)
        if cached is not None:
            return cached
        key = (code >> 32, code >> 16 & 0xFFFF, code & 0xFFFF)
        shard_id = self.router.shard_for_key(OcTreeKey(*key))
        result = self.backend.query_key(ShardQueryRequest(shard_id=shard_id, key=key))
        self.cache.put(
            code,
            shard_id,
            result.generation,
            QueryResponse(
                status=result.status, probability=result.probability, shard_id=shard_id, cached=True
            ),
        )
        return QueryResponse(
            status=result.status,
            probability=result.probability,
            shard_id=shard_id,
            cached=False,
            cycles=result.cycles,
        )

    def query_batch(self, points: Sequence[Sequence[float]]) -> Tuple[QueryResponse, ...]:
        """Serve a batch of point queries (e.g. sampled poses of a path).

        Bulk lane: each response equals what :meth:`query` answers for the
        same point, except that it is never ``cached`` and carries no
        ``cycles`` of its own.
        """
        self.stats.batch_queries += 1
        keys, inside = self.router.converter.locate_coords(points)
        codes, raws, shard_ids = self._lookup_keys(keys, inside)
        probability = self._probability_of_raw
        return tuple(
            QueryResponse(
                status=QUERY_STATUSES[code],
                probability=probability(raw) if code else None,
                shard_id=shard_id,
            )
            for code, raw, shard_id in zip(codes.tolist(), raws.tolist(), shard_ids.tolist())
        )

    # ------------------------------------------------------------------
    # The bulk lane
    # ------------------------------------------------------------------
    def _lookup_keys(
        self, keys: np.ndarray, inside: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Status code, raw log-odds and owning shard of every ``(N, 3)`` key row.

        Rows outside the addressable volume (``inside`` False) answer
        unknown from shard -1 without reaching a worker; the others go out
        as one bulk read per touched shard per :data:`BULK_SLICE_KEYS` rows.
        """
        self.stats.point_queries += len(keys)
        codes = np.zeros(len(keys), dtype=np.uint8)
        raws = np.zeros(len(keys), dtype=np.int16)
        shard_ids = np.full(len(keys), -1, dtype=np.int64)
        rows = np.flatnonzero(inside)
        for start in range(0, len(rows), BULK_SLICE_KEYS):
            slice_rows = rows[start : start + BULK_SLICE_KEYS]
            owners = self.router.shard_indices_for_keys(keys[slice_rows])
            shard_ids[slice_rows] = owners
            for shard_id in np.unique(owners).tolist():
                mine = slice_rows[owners == shard_id]
                result = self.backend.query_keys(shard_id, keys[mine].astype(np.uint16))
                codes[mine] = result.statuses
                raws[mine] = result.raws
        return codes, raws, shard_ids

    def _probability_of_raw(self, raw: int) -> float:
        """What a shard worker's point query reports for this raw log-odds.

        Memoised: a raw is 16 bits wide, so the table cannot outgrow 65,536
        floats, and a map holds a few dozen distinct values.
        """
        probability = self._probabilities.get(raw)
        if probability is None:
            value = self.backend.config.fixed_point.to_value(raw)
            probability = self._probabilities[raw] = logodds_to_probability(value)
        return probability

    # ------------------------------------------------------------------
    # Bounding-box sweeps
    # ------------------------------------------------------------------
    def _bbox_ranges(
        self, minimum: Sequence[float], maximum: Sequence[float]
    ) -> Tuple[List[range], int]:
        """Validated per-axis voxel-index ranges of a box sweep, plus its size.

        Raises:
            ValueError: when the box covers more than ``max_box_voxels``
                voxels (guardrail against accidental whole-map sweeps), is
                inverted, or has a corner that is not finite.
        """
        resolution = self.router.converter.resolution
        # Grid indices of the voxels whose centre (index + 0.5) * resolution
        # lies inside [minimum, maximum] on each axis; an off-grid box
        # therefore never reports a voxel centred outside it.
        ranges = []
        total = 1
        for axis in range(3):
            low, high = minimum[axis] / resolution, maximum[axis] / resolution
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(
                    f"box corners must be finite, got {tuple(minimum)!r} .. {tuple(maximum)!r}"
                )
            if maximum[axis] < minimum[axis]:
                raise ValueError(
                    f"inverted box on axis {axis}: {minimum[axis]} > {maximum[axis]}"
                )
            first = math.ceil(low - 0.5 - 1e-9)
            last = math.floor(high - 0.5 + 1e-9)
            ranges.append(range(first, last + 1))
            # Not len(): a box far outside the volume has indices beyond ssize_t.
            total *= max(0, last + 1 - first)
        if total > self.max_box_voxels:
            raise ValueError(
                f"box covers {total} voxels, above the {self.max_box_voxels} guardrail; "
                "split the sweep"
            )
        return ranges, total

    def iter_bbox(
        self,
        minimum: Sequence[float],
        maximum: Sequence[float],
        chunk_voxels: int = 1024,
        include_voxels: bool = True,
    ) -> Iterator[BboxChunk]:
        """Stream a bounding-box sweep as bounded-size classified chunks.

        The generator yields :class:`~repro.serving.types.BboxChunk` slices
        of at most ``chunk_voxels`` classified voxel centres each, in sweep
        order, so a consumer (the HTTP chunked-transfer response, a progress
        bar) never holds the whole box in memory.  Validation -- inverted
        box, the ``max_box_voxels`` guardrail -- happens eagerly, before the
        first chunk is requested.

        Concatenating every chunk reproduces exactly what
        :meth:`query_bbox` aggregates (it is implemented on top of this).
        ``include_voxels=False`` keeps the per-voxel tuples out of the chunks
        (counts only) for consumers that aggregate.
        """
        if chunk_voxels < 1:
            raise ValueError("chunk_voxels must be at least 1")
        ranges, total = self._bbox_ranges(minimum, maximum)
        self.stats.bbox_queries += 1
        return self._iter_bbox_chunks(ranges, total, chunk_voxels, include_voxels)

    def _iter_bbox_chunks(
        self, ranges: List[range], total: int, chunk_voxels: int, include_voxels: bool
    ) -> Iterator[BboxChunk]:
        if not total:
            yield BboxChunk(index=0, voxels=(), occupied=0, free=0, unknown=0, voxels_total=0)
            return
        converter = self.router.converter
        # Voxel centres per axis, from float grid indices: a box far outside
        # the volume cannot overflow them.
        axes = [
            (np.array(indices, dtype=np.float64) + 0.5) * converter.resolution
            for indices in ranges
        ]
        for index, start in enumerate(range(0, total, chunk_voxels)):
            # Sweep order is x outermost, z innermost.
            flat = np.arange(start, min(start + chunk_voxels, total))
            centres = np.column_stack(
                (
                    axes[0][flat // (len(axes[1]) * len(axes[2]))],
                    axes[1][flat // len(axes[2]) % len(axes[1])],
                    axes[2][flat % len(axes[2])],
                )
            )
            codes, _raws, _shard_ids = self._lookup_keys(*converter.locate_coords(centres))
            unknown, free, occupied = np.bincount(codes, minlength=3).tolist()
            voxels: Tuple[Tuple[float, float, float, str], ...] = ()
            if include_voxels:
                statuses = [QUERY_STATUSES[code] for code in codes.tolist()]
                voxels = tuple(zip(*centres.T.tolist(), statuses))
            yield BboxChunk(
                index=index,
                voxels=voxels,
                occupied=occupied,
                free=free,
                unknown=unknown,
                voxels_total=total,
            )

    def query_bbox(
        self,
        minimum: Sequence[float],
        maximum: Sequence[float],
    ) -> BoxOccupancySummary:
        """Classify every voxel whose centre lies inside an axis-aligned box.

        Repeated sweeps of an unchanged map are answered whole from the
        bbox summary cache: the summary is stamped with every shard's write
        generation at fill time and only served back while the full vector
        still matches, so a cached answer is always exact.

        Raises:
            ValueError: when the box covers more than ``max_box_voxels``
                voxels (guardrail against accidental whole-map sweeps), is
                inverted, or has a corner that is not finite.
        """
        box_key = (tuple(float(c) for c in minimum), tuple(float(c) for c in maximum))
        generations = tuple(
            self.generation_of(shard_id) for shard_id in range(self.backend.num_shards)
        )
        cached = self.bbox_cache.get(box_key, generations)
        if cached is not None:
            self.stats.bbox_queries += 1
            return cached
        occupied = free = unknown = scanned = 0
        for chunk in self.iter_bbox(
            minimum, maximum, chunk_voxels=BULK_SLICE_KEYS, include_voxels=False
        ):
            occupied += chunk.occupied
            free += chunk.free
            unknown += chunk.unknown
            scanned = chunk.voxels_total
        summary = BoxOccupancySummary(
            occupied=occupied, free=free, unknown=unknown, voxels_scanned=scanned
        )
        self.bbox_cache.put(box_key, generations, summary)
        return summary

    # ------------------------------------------------------------------
    # Collision raycasts
    # ------------------------------------------------------------------
    def raycast(
        self,
        origin: Sequence[float],
        direction: Sequence[float],
        max_range: float,
    ) -> RaycastResponse:
        """Walk a ray until it strikes an occupied voxel (collision check).

        The voxels are inspected in ray order through the point cache, read
        from the shards in runs, and the walk stops at the first occupied
        one (see :meth:`_first_occupied`).

        Raises:
            ValueError: when ``max_range`` is not positive, ``direction`` is
                the zero vector, or any argument is not finite.
        """
        # Squares by multiplication: it overflows to inf where ``**`` raises.
        norm = math.sqrt(sum(component * component for component in direction))
        if not all(math.isfinite(value) for value in (*origin, norm, max_range)):
            raise ValueError(
                "raycast origin, direction and max_range must be finite, got "
                f"{tuple(origin)!r}, {tuple(direction)!r}, {max_range!r}"
            )
        if max_range <= 0.0:
            raise ValueError("max_range must be positive")
        if norm <= 0.0:
            raise ValueError("direction must be a non-zero vector")
        self.stats.raycast_queries += 1
        converter = self.router.converter
        end = tuple(
            origin[axis] + direction[axis] / norm * max_range for axis in range(3)
        )
        # One native call clips the end at the addressable volume and walks
        # the ray: the voxels strictly between origin and end, each once, then
        # the end's voxel, so a ray can collide with its last cell.
        codes, end = compute_ray_codes(converter, origin, end)
        if not len(codes):
            # The ray starts outside the addressable volume: everything it
            # could traverse there is unknown space, so report no collision
            # (mirrors the point-query path answering "unknown" out of range).
            return RaycastResponse(
                hit=False, hit_point=None, distance=0.0, voxels_traversed=0, cache_hits=0
            )
        # The distance a no-hit ray actually traversed: max_range for a ray
        # that fit inside the addressable volume, the clipped segment length
        # otherwise.  Reporting max_range for a clipped ray would claim free
        # space beyond the volume boundary that was never inspected.
        traversed_range = math.sqrt(
            sum((end[axis] - origin[axis]) ** 2 for axis in range(3))
        )

        hits_before = self.cache.stats.hits
        # Each component of a code, shifted to the low bits; the cast to
        # uint16 keeps those 16 bits.
        keys = (codes[:, None] >> _COMPONENT_SHIFTS).astype(np.uint16)
        hit = self._first_occupied(codes.tolist(), keys)
        if hit is not None:
            centre = converter.key_to_coord(OcTreeKey(*keys[hit].tolist()))
            distance = math.sqrt(sum((centre[axis] - origin[axis]) ** 2 for axis in range(3)))
            return RaycastResponse(
                hit=True,
                hit_point=centre,
                distance=distance,
                voxels_traversed=hit + 1,
                cache_hits=self.cache.stats.hits - hits_before,
            )
        return RaycastResponse(
            hit=False,
            hit_point=None,
            distance=traversed_range,
            voxels_traversed=len(codes),
            cache_hits=self.cache.stats.hits - hits_before,
        )

    def _first_occupied(self, codes: List[int], keys: np.ndarray) -> Optional[int]:
        """Index of the first occupied voxel of a ray, or ``None``.

        ``codes`` are the ray's voxels in ray order as packed codes (the
        point cache's keys) and ``keys`` the same voxels as an ``(N, 3)``
        ``uint16`` array.  The voxels are walked in ray order and split into
        runs: consecutive voxels the point cache does not hold and one shard
        owns.  A run is read in one round trip that stops at its first
        occupied voxel, and its answers fill the cache in order.  A held
        voxel is looked up only once the run before it has been put, since
        those puts may evict it.  The cache contents, their order, the cache
        counters, ``point_queries`` and every accelerator read counter
        therefore end where one point query per voxel, stopping at the first
        occupied one, leaves them.
        """
        cache = self.cache
        shard_ids = self.router.shard_indices_for_keys(keys).tolist()
        run_start: Optional[int] = None
        run_shard = 0
        booked = False  # the run's first voxel already went through cache.get
        for index, (code, shard_id) in enumerate(zip(codes, shard_ids)):
            held = code in cache
            if run_start is not None and (held or shard_id != run_shard):
                stop = self._read_run(run_shard, codes, keys, run_start, index, booked)
                if stop is not None:
                    return stop
                run_start = None
            if held:
                self.stats.point_queries += 1
                cached = cache.get(code, self.generation_of)
                if cached is not None:
                    if cached.occupied:
                        return index
                    continue
                # Stale, or evicted by the run just put: the miss is
                # counted, and the voxel starts the next run.
            if run_start is None:
                run_start, run_shard, booked = index, shard_id, held
        if run_start is not None:
            return self._read_run(run_shard, codes, keys, run_start, len(codes), booked)
        return None

    def _read_run(
        self,
        shard_id: int,
        codes: List[int],
        keys: np.ndarray,
        start: int,
        stop: int,
        booked: bool,
    ) -> Optional[int]:
        """Read voxels ``start .. stop - 1`` of a ray from their shard and put the answers.

        Books one point query and one cache miss per answered voxel but the
        first when ``booked`` (that one was counted by ``cache.get``), and
        returns the ray index of the occupied voxel the read stopped at, if
        any.
        """
        result = self.backend.query_keys(shard_id, keys[start:stop], stop_at_occupied=True)
        statuses = result.statuses.tolist()
        answered = len(statuses)
        unbooked = answered - booked
        self.stats.point_queries += unbooked
        self.cache.stats.misses += unbooked
        answer = self._run_answer
        self.cache.put_run(
            codes[start : start + answered],
            shard_id,
            result.generation,
            [answer(shard_id, status, raw) for status, raw in zip(statuses, result.raws.tolist())],
        )
        return start + answered - 1 if statuses[-1] == 2 else None

    def _run_answer(self, shard_id: int, status: int, raw: int) -> QueryResponse:
        """The cached response of a voxel a run answered, shared by every voxel alike.

        Memoised by ``(shard_id, status, raw)``: a response is frozen, a map
        holds a few dozen distinct raws, and the table cannot outgrow three
        statuses of 65,536 raws per shard.
        """
        response = self._run_answers.get((shard_id, status, raw))
        if response is None:
            response = self._run_answers[shard_id, status, raw] = QueryResponse(
                status=QUERY_STATUSES[status],
                probability=self._probability_of_raw(raw) if status else None,
                shard_id=shard_id,
                cached=True,
            )
        return response
