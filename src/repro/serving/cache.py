"""Generation-stamped LRU cache fronting the query engine.

Collision checking and planning hammer the same voxels over and over (a
planner samples the corridor ahead thousands of times per replan), so the
query engine keeps recent answers in an LRU cache.  Correctness under
concurrent ingestion comes from *generation stamping*: every cached entry
records the owning shard's write generation at fill time, and every lookup
compares it against the shard's current generation.  A write to a shard bumps
only that shard's generation, so it invalidates exactly that shard's cached
entries -- lazily, with no scan over the cache -- while the other shards'
entries keep serving hits.

Box sweeps have a cache of their own (:class:`BboxResultCache`).  A bbox
sweep reads thousands of voxels -- in bulk, past this LRU, so it cannot evict
the hot points -- and planners re-issue the same corridor boxes every replan
tick.  The bbox cache keys a whole
:class:`~repro.serving.types.BoxOccupancySummary` by the query box and
validates it against the *full generation vector* of the map, so it is exact:
any write to any shard invalidates the summary (lazily, on lookup).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

__all__ = ["BboxResultCache", "CacheStats", "GenerationLRUCache"]


@dataclass
class CacheStats:
    """Counter block of one cache instance (point and bbox sides)."""

    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    evictions: int = 0
    puts: int = 0
    # --- bbox summary cache ---
    bbox_hits: int = 0
    bbox_misses: int = 0
    bbox_puts: int = 0
    bbox_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses; stale hits count as misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def bbox_lookups(self) -> int:
        """Total bbox-summary lookups."""
        return self.bbox_hits + self.bbox_misses

    @property
    def bbox_hit_rate(self) -> float:
        """Fraction of bbox sweeps answered whole from the summary cache."""
        if self.bbox_lookups == 0:
            return 0.0
        return self.bbox_hits / self.bbox_lookups


class GenerationLRUCache:
    """An LRU cache whose entries expire when their shard is written.

    Args:
        capacity: maximum number of live entries; the least recently used
            entry is evicted on overflow.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        # key -> (shard_id, generation, value); move_to_end keeps LRU order.
        self._entries: "OrderedDict[Hashable, Tuple[int, int, object]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Whether an entry is held for ``key``, live or stale.

        Counts nothing and leaves the LRU order alone: a collision ray asks
        this to decide which of its voxels to read from the shards in one
        run, and then looks up the held ones with :meth:`get`.
        """
        return key in self._entries

    def get(self, key: Hashable, current_generation_for_shard) -> Optional[object]:
        """Look up a key; ``current_generation_for_shard`` maps shard id -> gen.

        Accepts any callable so the query engine can pass a bound method that
        reads the live worker generations.  Returns the cached value, or
        ``None`` on a miss (including a stale entry, which is evicted).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        shard_id, generation, value = entry
        if generation != current_generation_for_shard(shard_id):
            # The owning shard was written since this entry was cached.
            del self._entries[key]
            self.stats.stale_hits += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, shard_id: int, generation: int, value: object) -> None:
        """Insert or refresh an entry stamped with its shard's generation."""
        self.put_run((key,), shard_id, generation, (value,))

    def put_run(
        self, keys: Sequence[Hashable], shard_id: int, generation: int, values: Sequence[object]
    ) -> None:
        """Insert or refresh one entry per key, all stamped with one shard's generation.

        The answered run of a collision ray goes in through one call.  Each
        key is inserted (or refreshed and moved to the most recent end) and
        the least recently used entries are evicted down to ``capacity``
        before the next key, so the entries, their LRU order and the
        ``puts`` and ``evictions`` counters end exactly where one :meth:`put`
        per key, in order, leaves them.
        """
        if len(keys) != len(values):
            raise ValueError(f"{len(keys)} keys but {len(values)} values")
        entries, capacity = self._entries, self.capacity
        evictions = 0
        for key, value in zip(keys, values):
            if key in entries:
                entries.move_to_end(key)
            entries[key] = (shard_id, generation, value)
            while len(entries) > capacity:
                entries.popitem(last=False)
                evictions += 1
        self.stats.puts += len(keys)
        self.stats.evictions += evictions


class BboxResultCache:
    """LRU cache of whole box-sweep summaries, validated by generation vector.

    Each entry stores the generation of *every* shard at fill time; a lookup
    hits only when the current vector matches exactly, so a cached summary
    can never reflect a map state other than the present one.  The cache is
    tiny (summaries, not voxels) and shares its counter block with the point
    cache when constructed with one.

    Args:
        capacity: maximum cached summaries; ``0`` disables the cache (every
            lookup misses, puts are dropped).
        stats: counter block to record into (a fresh one when omitted).
    """

    def __init__(self, capacity: int = 64, stats: Optional[CacheStats] = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        # key -> (generation vector, summary)
        self._entries: "OrderedDict[Hashable, Tuple[Tuple[int, ...], object]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, generations: Tuple[int, ...]) -> Optional[object]:
        """The cached summary for this box at exactly these generations."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.bbox_misses += 1
            return None
        cached_generations, summary = entry
        if cached_generations != tuple(generations):
            del self._entries[key]
            self.stats.bbox_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.bbox_hits += 1
        return summary

    def put(self, key: Hashable, generations: Tuple[int, ...], summary: object) -> None:
        """Cache one sweep's summary stamped with the full generation vector."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (tuple(generations), summary)
        self.stats.bbox_puts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.bbox_evictions += 1
