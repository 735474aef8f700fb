"""Cache behaviour: warm-up hits, per-shard invalidation, LRU eviction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import update_batch
from repro.serving import GenerationLRUCache, MapSession, SessionConfig
from repro.serving.types import ScanRequest


# ---------------------------------------------------------------------------
# Unit level: GenerationLRUCache
# ---------------------------------------------------------------------------
def test_put_get_roundtrip_and_counters():
    cache = GenerationLRUCache(capacity=8)
    generations = {0: 0, 1: 0}
    cache.put(("a",), 0, 0, "value-a")
    assert cache.get(("a",), generations.__getitem__) == "value-a"
    assert cache.get(("missing",), generations.__getitem__) is None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_generation_bump_invalidates_only_that_shard():
    cache = GenerationLRUCache(capacity=8)
    generations = {0: 0, 1: 0}
    cache.put(("shard0-key",), 0, 0, "v0")
    cache.put(("shard1-key",), 1, 0, "v1")

    generations[0] += 1  # a write lands on shard 0

    assert cache.get(("shard0-key",), generations.__getitem__) is None  # stale, evicted
    assert cache.get(("shard1-key",), generations.__getitem__) == "v1"  # untouched
    assert cache.stats.stale_hits == 1
    assert len(cache) == 1


def test_lru_eviction_drops_least_recently_used():
    cache = GenerationLRUCache(capacity=2)
    def generation(shard_id):
        return 0

    cache.put("a", 0, 0, 1)
    cache.put("b", 0, 0, 2)
    assert cache.get("a", generation) == 1  # refresh "a"; "b" is now LRU
    cache.put("c", 0, 0, 3)
    assert cache.stats.evictions == 1
    assert cache.get("b", generation) is None
    assert cache.get("a", generation) == 1
    assert cache.get("c", generation) == 3


def test_capacity_validation():
    with pytest.raises(ValueError):
        GenerationLRUCache(capacity=0)


def test_eviction_counter_accounts_every_overflow():
    cache = GenerationLRUCache(capacity=2)
    def generation(shard_id):
        return 0

    for index in range(5):
        cache.put(f"key-{index}", 0, 0, index)
    assert cache.stats.puts == 5
    assert cache.stats.evictions == 3
    assert len(cache) == 2
    # Refreshing an existing key is not an insertion: no eviction.
    cache.put("key-4", 0, 0, 99)
    assert cache.stats.evictions == 3
    assert cache.get("key-4", generation) == 99


#: A history of runs: each one shard's keys, in order, with the cache's
#: contents before it left by earlier runs.  Keys come from a small pool, so
#: a run refreshes held keys, repeats a key, and re-inserts one it evicted.
run_history = st.lists(
    st.tuples(st.lists(st.integers(0, 11), max_size=9), st.integers(0, 2), st.integers(0, 3)),
    min_size=1,
    max_size=8,
)


@given(capacity=st.integers(1, 6), history=run_history, shrink_to=st.one_of(st.none(), st.integers(1, 3)))
@settings(max_examples=300, deadline=None)
def test_put_run_leaves_what_one_put_per_key_leaves(capacity, history, shrink_to):
    runs, puts = GenerationLRUCache(capacity), GenerationLRUCache(capacity)
    for step, (keys, shard_id, generation) in enumerate(history):
        if shrink_to is not None and step == len(history) // 2:
            # A capacity lowered under held entries: the next insert evicts several.
            runs.capacity = puts.capacity = shrink_to
        values = [f"{key}@{step}" for key in keys]
        runs.put_run(keys, shard_id, generation, values)
        for key, value in zip(keys, values):
            puts.put(key, shard_id, generation, value)
        assert list(runs._entries.items()) == list(puts._entries.items())
        assert runs.stats == puts.stats


def test_put_run_refuses_keys_and_values_of_different_lengths():
    cache = GenerationLRUCache(capacity=4)
    with pytest.raises(ValueError, match="2 keys but 1 values"):
        cache.put_run(["a", "b"], 0, 0, ["a"])
    assert len(cache) == 0 and cache.stats.puts == 0


# ---------------------------------------------------------------------------
# Integration level: the cache inside a live session
# ---------------------------------------------------------------------------
@pytest.fixture
def warm_session(small_requests):
    session = MapSession("map", SessionConfig(num_shards=2, batch_size=4))
    for request in small_requests:
        session.submit(request)
    session.flush_all()
    return session


def test_repeated_point_queries_hit_the_cache(warm_session):
    point = (1.2, 0.3, 0.2)
    first = warm_session.query(*point)
    assert not first.cached
    second = warm_session.query(*point)
    assert second.cached
    assert second.status == first.status
    assert second.probability == first.probability
    assert warm_session.stats.cache.hits >= 1
    # Cache hits cost no modelled accelerator cycles.
    assert second.cycles == 0


def test_write_invalidates_only_the_written_shards(warm_session, small_scans):
    converter = warm_session.router.converter
    # Two probe points on different shards.
    probes = [(1.2, 0.3, 0.2), (-1.4, -0.7, 0.0)]
    shard_ids = [warm_session.router.shard_for_key(converter.coord_to_key(*p)) for p in probes]
    assert shard_ids[0] != shard_ids[1], "pick probes on distinct shards"
    for probe in probes:
        warm_session.query(*probe)  # fill

    # Write only to probe 0's shard, through the backend: the parent-side
    # generation stamps the cache validates against are adopted from apply
    # acknowledgements, so a write has to come this way to be seen.
    key0 = converter.coord_to_key(*probes[0])
    backend = warm_session.backend
    generation_before = [backend.generation_of(shard) for shard in shard_ids]
    backend.apply_shard_batches([update_batch(shard_ids[0], [(key0.x, key0.y, key0.z, True)])])
    assert backend.generation_of(shard_ids[0]) == generation_before[0] + 1
    assert backend.generation_of(shard_ids[1]) == generation_before[1]
    # The stamps are the workers' own generations, as acknowledged.
    assert [warm_session.workers[shard].generation for shard in shard_ids] == [
        backend.generation_of(shard) for shard in shard_ids
    ]

    hits_before = warm_session.stats.cache.hits
    stale_before = warm_session.stats.cache.stale_hits
    invalidated = warm_session.query(*probes[0])   # stale -> served fresh
    untouched = warm_session.query(*probes[1])     # still cached
    assert not invalidated.cached
    assert untouched.cached
    assert warm_session.stats.cache.stale_hits == stale_before + 1
    assert warm_session.stats.cache.hits == hits_before + 1


def test_ingest_through_pipeline_bumps_generations(warm_session, small_scans):
    generations_before = [worker.generation for worker in warm_session.workers]
    warm_session.submit(ScanRequest.from_scan_node("map", small_scans[0]).with_request_id(99))
    warm_session.flush_all()
    generations_after = [worker.generation for worker in warm_session.workers]
    # The ring scan spans the whole map, so every shard received updates.
    assert all(after > before for before, after in zip(generations_before, generations_after))


def test_sweeps_and_batches_bypass_the_point_cache(warm_session):
    """The bulk lane is scan-resistant: it neither reads nor fills the point LRU."""
    cache = warm_session.cache
    hot = (0.3, 0.1, 0.1)
    warm_session.query(*hot)
    before = (len(cache), cache.stats.puts, cache.stats.evictions, cache.stats.lookups)

    box = warm_session.query_bbox((-0.6, -0.6, 0.0), (0.6, 0.6, 0.2))
    assert box.voxels_scanned > 0
    batch = warm_session.query_batch([(0.1 * step, 0.0, 0.1) for step in range(-5, 6)] + [hot])
    assert not any(response.cached for response in batch)
    assert (len(cache), cache.stats.puts, cache.stats.evictions, cache.stats.lookups) == before
    # The hot point survived both, and answers the same on either lane.
    again = warm_session.query(*hot)
    assert again.cached
    assert (again.status, again.probability) == (batch[-1].status, batch[-1].probability)

    # Raycast steps are point lookups: a repeated ray hits what the first cached.
    # (The first ray already hits the hot point's voxel, and nothing the sweep read.)
    first = warm_session.raycast((-0.5, 0.0, 0.1), (1.0, 0.0, 0.0), 1.0)
    assert first.cache_hits == 1
    second = warm_session.raycast((-0.5, 0.0, 0.1), (1.0, 0.0, 0.0), 1.0)
    assert second.cache_hits == second.voxels_traversed == first.voxels_traversed

    # A repeated identical sweep over the unchanged map is answered whole by
    # the bbox summary cache, without re-walking the voxels.
    repeat = warm_session.query_bbox((-0.6, -0.6, 0.0), (0.6, 0.6, 0.2))
    assert warm_session.stats.cache.bbox_hits == 1
    assert repeat == box


# ---------------------------------------------------------------------------
# Unit level: BboxResultCache
# ---------------------------------------------------------------------------
def test_bbox_cache_hits_only_on_exact_generation_vector():
    from repro.serving import BboxResultCache

    cache = BboxResultCache(capacity=4)
    key = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    cache.put(key, (3, 7), "summary")
    assert cache.get(key, (3, 7)) == "summary"
    assert cache.stats.bbox_hits == 1
    # Any shard moving invalidates the whole summary (exactness).
    assert cache.get(key, (3, 8)) is None
    assert cache.stats.bbox_misses == 1
    assert len(cache) == 0


def test_bbox_cache_lru_eviction_and_counters():
    from repro.serving import BboxResultCache

    cache = BboxResultCache(capacity=2)
    cache.put("a", (0,), 1)
    cache.put("b", (0,), 2)
    assert cache.get("a", (0,)) == 1  # refresh; "b" becomes LRU
    cache.put("c", (0,), 3)
    assert cache.stats.bbox_evictions == 1
    assert cache.get("b", (0,)) is None
    assert cache.get("c", (0,)) == 3
    assert cache.stats.bbox_puts == 3
    assert cache.stats.bbox_hit_rate == pytest.approx(2 / 3)


def test_bbox_cache_capacity_zero_disables():
    from repro.serving import BboxResultCache

    cache = BboxResultCache(capacity=0)
    cache.put("a", (0,), 1)
    assert len(cache) == 0
    assert cache.get("a", (0,)) is None
    with pytest.raises(ValueError):
        BboxResultCache(capacity=-1)


def test_bbox_cache_invalidates_after_ingest(warm_session, small_scans):
    """End to end: a cached sweep goes stale the moment new scans land."""
    box = ((-0.6, -0.6, 0.0), (0.6, 0.6, 0.2))
    first = warm_session.query_bbox(*box)
    warm_session.query_bbox(*box)
    assert warm_session.stats.cache.bbox_hits == 1
    warm_session.submit(ScanRequest.from_scan_node("map", small_scans[0]).with_request_id(77))
    warm_session.flush_all()
    fresh = warm_session.query_bbox(*box)  # re-swept, not served stale
    assert warm_session.stats.cache.bbox_hits == 1
    assert warm_session.stats.cache.bbox_misses >= 2
    assert fresh.voxels_scanned == first.voxels_scanned
