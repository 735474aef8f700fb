"""Golden service stats: every rendered table and the JSON dump, pinned.

``golden_stats.json`` holds, for a handful of seeded service states, the
output of ``ServiceStats.render(top_sessions=k)`` for several ``k`` and of
``ServiceStats.to_dict()``.  The states are hand-filled counter blocks (no
map work), so the file pins exactly how counters become table rows, how the
``(+N more)`` fold row pools the sessions it hides, which optional tables
appear, and what ``/v1/stats`` serves -- independently of how ``stats.py``
spells any of that out.  ``python tests/serving/test_stats_golden.py``
rewrites it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List

import pytest

from repro.serving.cache import CacheStats
from repro.serving.stats import ServiceStats, SessionStats

GOLDEN = Path(__file__).with_name("golden_stats.json")
TOP_SESSIONS = (0, 1, 3, 10)

INT_COUNTERS = (
    "scans_ingested", "points_ingested", "rays_cast", "ray_voxels_visited", "voxel_updates",
    "duplicates_removed", "batches_dispatched", "modelled_ingest_cycles",
    "frontend_converter_builds", "deadline_misses", "flusher_cycles",
    "point_queries", "batch_queries", "bbox_queries", "raycast_queries",
)
ADMISSION_INTS = (
    "async_submits", "admission_waits", "queue_rejects", "quota_rejects", "shed_requests",
    "admission_queue_high_water",
)
FAILOVER_INTS = (
    "snapshots_taken", "failovers", "replayed_batches", "replayed_updates",
    "heartbeat_probes", "heartbeat_failures",
)
CACHE_COUNTERS = (
    "hits", "misses", "stale_hits", "evictions", "puts",
    "bbox_hits", "bbox_misses", "bbox_puts", "bbox_evictions",
)


def filled_block(rng: random.Random, session_id: str) -> SessionStats:
    """One session's counters, drawn from ``rng``; some traffic kinds left idle."""
    block = SessionStats(
        session_id=session_id,
        backend_name=rng.choice(("inline", "thread", "process", "socket")),
        num_shards=rng.randint(1, 4),
    )
    for name in INT_COUNTERS:
        setattr(block, name, rng.randint(0, 50_000))
    block.duplicates_removed = rng.randint(0, block.ray_voxels_visited)
    block.ingest_wall_seconds = rng.uniform(0.0, 3.0)
    block.fanout_wall_seconds = rng.uniform(0.0, block.ingest_wall_seconds)
    block.frontend_wall_seconds = rng.uniform(0.0, block.ingest_wall_seconds - block.fanout_wall_seconds)
    block.shard_updates = [rng.randint(0, 9_000) for _ in range(block.num_shards)]
    block.cache = CacheStats(**{name: rng.randint(0, 4_000) for name in CACHE_COUNTERS})
    kind = rng.random()
    if kind < 0.15:
        # Admission-table membership without a single accepted submit.
        block.quota_rejects = rng.randint(1, 9)
    elif kind < 0.6:
        for name in ADMISSION_INTS:
            setattr(block, name, rng.randint(0, 300))
        block.admission_wait_seconds = rng.uniform(0.0, 0.5)
    if rng.random() < 0.5:
        for name in FAILOVER_INTS:
            setattr(block, name, rng.randint(0, 40))
        block.recovery_wall_seconds = rng.uniform(0.0, 2.0)
    return block


def service(blocks: List[SessionStats]) -> ServiceStats:
    stats = ServiceStats()
    for block in blocks:
        stats.register(block)
    return stats


def states() -> Dict[str, ServiceStats]:
    """The seeded service states the golden file is taken over."""
    cases: Dict[str, ServiceStats] = {"empty": service([])}
    for count in (1, 4, 14):
        rng = random.Random(1000 + count)
        ids = rng.sample([f"{name}-{index}" for index in range(20) for name in ("map", "robot")], count)
        cases[f"filled_{count}"] = service([filled_block(rng, sid) for sid in ids])
    cases["zeros_3"] = service([SessionStats(session_id=f"idle-{index}") for index in range(3)])
    rng = random.Random(7)
    mixed = [filled_block(rng, f"busy-{index}") for index in range(6)]
    mixed += [SessionStats(session_id=f"idle-{index}", num_shards=2, shard_updates=[0, 0]) for index in range(5)]
    cases["mixed_11"] = service(mixed)
    return cases


def collect() -> dict:
    return {
        name: {
            "render": {str(k): stats.render(top_sessions=k) for k in TOP_SESSIONS},
            "to_dict": stats.to_dict(),
        }
        for name, stats in states().items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(states()))
def test_render_matches_the_golden_tables(golden, case):
    stats = states()[case]
    for k in TOP_SESSIONS:
        assert stats.render(top_sessions=k) == golden[case]["render"][str(k)], f"top_sessions={k}"


@pytest.mark.parametrize("case", sorted(states()))
def test_to_dict_matches_the_golden_dump(golden, case):
    assert json.loads(json.dumps(states()[case].to_dict())) == golden[case]["to_dict"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
