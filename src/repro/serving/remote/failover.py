"""Replay-tail bookkeeping and recovery records for live failover.

Snapshots make worker loss survivable; the replay log makes it *cheap*.
Between two snapshots of a shard, every acknowledged non-empty update batch
is kept (parent-side) in that shard's replay tail.  Recovery is then:
rehydrate the last snapshot on a new worker, replay the tail in dispatch
order, run the exchange that was in flight when the worker died again.
Because the log is truncated at every snapshot, the tail -- and therefore
the recovery stall -- is bounded by the snapshot cadence, not by the
session's age.

Replaying is exact, not approximate: per-shard batches apply in dispatch
order, each non-empty batch bumps the worker's generation by one, and the
snapshot restored the pre-tail generation -- so a recovered shard lands on
precisely the generation it last acknowledged, keeping the
generation-stamped query cache honest across a failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.serving.types import ShardUpdateBatch

__all__ = ["ReplayLog", "RecoveryReport"]


class ReplayLog:
    """Per-shard tails of acknowledged batches since the last snapshot.

    Keyed by the fleet-global ``gid`` a shard is hosted under (the batches
    themselves carry session-local shard ids, which collide across the
    sessions of a shared fleet).
    """

    def __init__(self) -> None:
        self._tails: Dict[int, List[ShardUpdateBatch]] = {}

    def record(self, gid: int, batch: ShardUpdateBatch) -> None:
        """Append one acknowledged batch to a shard's tail."""
        self._tails.setdefault(gid, []).append(batch)

    def truncate(self, gid: int) -> None:
        """Drop a shard's tail (a fresh snapshot covers it now, or the
        shard was detached)."""
        self._tails.pop(gid, None)

    def tail(self, gid: int) -> Tuple[ShardUpdateBatch, ...]:
        """The batches to replay on top of the shard's last snapshot."""
        return tuple(self._tails.get(gid, ()))

    def tail_length(self, gid: int) -> int:
        """Batches currently in a shard's tail (snapshot-cadence trigger)."""
        return len(self._tails.get(gid, ()))


@dataclass(frozen=True)
class RecoveryReport:
    """One completed shard recovery (observability/tests).

    Attributes:
        shard_id: session-local id of the shard that was re-homed.
        from_worker: endpoint of the dead worker.
        to_worker: endpoint the shard now lives on.
        restored_generation: generation of the snapshot image the new worker
            started from (0 when the shard restarted fresh, pre-snapshot).
        replayed_batches / replayed_updates: size of the replayed tail.
        wall_seconds: kill-detection to recovered wall-clock time.
    """

    shard_id: int
    from_worker: str
    to_worker: str
    restored_generation: int
    replayed_batches: int
    replayed_updates: int
    wall_seconds: float
