"""Worker registry: which TCP endpoint serves which slot, and who is left.

The registry is a socket pool's map of its workers.  What it assigns is a
pool *slot* (the ``shard_id`` of this module's API: a private pool has one
slot per shard).  Endpoints are ordered: the first ``num_shards`` of them
are the primary homes of slots ``0..num_shards-1``; any extras are
*standbys* -- idle workers a lost slot re-homes onto first.  When no idle
standby is left, the slot is co-hosted on the live worker already carrying
the fewest, so a pool degrades gradually (less parallelism) instead of dying
with its first worker.  Only when every worker is dead does reassignment
fail, and the loss becomes fail-stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Union

__all__ = ["WorkerEndpoint", "WorkerRegistry", "NoLiveWorkerError"]


class NoLiveWorkerError(RuntimeError):
    """Every registered worker endpoint is dead; the shard cannot re-home."""


@dataclass(frozen=True, order=True)
class WorkerEndpoint:
    """One worker's TCP address."""

    host: str
    port: int

    @classmethod
    def parse(cls, text: Union[str, "WorkerEndpoint"]) -> "WorkerEndpoint":
        """Build from a ``host:port`` string (pass-through for instances)."""
        if isinstance(text, WorkerEndpoint):
            return text
        host, separator, port = text.rpartition(":")
        if not separator or not host:
            raise ValueError(f"worker endpoint {text!r} is not of the form host:port")
        return cls(host=host, port=int(port))

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class WorkerRegistry:
    """Shard -> endpoint assignment with liveness tracking."""

    def __init__(self, endpoints: Sequence[WorkerEndpoint], num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        parsed = [WorkerEndpoint.parse(endpoint) for endpoint in endpoints]
        if len(set(parsed)) != len(parsed):
            raise ValueError(f"duplicate worker endpoints in {parsed}")
        if len(parsed) < num_shards:
            raise ValueError(
                f"{num_shards} shards need at least {num_shards} worker "
                f"endpoints; got {len(parsed)}"
            )
        self.num_shards = num_shards
        self._endpoints: List[WorkerEndpoint] = parsed
        self._dead: Set[WorkerEndpoint] = set()
        self._assignment: Dict[int, WorkerEndpoint] = {
            shard_id: parsed[shard_id] for shard_id in range(num_shards)
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def endpoint_for(self, shard_id: int) -> WorkerEndpoint:
        """The endpoint currently serving a shard."""
        return self._assignment[shard_id]

    def standbys(self) -> List[WorkerEndpoint]:
        """Live endpoints currently hosting no shard (re-homing targets)."""
        hosting = set(self._assignment.values())
        return [
            endpoint
            for endpoint in self._endpoints
            if endpoint not in self._dead and endpoint not in hosting
        ]

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def mark_dead(self, endpoint: WorkerEndpoint) -> None:
        """Declare an endpoint dead; it is never picked for re-homing again."""
        self._dead.add(endpoint)

    def reassign(self, shard_id: int) -> WorkerEndpoint:
        """Re-home a shard: idle live standby first, else co-host on the
        live worker carrying the fewest shards.

        Raises:
            NoLiveWorkerError: when no live endpoint remains.
        """
        standbys = self.standbys()
        if standbys:
            target = standbys[0]
        else:
            load: Dict[WorkerEndpoint, int] = {}
            for owner in self._assignment.values():
                load[owner] = load.get(owner, 0) + 1
            candidates = [
                endpoint
                for endpoint in self._endpoints
                if endpoint not in self._dead and endpoint in load
            ]
            if not candidates:
                raise NoLiveWorkerError(
                    f"no live worker left to re-home shard {shard_id} onto "
                    f"({len(self._dead)} of {len(self._endpoints)} endpoints dead)"
                )
            target = min(candidates, key=lambda endpoint: load[endpoint])
        self._assignment[shard_id] = target
        return target
