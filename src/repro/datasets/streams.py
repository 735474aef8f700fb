"""Multi-client scan streams: realistic traffic for the serving layer.

A mapping *service* does not see one tidy scan graph -- it sees many clients'
scans arriving interleaved.  This module turns the existing scene / sensor /
trajectory machinery into such traffic: each :class:`ClientSpec` names a
scene and a session, and :func:`generate_interleaved_stream` merges every
client's scan sequence into one arrival-ordered stream of
:class:`StreamEvent` records.

Reproducibility: all randomness (beam dropout, interleaving jitter) derives
from one explicit master seed via :func:`numpy.random.SeedSequence.spawn`, so
two workers generating the same stream spec -- or the same worker re-running
it -- observe identical traffic, per client and in the same global order.

For *open-loop* load testing (arrivals scheduled on a wall clock rather than
paced by service completions), :func:`poisson_arrival_times` draws the
arrival offsets of a Poisson process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.datasets.generator import trajectory_for_scene
from repro.datasets.scenes import scene_by_name
from repro.datasets.sensors import DepthCamera, SpinningLidar
from repro.octomap.pointcloud import ScanNode

__all__ = [
    "ClientSpec",
    "StreamEvent",
    "generate_client_scans",
    "generate_interleaved_stream",
    "poisson_arrival_times",
]


@dataclass(frozen=True)
class ClientSpec:
    """One client's traffic profile.

    Attributes:
        client_id: unique client tag (also the stats label).
        session_id: map session the client writes into; several clients may
            share a session (a robot fleet building one map).
        scene: scene name (``"corridor"``, ``"campus"``, ``"college"``).
        sensor: ``"lidar"`` or ``"depth_camera"``.
        num_scans: scans this client sends.
        max_range_m: sensor range.
        dropout: beam dropout fraction (LiDAR only).
    """

    client_id: str
    session_id: str
    scene: str = "corridor"
    sensor: str = "lidar"
    num_scans: int = 4
    max_range_m: float = 15.0
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.num_scans < 1:
            raise ValueError("num_scans must be at least 1")
        if self.sensor not in ("lidar", "depth_camera"):
            raise ValueError(f"unknown sensor {self.sensor!r}")


@dataclass(frozen=True)
class StreamEvent:
    """One arrival in the merged multi-client stream."""

    arrival_index: int
    client_id: str
    session_id: str
    scan: ScanNode
    max_range_m: float


def generate_client_scans(
    spec: ClientSpec,
    seed: int = 0,
    beams_azimuth: int = 96,
    beams_elevation: int = 3,
) -> List[ScanNode]:
    """Generate one client's scan sequence (deterministic in ``seed``)."""
    scene = scene_by_name(spec.scene)
    poses = trajectory_for_scene(spec.scene, spec.num_scans)
    if spec.sensor == "lidar":
        sensor = SpinningLidar(
            num_azimuth=beams_azimuth,
            num_elevation=beams_elevation,
            max_range_m=spec.max_range_m,
            dropout=spec.dropout,
            seed=seed,
        )
    else:
        sensor = DepthCamera(width=64, height=48, max_range_m=spec.max_range_m, stride=4)
    scans: List[ScanNode] = []
    for scan_id, pose in enumerate(poses):
        cloud = sensor.scan(scene, pose)
        scans.append(ScanNode(cloud, pose, scan_id=scan_id))
    return scans


def generate_interleaved_stream(
    clients: Sequence[ClientSpec],
    seed: int = 0,
    beams_azimuth: int = 96,
    beams_elevation: int = 3,
    shuffle: bool = True,
) -> List[StreamEvent]:
    """Merge every client's scans into one arrival-ordered stream.

    With ``shuffle=True`` arrivals are randomly interleaved (each client's
    own scans keep their order -- a sensor never delivers frame 3 before
    frame 2); with ``shuffle=False`` clients are interleaved round-robin.
    Both modes are fully determined by ``seed``.
    """
    if not clients:
        return []
    client_ids = [spec.client_id for spec in clients]
    if len(set(client_ids)) != len(client_ids):
        raise ValueError(f"duplicate client ids in stream spec: {client_ids}")

    # One independent child seed per client plus one for the interleaving,
    # all derived from the master seed: adding a client never perturbs the
    # other clients' scans.
    root = np.random.SeedSequence(seed)
    child_seeds = root.spawn(len(clients) + 1)
    per_client = [
        generate_client_scans(
            spec,
            seed=int(child_seeds[index].generate_state(1)[0]),
            beams_azimuth=beams_azimuth,
            beams_elevation=beams_elevation,
        )
        for index, spec in enumerate(clients)
    ]

    if shuffle:
        # A bag holding each client once per scan, shuffled and consumed
        # front to back (each client's own scans keep their order).
        order: List[int] = []
        for index, spec in enumerate(clients):
            order.extend([index] * spec.num_scans)
        rng = np.random.default_rng(child_seeds[-1])
        rng.shuffle(order)
    else:
        order = _round_robin(clients)

    cursors = [0] * len(clients)
    events: List[StreamEvent] = []
    for arrival_index, client_index in enumerate(order):
        spec = clients[client_index]
        scan = per_client[client_index][cursors[client_index]]
        cursors[client_index] += 1
        events.append(
            StreamEvent(
                arrival_index=arrival_index,
                client_id=spec.client_id,
                session_id=spec.session_id,
                scan=scan,
                max_range_m=spec.max_range_m,
            )
        )
    return events


def _round_robin(clients: Sequence[ClientSpec]) -> List[int]:
    """Round-robin client order until every client's scans are exhausted."""
    remaining = [spec.num_scans for spec in clients]
    order: List[int] = []
    while any(remaining):
        for index in range(len(clients)):
            if remaining[index] > 0:
                order.append(index)
                remaining[index] -= 1
    return order


# ---------------------------------------------------------------------------
# Open-loop arrival processes
# ---------------------------------------------------------------------------
def poisson_arrival_times(
    num_events: int, rate_per_s: float, seed: int = 0
) -> np.ndarray:
    """Arrival offsets of a Poisson process (exponential inter-arrivals).

    The canonical open-loop workload: arrivals are independent of service
    times, so a service that cannot keep up accumulates queueing delay
    instead of silently slowing the workload down (the coordinated-omission
    trap of closed-loop drivers).

    Returns a sorted float array of ``num_events`` offsets in seconds,
    starting at the first inter-arrival gap.
    """
    if num_events < 0:
        raise ValueError("num_events must be non-negative")
    if rate_per_s <= 0.0:
        raise ValueError("rate_per_s must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=num_events)
    return np.cumsum(gaps)
