"""Seeded inputs of the four workloads.

Everything the program is fed is generated here, in the benchmark process,
from the one ``--seed``: the scan streams (interleaving shuffle and LiDAR
beam dropout), the Poisson arrival schedule and the query operations each
draw from their own child of ``numpy.random.SeedSequence(seed)``, so the
same seed gives byte-identical inputs and a different seed gives different
clouds, not just a different order.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.streams import (
    ClientSpec,
    generate_interleaved_stream,
    poisson_arrival_times,
)
from repro.serving import ScanRequest

RESOLUTION_M = 0.2
#: every ClientSpec drops a tenth of its beams, so the seed changes the clouds.
DROPOUT = 0.1
#: share of point / query_batch / raycast / query_bbox in the query mix.
QUERY_MIX = (("point", 0.70), ("batch", 0.15), ("raycast", 0.12), ("bbox", 0.03))
HOT_SET_POINTS = 256
BATCH_POSES = 32
RAYCAST_RANGE_M = 8.0
BBOX_SET = 128
SMALL_SCAN_RANGE_M = 4.0

QueryOp = Tuple[str, tuple]


def derived_seeds(seed: int) -> Dict[str, int]:
    """One independent integer seed per input family, all from ``seed``."""
    names = ("stream", "arrivals", "queries", "trickle")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: int(child.generate_state(1)[0]) for name, child in zip(names, children)}


def _requests(clients: Sequence[ClientSpec], seed: int, beams: Tuple[int, int]) -> List[ScanRequest]:
    events = generate_interleaved_stream(
        clients, seed=seed, beams_azimuth=beams[0], beams_elevation=beams[1]
    )
    return [
        ScanRequest.from_scan_node(
            event.session_id, event.scan, max_range=event.max_range_m, client_id=event.client_id
        )
        for event in events
    ]


def corridor_stream(seed: int, scans_per_client: int, session_id: str = "map") -> List[ScanRequest]:
    """Two robots' corridor LiDAR scans (96x3 beams, 15 m) into one session."""
    clients = [
        ClientSpec(f"robot-{index}", session_id, num_scans=scans_per_client, dropout=DROPOUT)
        for index in range(2)
    ]
    return _requests(clients, seed, (96, 3))


def small_scan_stream(seed: int, session_ids: Sequence[str], scans_per_session: int) -> List[ScanRequest]:
    """Small scans (32x1 beams, 4 m): one robot per session, interleaved.

    At 4 m their sizes (voxel updates) differ by a seventh from pose to pose,
    at 6 m by a quarter, which a median over a few dozen of them shows.
    """
    clients = [
        ClientSpec(
            f"robot-{session_id}",
            session_id,
            num_scans=scans_per_session,
            max_range_m=SMALL_SCAN_RANGE_M,
            dropout=DROPOUT,
        )
        for session_id in session_ids
    ]
    return _requests(clients, seed, (32, 1))


def arrival_times(seed: int, count: int, rate_per_s: float) -> np.ndarray:
    """Open-loop Poisson schedule: due offsets in seconds from the start."""
    return poisson_arrival_times(count, rate_per_s, seed=seed)


def query_ops(seed: int, count: int) -> List[QueryOp]:
    """A planner's read mix over the corridor, ``count`` operations long.

    Point queries draw 80% from a 256-point Pareto-skewed hot set (cache
    hits) and 20% uniformly from a volume wider than the corridor (cold,
    partly unknown space).  Boxes come from a 128-box set aligned to the
    voxel grid, so a repeated sweep can hit the summary cache and no voxel
    centre lies on a box face.
    """
    rng = np.random.default_rng(seed)
    low = np.array([-16.0, -1.4, -1.2])
    high = np.array([16.0, 1.4, 1.4])
    hot = low + (high - low) * rng.random((HOT_SET_POINTS, 3))
    corners = np.column_stack(
        (rng.integers(-80, 75, BBOX_SET), rng.integers(-10, 1, BBOX_SET), rng.integers(-6, 2, BBOX_SET))
    )
    boxes = [
        (tuple(RESOLUTION_M * c for c in corner), tuple(RESOLUTION_M * (c + n) for c, n in zip(corner, (5, 10, 5))))
        for corner in corners.tolist()
    ]

    # Exact shares in every block of 100 (order shuffled): with sampled kinds
    # the handful of 10 ms box sweeps per probe would set its ops/s.
    block = np.repeat(np.arange(len(QUERY_MIX)), [round(100 * share) for _, share in QUERY_MIX])
    kinds = np.concatenate([rng.permutation(block) for _ in range(-(-count // block.size))])[:count]
    uniform = rng.random((count, 6))
    hot_index = np.minimum(rng.pareto(0.7, count).astype(np.int64), HOT_SET_POINTS - 1)
    ops: List[QueryOp] = []
    for kind, u, index in zip(kinds.tolist(), uniform.tolist(), hot_index.tolist()):
        name = QUERY_MIX[kind][0]
        if name == "point":
            if u[3] < 0.8:
                point = tuple(hot[index].tolist())
            else:
                point = (-18.0 + 36.0 * u[0], -4.0 + 8.0 * u[1], -1.5 + 3.2 * u[2])
            ops.append((name, point))
        elif name == "batch":
            x, y, z = -15.0 + 22.0 * u[0], -0.8 + 1.6 * u[1], -0.5 + u[2]
            ops.append((name, tuple((x + 0.25 * step, y, z) for step in range(BATCH_POSES))))
        elif name == "raycast":
            origin = (-15.0 + 30.0 * u[0], -0.8 + 1.6 * u[1], -0.5 + u[2])
            yaw, pitch = 2.0 * np.pi * u[3], 0.4 * (u[4] - 0.5)
            direction = (
                float(np.cos(yaw) * np.cos(pitch)),
                float(np.sin(yaw) * np.cos(pitch)),
                float(np.sin(pitch)),
            )
            ops.append((name, (origin, direction)))
        else:
            ops.append((name, boxes[int(u[0] * BBOX_SET)]))
    return ops


def digest(requests: Sequence[ScanRequest], *extras) -> str:
    """SHA-256 over every generated input (same seed => same digest)."""
    sha = hashlib.sha256()
    for request in requests:
        sha.update(request.session_id.encode())
        sha.update(np.asarray(request.cloud.points, dtype=np.float64).tobytes())
        sha.update(np.asarray(request.origin, dtype=np.float64).tobytes())
    for extra in extras:
        sha.update(extra.tobytes() if isinstance(extra, np.ndarray) else repr(extra).encode())
    return sha.hexdigest()
