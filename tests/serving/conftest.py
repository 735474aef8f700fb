"""Shared fixtures for the serving-layer tests: tiny scan workloads."""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pytest

from repro.octomap import PointCloud, Pose6D, ScanNode
from repro.serving import ScanRequest, ShardUpdateBatch


def update_batch(shard_id: int, updates) -> ShardUpdateBatch:
    """The wire batch of ``[(key_x, key_y, key_z, occupied), ...]`` (``[]``: an empty one)."""
    columns = np.array(updates, dtype=np.int64).reshape(-1, 4)
    return ShardUpdateBatch.from_key_arrays(shard_id, columns[:, :3], columns[:, 3] != 0)


def worker_request(transport, verb: str, gid=None, payload=None):
    """One command round trip on a raw worker connection: send ``(verb, gid, payload)``, receive the reply."""
    transport.send((verb, gid, payload))
    return transport.recv()


def ring_scan(origin_x: float, scan_id: int, radius: float = 2.5, beams: int = 90) -> ScanNode:
    """One small ring scan observed from ``(origin_x, 0, 0.2)``."""
    points = [
        (
            radius * math.cos(azimuth) + 0.2 * math.sin(3.0 * azimuth),
            radius * math.sin(azimuth),
            0.3 * math.sin(2.0 * azimuth),
        )
        for azimuth in np.linspace(-math.pi, math.pi, beams, endpoint=False)
    ]
    return ScanNode(PointCloud(points), Pose6D((origin_x, 0.0, 0.2)), scan_id=scan_id)


@pytest.fixture
def small_scans() -> List[ScanNode]:
    """Three overlapping ring scans (re-updates the same voxels repeatedly)."""
    return [ring_scan(origin_x, scan_id) for scan_id, origin_x in enumerate((-0.6, 0.0, 0.6))]


@pytest.fixture
def small_requests(small_scans) -> List[ScanRequest]:
    """The ring scans wrapped as requests for session ``"map"``."""
    return [
        ScanRequest.from_scan_node("map", scan).with_request_id(index)
        for index, scan in enumerate(small_scans)
    ]


@pytest.fixture
def chaos():
    """A fresh fault-injection harness for socket-backend chaos tests.

    Arm faults with :meth:`ChaosHarness.arm` and build backends with
    :meth:`ChaosHarness.make_backend`; see ``tests/serving/faultinject.py``.
    Any workers spawned through the harness are reaped on teardown.
    """
    from faultinject import ChaosHarness

    harness = ChaosHarness()
    yield harness
    for handle in harness.handles.values():
        handle.stop()
