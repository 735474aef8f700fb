"""Sessions and the manager: isolation, routing, stats, lifecycle."""

from __future__ import annotations

import math
import time
from dataclasses import fields, replace

import pytest

from repro.octomap import PointCloud
from repro.serving import MapSession, MapSessionManager, ScanRequest, SessionConfig
from repro.serving.stats import ServiceStats


def test_sessions_are_isolated(small_scans):
    manager = MapSessionManager(SessionConfig(num_shards=2, batch_size=4))
    manager.ingest(ScanRequest.from_scan_node("left", small_scans[0]))
    # "right" exists but never ingested anything.
    manager.create_session("right")

    assert manager.query("left", 1.2, 0.3, 0.2).status in ("occupied", "free")
    assert manager.query("right", 1.2, 0.3, 0.2).status == "unknown"
    assert manager.get_session("left").stats.voxel_updates > 0
    assert manager.get_session("right").stats.voxel_updates == 0


def test_request_ids_are_globally_unique_and_monotonic(small_scans):
    manager = MapSessionManager(SessionConfig(num_shards=1, batch_size=8))
    receipts = [
        manager.submit(ScanRequest.from_scan_node(session_id, small_scans[0]))
        for session_id in ("a", "b", "a", "c")
    ]
    ids = [receipt.request_id for receipt in receipts]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    assert manager.pending_requests() == 4
    manager.flush_all()
    assert manager.pending_requests() == 0


def test_stamping_copies_every_other_field(small_scans):
    request = replace(
        ScanRequest.from_scan_node("a", small_scans[0]), max_range=4.5, deadline_s=123.0, client_id="robot-7"
    )
    stamped = MapSessionManager(SessionConfig(num_shards=1)).stamp_request(request)
    assert stamped.request_id == 0 and request.request_id == -1
    for field in fields(ScanRequest):
        if field.name != "request_id":
            assert getattr(stamped, field.name) is getattr(request, field.name), field.name


def test_session_lifecycle():
    manager = MapSessionManager()
    session = manager.create_session("tenant")
    assert "tenant" in manager
    assert manager.session_ids() == ("tenant",)
    with pytest.raises(ValueError, match="already exists"):
        manager.create_session("tenant")
    assert manager.get_or_create_session("tenant") is session

    closed = manager.close_session("tenant")
    assert closed is session
    assert "tenant" not in manager
    with pytest.raises(KeyError, match="unknown session"):
        manager.get_session("tenant")
    assert len(manager.service_stats) == 0


def test_get_or_create_rejects_conflicting_config():
    """Regression: a caller-supplied config used to be silently discarded
    when the session already existed, handing back a session with different
    settings than requested."""
    manager = MapSessionManager()
    config = SessionConfig(num_shards=2, batch_size=4)
    session = manager.get_or_create_session("tenant", config)
    # Same config (equal, not identical) and config=None both adopt the
    # existing session.
    assert manager.get_or_create_session("tenant", SessionConfig(num_shards=2, batch_size=4)) is session
    assert manager.get_or_create_session("tenant") is session
    with pytest.raises(ValueError, match="different"):
        manager.get_or_create_session("tenant", SessionConfig(num_shards=4, batch_size=4))
    with pytest.raises(ValueError, match="different"):
        manager.get_or_create_session("tenant", replace(config, backend="thread"))


def test_ingest_broken_dispatch_surfaces_as_runtime_error(small_scans, monkeypatch):
    """Regression: the submit-dispatched-nothing postcondition was a bare
    assert, so under ``python -O`` a broken flush fell through to an
    IndexError on the empty report list instead of a diagnosis."""
    manager = MapSessionManager(SessionConfig(num_shards=1, batch_size=2))
    session = manager.get_or_create_session("tenant")
    monkeypatch.setattr(session, "flush_all", lambda: [])
    with pytest.raises(RuntimeError, match="dispatched nothing"):
        manager.ingest(ScanRequest.from_scan_node("tenant", small_scans[0]))


def test_submit_auto_create_toggle(small_scans):
    manager = MapSessionManager()
    with pytest.raises(KeyError):
        manager.submit(ScanRequest.from_scan_node("ghost", small_scans[0]), auto_create=False)
    receipt = manager.submit(ScanRequest.from_scan_node("ghost", small_scans[0]))
    assert receipt.session_id == "ghost"
    assert "ghost" in manager


def test_session_rejects_foreign_requests(small_scans):
    session = MapSession("mine")
    with pytest.raises(ValueError, match="submitted to"):
        session.submit(ScanRequest.from_scan_node("theirs", small_scans[0]))


@pytest.mark.parametrize("bad_x", [1e9, float("nan"), float("inf")])
def test_scan_with_an_unmappable_origin_is_refused_at_submit(small_requests, bad_x):
    # The DDA raises on such an origin only after the batch was popped, which
    # used to take every co-batched scan of other clients down with it.
    session = MapSession("map", SessionConfig(num_shards=2, batch_size=2))
    good, template = small_requests[:2]
    session.submit(good)
    bad = ScanRequest("map", template.cloud, origin=(bad_x, 0.0, 0.2), request_id=1)
    with pytest.raises(ValueError, match="outside the mappable volume"):
        session.submit(bad)
    assert session.pipeline.pending() == 1, "the refused scan was never queued"
    (report,) = session.flush_all()
    assert report.request_ids == (good.request_id,)
    assert session.stats.voxel_updates == report.voxel_updates > 0
    assert session.pipeline.pending() == 0


def test_a_request_without_max_range_stays_untruncated(small_scans):
    session = MapSession("map", SessionConfig(num_shards=1))
    session.submit(ScanRequest.from_scan_node("map", small_scans[0]))
    # Pop back off the admission queue to observe the effective request.
    request = session.pipeline.queue.popleft()
    assert request.max_range == -1.0


def test_stats_render_mentions_every_session(small_scans):
    manager = MapSessionManager(SessionConfig(num_shards=2, batch_size=2))
    for session_id in ("alpha", "beta"):
        manager.ingest(ScanRequest.from_scan_node(session_id, small_scans[0]))
        manager.query(session_id, 0.5, 0.5, 0.2)
        manager.query(session_id, 0.5, 0.5, 0.2)
    rendered = manager.render_stats()
    assert "alpha" in rendered and "beta" in rendered
    assert "Serving: ingestion per session" in rendered
    assert "Serving: queries per session" in rendered
    assert manager.service_stats.totals().cache.hit_rate > 0.0


def test_shard_load_and_batch_reports(small_requests):
    session = MapSession("map", SessionConfig(num_shards=4, batch_size=2))
    for request in small_requests:
        session.submit(request)
    reports = session.flush_all()
    assert len(reports) == 2  # 3 requests, batch size 2 -> 2 batches
    assert sum(report.scans for report in reports) == len(small_requests)
    assert sum(session.backend.shard_load()) == sum(report.voxel_updates for report in reports)
    for report in reports:
        assert report.duplicates_removed >= 0
        assert report.modelled_cycles > 0
        assert len(report.shard_updates) == 4


def test_flush_all_round_robin_drains_every_session(small_scans):
    manager = MapSessionManager(SessionConfig(num_shards=1, batch_size=1))
    for session_id in ("a", "b"):
        for scan in small_scans:
            manager.submit(ScanRequest.from_scan_node(session_id, scan))
    reports = manager.flush_all()
    assert manager.pending_requests() == 0
    sessions_seen = {report.session_id for report in reports}
    assert sessions_seen == {"a", "b"}


def test_stats_render_folds_beyond_top_k(small_scans):
    """Many sessions render as the busiest K plus one aggregate row; the
    dict export always stays complete."""
    manager = MapSessionManager(SessionConfig(num_shards=1, batch_size=2))
    # "hot" ingests twice, everyone else once: traffic ranking is stable.
    manager.ingest(ScanRequest.from_scan_node("hot", small_scans[0]))
    manager.ingest(ScanRequest.from_scan_node("hot", small_scans[1]))
    for index in range(6):
        manager.ingest(ScanRequest.from_scan_node(f"cold-{index}", small_scans[0]))

    rendered = manager.service_stats.render(top_sessions=3)
    assert "hot" in rendered
    assert "(+4 more)" in rendered
    assert "top 3 of 7 by traffic" in rendered

    full = manager.service_stats.render(top_sessions=0)
    assert "(+4 more)" not in full
    for index in range(6):
        assert f"cold-{index}" in full

    exported = manager.service_stats.to_dict()
    assert len(exported["sessions"]) == 7


# ---------------------------------------------------------------------------
# Missed-deadline accounting (counted by the pipeline at pop time)
# ---------------------------------------------------------------------------
def test_expired_deadlines_are_counted_as_misses_at_flush():
    with MapSession("map", SessionConfig(num_shards=1, batch_size=4)) as session:
        now = time.monotonic()
        cloud = PointCloud([(1.0, 0.0, 0.2), (1.0, 0.4, 0.2)])
        # Two requests already past their deadline, one comfortably inside
        # it, one with no deadline at all.
        for deadline in (now - 10.0, now - 0.5, now + 60.0, math.inf):
            session.submit(
                ScanRequest(
                    session_id="map",
                    cloud=cloud,
                    origin=(0.0, 0.0, 0.2),
                    deadline_s=deadline,
                )
            )
        reports = session.flush_all()
        assert sum(report.deadline_misses for report in reports) == 2
        assert session.stats.deadline_misses == 2


def test_deadline_misses_are_zero_for_undeadlined_traffic():
    with MapSession("map", SessionConfig(num_shards=1, batch_size=2)) as session:
        cloud = PointCloud([(1.0, 0.0, 0.2)])
        for _ in range(3):
            session.submit(ScanRequest(session_id="map", cloud=cloud, origin=(0.0, 0.0, 0.2)))
        session.flush_all()
        assert session.stats.deadline_misses == 0


def test_deadline_misses_render_in_the_ingest_table():
    with MapSession("map", SessionConfig(num_shards=1)) as session:
        session.submit(
            ScanRequest(
                session_id="map",
                cloud=PointCloud([(1.0, 0.0, 0.2)]),
                origin=(0.0, 0.0, 0.2),
                deadline_s=time.monotonic() - 1.0,
            )
        )
        session.flush_all()
        stats = ServiceStats()
        stats.register(session.stats)
        assert stats.to_dict()["sessions"][0]["ingest"]["deadline_misses"] == 1
        assert "Deadline misses" in stats.render()
