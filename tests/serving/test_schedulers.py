"""Scheduler ordering: FIFO, priority, earliest-deadline-first, stability."""

from __future__ import annotations

import math
import time

import pytest

from repro.octomap import PointCloud
from repro.serving import ScanRequest, make_scheduler
from repro.serving.schedulers import SCHEDULER_POLICIES


def _request(request_id: int, priority: int = 0, deadline_s: float = math.inf) -> ScanRequest:
    return ScanRequest(
        session_id="map",
        cloud=PointCloud([(1.0, 0.0, 0.0)]),
        origin=(0.0, 0.0, 0.0),
        priority=priority,
        deadline_s=deadline_s,
        request_id=request_id,
    )


def _drain(scheduler):
    order = []
    while scheduler:
        order.append(scheduler.pop().request_id)
    return order


def test_registry_and_unknown_policy():
    assert set(SCHEDULER_POLICIES) == {"fifo", "priority", "deadline"}
    with pytest.raises(KeyError, match="unknown scheduler policy"):
        make_scheduler("round-robin")


def test_fifo_preserves_arrival_order():
    scheduler = make_scheduler("fifo")
    for request_id in (3, 1, 4, 1_000, 5):
        scheduler.push(_request(request_id))
    assert _drain(scheduler) == [3, 1, 4, 1_000, 5]


def test_fifo_interleaved_push_pop():
    scheduler = make_scheduler("fifo")
    scheduler.push(_request(0))
    scheduler.push(_request(1))
    assert scheduler.pop().request_id == 0
    scheduler.push(_request(2))
    assert _drain(scheduler) == [1, 2]
    assert len(scheduler) == 0
    with pytest.raises(IndexError):
        scheduler.pop()


def test_priority_serves_highest_first_fifo_among_equals():
    scheduler = make_scheduler("priority")
    scheduler.push(_request(0, priority=1))
    scheduler.push(_request(1, priority=5))
    scheduler.push(_request(2, priority=1))
    scheduler.push(_request(3, priority=5))
    assert _drain(scheduler) == [1, 3, 0, 2]


def test_deadline_serves_earliest_first_fifo_among_equals():
    scheduler = make_scheduler("deadline")
    scheduler.push(_request(0, deadline_s=9.0))
    scheduler.push(_request(1, deadline_s=1.0))
    scheduler.push(_request(2))  # no deadline -> served last
    scheduler.push(_request(3, deadline_s=1.0))
    assert _drain(scheduler) == [1, 3, 0, 2]


def test_uniform_workload_identical_across_policies():
    requests = [_request(request_id) for request_id in range(7)]
    orders = []
    for policy in SCHEDULER_POLICIES:
        scheduler = make_scheduler(policy)
        for request in requests:
            scheduler.push(request)
        orders.append(_drain(scheduler))
    assert orders[0] == orders[1] == orders[2] == list(range(7))


def test_fifo_compaction_keeps_order():
    scheduler = make_scheduler("fifo")
    # Push/pop enough to trigger the lazy compaction path.
    for request_id in range(200):
        scheduler.push(_request(request_id))
    popped = [scheduler.pop().request_id for _ in range(150)]
    assert popped == list(range(150))
    for request_id in range(200, 220):
        scheduler.push(_request(request_id))
    assert _drain(scheduler) == list(range(150, 220))


def test_fifo_len_stays_correct_across_the_compaction_boundary():
    """``len()`` must agree with the logical queue depth on both sides of
    the lazy-compaction trigger (head > 64 and head * 2 >= backing length)."""
    scheduler = make_scheduler("fifo")
    for request_id in range(130):
        scheduler.push(_request(request_id))
    # Pop up to (and across) the compaction trigger -- head > 64 and
    # head * 2 >= backing length, i.e. inside the 65th pop -- checking len
    # at every step.
    for popped in range(1, 66):
        assert scheduler.pop().request_id == popped - 1
        assert len(scheduler) == 130 - popped
    assert scheduler._head == 0, "lazy compaction ran on the 65th pop"
    # Order and length stay correct after the backing list was rewritten.
    assert scheduler.pop().request_id == 65
    assert len(scheduler) == 64
    assert _drain(scheduler) == list(range(66, 130))
    assert len(scheduler) == 0


def test_deadline_mixed_inf_and_finite_keeps_fifo_among_equals():
    """Requests without a deadline (inf) sort after every finite deadline
    but keep arrival order among themselves, exactly like finite ties."""
    scheduler = make_scheduler("deadline")
    scheduler.push(_request(0))  # inf
    scheduler.push(_request(1, deadline_s=5.0))
    scheduler.push(_request(2))  # inf
    scheduler.push(_request(3, deadline_s=5.0))
    scheduler.push(_request(4))  # inf
    scheduler.push(_request(5, deadline_s=1.0))
    assert _drain(scheduler) == [5, 1, 3, 0, 2, 4]


def test_pop_from_empty_raises_for_every_policy():
    for policy in SCHEDULER_POLICIES:
        scheduler = make_scheduler(policy)
        with pytest.raises(IndexError, match="empty"):
            scheduler.pop()
        # Still empty and still usable after the failed pop.
        assert len(scheduler) == 0
        scheduler.push(_request(0))
        assert scheduler.pop().request_id == 0
        with pytest.raises(IndexError, match="empty"):
            scheduler.pop()


# ---------------------------------------------------------------------------
# Missed-deadline accounting (counted by the pipeline at pop time)
# ---------------------------------------------------------------------------
def test_expired_deadlines_are_counted_as_misses_at_flush():
    from repro.serving import MapSession, SessionConfig

    with MapSession(
        "map", SessionConfig(num_shards=1, batch_size=4, scheduler_policy="deadline")
    ) as session:
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
    from repro.serving import MapSession, SessionConfig

    with MapSession("map", SessionConfig(num_shards=1, batch_size=2)) as session:
        cloud = PointCloud([(1.0, 0.0, 0.2)])
        for _ in range(3):
            session.submit(ScanRequest(session_id="map", cloud=cloud, origin=(0.0, 0.0, 0.2)))
        session.flush_all()
        assert session.stats.deadline_misses == 0


def test_deadline_misses_render_in_the_ingest_table():
    from repro.serving import MapSession, SessionConfig
    from repro.serving.stats import ServiceStats

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
