"""Tests of the metrics pipeline: histogram accuracy, the windowed store,
the QoS policies (quotas + deadline shedding) under a fake clock, and the
metrics-vs-stats consistency of an instrumented workload."""

from __future__ import annotations

import asyncio
import functools
import json
import math

import numpy as np
import pytest

from repro.serving import (
    AsyncMapService,
    MapSessionManager,
    ScanRequest,
    ServiceStats,
    SessionConfig,
    SessionStats,
)
from repro.serving.metrics import (
    DeadlineShed,
    DeadlineShedPolicy,
    LatencyHistogram,
    MetricsStore,
    TenantQuota,
    TenantQuotaExceeded,
    TenantQuotaRegistry,
    default_bounds,
    write_metrics_json,
)
from repro.serving.metrics import store as metrics_store


def async_test(coro):
    """Run a coroutine test function on a fresh event loop."""

    @functools.wraps(coro)
    def wrapper(*args, **kwargs):
        return asyncio.run(coro(*args, **kwargs))

    return wrapper


class FakeClock:
    """A steppable monotonic clock for deterministic QoS/rollup tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Fixed-bucket latency histogram
# ---------------------------------------------------------------------------

def test_histogram_percentiles_within_one_bucket_of_sorted_samples():
    """Any reported percentile is within the bucket ratio of the true sample.

    The histogram's documented accuracy contract: with 10 buckets per decade
    the relative error is bounded by ``10**0.1 - 1`` (~26%), verified here
    against the sorted raw samples the hot path never keeps.
    """
    rng = np.random.default_rng(7)
    samples = 10.0 ** rng.uniform(-5.0, 0.7, size=400)  # 10us .. ~5s
    hist = LatencyHistogram()
    for sample in samples:
        hist.observe(float(sample))
    ordered = np.sort(samples)
    ratio = 10.0 ** 0.1
    for q in (10.0, 50.0, 90.0, 95.0, 99.0):
        rank = q / 100.0 * len(ordered)
        true = float(ordered[min(len(ordered) - 1, max(0, math.ceil(rank) - 1))])
        got = hist.percentile(q)
        assert true / ratio * (1 - 1e-9) <= got <= true * ratio * (1 + 1e-9), (
            q,
            true,
            got,
        )


def test_histogram_percentiles_are_monotone_and_clamped():
    hist = LatencyHistogram()
    for sample in (0.001, 0.002, 0.004, 0.008, 0.5):
        hist.observe(sample)
    values = [hist.percentile(q) for q in (0.0, 25.0, 50.0, 75.0, 95.0, 100.0)]
    assert values == sorted(values)
    # Clamped to the observed range: no percentile escapes [min, max].
    assert values[0] >= 0.001 and values[-1] <= 0.5
    quantiles = hist.quantiles()
    assert quantiles["p50_ms"] <= quantiles["p95_ms"] <= quantiles["p99_ms"]
    assert quantiles["max_ms"] == pytest.approx(500.0)


def test_histogram_empty_and_single_sample():
    hist = LatencyHistogram()
    assert hist.percentile(99.0) == 0.0
    assert hist.mean_s == 0.0
    assert hist.quantiles()["max_ms"] == 0.0
    hist.observe(0.125)
    # One sample: every percentile collapses onto it (the clamp at work).
    for q in (1.0, 50.0, 99.0):
        assert hist.percentile(q) == pytest.approx(0.125)
    hist.observe(-5.0)  # negative clamps to zero, never throws
    assert hist.total == 2
    assert hist.min_s == 0.0


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        LatencyHistogram(bounds=[1.0, 0.5])
    with pytest.raises(ValueError):
        LatencyHistogram(bounds=[-1.0, 1.0])
    with pytest.raises(ValueError):
        default_bounds(minimum_s=0.0)
    with pytest.raises(ValueError):
        default_bounds(per_decade=0)


# ---------------------------------------------------------------------------
# MetricsStore: window eviction, snapshots
# ---------------------------------------------------------------------------

def _observe(store: MetricsStore, started_s: float, outcome: str = "ok", **kwargs):
    defaults = dict(
        tenant="t", session_id="map", operation="submit", duration_s=0.001
    )
    defaults.update(kwargs)
    store.observe(outcome=outcome, started_s=started_s, **defaults)


def test_rollups_evict_old_windows_but_keep_totals(monkeypatch):
    monkeypatch.setattr(metrics_store, "MAX_WINDOWS", 2)
    clock = FakeClock()
    store = MetricsStore(clock=clock)
    for started in (5.0, 15.0, 25.0, 35.0):
        clock.now = started
        _observe(store, started)
    pairs = store.windows("map")
    assert [start for start, _ in pairs] == [20.0, 30.0]  # 0.0 / 10.0 evicted
    assert all(rollup.count == 1 for _, rollup in pairs)
    (totals,) = store.totals("map")
    assert totals.count == 4  # cumulative totals never evict
    snapshot = store.snapshot()
    assert snapshot["totals"]["requests"] == 4
    assert len(snapshot["sessions"]["map"]["windows"]) == 2


def test_session_snapshot_and_outcome_accounting():
    clock = FakeClock()
    store = MetricsStore(clock=clock)
    _observe(store, 0.0, outcome="ok")
    _observe(store, 0.0, outcome="rejected")
    _observe(store, 0.0, outcome="shed")
    _observe(store, 0.0, outcome="error")
    assert store.outcome_counts() == {"ok": 1, "rejected": 1, "shed": 1, "error": 1}
    payload = store.session_snapshot("map")
    rollup = payload["operations"]["submit"]
    assert rollup["count"] == 4
    assert rollup["error_rate"] == pytest.approx(0.25)
    assert rollup["shed_rate"] == pytest.approx(0.5)  # rejected + shed
    with pytest.raises(KeyError):
        store.session_snapshot("never-seen")


def test_write_metrics_json_roundtrip(tmp_path):
    store = MetricsStore(clock=FakeClock())
    _observe(store, 0.0)
    stats = ServiceStats()
    stats.register(SessionStats(session_id="map", num_shards=2))
    path = write_metrics_json(tmp_path / "nested" / "metrics.json", store, stats)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["metrics"]["totals"]["requests"] == 1
    assert payload["service_stats"]["totals"]["num_sessions"] == 1


# ---------------------------------------------------------------------------
# QoS policies under a fake clock
# ---------------------------------------------------------------------------

def test_token_bucket_charges_and_refills_deterministically():
    clock = FakeClock()
    bucket = TenantQuota(rate_per_s=100.0, burst_s=1.0, clock=clock)
    assert bucket.capacity == 100.0
    assert bucket.try_charge(80.0) is None
    retry = bucket.try_charge(30.0)  # 20 tokens left, need 30
    assert retry == pytest.approx(0.1)
    clock.advance(0.1)  # exactly the hinted wait
    assert bucket.try_charge(30.0) is None
    assert bucket.available == pytest.approx(0.0)


def test_oversized_cost_admitted_once_bucket_is_full():
    clock = FakeClock()
    bucket = TenantQuota(rate_per_s=10.0, burst_s=1.0, clock=clock)
    assert bucket.try_charge(45.0) is None  # > capacity, bucket goes negative
    assert bucket.tokens == pytest.approx(-35.0)
    retry = bucket.try_charge(1.0)
    assert retry == pytest.approx(3.6)  # (1 - (-35)) / 10, capped at capacity
    clock.advance(4.5)  # refill back to capacity
    assert bucket.try_charge(45.0) is None  # oversized admits again at full


def test_quota_registry_semantics():
    clock = FakeClock()
    registry = TenantQuotaRegistry(clock=clock)
    registry.charge("free", 1e9, rate_per_s=0.0)  # no quota -> always admits
    assert registry.bucket("free") is None
    registry.charge("acme", 8.0, rate_per_s=10.0, burst_s=1.0)
    with pytest.raises(TenantQuotaExceeded) as excinfo:
        registry.charge("acme", 8.0, rate_per_s=10.0, burst_s=1.0)
    assert excinfo.value.tenant == "acme"
    assert excinfo.value.retry_after_s == pytest.approx(0.6)
    # Sessions sharing the tenant share the bucket: the rate of the first
    # charge sticks.
    assert registry.bucket("acme").rate_per_s == 10.0


def test_shed_policy_only_sheds_past_deadlines_before_first_observation():
    clock = FakeClock(100.0)
    policy = DeadlineShedPolicy(clock=clock)
    policy.check("map", float("inf"), queue_depth=10_000)  # inf never sheds
    policy.check("map", 100.5, queue_depth=10_000)  # no estimate yet
    with pytest.raises(DeadlineShed) as excinfo:
        policy.check("map", 99.0, queue_depth=0)  # already missed
    assert excinfo.value.deadline_s == 99.0
    assert excinfo.value.feasible_s == pytest.approx(100.0)


def test_shed_policy_uses_queue_depth_times_observed_cost():
    clock = FakeClock(100.0)
    policy = DeadlineShedPolicy(alpha=0.5, clock=clock)
    policy.observe_batch(4.0, requests=2)  # 2 s/request
    assert policy.ema_seconds_per_request == pytest.approx(2.0)
    policy.observe_batch(2.0, requests=2)  # EMA halves toward 1 s/request
    assert policy.ema_seconds_per_request == pytest.approx(1.5)
    assert policy.feasible_at(queue_depth=4) == pytest.approx(106.0)
    policy.check("map", 106.5, queue_depth=4)  # feasible before deadline
    with pytest.raises(DeadlineShed):
        policy.check("map", 105.0, queue_depth=4)
    policy.observe_batch(-1.0, requests=3)  # garbage samples are ignored
    policy.observe_batch(1.0, requests=0)
    assert policy.ema_seconds_per_request == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# QoS + metrics accounting through the async service
# ---------------------------------------------------------------------------

@async_test
async def test_quota_rejects_are_counted_in_stats_and_metrics(small_requests):
    config = SessionConfig(
        num_shards=1,
        batch_size=4,
        tenant="acme",
        quota_points_per_s=10.0,
        quota_burst_s=1.0,
    )
    clock = FakeClock()
    async with AsyncMapService(default_config=config) as service:
        service.quotas = TenantQuotaRegistry(clock=clock)
        await service.submit(small_requests[0])  # 90 points vs capacity 10:
        with pytest.raises(TenantQuotaExceeded) as excinfo:  # bucket now dry
            await service.submit(small_requests[1])
        assert excinfo.value.retry_after_s == pytest.approx(9.0)
        clock.advance(9.0)  # refilled back to a full bucket
        await service.submit(small_requests[1])
        await service.flush_all()
        manager = service.manager
    stats = manager.get_session("map").stats
    assert stats.quota_rejects == 1
    assert stats.async_submits == 2
    (submit,) = [r for r in manager.metrics.totals("map") if r.operation == "submit"]
    assert submit.outcomes["ok"] == 2
    assert submit.outcomes["rejected"] == 1
    assert manager.service_stats.to_dict()["totals"]["quota_rejects"] == 1


@async_test
async def test_deadline_shed_is_counted_in_stats_and_metrics(small_requests):
    clock = FakeClock(100.0)
    async with AsyncMapService(
        default_config=SessionConfig(num_shards=1, batch_size=4)
    ) as service:
        service.get_or_create_session("map")
        service._entries["map"].shed_policy = DeadlineShedPolicy(clock=clock)
        doomed = ScanRequest(
            session_id="map",
            cloud=small_requests[0].cloud,
            origin=small_requests[0].origin,
            deadline_s=99.0,  # already behind the (fake) monotonic clock
        )
        with pytest.raises(DeadlineShed):
            await service.submit(doomed)
        await service.submit(small_requests[1])  # no deadline: admitted
        await service.flush_all()
        manager = service.manager
    stats = manager.get_session("map").stats
    assert stats.shed_requests == 1
    assert stats.async_submits == 1
    (submit,) = [r for r in manager.metrics.totals("map") if r.operation == "submit"]
    assert submit.outcomes["shed"] == 1
    assert submit.outcomes["ok"] == 1
    assert manager.service_stats.to_dict()["totals"]["shed_requests"] == 1


@async_test
async def test_metrics_agree_with_service_stats_after_a_mixed_workload(small_requests):
    manager = MapSessionManager(
        default_config=SessionConfig(num_shards=2, batch_size=2, admission_queue_limit=8)
    )
    async with AsyncMapService(manager) as service:
        for request in small_requests:
            await service.submit(request)
        await service.flush("map")
        for _ in range(3):
            await service.query("map", 1.0, 0.0, 0.5)
    store = manager.metrics
    stats = manager.get_session("map").stats
    rollups = {r.operation: r for r in store.totals("map")}
    assert rollups["submit"].outcomes["ok"] == stats.async_submits
    assert rollups["submit"].count == len(small_requests)
    assert rollups["flush"].outcomes["ok"] == 1
    assert rollups["query"].count == stats.point_queries == 3
    assert rollups["batch_apply"].count == stats.batches_dispatched
    # No QoS events in this workload -- both surfaces agree on zero.
    pooled = store.outcome_counts()
    assert pooled["rejected"] == stats.queue_rejects + stats.quota_rejects == 0
    assert pooled["shed"] == stats.shed_requests == 0
    assert store.total_requests() == sum(r.count for r in store.totals())


def test_manager_ingest_is_instrumented_including_errors(small_requests):
    manager = MapSessionManager(
        default_config=SessionConfig(num_shards=1, batch_size=1)
    )
    manager.ingest(small_requests[0])
    with pytest.raises(KeyError):
        manager.ingest(
            ScanRequest(
                session_id="never-created",
                cloud=small_requests[0].cloud,
                origin=small_requests[0].origin,
            ),
            auto_create=False,
        )
    manager.shutdown()
    rollups = {r.operation: r for r in manager.metrics.totals("map")}
    assert rollups["ingest"].outcomes["ok"] == 1
    assert rollups["batch_apply"].count == 1
    failed = {
        r.operation: r for r in manager.metrics.totals("never-created")
    }
    assert failed["ingest"].outcomes["error"] == 1


# ---------------------------------------------------------------------------
# SessionConfig QoS field validation
# ---------------------------------------------------------------------------

def test_session_config_validates_qos_fields():
    config = SessionConfig(tenant="acme", quota_points_per_s=10.0)
    assert config.resolved_tenant("map") == "acme"
    assert SessionConfig().resolved_tenant("map") == "map"  # default: isolated
    with pytest.raises(ValueError):
        SessionConfig(quota_points_per_s=-1.0)
    with pytest.raises(ValueError):
        SessionConfig(quota_burst_s=0.0)
    # NaN passes every range comparison, so it is refused on its own.
    for name in (
        "quota_points_per_s",
        "quota_burst_s",
        "heartbeat_interval_s",
        "heartbeat_timeout_s",
    ):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SessionConfig(**{name: value})


# ---------------------------------------------------------------------------
# Regression: a freshly-registered, never-driven session must render
# ---------------------------------------------------------------------------

def test_empty_session_stats_render_without_division_errors():
    """A session registered but never driven has every denominator at zero;
    render() and to_dict() must report zeros, not raise."""
    service = ServiceStats()
    block = service.register(SessionStats(session_id="fresh", num_shards=2))
    rendered = service.render()
    assert "fresh" in rendered
    for ratio in (
        block.dedup_fraction,
        block.fanout_fraction,
        block.frontend_fraction,
        block.shard_utilization,
        block.wall_updates_per_second,
        block.mean_admission_wait_seconds,
    ):
        assert ratio == 0.0
    payload = service.to_dict()
    assert payload["totals"]["cache_hit_rate"] == 0.0
    assert payload["sessions"][0]["queries"]["cache_hit_rate"] == 0.0
    # The service-level table block renders even with zero sessions.
    assert "Serving: ingestion per session" in ServiceStats().render()
