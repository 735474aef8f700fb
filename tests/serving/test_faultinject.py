"""Chaos tests: socket backend pools under injected transport/worker faults.

Each test arms a precise fault at a precise protocol step through the
``chaos`` fixture (see ``faultinject.py``) and asserts two things: the
session *survives* (detect-and-recover, not fail-stop), and the map it
serves afterwards is leaf-for-leaf identical to the same workload ingested
with no faults at all.  Every case runs on a session's private pool and
again on a shared fleet where a second session has shards on the faulted
slot: one guarantee, both ways of holding a lease.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from conftest import update_batch
from faultinject import (
    DELAY_REPLY,
    DROP_REPLY,
    KILL_WORKER,
    SEVER_CONNECTION,
    STALL_HEARTBEAT,
    ChaosHarness,
    Fault,
    random_fault_plan,
)
from oracle_raycast import oracle_raycast

from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG
from repro.core.verification import compare_trees
from repro.octomap import PointCloud
from repro.octomap.merge import merge_trees
from repro.serving import MapSession, ScanRequest, SessionConfig, ShardBackendError, make_backend
from repro.serving.cache import GenerationLRUCache
from repro.serving.query_engine import QueryEngine
from repro.serving.sharding import ShardRouter
from repro.serving.stats import SessionStats

CONFIG = DEFAULT_CONFIG.with_resolution(0.25)
NUM_SHARDS = 2


def _rounds(num_rounds: int = 5, n: int = 10):
    """Deterministic per-shard batch rounds touching every shard."""
    generator = AddressGenerator(CONFIG.resolution_m, CONFIG.tree_depth, CONFIG.num_pes)
    converter = generator.converter
    rounds = []
    for round_index in range(num_rounds):
        batches = {shard: [] for shard in range(NUM_SHARDS)}
        index = 0
        while min(len(e) for e in batches.values()) < n and index < 100000:
            x = -6.0 + 0.05 * (index + 37 * round_index)
            key = converter.coord_to_key(x, 0.3 + 0.01 * round_index, 0.2)
            shard = generator.shard_index(key, NUM_SHARDS, 12)
            batches[shard].append((key.x, key.y, key.z, True))
            index += 1
        rounds.append([update_batch(s, e) for s, e in batches.items()])
    return rounds


def _reference_leaves(rounds):
    backend = make_backend("inline", CONFIG, NUM_SHARDS)
    try:
        for batches in rounds:
            backend.apply_shard_batches(batches)
        tree = merge_trees(backend.export_all())
    finally:
        backend.close()
    return tree


def _leases(chaos: ChaosHarness, shared: bool, **pool_kwargs):
    """``(leases, close)``: one private lease, or two tenants of one shared
    fleet of NUM_SHARDS slots -- each slot then hosts a shard of both."""
    if not shared:
        backend = chaos.make_backend(CONFIG, NUM_SHARDS, **pool_kwargs)
        return [backend], backend.close
    pool = chaos.make_pool(NUM_SHARDS, **pool_kwargs)
    leases = [pool.lease(name, CONFIG, NUM_SHARDS) for name in ("first", "second")]
    assert {lease.slot_of(1) for lease in leases} == {1}, "co-tenants on every slot"
    return leases, pool.close


def _assert_matches(reference, backend) -> None:
    report = compare_trees(reference, merge_trees(backend.export_all()), 0.0)
    assert report.equivalent, report.summary()
    assert report.max_abs_error == 0.0


def _drive_and_compare(chaos: ChaosHarness, rounds, shared=False, export_fault=None, **pool_kwargs):
    """Ingest every round through chaos-wrapped lease(s); assert every lease's
    map equals the fault-free reference and lands on its adopted generations.
    ``export_fault`` is armed after the last round, so it fires on an export.
    Returns each lease's ``failover_stats()``."""
    reference = _reference_leaves(rounds)
    leases, close = _leases(chaos, shared, **pool_kwargs)
    try:
        for batches in rounds:
            for lease in leases:
                lease.apply_shard_batches(batches)
        if export_fault is not None:
            chaos.arm(export_fault)
        for lease in leases:
            _assert_matches(reference, lease)
            assert lease.failed is None, "recovery, not fail-stop"
            assert [lease.generation_of(s) for s in range(NUM_SHARDS)] == [len(rounds)] * NUM_SHARDS
        return [lease.failover_stats() for lease in leases]
    finally:
        close()


# ---------------------------------------------------------------------------
# One fault at a time, each at its nastiest protocol step
# ---------------------------------------------------------------------------
def test_kill_before_apply_recovers_and_matches(chaos):
    """Worker dies before the slice is applied: recovery must re-send it."""
    rounds = _rounds()
    chaos.arm(Fault(KILL_WORKER, phase="send", verb="apply", shard_id=1))
    (stats,) = _drive_and_compare(chaos, rounds, snapshot_every_batches=2)
    assert stats["failovers"] == 1
    assert len(chaos.fired) == 1


def test_kill_after_apply_discards_the_half_advanced_worker(chaos):
    """Worker applies, then dies with the ack in flight.  The replacement is
    rebuilt from snapshot + replay *without* that batch, and the re-sent
    slice applies exactly once -- double-application would show up as
    log-odds drift against the fault-free reference."""
    rounds = _rounds()
    chaos.arm(Fault(KILL_WORKER, phase="recv", verb="apply", shard_id=0))
    (stats,) = _drive_and_compare(chaos, rounds, snapshot_every_batches=2)
    assert stats["failovers"] == 1


def test_dropped_reply_triggers_rehoming_not_corruption(chaos):
    """A lost ack is indistinguishable from a dead worker; the backend must
    re-home and re-send rather than wait forever or double-count."""
    rounds = _rounds()
    chaos.arm(Fault(DROP_REPLY, phase="recv", verb="apply", shard_id=1))
    (stats,) = _drive_and_compare(chaos, rounds, snapshot_every_batches=2)
    assert stats["failovers"] == 1


def test_severed_connection_mid_message_recovers(chaos):
    rounds = _rounds()
    chaos.arm(Fault(SEVER_CONNECTION, phase="recv", verb="apply", shard_id=0))
    (stats,) = _drive_and_compare(chaos, rounds, snapshot_every_batches=3)
    assert stats["failovers"] == 1


def test_delayed_reply_is_not_a_failure(chaos):
    """A slow worker is not a dead worker: a delayed ack within the I/O
    timeout must cause no failover at all."""
    rounds = _rounds(num_rounds=3)
    chaos.arm(Fault(DELAY_REPLY, phase="recv", verb="apply", shard_id=0, delay_s=0.2))
    (stats,) = _drive_and_compare(chaos, rounds)
    assert stats["failovers"] == 0


def _assert_stalled_heartbeat_recovers(chaos, shared: bool):
    leases, close = _leases(
        chaos, shared, heartbeat_interval_s=0.01, heartbeat_timeout_s=0.2
    )
    try:
        rounds = _rounds(num_rounds=2)
        for lease in leases:
            lease.apply_shard_batches(rounds[0])
        import time

        time.sleep(0.05)  # let the heartbeat interval elapse
        chaos.arm(Fault(STALL_HEARTBEAT, phase="recv", verb="ping", delay_s=0.3))
        # The next dispatch health-checks first; the stalled ping must
        # recover the slot, then the flush proceeds normally.
        for lease in leases:
            lease.apply_shard_batches(rounds[1])
        stats = leases[0].failover_stats()
        assert stats["heartbeat_probes"] >= 1
        assert stats["heartbeat_failures"] == 1
        reference = _reference_leaves(rounds)
        for lease in leases:
            # Every tenant of the stalled slot was rehydrated with it.
            assert lease.failover_stats()["failovers"] == 1
            _assert_matches(reference, lease)
    finally:
        close()


def test_stalled_heartbeat_triggers_recovery(chaos):
    """A heartbeat that misses its deadline re-homes the shard even though
    no apply was in flight."""
    _assert_stalled_heartbeat_recovers(chaos, shared=False)


def test_stalled_heartbeat_on_a_shared_fleet_recovers_every_tenant(chaos):
    _assert_stalled_heartbeat_recovers(chaos, shared=True)


def test_kill_during_export_reserves_from_recovered_state(chaos):
    (stats,) = _drive_and_compare(
        chaos,
        _rounds(num_rounds=3),
        export_fault=Fault(KILL_WORKER, phase="recv", verb="export", shard_id=1),
        snapshot_every_batches=2,
    )
    assert stats["failovers"] == 1


@pytest.mark.parametrize(
    "fault",
    [
        Fault(KILL_WORKER, phase="send", verb="apply", shard_id=1),
        Fault(KILL_WORKER, phase="recv", verb="apply", shard_id=0),
        Fault(DROP_REPLY, phase="recv", verb="apply", shard_id=1),
        Fault(SEVER_CONNECTION, phase="recv", verb="apply", shard_id=0),
        Fault(KILL_WORKER, phase="recv", verb="export", shard_id=1),
    ],
    ids=["kill-before-apply", "kill-after-apply", "dropped-ack", "severed", "kill-during-export"],
)
def test_shared_fleet_fault_recovers_both_tenants_of_the_slot(chaos, fault):
    """The single-fault cases above, on a shared fleet: the fault hits one
    tenant's exchange, and the slot's *other* tenant -- whose shard died with
    the same worker -- must come back leaf-for-leaf too, each lease counting
    the recovery of its own shard."""
    on_export = fault.verb == "export"
    if not on_export:
        chaos.arm(fault)
    both = _drive_and_compare(
        chaos,
        _rounds(),
        shared=True,
        export_fault=fault if on_export else None,
        snapshot_every_batches=2,
    )
    assert [stats["failovers"] for stats in both] == [1, 1]
    assert len(chaos.fired) == 1


# ---------------------------------------------------------------------------
# Faults on a bulk read
# ---------------------------------------------------------------------------
def _shard_keys(rounds, shard_id: int) -> np.ndarray:
    """Every key the rounds wrote to one shard, plus one nothing wrote."""
    written = [batches[shard_id].keys for batches in rounds]
    return np.concatenate(written + [np.array([(1, 2, 3)], dtype=np.uint16)])


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared-fleet"])
@pytest.mark.parametrize(
    "fault",
    [
        Fault(KILL_WORKER, phase="recv", verb="query_keys", shard_id=1),
        Fault(SEVER_CONNECTION, phase="recv", verb="query_keys", shard_id=1),
    ],
    ids=["kill-before-reply", "sever-mid-message"],
)
def test_a_faulted_bulk_read_recovers_and_answers_like_the_reference(chaos, fault, shared):
    """``query_keys`` runs on the same locked, recovering exchange as every
    other verb: the slot is re-homed, its shards rehydrated, the read re-sent."""
    rounds = _rounds(num_rounds=3)
    keys = _shard_keys(rounds, 1)
    reference = make_backend("inline", CONFIG, NUM_SHARDS)
    try:
        for batches in rounds:
            reference.apply_shard_batches(batches)
        expected = reference.query_keys(1, keys)
    finally:
        reference.close()
    assert set(expected.statuses.tolist()) == {0, 2}

    leases, close = _leases(chaos, shared, snapshot_every_batches=2)
    try:
        for batches in rounds:
            for lease in leases:
                lease.apply_shard_batches(batches)
        chaos.arm(fault)
        for lease in leases:
            answer = lease.query_keys(1, keys)
            assert answer.statuses.tolist() == expected.statuses.tolist()
            assert answer.raws.tolist() == expected.raws.tolist()
            assert (answer.cycles, answer.generation) == (expected.cycles, expected.generation)
            assert lease.failed is None, "recovery, not fail-stop"
            assert lease.failover_stats()["failovers"] == 1
        assert len(chaos.fired) == 1
    finally:
        close()


def _engine(backend) -> QueryEngine:
    return QueryEngine(ShardRouter(CONFIG, NUM_SHARDS), backend, GenerationLRUCache(), SessionStats())


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared-fleet"])
def test_a_worker_severed_on_a_rays_second_run_recovers_and_answers_like_the_oracle(chaos, shared):
    """A collision ray reads its uncached voxels in runs, one ``query_keys``
    round trip each.  The second run's reply is torn: the slot is re-homed,
    the run re-sent, and the ray still answers -- and leaves the cache --
    exactly as one point query per voxel on a fault-free map does."""
    rounds = _rounds(num_rounds=3)
    # From 32 unknown voxels in two 4 m blocks onto the first written voxel.
    ray = ((-13.9, 0.3, 0.2), (1.0, 0.0, 0.0), 12.0)
    reference = make_backend("inline", CONFIG, NUM_SHARDS)
    try:
        for batches in rounds:
            reference.apply_shard_batches(batches)
        oracle = _engine(reference)
        expected = oracle_raycast(oracle, *ray)
    finally:
        reference.close()
    assert expected.hit and expected.voxels_traversed > 16

    leases, close = _leases(chaos, shared, snapshot_every_batches=2)
    try:
        for batches in rounds:
            for lease in leases:
                lease.apply_shard_batches(batches)
        for lease in leases:
            engine = _engine(lease)
            failovers = lease.failover_stats()["failovers"]
            # The first run's reply passes untouched, the second's is torn.
            chaos.arm(
                Fault(DELAY_REPLY, phase="recv", verb="query_keys"),
                Fault(SEVER_CONNECTION, phase="recv", verb="query_keys"),
            )
            assert engine.raycast(*ray) == expected
            assert list(engine.cache._entries.items()) == list(oracle.cache._entries.items())
            assert engine.cache.stats == oracle.cache.stats
            assert engine.stats.point_queries == oracle.stats.point_queries
            assert [fault.action for _verb, _slot, fault in chaos.fired[-2:]] == [DELAY_REPLY, SEVER_CONNECTION]
            assert lease.failed is None, "recovery, not fail-stop"
            assert lease.failover_stats()["failovers"] == failovers + 1
    finally:
        close()


@pytest.mark.parametrize("how", ["kill-before-reply", "sever-mid-message"])
def test_a_faulted_bulk_read_fail_stops_the_process_fleet_naming_shard_and_worker(how):
    """Pipes have nowhere to re-home: the loss surfaces, structured."""
    rounds = _rounds(num_rounds=1)
    backend = make_backend("process", CONFIG, NUM_SHARDS)
    try:
        backend.apply_shard_batches(rounds[0])
        slot = backend.slot_of(1)
        channel = backend.pool.engine._slots[slot]
        process = backend.pool.engine.channels.processes[slot]
        send = channel.send

        def faulted_send(message):
            # After the health check passed, before the request leaves.
            if how == "kill-before-reply":
                process.kill()
                process.join(timeout=5.0)
            else:
                channel._connection.close()
            send(message)

        channel.send = faulted_send
        with pytest.raises(ShardBackendError, match="shard 1 worker process died") as info:
            backend.query_keys(1, _shard_keys(rounds, 1))
        assert info.value.shard_id == 1
        assert info.value.worker_id == f"process:{process.pid}"
        if how == "kill-before-reply":
            # The next interaction's health check finds the corpse: fail-stop.
            with pytest.raises(ShardBackendError):
                backend.query_keys(0, _shard_keys(rounds, 0))
            assert backend.failed is not None
    finally:
        backend.close()


@pytest.mark.parametrize("snapshots_before_kill", [0, 1], ids=["first-shard", "second-shard"])
def test_kill_during_snapshot_keeps_every_batch_acknowledged_in_the_exchange(
    chaos, snapshots_before_kill
):
    """Both shards of one lease share the only slot, so one flush is one
    exchange acknowledging both.  The worker dies during a cadence snapshot
    that follows it: the replacement must hold *both* acknowledged batches,
    the shard whose snapshot had not been reached yet included."""
    rounds = _rounds(num_rounds=3)
    reference = _reference_leaves(rounds)
    pool = chaos.make_pool(1, snapshot_every_batches=1)
    try:
        lease = pool.lease("map", CONFIG, NUM_SHARDS)
        chaos.arm(
            *[Fault(DELAY_REPLY, phase="recv", verb="snapshot")] * snapshots_before_kill,
            Fault(KILL_WORKER, phase="recv", verb="snapshot"),
        )
        for batches in rounds:
            lease.apply_shard_batches(batches)
        assert len(chaos.fired) == snapshots_before_kill + 1
        _assert_matches(reference, lease)
        assert lease.failed is None, "recovery, not fail-stop"
        assert [lease.generation_of(s) for s in range(NUM_SHARDS)] == [len(rounds)] * NUM_SHARDS
        assert lease.failover_stats()["failovers"] == NUM_SHARDS, "one per shard on the slot"
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# A failover keeps every modelled count, not just the map
# ---------------------------------------------------------------------------
def _socket_workers(backend) -> list:
    """Each shard's worker as the socket worker serving it hosts it (they are in-process threads)."""
    channels = backend.pool.engine.channels
    servers = {handle.endpoint: handle.server for handle in channels.owned_workers}
    return [
        servers[channels.worker_id(backend.slot_of(shard))].shards.worker(backend.gids[shard])
        for shard in range(backend.num_shards)
    ]


def _scans(count: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    return [
        ScanRequest(
            session_id="map",
            cloud=PointCloud(rng.uniform((-3.0, -3.0, -0.5), (3.0, 3.0, 1.0), size=(40, 3))),
            origin=(0.1 * index, 0.0, 0.2),
            max_range=6.0,
        )
        for index in range(count)
    ]


@pytest.mark.parametrize("kill_after", [2, 3, 5])
def test_a_failover_after_a_snapshot_keeps_every_modelled_count(chaos, kill_after):
    """Killed at a flush boundary after at least one cadence snapshot, a socket
    session ends equal to an inline shadow fed the same scans: leaf for leaf,
    in ``modelled_ingest_cycles`` and in every shard's ``statistics()`` and
    ``counters()`` -- the restored shard is the one it replaced."""
    config = SessionConfig(num_shards=NUM_SHARDS, batch_size=1, backend="socket").with_resolution(0.25)
    pool = chaos.make_pool(NUM_SHARDS, snapshot_every_batches=2)
    session = MapSession("map", config, backend_pool=pool)
    shadow = MapSession("map", replace(config, backend="inline"))
    try:
        for request in _scans(7):
            session.submit(request)
            shadow.submit(request)
        for flush in range(7):
            if flush == kill_after:
                assert session.backend.failover_stats()["snapshots_taken"] >= 1
                chaos.arm(Fault(KILL_WORKER, phase="send", verb="apply", shard_id=1))
            assert session.flush() is not None and shadow.flush() is not None
        assert len(chaos.fired) == 1 and session.backend.failover_stats()["failovers"] >= 1
        assert [report.restored_generation > 0 for report in pool.engine.recoveries] == [True] * len(
            pool.engine.recoveries
        )

        report = compare_trees(shadow.export_octree(), session.export_octree(), 0.0)
        assert report.equivalent, report.summary()
        assert session.stats.modelled_ingest_cycles == shadow.stats.modelled_ingest_cycles
        for restored, reference in zip(_socket_workers(session.backend), shadow.backend.workers):
            assert restored.accelerator.statistics() == reference.accelerator.statistics()
            assert restored.accelerator.counters() == reference.accelerator.counters()
            assert restored.generation == reference.generation
    finally:
        session.close()
        shadow.close()
        pool.close()


# ---------------------------------------------------------------------------
# Exhaustion and determinism
# ---------------------------------------------------------------------------
def _assert_killing_every_worker_fail_stops(chaos, shared: bool):
    leases, close = _leases(chaos, shared, standby_workers=0)
    try:
        rounds = _rounds(num_rounds=1)
        for lease in leases:
            lease.apply_shard_batches(rounds[0])
        for handle in chaos.handles.values():
            handle.kill()
        for lease in leases:
            with pytest.raises(ShardBackendError, match="no live worker") as info:
                lease.apply_shard_batches(rounds[0])
            assert info.value.shard_id is not None
            assert info.value.worker_id is not None
            assert lease.failed is not None
            with pytest.raises(ShardBackendError, match="fail-stop"):
                lease.export_all()
    finally:
        close()


def test_killing_every_worker_fail_stops_with_structured_error(chaos):
    """Failover degrades gracefully until no live worker remains -- then the
    old fail-stop contract applies, with the shard named in the error."""
    _assert_killing_every_worker_fail_stops(chaos, shared=False)


def test_killing_every_worker_fail_stops_every_tenant_of_a_shared_fleet(chaos):
    _assert_killing_every_worker_fail_stops(chaos, shared=True)


def test_seeded_fault_plans_are_deterministic():
    plan_a = random_fault_plan(seed=7, num_shards=4, num_faults=5)
    plan_b = random_fault_plan(seed=7, num_shards=4, num_faults=5)
    assert plan_a == plan_b
    assert plan_a != random_fault_plan(seed=8, num_shards=4, num_faults=5)


def _assert_random_plan_survives(chaos, seed: int, shared: bool):
    rounds = _rounds(num_rounds=6)
    chaos.arm(*random_fault_plan(seed=seed, num_shards=NUM_SHARDS, num_faults=2))
    # Two faults can kill both primaries; give the pool enough standbys.
    for stats in _drive_and_compare(
        chaos, rounds, shared=shared, standby_workers=3, snapshot_every_batches=2
    ):
        assert stats["failovers"] >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_fault_plan_survives_and_stays_equivalent(chaos, seed):
    """Whole seeded plans (kills, drops, severs at random shards/phases):
    as long as a live worker remains, the map must match the fault-free
    reference exactly."""
    _assert_random_plan_survives(chaos, seed, shared=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_fault_plan_on_a_shared_fleet_keeps_every_tenant_equivalent(chaos, seed):
    _assert_random_plan_survives(chaos, seed, shared=True)
