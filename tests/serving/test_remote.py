"""Unit tests for the socket shard-worker stack (``repro.serving.remote``).

Bottom-up coverage of every layer the failover path stands on: the framed
transport and its failure taxonomy, the shard worker server protocol, the
worker registry's re-homing policy, the replay log, snapshot/restore
round-trips, and the socket pool's worker lifecycle (reaping owned
workers, detaching from external ones, snapshot cadence).
"""

from __future__ import annotations

import contextlib
import pickle
import socket
import struct
import threading
import time

import pytest

from conftest import update_batch, worker_request
from repro.core.address_gen import AddressGenerator
from repro.core.config import DEFAULT_CONFIG
from repro.core.verification import compare_trees
from repro.serving import BackendPool, ShardBackendError, ShardUpdateBatch, make_backend
from repro.serving.remote import (
    MAX_FRAME_BYTES,
    NoLiveWorkerError,
    ReplayLog,
    ShardWorkerServer,
    Transport,
    TransportClosed,
    TransportError,
    WorkerEndpoint,
    WorkerRegistry,
    spawn_local_worker,
)
from repro.serving.sharding import MapShardWorker

CONFIG = DEFAULT_CONFIG.with_resolution(0.25)

_HEADER = struct.Struct("!I")


def _batch(shard_id: int, n: int = 8, salt: int = 0) -> ShardUpdateBatch:
    """A deterministic non-empty update batch addressed to ``shard_id``."""
    converter = AddressGenerator(
        CONFIG.resolution_m, CONFIG.tree_depth, CONFIG.num_pes
    ).converter
    entries = []
    for index in range(n):
        key = converter.coord_to_key(
            -3.0 + 0.3 * (index + n * salt), 0.4 * shard_id + 0.1, 0.2
        )
        entries.append((key.x, key.y, key.z, True))
    return update_batch(shard_id, entries)


def _assert_trees_equal(expected, actual) -> None:
    report = compare_trees(expected, actual, 0.0)
    assert report.equivalent, report.summary()
    assert report.max_abs_error == 0.0


# ---------------------------------------------------------------------------
# Transport framing
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _transport_pair():
    """Two connected framed transports over a local socket pair."""
    left, right = socket.socketpair()
    a, b = Transport(left, timeout_s=5.0), Transport(right, timeout_s=5.0)
    try:
        yield a, b
    finally:
        a.close()
        b.close()


class TestTransport:
    def test_roundtrip_preserves_message(self):
        with _transport_pair() as (a, b):
            a.send(("apply", {"shard": 3, "entries": (1, 2, 3)}))
            assert b.recv() == ("apply", {"shard": 3, "entries": (1, 2, 3)})

    def test_back_to_back_messages_keep_their_boundaries(self):
        with _transport_pair() as (a, b):
            for index in range(16):
                a.send(("ping", index))
            assert [b.recv() for _ in range(16)] == [("ping", i) for i in range(16)]

    def test_clean_close_is_transport_closed(self):
        with _transport_pair() as (a, b):
            a.close()
            with pytest.raises(TransportClosed):
                b.recv()

    def test_torn_frame_is_an_error_not_a_clean_close(self):
        """A peer dying mid-frame must be distinguishable from clean EOF --
        the failover logic treats only the torn case as a live recovery."""
        left, right = socket.socketpair()
        reader = Transport(right, timeout_s=5.0)
        try:
            body = pickle.dumps(("apply", None))
            left.sendall(_HEADER.pack(len(body)) + body[: len(body) // 2])
            left.close()
            with pytest.raises(TransportError, match="mid-message") as info:
                reader.recv()
            assert not isinstance(info.value, TransportClosed)
        finally:
            reader.close()

    def test_receive_timeout_is_a_transport_error(self):
        with _transport_pair() as (a, b):
            b.settimeout(0.05)
            with pytest.raises(TransportError, match="timed out"):
                b.recv()

    def test_garbage_length_prefix_fails_fast(self):
        """A corrupted stream announcing a multi-gigabyte frame must error
        immediately instead of blocking for bytes that never come."""
        left, right = socket.socketpair()
        reader = Transport(right, timeout_s=5.0)
        try:
            left.sendall(_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError, match="exceeds"):
                reader.recv()
        finally:
            left.close()
            reader.close()

    def test_oversized_send_rejected_locally(self, monkeypatch):
        import repro.serving.remote.transport as transport_module

        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 16)
        with _transport_pair() as (a, _b):
            with pytest.raises(ValueError, match="frame limit"):
                a.send(("apply", b"x" * 64))

    def test_connect_to_dead_port_raises_transport_error(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="cannot connect"):
            Transport.connect("127.0.0.1", port, connect_timeout_s=1.0)


# ---------------------------------------------------------------------------
# Shard worker server protocol
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _server_connection():
    server = ShardWorkerServer().start()
    transport = Transport.connect(server.host, server.port, timeout_s=10.0)
    try:
        yield server, transport
    finally:
        transport.close()
        server.shutdown()


def _ok(reply):
    status, payload = reply
    assert status == "ok", payload
    return payload


class TestShardWorkerServer:
    def test_hello_reports_identity_and_hosted_shards(self):
        with _server_connection() as (server, transport):
            hello = _ok(worker_request(transport, "hello"))
            assert hello == {"worker_id": server.worker_id, "shards": []}
            _ok(worker_request(transport, "attach", 2, (2, CONFIG)))
            assert _ok(worker_request(transport, "hello"))["shards"] == [2]

    def test_attach_apply_query_export_roundtrip(self):
        with _server_connection() as (_server, transport):
            _ok(worker_request(transport, "attach", 0, (0, CONFIG)))
            batch = _batch(0)
            ack = _ok(worker_request(transport, "apply", 0, batch))
            assert ack.generation == 1
            assert ack.updates_applied == len(batch)
            exported = _ok(worker_request(transport, "export", 0))
            assert exported.generation == 1
            assert exported.tree.size() > 0

    def test_restore_rehydrates_a_snapshot_exactly(self):
        local = MapShardWorker(1, CONFIG)
        local.apply_message(_batch(1))
        local.apply_message(_batch(1, salt=1))
        snapshot = local.snapshot_message()
        with _server_connection() as (_server, transport):
            # Hosted under gid 7: the gid names the worker, the worker keeps
            # the snapshot's own shard id.
            assert _ok(worker_request(transport, "restore", 7, (snapshot, CONFIG))) == 7
            exported = _ok(worker_request(transport, "export", 7))
            assert exported.shard_id == 1
            assert exported.generation == local.generation
            _assert_trees_equal(local.export_octree(), exported.tree)

    def test_detached_shard_is_gone(self):
        with _server_connection() as (_server, transport):
            _ok(worker_request(transport, "attach", 0, (0, CONFIG)))
            _ok(worker_request(transport, "detach", 0))
            status, payload = worker_request(transport, "apply", 0, _batch(0))
            assert status == "error"
            assert "not hosted" in payload["message"]

    def test_unknown_verb_reports_error_with_traceback(self):
        with _server_connection() as (_server, transport):
            status, payload = worker_request(transport, "bogus")
            assert status == "error"
            assert "unknown shard command" in payload["message"]
            assert "ValueError" in payload["traceback"]

    def test_worker_exception_is_reported_not_fatal(self):
        with _server_connection() as (_server, transport):
            status, _ = worker_request(transport, "apply", 0, _batch(0))  # never attached
            assert status == "error"
            # The connection must survive a worker-side error.
            assert _ok(worker_request(transport, "ping")) == "pong"

    def test_one_endpoint_can_cohost_several_shards(self):
        """After a failover, a survivor hosts a re-homed shard next to its
        own; the server side must keep the two cleanly separated."""
        with _server_connection() as (_server, transport):
            _ok(worker_request(transport, "attach", 0, (0, CONFIG)))
            _ok(worker_request(transport, "attach", 1, (1, CONFIG)))
            _ok(worker_request(transport, "apply", 0, _batch(0)))
            ack = _ok(worker_request(transport, "apply", 1, _batch(1, salt=3)))
            assert ack.shard_id == 1
            tree_0 = _ok(worker_request(transport, "export", 0)).tree
            tree_1 = _ok(worker_request(transport, "export", 1)).tree
            assert tree_0.size() != 0 and tree_1.size() != 0
            report = compare_trees(tree_0, tree_1, 0.0)
            assert not report.equivalent  # genuinely distinct shard state

    def test_stop_command_shuts_the_server_down(self):
        server = ShardWorkerServer().start()
        transport = Transport.connect(server.host, server.port, timeout_s=10.0)
        try:
            assert _ok(worker_request(transport, "stop")) is None
        finally:
            transport.close()
        # The ack is sent *before* the server tears itself down; give the
        # connection thread a moment to finish the shutdown.
        deadline = time.monotonic() + 5.0
        while server.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.alive
        with pytest.raises(TransportError):
            Transport.connect(server.host, server.port, connect_timeout_s=1.0)

    def test_kill_drops_port_and_state(self):
        server = ShardWorkerServer().start()
        transport = Transport.connect(server.host, server.port, timeout_s=10.0)
        _ok(worker_request(transport, "attach", 0, (0, CONFIG)))
        server.kill()
        transport.close()
        assert not server.alive
        assert server.shards.hosted() == []
        with pytest.raises(TransportError):
            Transport.connect(server.host, server.port, connect_timeout_s=1.0)


# ---------------------------------------------------------------------------
# Worker registry
# ---------------------------------------------------------------------------
def _endpoints(*ports: int):
    return [WorkerEndpoint("127.0.0.1", port) for port in ports]


class TestWorkerEndpoint:
    def test_parse_host_port(self):
        endpoint = WorkerEndpoint.parse("10.0.0.7:9001")
        assert (endpoint.host, endpoint.port) == ("10.0.0.7", 9001)
        assert str(endpoint) == "10.0.0.7:9001"

    def test_parse_passes_instances_through(self):
        endpoint = WorkerEndpoint("h", 1)
        assert WorkerEndpoint.parse(endpoint) is endpoint

    @pytest.mark.parametrize("text", ["9001", ":9001", "host:", "host:abc"])
    def test_parse_rejects_malformed_endpoints(self, text):
        with pytest.raises(ValueError):
            WorkerEndpoint.parse(text)


class TestWorkerRegistry:
    def test_first_endpoints_are_primaries_rest_standbys(self):
        registry = WorkerRegistry(_endpoints(1, 2, 3, 4), num_shards=2)
        assert [registry.endpoint_for(shard) for shard in (0, 1)] == _endpoints(1, 2)
        assert registry.standbys() == _endpoints(3, 4)

    def test_rejects_fewer_endpoints_than_shards(self):
        with pytest.raises(ValueError, match="at least 2"):
            WorkerRegistry(_endpoints(1), num_shards=2)

    def test_rejects_duplicate_endpoints(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkerRegistry(_endpoints(1, 1), num_shards=1)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerRegistry(_endpoints(1), num_shards=0)

    def test_reassign_prefers_an_idle_standby(self):
        registry = WorkerRegistry(_endpoints(1, 2, 3), num_shards=2)
        registry.mark_dead(registry.endpoint_for(0))
        assert registry.reassign(0) == _endpoints(3)[0]
        assert registry.standbys() == []

    def test_reassign_cohosts_on_least_loaded_survivor(self):
        registry = WorkerRegistry(_endpoints(1, 2, 3), num_shards=3)
        registry.mark_dead(registry.endpoint_for(0))
        assert registry.reassign(0) in _endpoints(2, 3)
        # Next death must co-host on the worker with fewer shards.
        loaded = registry.endpoint_for(0)
        registry.mark_dead(registry.endpoint_for(1))
        target = registry.reassign(1)
        assert target != loaded and target in _endpoints(2, 3)

    def test_reassign_with_no_survivors_raises(self):
        registry = WorkerRegistry(_endpoints(1, 2), num_shards=2)
        registry.mark_dead(_endpoints(1)[0])
        registry.mark_dead(_endpoints(2)[0])
        with pytest.raises(NoLiveWorkerError, match="no live worker"):
            registry.reassign(0)

    def test_dead_standby_is_never_a_target(self):
        registry = WorkerRegistry(_endpoints(1, 2, 3), num_shards=1)
        registry.mark_dead(_endpoints(2)[0])
        registry.mark_dead(registry.endpoint_for(0))
        assert registry.reassign(0) == _endpoints(3)[0]

# ---------------------------------------------------------------------------
# Replay log
# ---------------------------------------------------------------------------
class TestReplayLog:
    def test_tails_accumulate_per_shard_in_order(self):
        # Keyed by gid: two sessions' shard 0 never share a tail.
        log = ReplayLog()
        first, second, other = _batch(0), _batch(0, salt=1), _batch(0, salt=2)
        log.record(4, first)
        log.record(9, other)
        log.record(4, second)
        assert log.tail(4) == (first, second)
        assert log.tail(9) == (other,)
        assert log.tail_length(4) == 2
        assert (log.tail(5), log.tail_length(5)) == ((), 0)

    def test_truncate_clears_only_one_shard(self):
        log = ReplayLog()
        log.record(0, _batch(0))
        log.record(1, _batch(1))
        log.truncate(0)
        log.truncate(0)  # idempotent
        assert log.tail(0) == ()
        assert log.tail_length(1) == 1


# ---------------------------------------------------------------------------
# Snapshot / restore round-trips
# ---------------------------------------------------------------------------
class TestSnapshotRestore:
    def test_snapshot_restore_reproduces_the_shard_exactly(self):
        worker = MapShardWorker(0, CONFIG)
        for salt in range(3):
            worker.apply_message(_batch(0, salt=salt))
        snapshot = worker.snapshot_message()
        clone = MapShardWorker.from_snapshot(snapshot, CONFIG)
        assert clone.shard_id == worker.shard_id
        assert clone.generation == worker.generation
        assert clone.batches_applied == worker.batches_applied
        assert clone.updates_applied == worker.updates_applied
        _assert_trees_equal(worker.export_octree(), clone.export_octree())

    def test_replaying_the_tail_lands_on_the_live_state(self):
        """Snapshot mid-stream, replay the un-snapshotted batches on the
        restored clone: it must converge bit-for-bit with the worker that
        never died -- the core failover invariant."""
        live = MapShardWorker(0, CONFIG)
        batches = [_batch(0, salt=salt) for salt in range(5)]
        for batch in batches[:3]:
            live.apply_message(batch)
        snapshot = live.snapshot_message()
        for batch in batches[3:]:
            live.apply_message(batch)

        restored = MapShardWorker.from_snapshot(snapshot, CONFIG)
        for batch in batches[3:]:  # the replay tail
            restored.apply_message(batch)
        assert restored.generation == live.generation
        _assert_trees_equal(live.export_octree(), restored.export_octree())

    def test_queries_after_restore_match(self):
        worker = MapShardWorker(0, CONFIG)
        batch = _batch(0, n=12)
        worker.apply_message(batch)
        clone = MapShardWorker.from_snapshot(worker.snapshot_message(), CONFIG)
        from repro.octomap import OcTreeKey

        for components in batch.keys.tolist():
            original = worker.query_key(OcTreeKey(*components))
            restored = clone.query_key(OcTreeKey(*components))
            assert restored.status == original.status
            assert restored.probability == pytest.approx(original.probability)


# ---------------------------------------------------------------------------
# Socket pool lifecycle
# ---------------------------------------------------------------------------
class TestSocketBackendLifecycle:
    def test_close_reaps_owned_workers(self):
        backend = make_backend("socket", CONFIG, 2)
        handles = list(backend.pool.engine.channels.owned_workers)
        assert len(handles) == 3  # 2 primaries + 1 default standby
        backend.apply_shard_batches([_batch(0), _batch(1)])
        backend.close()
        assert all(not handle.alive for handle in handles)

    def _assert_external_workers_come_back_empty(self, shared: bool):
        handles = [spawn_local_worker() for _ in range(2)]
        endpoints = [handle.endpoint for handle in handles]
        try:
            if shared:
                pool = BackendPool("socket", 2, endpoints=endpoints)
                backend = pool.lease("map", CONFIG, 2)
                abandoned = pool.lease("never-closed", CONFIG, 2)
                abandoned.apply_shard_batches([_batch(0), _batch(1)])
            else:
                backend = make_backend("socket", CONFIG, 2, endpoints=endpoints)
                pool = backend.pool
            backend.apply_shard_batches([_batch(0), _batch(1)])
            backend.close()
            pool.close()
            for handle in handles:
                assert handle.alive
                probe = Transport.connect(
                    handle.server.host, handle.server.port, timeout_s=10.0
                )
                try:
                    assert _ok(worker_request(probe, "hello"))["shards"] == []
                finally:
                    probe.close()
        finally:
            for handle in handles:
                handle.stop()

    def test_external_workers_are_detached_not_stopped(self):
        """Closing a session must give externally managed workers back
        empty, not kill them -- they belong to whoever spawned them."""
        self._assert_external_workers_come_back_empty(shared=False)

    def test_shared_pool_close_detaches_even_leases_nobody_closed(self):
        self._assert_external_workers_come_back_empty(shared=True)

    def test_snapshot_cadence_bounds_the_replay_tail(self):
        backend = make_backend("socket", CONFIG, 1, snapshot_every_batches=2)
        try:
            for salt in range(5):
                backend.apply_shard_batches([_batch(0, salt=salt)])
            stats = backend.failover_stats()
            assert stats["snapshots_taken"] == 2  # after batches 2 and 4
            replay_log = backend.pool.engine.replay_log
            assert replay_log.tail_length(backend.gids[0]) == 1  # only batch 5 left
            assert stats["failovers"] == 0
        finally:
            backend.close()

    def test_empty_flushes_do_not_grow_the_replay_tail(self):
        backend = make_backend("socket", CONFIG, 2, snapshot_every_batches=100)
        try:
            backend.apply_shard_batches([_batch(0)])
            backend.apply_shard_batches([update_batch(0, []), _batch(1)])
            replay_log = backend.pool.engine.replay_log
            assert replay_log.tail_length(backend.gids[0]) == 1
            assert replay_log.tail_length(backend.gids[1]) == 1
        finally:
            backend.close()

    def test_released_lease_leaves_no_recovery_state_behind(self):
        """Session churn on a shared socket fleet must not grow the engine's
        replay log or shard table."""
        with BackendPool("socket", 1, snapshot_every_batches=100) as pool:
            for _ in range(3):
                lease = pool.lease("churn", CONFIG, 1)
                lease.apply_shard_batches([_batch(0)])
                gid = lease.gids[0]
                assert pool.engine.replay_log.tail_length(gid) == 1
                lease.close()
                assert pool.engine.replay_log.tail_length(gid) == 0
            assert pool.attached_shards == 0

    def test_unreachable_endpoint_fails_fast_at_construction(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises((TransportError, ShardBackendError)):
            make_backend(
                "socket", CONFIG, 1, endpoints=[f"127.0.0.1:{port}"], standby_workers=0
            )

    def test_invalid_knobs_rejected(self):
        before = threading.active_count()
        with pytest.raises(ValueError):
            make_backend("socket", CONFIG, 1, snapshot_every_batches=0)
        with pytest.raises(ValueError):
            make_backend("socket", CONFIG, 1, heartbeat_interval_s=0.0)
        with pytest.raises(ValueError):
            make_backend("socket", CONFIG, 1, standby_workers=-1)
        # A rejected configuration spawned no worker it then leaked.
        assert threading.active_count() <= before
        with pytest.raises(ValueError, match="shape a private pool"):
            with BackendPool("socket", 1) as pool:
                make_backend("socket", CONFIG, 1, fleet=pool, standby_workers=3)
