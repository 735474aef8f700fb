"""Shard routing: total, deterministic, spatially coherent partitions."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import update_batch
from repro.core.address_gen import AddressGenerator
from repro.core.config import OMUConfig
from repro.octomap.keys import OcTreeKey
from repro.serving import MapSession, SessionConfig, ShardRouter, ShardUpdateBatch


@pytest.fixture
def config() -> OMUConfig:
    return OMUConfig(resolution_m=0.2)


def test_router_is_total_and_deterministic(config):
    router = ShardRouter(config, num_shards=3)
    keys = [OcTreeKey(32768 + dx, 32768 + dy, 32760) for dx in range(-8, 8) for dy in range(-8, 8)]
    first = [router.shard_for_key(key) for key in keys]
    second = [router.shard_for_key(key) for key in keys]
    assert first == second
    assert all(0 <= shard < 3 for shard in first)
    assert set(first) == {0, 1, 2}  # a spread of keys reaches every shard


def test_single_shard_owns_everything(config):
    router = ShardRouter(config, num_shards=1)
    assert router.shard_for_key(router.converter.coord_to_key(3.0, -2.0, 0.4)) == 0
    assert router.shard_for_key(OcTreeKey(0, 0, 0)) == 0


def test_partition_preserves_order_and_ownership(config):
    router = ShardRouter(config, num_shards=3)
    index = np.arange(50)
    keys = np.stack((32768 + index, 32768 - index, 32768 + 2 * index), axis=1)
    occupied = index % 2 == 1
    owners = np.array([router.shard_for_key(OcTreeKey(*key)) for key in keys.tolist()])
    assert set(owners.tolist()) == {0, 1, 2}
    per_shard = router.partition_key_arrays(keys, occupied)
    assert len(per_shard) == 3
    for shard_id, (shard_keys, shard_occupied) in enumerate(per_shard):
        # Exactly the rows the shard owns, in global stream order.
        assert np.array_equal(shard_keys, keys[owners == shard_id])
        assert np.array_equal(shard_occupied, occupied[owners == shard_id])


@pytest.mark.parametrize(
    "tree_depth, prefix_levels", [(16, 12), (8, 4), (6, 2), (5, 1), (3, 1), (1, 1)]
)
def test_prefix_depth_follows_the_tree_depth(tree_depth, prefix_levels):
    """16x16x16-voxel blocks wherever the tree is deep enough, octants below."""
    config = OMUConfig(resolution_m=0.2, tree_depth=tree_depth)
    router = ShardRouter(config, num_shards=5)
    assert router.prefix_levels == prefix_levels
    generator = AddressGenerator(config.resolution_m, tree_depth, config.num_pes)
    keys = np.random.default_rng(tree_depth).integers(0, 1 << tree_depth, size=(64, 3))
    assert np.array_equal(
        router.shard_indices_for_keys(keys),
        generator.shard_indices(keys, router.num_shards, prefix_levels),
    )


def test_too_many_shards_for_the_tree_depth_rejected():
    shallow = OMUConfig(resolution_m=0.2, tree_depth=5)  # one prefix level: 8 octants
    with pytest.raises(ValueError, match="key-prefix subtrees at tree depth 5"):
        ShardRouter(shallow, num_shards=9)
    ShardRouter(shallow, num_shards=8)
    ShardRouter(OMUConfig(resolution_m=0.2, tree_depth=6), num_shards=9)  # 64 subtrees: fine


def test_a_session_on_a_shallow_tree_needs_no_routing_setting():
    """Regression: a depth-8 tree failed with the depth-16 prefix (12 levels)
    unless the caller also set the prefix by hand."""
    base = SessionConfig(num_shards=2)
    shallow = replace(base, accelerator=replace(base.accelerator, tree_depth=8))
    with MapSession("m", shallow) as session:
        assert session.router.prefix_levels == 4


def test_invalid_parameters_rejected(config):
    with pytest.raises(ValueError):
        ShardRouter(config, num_shards=0)


def test_shard_index_matches_address_generator(config):
    router = ShardRouter(config, num_shards=5)
    generator = AddressGenerator(config.resolution_m, config.tree_depth, config.num_pes)
    for point in ((0.4, 0.4, 0.4), (-5.0, 3.0, 1.0), (7.7, -7.7, 0.1)):
        key = router.converter.coord_to_key(*point)
        assert router.shard_for_key(key) == generator.shard_index(key, 5, 12)


# ---------------------------------------------------------------------------
# ShardHost: the one verb handler behind every transport
# ---------------------------------------------------------------------------
def _batch(shard_id: int, x: int = 32768) -> ShardUpdateBatch:
    return update_batch(shard_id, [(x, 32768, 32768, True)])


def test_host_serves_the_verbs_under_a_gid_and_keeps_local_shard_ids(config):
    from repro.serving import ShardHost, ShardQueryRequest

    host = ShardHost()
    # Two sessions' shard 1, side by side under different gids.
    assert host.handle("attach", 40, (1, config)) == 40
    assert host.handle("attach", 41, (1, config)) == 41
    assert host.hosted() == [40, 41]
    ack = host.handle("apply", 40, _batch(1))
    assert (ack.shard_id, ack.generation, ack.updates_applied) == (1, 1, 1)
    request = ShardQueryRequest(shard_id=1, key=(32768, 32768, 32768))
    assert host.handle("query", 40, request).status == "occupied"
    assert host.handle("query", 41, request).status == "unknown"  # never shared
    assert host.handle("export", 40).shard_id == 1
    assert host.handle("snapshot", 40).generation == 1
    assert host.handle("ping") == "pong"
    assert host.worker(40).shard_id == 1


def test_host_unknown_verb_and_unknown_gid_raise(config):
    from repro.serving import ShardHost

    host = ShardHost()
    with pytest.raises(ValueError, match="unknown shard command 'selfdestruct'"):
        host.handle("selfdestruct", 0, None)
    for verb in ("apply", "query", "export", "snapshot"):
        with pytest.raises(KeyError, match="gid 7 is not hosted"):
            host.handle(verb, 7, _batch(0))
    # The wire form reports instead of raising, with the worker's traceback;
    # a malformed message is reported the same way.
    status, payload = host.reply(("apply", 7, _batch(0)))
    assert status == "error" and "not hosted" in payload["message"]
    assert "KeyError" in payload["traceback"]
    assert host.reply("garbage")[0] == "error"
    assert host.reply(("ping", None, None)) == ("ok", "pong")


def test_host_restore_then_apply_continues_the_generation(config):
    from repro.serving import ShardHost

    source = ShardHost()
    source.handle("attach", 3, (0, config))
    source.handle("apply", 3, _batch(0))
    source.handle("apply", 3, _batch(0, x=32770))
    snapshot = source.handle("snapshot", 3)
    assert snapshot.generation == 2

    host = ShardHost()
    # Rehydrated under another gid on another host: the gid is only a name.
    assert host.handle("restore", 9, (snapshot, config)) == 9
    ack = host.handle("apply", 9, _batch(0, x=32772))
    assert (ack.shard_id, ack.generation) == (0, 3)
    # A restore over a hosted gid replaces it (recovery restarts from the image).
    host.handle("restore", 9, (snapshot, config))
    assert host.handle("export", 9).generation == 2


def test_host_detach_of_an_absent_gid_is_a_no_op(config):
    from repro.serving import ShardHost

    host = ShardHost()
    assert host.handle("detach", 5) == 5
    host.handle("attach", 5, (0, config))
    assert host.handle("detach", 5) == 5
    assert host.handle("detach", 5) == 5
    assert host.hosted() == []


def test_host_misrouted_message_still_trips_the_workers_own_check(config):
    """Routing is by gid, out of band; the message's local shard id must
    still match the worker hosted under that gid."""
    from repro.serving import ShardHost, ShardQueryRequest

    host = ShardHost()
    host.handle("attach", 10, (0, config))
    host.handle("attach", 11, (1, config))
    with pytest.raises(ValueError, match="batch for shard 1 delivered to shard 0"):
        host.handle("apply", 10, _batch(1))
    with pytest.raises(ValueError, match="query for shard 0 delivered to shard 1"):
        host.handle("query", 11, ShardQueryRequest(shard_id=0, key=(1, 1, 1)))
    assert host.handle("export", 10).generation == 0  # nothing was applied


# ---------------------------------------------------------------------------
# The update wire: uint16 key columns in, nothing malformed past the worker
# ---------------------------------------------------------------------------
def test_from_key_arrays_refuses_a_component_that_does_not_fit_16_bits():
    """``astype(uint16)`` would wrap 70000 onto voxel 4464: refuse, never alias."""
    flags = np.array([True])
    for component in (70000, 65536, -1):
        with pytest.raises(ValueError, match=r"key components must be in \[0, 65535\]"):
            ShardUpdateBatch.from_key_arrays(0, np.array([[32768, component, 32768]]), flags)
    batch = ShardUpdateBatch.from_key_arrays(0, np.array([[0, 65535, 32768]]), flags)
    assert batch.keys.dtype == np.uint16 and batch.keys.tolist() == [[0, 65535, 32768]]
    assert batch.occupied.dtype == np.bool_ and len(batch) == 1


@pytest.mark.parametrize(
    "keys, occupied",
    [
        (np.zeros((2, 3), dtype=np.uint16), np.array([True])),  # fewer flags than keys
        (np.zeros((2, 3), dtype=np.uint16), np.ones((2, 1), dtype=bool)),  # flags not a column
        (np.zeros((2, 4), dtype=np.uint16), np.ones(2, dtype=bool)),  # not (N, 3)
        (np.zeros(3, dtype=np.uint16), np.ones(1, dtype=bool)),  # one key, not a table
        (np.zeros((2, 3), dtype=np.float64), np.ones(2, dtype=bool)),  # not integers
        (None, None),  # not arrays at all
    ],
)
def test_a_malformed_batch_is_refused_before_it_touches_the_accelerator(config, keys, occupied):
    from repro.serving import ShardHost

    host = ShardHost()
    host.handle("attach", 0, (0, config))
    bad = ShardUpdateBatch(shard_id=0, keys=keys, occupied=occupied)
    with pytest.raises(ValueError, match="malformed update batch"):
        host.handle("apply", 0, bad)
    status, payload = host.reply(("apply", 0, bad))
    assert status == "error" and "malformed update batch" in payload["message"]
    worker = host.worker(0)
    assert (worker.generation, worker.updates_applied) == (0, 0)
    assert worker.accelerator.statistics().voxel_updates == 0
    # The worker still serves: the refusal cost it nothing.
    assert host.handle("apply", 0, _batch(0)).generation == 1


def test_any_integer_key_dtype_applies_like_uint16(config):
    from repro.core.verification import compare_trees
    from repro.serving import ShardHost

    host = ShardHost()
    trees = []
    for gid, dtype in enumerate((np.uint16, np.int64)):
        host.handle("attach", gid, (0, config))
        keys = np.array([[32768, 32768, 32768], [32769, 32768, 32768]], dtype=dtype)
        ack = host.handle("apply", gid, ShardUpdateBatch(0, keys, np.array([True, False])))
        assert ack.updates_applied == 2
        trees.append(host.handle("export", gid).tree)
    report = compare_trees(trees[0], trees[1], 0.0)
    assert report.equivalent and trees[0].num_leaf_nodes() == 2, report.summary()
