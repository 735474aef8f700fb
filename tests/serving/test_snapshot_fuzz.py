"""A malformed shard snapshot is refused before any kernel runs on it.

A snapshot is the accelerator's state arrays (``OMUAccelerator.image``) and
crosses a socket on a failover, so ``restore`` checks every array a kernel
indexes with before it writes one.  Hypothesis mutates a valid image -- one
whose prune stacks hold recycled rows and whose blocks hold stale words --
and each mutant must be refused with a ``ValueError`` both by
``MapShardWorker.from_snapshot`` and by a socket worker's ``restore`` verb,
which then hosts nothing under the gid: the refusal came before the worker
existed, let alone its kernel.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import worker_request
from repro.core import OMUConfig
from repro.core.prune_manager import DEPTH, NEXT_FRESH
from repro.core.treemem import NULL_POINTER
from repro.octomap.serialization import serialize_tree
from repro.serving.remote import ShardWorkerServer, Transport
from repro.serving.sharding import MapShardWorker
from repro.serving.types import ShardSnapshot, ShardUpdateBatch

CONFIG = OMUConfig(resolution_m=0.2, tree_depth=4, bank_kilobytes=8)
BANK_FIELDS = ("valid", "pointers", "tags", "probabilities")


def _blocks(corner, occupied: bool, repeats: int):
    x0, y0, z0 = corner
    return [
        (x0 + dx, y0 + dy, z0 + dz, occupied)
        for _ in range(repeats) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
    ]


def snapshot_of(config: OMUConfig) -> ShardSnapshot:
    """A 4x4x4 cube saturated free -- its blocks prune, then the node above
    them -- then one block flipped (re-expanded into recycled rows) and a
    second branch: the pruned rows wait on the prune stack as stale words."""
    cube = [(x, y, z, False) for _ in range(5) for x in range(4) for y in range(4) for z in range(4)]
    stream = cube + _blocks((2, 2, 2), True, 2) + _blocks((10, 2, 2), True, 1) + [(9, 3, 5, True)]
    columns = np.array(stream, dtype=np.int64)
    worker = MapShardWorker(0, config)
    worker.apply_message(ShardUpdateBatch.from_key_arrays(0, columns[:, :3], columns[:, 3] != 0))
    return worker.snapshot_message()


@functools.lru_cache(maxsize=None)
def valid_snapshot() -> ShardSnapshot:
    snapshot = snapshot_of(CONFIG)
    pes = snapshot.payload["pes"]
    assert any(len(pe["stack"]) >= 2 for pe in pes), "some prune stack holds recycled rows"
    assert any(np.any(pe["pointers"] != NULL_POINTER) for pe in pes)
    return snapshot


def _pe_with(payload, has) -> dict:
    return next(pe for pe in payload["pes"] if has(pe))


def _resize(data, array: np.ndarray) -> np.ndarray:
    """One row (or column, for the (8, R) bank fields) fewer or more."""
    axis = array.ndim - 1
    if data.draw(st.booleans(), label="truncate") and array.shape[axis]:
        return np.delete(array, -1, axis=axis)
    return np.concatenate([array, np.take(array, [-1], axis=axis) if array.shape[axis] else array], axis=axis)


def truncated_or_oversized_field(data, payload) -> None:
    pe = data.draw(st.sampled_from(payload["pes"]), label="pe")
    name = data.draw(st.sampled_from(BANK_FIELDS + ("roots", "allocator", "stack")), label="field")
    if name == "stack" and not len(pe["stack"]):
        pe = _pe_with(payload, lambda part: len(part["stack"]))
    resized = _resize(data, pe[name])
    if resized.shape == pe[name].shape:  # an empty stack cannot shrink: grow it
        resized = np.zeros(1, dtype=np.int32)
    pe[name] = resized


def counters_resized(data, payload) -> None:
    payload["counters"] = _resize(data, payload["counters"])


def wrong_dtype(data, payload) -> None:
    pe = data.draw(st.sampled_from(payload["pes"]), label="pe")
    name = data.draw(st.sampled_from(BANK_FIELDS + ("roots", "allocator", "stack")), label="field")
    dtype = data.draw(st.sampled_from([np.int64, np.float64, np.uint8, np.int32, np.uint16]), label="dtype")
    if pe[name].dtype == dtype:
        dtype = np.float32
    pe[name] = pe[name].astype(dtype)


def pointer_past_the_fresh_rows(data, payload) -> None:
    pe = data.draw(st.sampled_from(payload["pes"]), label="pe")
    written = pe["valid"].shape[1]
    bank = data.draw(st.integers(0, 7), label="bank")
    row = data.draw(st.integers(0, written - 1), label="row")
    pe["pointers"][bank, row] = data.draw(st.integers(written, 0xFFFFFFFE), label="pointer")


def duplicate_stack_row(data, payload) -> None:
    pe = _pe_with(payload, lambda part: len(part["stack"]))
    stack = pe["stack"]
    pe["stack"] = np.append(stack, stack[data.draw(st.integers(0, len(stack) - 1), label="which")])
    pe["allocator"][DEPTH] += 1


def stack_row_out_of_range(data, payload) -> None:
    pe = _pe_with(payload, lambda part: len(part["stack"]))
    written = int(pe["allocator"][NEXT_FRESH])
    row = data.draw(st.one_of(st.integers(-(1 << 31), 0), st.integers(written, (1 << 31) - 1)), label="row")
    pe["stack"][data.draw(st.integers(0, len(pe["stack"]) - 1), label="which")] = row


def tag_naming_an_invalid_child(data, payload) -> None:
    """A valid inner entry's block loses a child its tags still list (or gains a tag for a missing one)."""
    pe = _pe_with(payload, lambda part: np.any((part["pointers"] != NULL_POINTER) & (part["valid"] == 1)))
    banks, rows = np.nonzero((pe["pointers"] != NULL_POINTER) & (pe["valid"] == 1))
    which = data.draw(st.integers(0, len(banks) - 1), label="entry")
    bank, row = int(banks[which]), int(rows[which])
    child = data.draw(st.integers(0, 7), label="child")
    block = int(pe["pointers"][bank, row])
    pe["valid"][child, block] = 0
    status = data.draw(st.sampled_from([0b01, 0b10, 0b11]), label="tag")
    pe["tags"][bank, row] = (int(pe["tags"][bank, row]) & ~(0b11 << 2 * child)) | status << 2 * child


def another_num_pes(data, payload) -> None:
    num_pes = data.draw(st.sampled_from([1, 2, 4]), label="num_pes")
    payload.clear()
    payload.update(copy.deepcopy(other_config_snapshot(num_pes=num_pes).payload))


def another_bank_size(data, payload) -> None:
    bank_kilobytes = data.draw(st.sampled_from([1, 4, 16]), label="bank_kilobytes")
    payload.clear()
    payload.update(copy.deepcopy(other_config_snapshot(bank_kilobytes=bank_kilobytes).payload))


@functools.lru_cache(maxsize=None)
def other_config_snapshot(num_pes: int = 8, bank_kilobytes: int = 8) -> ShardSnapshot:
    return snapshot_of(OMUConfig(resolution_m=0.2, tree_depth=4, bank_kilobytes=bank_kilobytes, num_pes=num_pes))


MUTATIONS = (
    truncated_or_oversized_field,
    counters_resized,
    wrong_dtype,
    pointer_past_the_fresh_rows,
    duplicate_stack_row,
    stack_row_out_of_range,
    tag_naming_an_invalid_child,
    another_num_pes,
    another_bank_size,
)


def test_the_unmutated_image_restores():
    snapshot = valid_snapshot()
    clone = MapShardWorker.from_snapshot(copy.deepcopy(snapshot), CONFIG)
    assert clone.accelerator.statistics().nodes_stored > 0


@pytest.mark.parametrize("mutate", MUTATIONS, ids=[mutation.__name__ for mutation in MUTATIONS])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_a_mutated_image_is_refused_by_from_snapshot(mutate, data):
    snapshot = copy.deepcopy(valid_snapshot())
    mutate(data, snapshot.payload)
    with pytest.raises(ValueError):
        MapShardWorker.from_snapshot(snapshot, CONFIG)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=[mutation.__name__ for mutation in MUTATIONS])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_a_mutated_image_is_refused_by_a_socket_workers_restore(mutate, data):
    """``ShardHost.handle("restore", ...)`` behind a socket: an error reply, and no shard hosted."""
    snapshot = copy.deepcopy(valid_snapshot())
    mutate(data, snapshot.payload)
    server = ShardWorkerServer().start()
    transport = Transport.connect(server.host, server.port, timeout_s=10.0)
    try:
        status, reply = worker_request(transport, "restore", 3, (snapshot, CONFIG))
        assert status == "error" and reply["message"].startswith("ValueError"), reply
        status, hello = worker_request(transport, "hello")
        assert status == "ok" and hello["shards"] == []
    finally:
        transport.close()
        server.shutdown()


def _loaded_pe(payload) -> dict:
    return _pe_with(payload, lambda part: len(part["stack"]))


def _set(pe: dict, name: str, index, value) -> None:
    pe[name][index] = value


DIRECTED = {
    "a payload with no fields": (lambda payload: payload.clear(), "not an accelerator image"),
    "a PE image without its stack": (lambda payload: _loaded_pe(payload).pop("stack"), "expected the fields"),
    "fewer array rows than rows handed out": (
        lambda payload: _loaded_pe(payload).update(rows=int(_loaded_pe(payload)["allocator"][NEXT_FRESH]) - 1),
        "rows for a next fresh row",
    ),
    "more array rows than the bank has": (
        lambda payload: _loaded_pe(payload).update(rows=CONFIG.entries_per_bank + 1),
        "rows for a next fresh row",
    ),
    "a next fresh row past the bank": (
        lambda payload: _set(_loaded_pe(payload), "allocator", NEXT_FRESH, CONFIG.entries_per_bank + 1),
        "next fresh row",
    ),
    "a valid byte of 2": (lambda payload: _set(_loaded_pe(payload), "valid", (0, 0), 2), "other than 0 or 1"),
    "a root flag on a branch another PE owns": (
        lambda payload: (_set(payload["pes"][0], "roots", 5, 1), _set(payload["pes"][0], "valid", (5, 0), 1)),
        "root flags",
    ),
    "a root flag without its local root": (
        lambda payload: _set(payload["pes"][3], "roots", 3, 1),  # PE 3 owns branch 3, where nothing is stored
        "root flags",
    ),
    "a stack depth the stack does not have": (
        lambda payload: _set(_loaded_pe(payload), "allocator", DEPTH, len(_loaded_pe(payload)["stack"]) + 1),
        "stack must be int32",
    ),
    "counters of another dtype": (
        lambda payload: payload.update(counters=payload["counters"].astype(np.float64)),
        "counters must be int64",
    ),
}


@pytest.mark.parametrize("case", DIRECTED, ids=list(DIRECTED))
def test_a_malformed_image_is_refused_with_its_reason(case):
    mutate, reason = DIRECTED[case]
    snapshot = copy.deepcopy(valid_snapshot())
    mutate(snapshot.payload)
    with pytest.raises(ValueError, match=reason):
        MapShardWorker.from_snapshot(snapshot, CONFIG)


def test_a_serialized_tree_is_not_an_image():
    """The tree-rebuild format is gone from the snapshot path: its bytes are refused."""
    worker = MapShardWorker.from_snapshot(valid_snapshot(), CONFIG)
    snapshot = replace(valid_snapshot(), payload=serialize_tree(worker.export_octree()))
    with pytest.raises(ValueError, match="not an accelerator image"):
        MapShardWorker.from_snapshot(snapshot, CONFIG)


def test_only_a_fresh_accelerator_is_restored():
    worker = MapShardWorker.from_snapshot(copy.deepcopy(valid_snapshot()), CONFIG)
    with pytest.raises(ValueError, match="freshly built"):
        worker.accelerator.restore(copy.deepcopy(valid_snapshot().payload))


def test_the_image_is_numpy_arrays_and_ints_only():
    """What a frame can carry as buffers: no object of this package pickled inside."""

    def leaves(value):
        if isinstance(value, dict):
            assert all(isinstance(key, str) for key in value)
            for item in value.values():
                yield from leaves(item)
        elif isinstance(value, list):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    found = {type(leaf) for leaf in leaves(valid_snapshot().payload)}
    assert found == {int, np.ndarray}
    restored = MapShardWorker.from_snapshot(valid_snapshot(), CONFIG).accelerator
    for pe, part in zip(restored.pes, valid_snapshot().payload["pes"]):
        assert part["valid"].shape == (8, pe.allocator.next_fresh_row), "rows above the next fresh row stay behind"


def test_a_refused_restore_reaches_the_parent_as_a_backend_error_naming_the_shard():
    """Through a socket pool: a corrupt cadence snapshot fails the rehydrate, not the process."""
    from repro.serving import ShardBackendError, make_backend

    backend = make_backend("socket", CONFIG, 1, snapshot_every_batches=1)
    try:
        engine = backend.pool.engine
        columns = np.array(_blocks((2, 4, 6), True, 2), dtype=np.int64)
        backend.apply_shard_batches([ShardUpdateBatch.from_key_arrays(0, columns[:, :3], columns[:, 3] != 0)])
        (hosted,) = engine._shards.values()
        hosted.snapshot.payload["pes"][0]["stack"] = np.array([0, 0], dtype=np.int32)
        serving = engine.channels.worker_id(backend.slot_of(0))
        next(handle for handle in engine.channels.owned_workers if handle.endpoint == serving).kill()
        with pytest.raises(ShardBackendError, match="shard 0") as raised:
            backend.apply_shard_batches([ShardUpdateBatch.from_key_arrays(0, columns[:1, :3], columns[:1, 3] != 0)])
        assert "ValueError" in str(raised.value)
    finally:
        backend.close()
