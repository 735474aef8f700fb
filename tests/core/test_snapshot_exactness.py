"""A restored shard is the shard it replaced: array for array and count for count.

A shard snapshot is its accelerator's state arrays plus counters
(``OMUAccelerator.image``), and a restore copies them back into a fresh one
(``restore``).  The property: ingest a prefix, snapshot, restore on a fresh
worker -- inline through ``MapShardWorker.from_snapshot``, and through the
``restore`` verb of a socket worker -- then ingest the suffix on the
restored worker and on the one that never stopped.  Both must agree on every
``statistics()`` field, on ``counters()``, on each PE's SRAM image in
``test_golden_pe_image.py``'s format (stale words included), on the
allocator state and on every suffix batch's ``ShardApplyResult``.

The streams are the shallow-tree bursts of ``test_fused_kernel_properties.py``
-- they saturate, prune, re-expand and recycle rows, so a cut falls where the
prune stack holds rows and the image holds stale words -- and the corridor's
scan batches at the paper's depth 16.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OMUConfig
from repro.serving.remote import ShardWorkerServer, Transport
from repro.serving.sharding import MapShardWorker
from repro.serving.types import ShardUpdateBatch
from test_fused_kernel_properties import small_config, update_streams
from test_golden_pe_image import image_digest
from test_golden_pe_stats import corridor_events, update_stream

Batch = Tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=1)
def corridor_batches() -> Tuple[OMUConfig, List[Batch]]:
    """The corridor's six scans at depth 16, one batch per scan."""
    config = OMUConfig(resolution_m=0.2)
    worker = MapShardWorker(0, config)
    return config, [update_stream(worker.accelerator, event) for event in corridor_events()]


@st.composite
def cut_streams(draw) -> Tuple[OMUConfig, List[Batch], int]:
    """A stream as batches and the number of them applied before the snapshot."""
    if draw(st.booleans()):
        config, batches = corridor_batches()
    else:
        depth, stream = draw(update_streams())
        size = draw(st.integers(min_value=4, max_value=96))
        columns = np.array(stream, dtype=np.int64)
        config = small_config(depth)
        batches = [
            (columns[start : start + size, :3], columns[start : start + size, 3] != 0)
            for start in range(0, len(columns), size)
        ]
    return config, batches, draw(st.integers(min_value=0, max_value=len(batches)))


def shard_state(worker: MapShardWorker) -> dict:
    """Everything a snapshot must carry over, read without touching a counted SRAM port."""
    accelerator = worker.accelerator
    return {
        "statistics": accelerator.statistics(),
        "counters": accelerator.counters(),
        "images": [image_digest(pe) for pe in accelerator.pes],
        "allocators": [pe.allocator.state.tolist() for pe in accelerator.pes],
        "rows": [pe.memory.rows for pe in accelerator.pes],
        "map_timing": accelerator.map_timing,
        "issued": tuple(accelerator.scheduler.per_pe_issued),
        "accounting": (worker.generation, worker.batches_applied, worker.updates_applied),
    }


def message(keys: np.ndarray, occupied: np.ndarray) -> ShardUpdateBatch:
    return ShardUpdateBatch.from_key_arrays(0, keys.astype(np.uint16), occupied)


def _ok(transport, verb, gid, payload):
    """One command round trip on a worker connection: the reply's payload, which must be ``ok``."""
    transport.send((verb, gid, payload))
    status, payload = transport.recv()
    assert status == "ok", payload
    return payload


@given(cut_streams())
@settings(max_examples=30, deadline=None)
def test_a_restored_shard_equals_the_one_that_never_stopped(case):
    config, batches, cut = case
    prefix, suffix = batches[:cut], batches[cut:]
    original = MapShardWorker(0, config)
    for batch in prefix:
        original.apply_message(message(*batch))
    snapshot = original.snapshot_message()
    inline = MapShardWorker.from_snapshot(snapshot, config)
    assert shard_state(inline) == shard_state(original)

    server = ShardWorkerServer().start()
    transport = Transport.connect(server.host, server.port, timeout_s=10.0)
    try:
        assert _ok(transport, "restore", 5, (snapshot, config)) == 5
        remote = server.shards.worker(5)
        assert shard_state(remote) == shard_state(original)
        for batch in suffix:
            acknowledged = original.apply_message(message(*batch))
            assert inline.apply_message(message(*batch)) == acknowledged
            assert _ok(transport, "apply", 5, message(*batch)) == acknowledged
        expected = shard_state(original)
        assert shard_state(inline) == expected
        assert shard_state(remote) == expected
    finally:
        transport.close()
        server.shutdown()


def test_a_corridor_cut_carries_the_row_layout_and_lifetime_counts():
    """The measured failure of the tree-rebuild restore, as one directed case: after a
    cut, the clone's fresh-row marks, array sizes and reuse fraction are the original's."""
    config, batches = corridor_batches()
    original = MapShardWorker(0, config)
    for batch in batches[:3]:
        original.apply_message(message(*batch))
    clone = MapShardWorker.from_snapshot(original.snapshot_message(), config)
    for worker in (original, clone):
        for batch in batches[3:]:
            worker.apply_message(message(*batch))
    marks = [[pe.allocator.next_fresh_row for pe in worker.accelerator.pes] for worker in (original, clone)]
    assert marks[0] == marks[1] and max(marks[0]) > 1
    assert [pe.memory.rows for pe in clone.accelerator.pes] == [pe.memory.rows for pe in original.accelerator.pes]
    assert clone.accelerator.statistics() == original.accelerator.statistics()
