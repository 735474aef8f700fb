"""Spans recorded from outside: wrappers around each layer's public entry points.

The program has no tracing of its own yet (ROADMAP item 4), so the traced
run patches the public callables listed in :data:`WRAP_POINTS` with timing
wrappers.  A span is ``[name, start, end, parent, request_id]`` on the
``time.perf_counter`` clock; the current span lives in a ``ContextVar`` so
nesting is right per thread and per asyncio task.  Spans stay in memory
until :meth:`Tracer.dump` writes them out.

The table is resolved when the tracer is installed: a name that no longer
exists is reported once and its layer's metrics read ``null``; the untraced
run never imports this module's wrappers, so a refactor cannot make the
end-to-end numbers unmeasurable.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pickle
import sys
import threading
import time
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


# -- counts taken at the boundaries, outside the timers ------------------------
# Each receives the wrapped call's ``(args, kwargs, result)``; ``args[0]`` is
# ``self``/``cls`` for a method.
def _frontend_counts(args, kwargs, result) -> Dict[str, float]:
    occupied = sum(int(scan.occupied_packed.size) for scan in result)
    free = sum(int(scan.free_packed.size) for scan in result)
    # Visits before de-duplication, as the pipeline counts them: every DDA
    # step plus every surviving endpoint voxel.
    steps = getattr(kwargs.get("counters"), "ray_steps", 0)
    return {
        "frontend.rays": sum(len(points) for points, _origin, _max_range in args[1]),
        "frontend.visits": steps + occupied,
        "frontend.updates_out": free + occupied,
    }


def _partition_counts(args, kwargs, result) -> Dict[str, float]:
    return {"partition.keys": int(args[1].shape[0])}


def _pack_counts(args, kwargs, result) -> Dict[str, float]:
    return {"pack.bytes": len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))}


def _dispatch_counts(args, kwargs, result) -> Dict[str, float]:
    return {"backend.batches": len(result.shard_ids)}


def _apply_counts(args, kwargs, result) -> Dict[str, float]:
    return {"shard_apply.updates": result.updates_applied}


def _body_counts(args, kwargs, result) -> Dict[str, float]:
    return {"http.bytes_in": len(args[0].body)}


#: ``(span name, "module:dotted.attribute", counts)``.  The part of the span
#: name before the first dot is the layer; every target is a public name.
WRAP_POINTS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("frontend.raycast", "repro.octomap.raycast_vec:compute_batch_update_arrays", _frontend_counts),
    ("partition.keys", "repro.serving.sharding:ShardRouter.partition_key_arrays", _partition_counts),
    ("pack.batch", "repro.serving.types:ShardUpdateBatch.from_key_arrays", _pack_counts),
    ("backend.dispatch", "repro.serving.backends:ShardBackend.apply_async", _dispatch_counts),
    ("backend.drain_wait", "repro.serving.backends:ShardBackend.drain", None),
    ("backend.query_key", "repro.serving.backends:ShardBackend.query_key", None),
    ("backend.export", "repro.serving.backends:ShardBackend.export_all", None),
    ("shard_apply.message", "repro.serving.sharding:MapShardWorker.apply_message", _apply_counts),
    ("core.apply", "repro.core.accelerator:OMUAccelerator.apply_update_batch", None),
    ("core.query", "repro.core.accelerator:OMUAccelerator.query", None),
    ("pipeline.flush", "repro.serving.batching:IngestionPipeline.flush", None),
    ("query.point", "repro.serving.query_engine:QueryEngine.query", None),
    ("query.batch", "repro.serving.query_engine:QueryEngine.query_batch", None),
    ("query.raycast", "repro.serving.query_engine:QueryEngine.raycast", None),
    ("query.bbox", "repro.serving.query_engine:QueryEngine.query_bbox", None),
    ("cache.get", "repro.serving.cache:GenerationLRUCache.get", None),
    ("cache.put", "repro.serving.cache:GenerationLRUCache.put", None),
    ("aio.submit", "repro.serving.aio:AsyncMapService.submit", None),
    ("aio.flush", "repro.serving.aio:AsyncMapService.flush", None),
    ("http.parse_body", "repro.serving.http.wire:json_body", _body_counts),
    ("http.parse_scan", "repro.serving.http.wire:scan_request_from_payload", None),
    ("fleet.lease", "repro.serving.fleet:BackendPool.lease", None),
    ("metrics.observe", "repro.serving.metrics.store:MetricsStore.observe", None),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: id given to a span with no program span above it, and inherited
        #: below it: the harness sets it per pass or per operation; ``None``
        #: (the server, which has no harness inside) numbers such spans itself.
        self.request_id: Optional[int] = 0
        self._numbers = itertools.count()
        #: layers with a wrap point that did not resolve.
        self.missing_layers: set = set()
        self._current: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
        self._counts_lock = threading.Lock()  # the server's flushers run on several threads
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> Tuple[list, contextvars.Token]:
        parent = self._current.get()
        if parent is not None and not parent[0].startswith("bench."):
            request_id = parent[4]
        else:
            request_id = next(self._numbers) if self.request_id is None else self.request_id
        span = [name, 0.0, 0.0, parent, request_id]
        self.spans.append(span)
        token = self._current.set(span)
        span[1] = time.perf_counter()
        return span, token

    def _close(self, span: list, token: contextvars.Token) -> None:
        span[2] = time.perf_counter()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (a pass, a client request)."""
        span, token = self._open(name)
        try:
            yield span
        finally:
            self._close(span, token)

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span, token = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(span, token)
                if counts is not None:
                    self._count(counts(args, kwargs, result))
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span, token = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span, token)
                if counts is not None:
                    self._count(counts(args, kwargs, result))
                return result

        return wrapper

    def _count(self, increments: Dict[str, float]) -> None:
        with self._counts_lock:
            self.counts.update(increments)

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Resolve :data:`WRAP_POINTS` and patch every name that exists."""
        for name, target, counts in WRAP_POINTS:
            module_name, _, path = target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing_layers.add(layer_of(name))
                print(f"warning: wrap point {target} is gone; {layer_of(name)}.* reads null", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                patched: object = classmethod(self._wrap(name, raw.__func__, counts))
            else:
                patched = self._wrap(name, raw, counts)
            self._patch(owner, attr, raw, patched)
            if isinstance(owner, types.ModuleType):
                # ``from module import name`` bound the original elsewhere too.
                for other in list(sys.modules.values()):
                    if other is not owner and getattr(other, "__name__", "").startswith("repro."):
                        if vars(other).get(attr) is raw:
                            self._patch(other, attr, raw, patched)

    def _patch(self, owner: object, attr: str, original: object, patched: object) -> None:
        setattr(owner, attr, patched)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------
    def rows(self) -> Tuple[List[str], List[list]]:
        """Spans as ``[name index, start, end, parent index, request id]`` rows."""
        names: List[str] = []
        name_index: Dict[str, int] = {}
        position = {id(span): index for index, span in enumerate(self.spans)}
        rows = []
        for name, start, end, parent, request_id in self.spans:
            if name not in name_index:
                name_index[name] = len(names)
                names.append(name)
            rows.append([name_index[name], start, end, -1 if parent is None else position[id(parent)], request_id])
        return names, rows

    def dump(self, path: Path, **extra) -> None:
        names, rows = self.rows()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, names=names, spans=rows, counts=dict(self.counts),
                       missing_layers=sorted(self.missing_layers))
        path.write_text(json.dumps(payload), encoding="utf-8")


def aggregate(names: List[str], rows: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self time, and the same for outermost spans.

    A span's self time is its duration minus its children's.  A span is
    *outermost* when its parent belongs to another layer (``query.point``
    inside ``query.batch`` is not): that is what an entry point's busy time
    counts.  ``timed_self_s`` leaves out spans under a ``bench.untimed`` root,
    which run outside the wall the harness times.
    """
    rows = list(rows)
    child_time = [0.0] * len(rows)
    probe = [False] * len(rows)
    for index, (name_id, start, end, parent, _request) in enumerate(rows):
        if parent >= 0:  # a parent is always recorded before its children
            child_time[parent] += end - start
            probe[index] = probe[parent]
        else:
            probe[index] = names[name_id] == "bench.untimed"
    stats: Dict[str, Dict[str, float]] = {}
    for index, (name_id, start, end, parent, _request) in enumerate(rows):
        name = names[name_id]
        entry = stats.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "timed_self_s": 0.0, "outer_calls": 0, "outer_s": 0.0},
        )
        duration = end - start
        own = duration - child_time[index]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own
        if not probe[index]:
            entry["timed_self_s"] += own
        if parent < 0 or layer_of(names[rows[parent][0]]) != layer_of(name):
            entry["outer_calls"] += 1
            entry["outer_s"] += duration
    return stats
