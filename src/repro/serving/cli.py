"""``repro-serve``: a command-line demo of the mapping service.

Generates a multi-client scan stream, pushes it through a
:class:`~repro.serving.manager.MapSessionManager` with the chosen execution
backend / shard-count / batch-size, fires a few collision queries per
session (twice, so the second round shows cache hits), and prints the
per-session :class:`~repro.serving.stats.ServiceStats` tables.

``--async`` swaps the synchronous loop for the asyncio admission front end
(:class:`~repro.serving.aio.AsyncMapService`): every client becomes its own
coroutine submitting into bounded per-session admission queues
(``--queue-limit`` deep: the sessions' ``admission_queue_limit``) while
background flusher tasks ingest concurrently, and the stats gain the
admission-wait table.

``--http`` turns the demo into a long-running server: the network API of
:mod:`repro.serving.http` on ``--host``/``--port``, no generated workload,
serving until SIGINT/SIGTERM.  The flags set the default session config;
a client may override the shard count, batch size, queue depth, tenant and
quota of its own sessions, but the execution backend (``--backend``) stays
the operator's choice.  Both the async demo and the HTTP server shut
down gracefully on those signals -- admitted scans are drained into their
maps (``AsyncMapService.close(drain=True)``) before the process exits 0.

Run ``repro-serve --help`` for the knobs; the demo defaults finish in a few
seconds on a laptop.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.datasets.streams import ClientSpec, StreamEvent, generate_interleaved_stream
from repro.serving.aio import AsyncMapService, submit_interleaved_stream
from repro.serving.backends import BACKEND_NAMES
from repro.serving.manager import MapSessionManager
from repro.serving.session import SessionConfig
from repro.serving.types import ScanRequest

__all__ = ["build_parser", "main"]

QUERY_POINTS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.4, 0.3),
    (2.5, -1.0, 0.2),
    (8.0, 8.0, 1.0),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Demo of the multi-session occupancy-mapping service layer.",
    )
    parser.add_argument("--sessions", type=int, default=2, help="number of map sessions (default 2)")
    parser.add_argument("--scans", type=int, default=3, help="scans per client (default 3)")
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="inline",
        help=(
            "shard execution backend (default inline; 'process' runs one worker "
            "process per shard; 'socket' serves shards from repro-serve-worker "
            "TCP endpoints with snapshots and live failover)"
        ),
    )
    parser.add_argument(
        "--workers",
        default="",
        help=(
            "socket backend: comma-separated host:port endpoints of running "
            "repro-serve-worker processes, in shard order (extras become "
            "failover standbys); empty spawns local workers automatically"
        ),
    )
    parser.add_argument(
        "--standby-workers",
        type=int,
        default=1,
        help="socket backend: extra auto-spawned standby workers (default 1)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        help=(
            "socket backend: shard snapshot cadence in acknowledged batches; "
            "smaller bounds failover replay tighter (default 8)"
        ),
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="socket backend: quiet seconds before a liveness ping (default 1.0)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=5.0,
        help="socket backend: ping reply deadline in seconds (default 5.0)",
    )
    parser.add_argument("--shards", type=int, default=2, help="shard workers per session (default 2)")
    parser.add_argument(
        "--fleet-workers",
        type=int,
        default=0,
        help=(
            "size of the shared backend fleet: sessions lease execution "
            "slots from one pool of this many workers instead of each "
            "owning num-shards workers (0 = classic per-session ownership)"
        ),
    )
    parser.add_argument("--batch-size", type=int, default=4, help="scans per ingestion batch (default 4)")
    parser.add_argument("--resolution", type=float, default=0.2, help="map resolution in metres (default 0.2)")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed of the scan stream (default 0)")
    parser.add_argument(
        "--queries",
        type=int,
        default=2,
        help="collision-query rounds per session after ingestion (default 2)",
    )
    parser.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help=(
            "serve through the asyncio admission front end: one submitter "
            "coroutine per client, bounded per-session admission queues with "
            "backpressure, background flusher tasks ingesting off the event loop"
        ),
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help=(
            "async mode: admission queue depth per session, the sessions' "
            "admission_queue_limit (default 16)"
        ),
    )
    parser.add_argument(
        "--http",
        dest="use_http",
        action="store_true",
        help=(
            "serve the network API (REST + background jobs) "
            "instead of running the demo workload; runs until SIGINT/SIGTERM, "
            "then drains admitted scans and exits 0"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="HTTP mode: bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="HTTP mode: bind port; 0 picks a free one (default 8080)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help=(
            "write the final metrics snapshot (windowed rollups, percentile "
            "latencies, per-tenant accounting) plus the ServiceStats counters "
            "as JSON to PATH on exit -- clean exits and SIGTERM alike"
        ),
    )
    return parser


def _write_metrics(args: argparse.Namespace, manager: MapSessionManager) -> None:
    """Dump the ``--metrics-json`` snapshot, if the flag was given."""
    if not getattr(args, "metrics_json", None):
        return
    from repro.serving.metrics import write_metrics_json

    path = write_metrics_json(args.metrics_json, manager.metrics, manager.service_stats)
    print(f"Metrics snapshot written to {path}")


def _raise_system_exit(signum, frame):  # pragma: no cover - signal path
    """Sync-mode SIGTERM handler: unwind through ``finally`` blocks.

    The asyncio modes route signals into a stop event; the synchronous demo
    has no loop, so SIGTERM instead raises ``SystemExit`` -- the workload's
    ``finally`` then releases the backends and writes the metrics snapshot
    before the process exits with the conventional ``128 + signum`` code.
    """
    raise SystemExit(128 + signum)


def _install_signal_handlers(stop: "asyncio.Event") -> List[int]:
    """Route SIGINT/SIGTERM into ``stop`` (returns the signals hooked).

    Registered through the running loop so the handler executes as loop
    work, where setting the event is safe; the caller restores the default
    disposition afterwards so a second signal can still kill a wedged
    shutdown the hard way.
    """
    loop = asyncio.get_running_loop()
    hooked: List[int] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            continue
        hooked.append(signum)
    return hooked


def _remove_signal_handlers(hooked: List[int]) -> None:
    loop = asyncio.get_running_loop()
    for signum in hooked:
        loop.remove_signal_handler(signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-serve`` console script."""
    args = build_parser().parse_args(argv)
    if args.sessions < 1:
        print("error: --sessions must be at least 1", file=sys.stderr)
        return 2
    if args.use_async and args.queue_limit < 1:
        print("error: --queue-limit must be at least 1", file=sys.stderr)
        return 2
    if args.use_http and not 0 <= args.port <= 65535:
        print("error: --port must be in [0, 65535]", file=sys.stderr)
        return 2

    try:
        config = SessionConfig(
            num_shards=args.shards,
            backend=args.backend,
            batch_size=args.batch_size,
            workers=tuple(
                endpoint.strip()
                for endpoint in args.workers.split(",")
                if endpoint.strip()
            ),
            standby_workers=args.standby_workers,
            snapshot_every_batches=args.snapshot_every,
            heartbeat_interval_s=args.heartbeat_interval,
            heartbeat_timeout_s=args.heartbeat_timeout,
            fleet_workers=args.fleet_workers,
        ).with_resolution(args.resolution)
        if args.use_async:
            config = replace(config, admission_queue_limit=args.queue_limit)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.use_http:
        return asyncio.run(_http_main(config, args))

    try:
        scenes = ("corridor", "campus", "college")
        clients: List[ClientSpec] = [
            ClientSpec(
                client_id=f"client-{index}",
                session_id=f"session-{index}",
                scene=scenes[index % len(scenes)],
                num_scans=args.scans,
                max_range_m=15.0,
            )
            for index in range(args.sessions)
        ]
        manager = MapSessionManager(default_config=config)
        # Session construction checks the shard count against the tree depth.
        for index in range(args.sessions):
            manager.get_or_create_session(f"session-{index}")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stream = generate_interleaved_stream(clients, seed=args.seed)
    frontend = "async" if args.use_async else "sync"
    print(
        f"Streaming {len(stream)} scans from {len(clients)} clients "
        f"({frontend} front end, {args.backend} backend, "
        f"{args.shards} shards, batch {args.batch_size})"
    )

    if args.use_async:
        return asyncio.run(_async_main(manager, stream, args))

    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _raise_system_exit)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        previous_sigterm = None
    try:
        for event in stream:
            manager.submit(
                ScanRequest.from_scan_node(
                    event.session_id,
                    event.scan,
                    max_range=event.max_range_m,
                    client_id=event.client_id,
                )
            )
        reports = manager.flush_all()
        print(f"Dispatched {len(reports)} batches, {manager.service_stats.totals().voxel_updates} voxel updates")

        for _ in range(max(0, args.queries)):
            for session_id in manager.session_ids():
                for point in QUERY_POINTS:
                    manager.query(session_id, *point)
        for session_id in manager.session_ids():
            response = manager.raycast(session_id, (0.0, 0.0, 0.2), (1.0, 0.0, 0.0), 12.0)
            hit = f"hit at {response.hit_point}" if response.hit else "no hit"
            print(f"  {session_id}: forward collision ray -> {hit} ({response.voxels_traversed} voxels)")

        print()
        print(manager.render_stats())
        hit_rate = 100.0 * manager.service_stats.totals().cache.hit_rate
        print(f"\nOverall cache hit rate: {hit_rate:.1f}%")
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        # Pool backends hold worker processes/threads; always release them.
        manager.shutdown()
        _write_metrics(args, manager)
    return 0


async def _async_main(
    manager: MapSessionManager, stream: Sequence[StreamEvent], args: argparse.Namespace
) -> int:
    """Drive the scan stream through the asyncio admission front end.

    One coroutine per client submits that client's events in order (the
    interleaving across clients is whatever the event loop schedules); the
    service's flusher tasks ingest concurrently off the loop.  Sessions were
    created eagerly by :func:`main`, so process-backend workers forked
    before any executor thread existed.

    SIGINT/SIGTERM shut down gracefully: the submitters stop, admitted scans
    are drained into their maps (``close(drain=True)``), and the process
    exits 0 with the stats of whatever was ingested.  The handlers stay
    installed through the drain itself -- most of the ingest work happens
    *after* the submitters finish, and a signal landing there must still
    produce the stats and the ``--metrics-json`` snapshot instead of
    killing the process mid-flush.
    """
    stop = asyncio.Event()
    hooked = _install_signal_handlers(stop)
    try:
        async with AsyncMapService(manager) as service:
            for session_id in manager.session_ids():
                service.get_or_create_session(session_id)
            driver = asyncio.ensure_future(submit_interleaved_stream(service, stream))
            waiter = asyncio.ensure_future(stop.wait())
            await asyncio.wait({driver, waiter}, return_when=asyncio.FIRST_COMPLETED)
            if stop.is_set():
                driver.cancel()
                await asyncio.gather(driver, return_exceptions=True)
                print("\nSignal received: draining admitted scans, then exiting")
            else:
                await driver  # surface submitter errors
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            await service.flush_all()
            # Count every batch the background flushers dispatched, not just
            # the residual tail the final flush drained.
            totals = manager.service_stats.totals()
            print(
                f"Dispatched {totals.batches_dispatched} batches, {totals.voxel_updates} voxel updates "
                f"({totals.admission_waits} backpressured submits)"
            )

            if not stop.is_set():
                for _ in range(max(0, args.queries)):
                    for session_id in manager.session_ids():
                        for point in QUERY_POINTS:
                            await service.query(session_id, *point)
                for session_id in manager.session_ids():
                    response = await service.raycast(session_id, (0.0, 0.0, 0.2), (1.0, 0.0, 0.0), 12.0)
                    hit = f"hit at {response.hit_point}" if response.hit else "no hit"
                    print(f"  {session_id}: forward collision ray -> {hit} ({response.voxels_traversed} voxels)")

            print()
            print(service.render_stats())
            hit_rate = 100.0 * manager.service_stats.totals().cache.hit_rate
            print(f"\nOverall cache hit rate: {hit_rate:.1f}%")
    finally:
        _remove_signal_handlers(hooked)
        _write_metrics(args, manager)
    return 0


async def _http_main(config: SessionConfig, args: argparse.Namespace) -> int:
    """Serve the network API until SIGINT/SIGTERM, then drain and exit 0.

    The shutdown order matters: stop accepting (and drop live connections)
    first, *then* ``close(drain=True)`` the service so every scan a client
    got a 202 for reaches its map before the process exits.
    """
    from repro.serving.http.server import HttpMapServer

    stop = asyncio.Event()
    hooked = _install_signal_handlers(stop)
    service = AsyncMapService(default_config=config)
    server = HttpMapServer(service, host=args.host, port=args.port)
    try:
        try:
            await server.start()
        except OSError as error:
            print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
            await service.close(drain=False)
            return 2
        host, port = server.address
        print(
            f"Serving the map API on http://{host}:{port} "
            f"({args.backend} backend, {args.shards} shards per session); Ctrl-C to stop"
        )
        sys.stdout.flush()
        await stop.wait()
        print("\nSignal received: draining admitted scans, then exiting")
    finally:
        _remove_signal_handlers(hooked)
        await server.close()
        await service.close(drain=True)
    if len(service.manager.service_stats):
        print()
        print(service.render_stats())
    _write_metrics(args, service.manager)
    print("Shutdown complete")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
