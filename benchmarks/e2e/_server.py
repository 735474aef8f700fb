"""The server side of ``http_open_loop``, run as a subprocess.

``AsyncMapService`` + ``HttpMapServer`` on a free port, printed as the first
line of stdout.  Running it in its own process keeps the load generator's
GIL out of the server's.  It drains and exits when stdin closes (so it can
never outlive the benchmark) or on SIGTERM/SIGINT.  With ``--trace-out`` the
span wrappers of :mod:`benchmarks.e2e.tracing` are installed in this
process only, and the spans are written to that file on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from repro.serving.aio import AsyncMapService  # noqa: E402
from repro.serving.http.server import HttpMapServer  # noqa: E402

from benchmarks.e2e.tracing import Tracer  # noqa: E402
from benchmarks.e2e.workloads import program_reads, session_config  # noqa: E402


async def serve(tracer) -> dict:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)

    def watch_stdin() -> None:
        sys.stdin.buffer.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=watch_stdin, daemon=True).start()
    service = AsyncMapService(default_config=session_config("thread", fleet_workers=2))
    server = HttpMapServer(service, port=0)
    reads: dict = {}
    try:
        await server.start()
        print(server.port, flush=True)
        await stop.wait()
    finally:
        await server.close()
        if tracer is not None:
            reads = program_reads(service.manager)
        await service.close(drain=True)
    return reads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.request_id = None  # no harness in here: number the root spans
        tracer.install()
    reads = asyncio.run(serve(tracer))
    if tracer is not None:
        tracer.dump(args.trace_out, reads=reads)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
