"""The shard worker server: one TCP endpoint hosting map shard workers.

A worker is a small threaded TCP server around a
:class:`~repro.serving.sharding.ShardHost`.  It boots empty -- the socket
slot engine pushes each shard's configuration over the wire (``attach`` for
a fresh shard, ``restore`` to rehydrate a snapshot), so the worker CLI
needs no session knowledge at all.  One endpoint hosts gid-keyed shards
from any number of sessions, and after a failover a surviving worker
co-hosts the dead worker's re-homed shards next to its own.

Protocol: framed ``(verb, gid, payload)`` commands over
:class:`~repro.serving.remote.transport.Transport`, one reply per command --
``("ok", payload)`` or ``("error", {"message", "traceback"})``.  Worker-side
exceptions are reported, not fatal (same policy as the process channel's
worker loop); only transport loss or an explicit ``stop`` ends a connection.

The module doubles as the ``repro-serve-worker`` console entry point, and
:func:`spawn_local_worker` gives tests and demos zero-orchestration workers:
in-process daemon threads on an ephemeral port.  A worker in its own
process is ``repro-serve-worker --port 0``, which prints its endpoint.
"""

from __future__ import annotations

import argparse
import signal
import socket
import sys
import threading
from typing import List, Optional

from repro.serving.remote.transport import Transport, TransportError
from repro.serving.sharding import ShardHost

__all__ = [
    "ShardWorkerServer",
    "LocalWorkerHandle",
    "spawn_local_worker",
    "main",
]


class ShardWorkerServer:
    """Threaded TCP server hosting any number of map shard workers."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        #: stable identity reported in errors and stats tables.
        self.worker_id = f"{self.host}:{self.port}"
        #: the shards hosted here, shared by every connection.
        self.shards = ShardHost()
        self._lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def start(self) -> "ShardWorkerServer":
        """Serve on a background (daemon) thread; returns immediately."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"worker-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI path)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:  # listener closed: shutdown or kill
                break
            with self._lock:
                self._connections.append(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(Transport(connection),),
                name=f"worker-{self.port}-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, transport: Transport) -> None:
        while not self._stopping.is_set():
            try:
                message = transport.recv()
            except (TransportError, ValueError, EOFError):
                break  # peer gone (or unframed garbage): nothing left to serve
            if message == ("stop", None, None):
                try:
                    transport.send(("ok", None))
                except TransportError:
                    pass
                self.shutdown()
                break
            if message == ("hello", None, None):
                reply = ("ok", {"worker_id": self.worker_id, "shards": self.shards.hosted()})
            else:
                reply = self.shards.reply(message)
            try:
                transport.send(reply)
            except TransportError:
                break
        transport.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop accepting, close every connection, release the port.  Idempotent."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        # shutdown() before close(): a thread blocked in accept() holds a
        # kernel reference that outlives close(), leaving the port accepting
        # (and immediately dropping) connections; shutdown() unblocks it.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass

    def kill(self) -> None:
        """Die abruptly: drop the port and every connection mid-whatever.

        The fault-injection stand-in for ``kill -9`` on a worker process:
        no drain, no goodbye frame, shard state simply gone.  Clients see
        resets / torn frames on their next interaction.
        """
        self.shutdown()
        self.shards.clear()

    @property
    def alive(self) -> bool:
        """True while the server is accepting connections."""
        return not self._stopping.is_set()


class LocalWorkerHandle:
    """Grip on a worker started by this process: endpoint plus kill switch."""

    def __init__(self, server: ShardWorkerServer) -> None:
        self.server = server
        self.endpoint = server.worker_id

    @property
    def alive(self) -> bool:
        """True while the worker can still serve its endpoint."""
        return self.server.alive

    def kill(self) -> None:
        """Abrupt death (fault injection): no drain, state lost."""
        self.server.kill()

    def stop(self) -> None:
        """Graceful shutdown.  Idempotent."""
        self.server.shutdown()


def spawn_local_worker() -> LocalWorkerHandle:
    """Start one in-process worker (daemon threads) on an ephemeral port."""
    return LocalWorkerHandle(ShardWorkerServer().start())


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-serve-worker``: serve shards on one TCP endpoint until stopped."""
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description=(
            "Occupancy-map shard worker: hosts map shards for socket-backend "
            "sessions. Shard configuration arrives over the wire (attach/restore), "
            "so the worker only needs an address to listen on."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks an ephemeral port (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    server = ShardWorkerServer(host=args.host, port=args.port)
    print(f"repro-serve-worker listening on {server.worker_id}", flush=True)

    def _terminate(signum, frame) -> None:
        server.shutdown()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
