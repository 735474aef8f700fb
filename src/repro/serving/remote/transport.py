"""Length-prefixed pickle framing over TCP sockets.

The socket channel and its shard workers exchange the same pickle-safe
``(verb, gid, payload)`` command tuples the process channel sends over
``multiprocessing.Pipe`` -- this module is the pipe's stand-in for real
sockets: every message travels as a 4-byte big-endian length prefix followed
by the pickled body, so a reader always knows exactly where one message ends
and the next begins, and a connection that dies mid-frame is detected as a
*torn* message rather than silently blocking forever.

Failure taxonomy (the failover logic keys off it):

* :class:`TransportClosed` -- the peer closed the connection cleanly at a
  frame boundary.  Expected at worker shutdown.
* :class:`TransportError` -- everything else: torn frames, resets, timeouts,
  oversized length prefixes.  The slot engine treats any of these on a
  worker connection as "the worker is gone" and starts recovery.

Both derive from :class:`ConnectionError`, so callers that do not care about
the distinction can catch one type.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Optional

__all__ = ["Transport", "TransportClosed", "TransportError", "MAX_FRAME_BYTES"]

_HEADER = struct.Struct("!I")

#: Upper bound on one frame's body.  A garbage length prefix (connecting to
#: the wrong port, a corrupted stream) must fail fast instead of making the
#: reader wait for gigabytes that will never arrive.
MAX_FRAME_BYTES = 1 << 30


class TransportError(ConnectionError):
    """The connection failed mid-conversation (torn frame, reset, timeout)."""


class TransportClosed(TransportError):
    """The peer closed the connection cleanly at a frame boundary."""


class Transport:
    """One framed, bidirectional message stream over a connected socket."""

    def __init__(self, sock: socket.socket, timeout_s: Optional[float] = None) -> None:
        self._sock = sock
        self._closed = False
        sock.settimeout(timeout_s)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        connect_timeout_s: float = 5.0,
        timeout_s: Optional[float] = None,
    ) -> "Transport":
        """Open a framed stream to a listening worker."""
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        except OSError as error:
            raise TransportError(
                f"cannot connect to worker {host}:{port}: {error}"
            ) from error
        # Command/ack round-trips are latency-bound, not throughput-bound.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, timeout_s=timeout_s)

    def settimeout(self, timeout_s: Optional[float]) -> None:
        """Blocking-I/O deadline for subsequent sends and receives."""
        self._sock.settimeout(timeout_s)

    def send(self, message: object) -> None:
        """Frame and send one message."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > MAX_FRAME_BYTES:
            raise ValueError(
                f"message of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame limit"
            )
        try:
            self._sock.sendall(_HEADER.pack(len(payload)) + payload)
        except OSError as error:
            raise TransportError(f"send failed: {error}") from error

    def recv(self) -> object:
        """Receive one whole message (blocking, honours the timeout)."""
        header = self._recv_exact(_HEADER.size, at_boundary=True)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
                "limit (corrupted stream?)"
            )
        return pickle.loads(self._recv_exact(length, at_boundary=False))

    def _recv_exact(self, count: int, at_boundary: bool) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                chunk = self._sock.recv(count - len(chunks))
            except socket.timeout as error:
                raise TransportError(
                    f"receive timed out after {self._sock.gettimeout()}s"
                ) from error
            except OSError as error:
                raise TransportError(f"receive failed: {error}") from error
            if not chunk:
                if at_boundary and not chunks:
                    raise TransportClosed("peer closed the connection")
                raise TransportError(
                    "connection closed mid-message "
                    f"({len(chunks)} of {count} bytes received)"
                )
            chunks.extend(chunk)
        return bytes(chunks)

    def close(self) -> None:
        """Close the underlying socket.  Idempotent."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close races are benign
                pass
