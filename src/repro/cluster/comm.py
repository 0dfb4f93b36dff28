"""The cluster connector: JSON messages over connected stream sockets.

Every coordinator/worker conversation (see :mod:`repro.cluster`) speaks
JSON messages over a :class:`Connection`, one per connected socket: a
TCP connection (:func:`listen` / :func:`connect` at ``tcp://host:port``)
or one end of a :func:`socket.socketpair` shared with a forked worker
process (``Connection(sock)``).  Frames are length-prefixed (4-byte
big-endian) UTF-8 JSON.  Port ``0`` binds ephemerally;
``Listener.address`` reports the bound port so tests can start workers
against it.

Messages arrive in FIFO order per connection, and a peer that goes away
surfaces as :class:`ConnectionClosed` on the next ``send`` or ``recv``
(after any already-received messages drain), never as a silent hang.
The coordinator's liveness logic (see ``docs/cluster.md``) is built on
exactly that contract.

No thread does I/O on anyone's behalf.  Only the thread that owns a
connection reads it: ``recv`` returns a buffered frame or reads what the
socket holds, and :func:`wait` blocks that thread until any of its
connections, listeners or other sockets has something to read.  Any
thread may ``send``: one blocking ``sendall`` of the whole frame under
the connection's send lock, so frames never interleave.

A blocking ``sendall`` cannot fill a socket buffer here, because no
sender runs far ahead of its reader.  The coordinator sends a worker at
most ``capacity * BACKLOG_FACTOR`` lease frames ahead of the worker's
reads, plus one revoke per lease and a welcome and a shutdown, a few
kilobytes in all.  A worker sends a coordinator the ``started`` and
``result`` frames of the leases it holds and a heartbeat per interval,
and the coordinator reads every connection on each pass of its loop.
"""

from __future__ import annotations

import json
import math
import select
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class ClusterError(ReproError):
    """Base class for cluster comm/coordination failures."""


class ClusterUnavailable(ClusterError):
    """No listener at the address (coordinator down or not yet up)."""


class ConnectionClosed(ClusterError):
    """The peer closed (or lost) the connection."""


class AddressInUse(ClusterError):
    """A listener is already bound to the address."""


#: Upper bound on one frame's JSON payload; a frame past it is treated
#: as stream corruption and closes the connection.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Bytes asked of the socket per read.
_CHUNK = 256 * 1024


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``tcp://host:port`` into ``(host, port)``; raises
    :class:`ClusterError` on anything else."""
    scheme, _, rest = address.partition("://")
    host, _, port_text = rest.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if scheme != "tcp" or not host or not 0 <= port <= 65535:
        raise ClusterError(
            f"cluster address must look like tcp://host:port, got {address!r}"
        )
    return host, port


def _poll(fds: Sequence[int], timeout: Optional[float]) -> List[int]:
    """The descriptors among ``fds`` that are readable (or hung up)
    within ``timeout`` seconds; ``None`` blocks."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    ms = None if timeout is None else max(0, math.ceil(timeout * 1000))
    return [fd for fd, _events in poller.poll(ms)]


class Connection:
    """One bidirectional JSON-message channel over a connected stream
    socket, which it owns from here on.

    ``recv`` returns the next message, ``None`` on timeout, and raises
    :class:`ConnectionClosed` once the stream has ended *and* every
    already-received message has been drained, so no delivered message
    is lost to a racing close.  The stream ends at end-of-file, at a
    frame past :data:`MAX_FRAME_BYTES` or one that is not a JSON
    object, and at :meth:`close`.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._frames: deque = deque()
        self._closed = False
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @property
    def closed(self) -> bool:
        """Whether the channel can no longer carry new messages."""
        return self._closed

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, message: Dict[str, Any]) -> None:
        data = json.dumps(message, separators=(",", ":")).encode("utf-8")
        frame = _HEADER.pack(len(data)) + data
        with self._send_lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise ConnectionClosed(f"connection closed ({exc})") from None

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next message; ``None`` on timeout (``timeout=None`` blocks)."""
        if not self._frames and not self._closed:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._frames and not self._closed:
                left = None if deadline is None else deadline - time.monotonic()
                if not _poll([self._sock.fileno()], left):
                    break
                self._read()
        if self._frames:
            return self._frames.popleft()
        if self._closed:
            raise ConnectionClosed("connection closed")
        return None

    def _read(self) -> None:
        """Take what the socket holds and split off every whole frame;
        end the stream at end-of-file or on a corrupt frame."""
        try:
            chunk = self._sock.recv(_CHUNK)
        except OSError:
            chunk = b""
        if not chunk:
            self.close()
            return
        buf = self._buf
        buf += chunk
        while len(buf) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buf)
            end = _HEADER.size + length
            if length > MAX_FRAME_BYTES:
                self.close()
                return
            if len(buf) < end:
                return
            try:
                message = json.loads(buf[_HEADER.size:end])
            except ValueError:
                message = None
            if not isinstance(message, dict):
                self.close()  # every protocol message is a JSON object
                return
            self._frames.append(message)
            del buf[:end]

    def close(self) -> None:
        """Close the socket.  No ``shutdown()``: in a forked child that
        would also end the parent's copy of the connection."""
        with self._send_lock:
            self._closed = True
            self._sock.close()


class Listener:
    """Accepts TCP connections at one bound address."""

    def __init__(self, host: str, port: int) -> None:
        try:
            self._sock = socket.create_server((host, port))
        except OSError as exc:
            raise AddressInUse(f"cannot bind tcp://{host}:{port}: {exc}") from exc
        # A peer that aborts between poll and accept must not leave
        # accept() blocked; accepted sockets still come back blocking.
        self._sock.setblocking(False)
        bound = self._sock.getsockname()
        self.address = f"tcp://{bound[0]}:{bound[1]}"
        self._closed = False

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        """Next inbound connection; ``None`` on timeout."""
        if self._closed:
            raise ConnectionClosed(f"listener {self.address} closed")
        if not _poll([self._sock.fileno()], timeout):
            return None
        try:
            sock, _peer = self._sock.accept()
        except OSError:
            return None
        return Connection(sock)

    def close(self) -> None:
        self._closed = True
        self._sock.close()


def wait(endpoints: Sequence[Any], timeout: Optional[float] = None) -> List[Any]:
    """Block until one of ``endpoints`` (connections, listeners or
    plain sockets) has something to read, or ``timeout`` seconds pass;
    returns the ready ones.

    A connection holding a whole buffered frame, or closed, is ready at
    once: its ``recv`` returns without touching the socket.
    """
    ready = [
        e for e in endpoints
        if isinstance(e, Connection) and (e._frames or e._closed)
    ]
    if ready:
        return ready
    by_fd = {e.fileno(): e for e in endpoints}
    by_fd.pop(-1, None)
    return [by_fd[fd] for fd in _poll(list(by_fd), timeout)]


def listen(address: str) -> Listener:
    """Bind a listener at ``address`` (``tcp://host:port``)."""
    return Listener(*parse_address(address))


def connect(address: str, timeout: Optional[float] = None) -> Connection:
    """Open a connection to the listener at ``address``.

    Raises :class:`ClusterUnavailable` when nothing is listening —
    callers that expect the peer to come back (the worker's reconnect
    loop) catch it and retry with backoff.
    """
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout or 10.0)
    except OSError as exc:
        raise ClusterUnavailable(f"cannot reach {address}: {exc}") from exc
    sock.settimeout(None)
    return Connection(sock)


__all__ = [
    "AddressInUse",
    "ClusterError",
    "ClusterUnavailable",
    "Connection",
    "ConnectionClosed",
    "Listener",
    "MAX_FRAME_BYTES",
    "connect",
    "listen",
    "parse_address",
    "wait",
]
