"""The cluster connector: one message API, two transports.

Every coordinator/worker conversation (see :mod:`repro.cluster`) speaks
JSON messages over a :class:`Connection`.  Two backends implement the
same five-call surface — :func:`listen`, :func:`connect`,
``Connection.send/recv/close`` — selected by the address scheme:

``inproc://<name>``
    Queue-based, in-process.  Deterministic and dependency-free: the
    "wire" is a pair of thread-safe queues, so cluster tests (and the
    chaos harness) run entirely inside one interpreter with real
    concurrency but no sockets.  A name registers globally; connecting
    to an unregistered name raises :class:`ClusterUnavailable` (the
    worker's reconnect loop retries until the coordinator is back).

``tcp://<host>:<port>``
    Real sockets via asyncio streams on a shared background event-loop
    thread.  Frames are length-prefixed (4-byte big-endian) UTF-8 JSON.
    Port ``0`` binds ephemerally; ``Listener.address`` reports the
    bound port so tests can spawn workers against it.  :func:`adopt`
    speaks the same framing over an already connected socket, such as
    one end of a :func:`socket.socketpair` shared with a forked worker
    process.

Both transports deliver messages in FIFO order per connection and fail
*loudly*: a peer that goes away surfaces as :class:`ConnectionClosed`
on the next ``send``/``recv`` (after any already-delivered messages
drain), never as a silent hang.  The coordinator's liveness logic (see
``docs/cluster.md``) is built on exactly that contract.

Each connection and listener has a ``wakeup`` slot: a
:class:`threading.Event` set whenever a message, a close or a new
connection arrives.  A loop that serves many connections points them all
at one event and blocks on it instead of polling them.
"""

from __future__ import annotations

import json
import queue
import struct
import threading
from typing import Any, Dict, Optional, Tuple

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

#: Inbox sentinel marking end-of-stream.
_EOF = object()


def _parse_address(address: str) -> Tuple[str, str]:
    """Split ``scheme://rest``; raises on an unknown scheme."""
    if "://" not in address:
        raise ClusterError(
            f"cluster address must look like inproc://name or "
            f"tcp://host:port, got {address!r}"
        )
    scheme, rest = address.split("://", 1)
    if scheme not in ("inproc", "tcp"):
        raise ClusterError(
            f"unknown cluster transport {scheme!r} (want inproc or tcp)"
        )
    if not rest:
        raise ClusterError(f"cluster address {address!r} names no endpoint")
    return scheme, rest


class Connection:
    """One bidirectional JSON-message channel (both transports).

    ``recv`` returns the next message, ``None`` on timeout, and raises
    :class:`ConnectionClosed` once the peer is gone *and* every
    already-received message has been drained — so no delivered message
    is ever lost to a racing close.
    """

    def __init__(self) -> None:
        self._inbox: "queue.Queue[Any]" = queue.Queue()
        self._closed = threading.Event()
        self._drained = False
        #: Set on every arrival (see the module docs).
        self.wakeup: Optional[threading.Event] = None

    def _deliver(self, item: Any) -> None:
        """Queue an inbound message (or end-of-stream) and wake the
        reader."""
        self._inbox.put(item)
        wakeup = self.wakeup
        if wakeup is not None:
            wakeup.set()

    @property
    def closed(self) -> bool:
        """Whether the channel can no longer carry new messages."""
        return self._closed.is_set()

    def send(self, message: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Return once every message sent so far has left this process
        (``send`` already delivers in-process)."""

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next message; ``None`` on timeout (``timeout=None`` blocks)."""
        if self._drained:
            raise ConnectionClosed("connection closed")
        try:
            if timeout is not None and timeout <= 0:
                item = self._inbox.get_nowait()
            else:
                item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            if self._closed.is_set():
                # Peer gone and nothing buffered: report it now rather
                # than on some later call.
                self._drained = True
                raise ConnectionClosed("connection closed") from None
            return None
        if item is _EOF:
            self._drained = True
            raise ConnectionClosed("connection closed")
        return item

    def poll(self) -> bool:
        """Whether a ``recv`` would return immediately."""
        return not self._inbox.empty()

    def close(self) -> None:
        raise NotImplementedError


# -- inproc backend ------------------------------------------------------

_INPROC_LOCK = threading.Lock()
_INPROC_LISTENERS: Dict[str, "InprocListener"] = {}


class InprocConnection(Connection):
    """One side of an in-process connection pair."""

    def __init__(self) -> None:
        super().__init__()
        self.peer: Optional["InprocConnection"] = None

    def send(self, message: Dict[str, Any]) -> None:
        peer = self.peer
        if self._closed.is_set() or peer is None or peer._closed.is_set():
            raise ConnectionClosed("connection closed")
        # Round-trip through JSON so both transports carry exactly the
        # same value space (no smuggled objects, tuples become lists).
        peer._deliver(json.loads(json.dumps(message)))

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._deliver(_EOF)
        peer = self.peer
        if peer is not None and not peer._closed.is_set():
            peer._closed.set()
            peer._deliver(_EOF)


def _inproc_pair() -> Tuple[InprocConnection, InprocConnection]:
    a, b = InprocConnection(), InprocConnection()
    a.peer, b.peer = b, a
    return a, b


class _Listener:
    """Accept queue shared by both transports."""

    def __init__(self) -> None:
        self._accept_q: "queue.Queue[Connection]" = queue.Queue()
        self._closed = False
        #: Set on every inbound connection (see the module docs).
        self.wakeup: Optional[threading.Event] = None

    def _offer(self, conn: Connection) -> None:
        self._accept_q.put(conn)
        wakeup = self.wakeup
        if wakeup is not None:
            wakeup.set()

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        """Next inbound connection; ``None`` on timeout."""
        if self._closed:
            raise ConnectionClosed(f"listener {self.address} closed")
        try:
            if timeout is not None and timeout <= 0:
                return self._accept_q.get_nowait()
            return self._accept_q.get(timeout=timeout)
        except queue.Empty:
            return None


class InprocListener(_Listener):
    """Accept side of the queue transport, registered by name."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.address = f"inproc://{name}"

    def close(self) -> None:
        with _INPROC_LOCK:
            if _INPROC_LISTENERS.get(self.name) is self:
                del _INPROC_LISTENERS[self.name]
        self._closed = True


def _inproc_listen(name: str) -> InprocListener:
    with _INPROC_LOCK:
        if name in _INPROC_LISTENERS:
            raise AddressInUse(f"inproc://{name} already has a listener")
        listener = InprocListener(name)
        _INPROC_LISTENERS[name] = listener
        return listener


def _inproc_connect(name: str) -> Connection:
    with _INPROC_LOCK:
        listener = _INPROC_LISTENERS.get(name)
    if listener is None or listener._closed:
        raise ClusterUnavailable(f"no listener at inproc://{name}")
    ours, theirs = _inproc_pair()
    listener._offer(theirs)
    return ours


# -- tcp backend ---------------------------------------------------------

_LOOP_LOCK = threading.Lock()
_LOOP_THREAD: Optional["_AsyncLoop"] = None


class _AsyncLoop:
    """The shared asyncio event loop running on a daemon thread.

    One loop serves every TCP listener and connection in the process;
    all socket I/O happens on it, and the synchronous API talks to it
    with ``call_soon_threadsafe`` / ``run_coroutine_threadsafe``.
    """

    def __init__(self) -> None:
        import asyncio

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="repro-cluster-io", daemon=True
        )
        self.thread.start()

    @classmethod
    def get(cls) -> "_AsyncLoop":
        global _LOOP_THREAD
        with _LOOP_LOCK:
            if _LOOP_THREAD is None:
                _LOOP_THREAD = cls()
            return _LOOP_THREAD

    def run(self, coro, timeout: Optional[float] = 10.0):
        import asyncio

        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout=timeout)


class TcpConnection(Connection):
    """A length-prefixed JSON frame stream over one asyncio socket."""

    def __init__(self, io: _AsyncLoop, reader, writer) -> None:
        super().__init__()
        self._io = io
        self._reader = reader
        self._writer = writer
        self._io.loop.call_soon_threadsafe(self._start_reader)

    def _start_reader(self) -> None:
        self._io.loop.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(4)
                (length,) = struct.unpack(">I", header)
                if length > MAX_FRAME_BYTES:
                    break  # corrupt stream; drop the connection
                payload = await self._reader.readexactly(length)
                self._deliver(json.loads(payload.decode("utf-8")))
        except Exception:
            pass  # EOF, reset, or garbage: all become ConnectionClosed
        self._closed.set()
        self._deliver(_EOF)
        try:
            self._writer.close()
        except Exception:
            pass

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed.is_set():
            raise ConnectionClosed("connection closed")
        data = json.dumps(message, separators=(",", ":")).encode("utf-8")
        frame = struct.pack(">I", len(data)) + data

        def _write() -> None:
            try:
                self._writer.write(frame)
            except Exception:
                pass  # the read loop notices the dead socket

        self._io.loop.call_soon_threadsafe(_write)

    def flush(self) -> None:
        # The IO thread runs callbacks in order, so once this one has
        # run, every earlier send has been written to the socket.
        done = threading.Event()
        self._io.loop.call_soon_threadsafe(done.set)
        done.wait(10.0)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._deliver(_EOF)

        def _shutdown() -> None:
            try:
                self._writer.close()
            except Exception:
                pass

        self._io.loop.call_soon_threadsafe(_shutdown)


class TcpListener(_Listener):
    """Accept side of the TCP transport."""

    def __init__(self, host: str, port: int) -> None:
        import asyncio

        super().__init__()
        self._io = _AsyncLoop.get()

        def _on_client(reader, writer) -> None:
            self._offer(TcpConnection(self._io, reader, writer))

        try:
            self._server = self._io.run(
                asyncio.start_server(_on_client, host, port)
            )
        except OSError as exc:
            raise AddressInUse(
                f"cannot bind tcp://{host}:{port}: {exc}"
            ) from exc
        bound = self._server.sockets[0].getsockname()
        self.address = f"tcp://{bound[0]}:{bound[1]}"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._io.loop.call_soon_threadsafe(self._server.close)


def _parse_host_port(rest: str) -> Tuple[str, int]:
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host:
        raise ClusterError(
            f"tcp address must be tcp://host:port, got tcp://{rest}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterError(f"invalid tcp port {port_text!r}") from None
    return host, port


def adopt(sock) -> TcpConnection:
    """A framed connection over the connected stream socket ``sock``
    (see the module docs); the connection owns the socket from here."""
    import asyncio

    io = _AsyncLoop.get()
    reader, writer = io.run(asyncio.open_connection(sock=sock))
    return TcpConnection(io, reader, writer)


def reset_after_fork() -> None:
    """In a forked child: forget the parent's IO thread, which does not
    exist here, so the first TCP connection starts one of its own."""
    global _LOOP_LOCK, _LOOP_THREAD
    _LOOP_LOCK = threading.Lock()
    _LOOP_THREAD = None


def _tcp_connect(rest: str, timeout: Optional[float]) -> Connection:
    import asyncio

    host, port = _parse_host_port(rest)
    io = _AsyncLoop.get()
    try:
        reader, writer = io.run(
            asyncio.open_connection(host, port), timeout=timeout or 10.0
        )
    except (OSError, TimeoutError) as exc:
        raise ClusterUnavailable(
            f"cannot reach tcp://{host}:{port}: {exc}"
        ) from exc
    return TcpConnection(io, reader, writer)


# -- public API ----------------------------------------------------------

def listen(address: str):
    """Bind a listener at ``address`` (``inproc://...`` or ``tcp://...``)."""
    scheme, rest = _parse_address(address)
    if scheme == "inproc":
        return _inproc_listen(rest)
    host, port = _parse_host_port(rest)
    return TcpListener(host, port)


def connect(address: str, timeout: Optional[float] = None) -> Connection:
    """Open a connection to the listener at ``address``.

    Raises :class:`ClusterUnavailable` when nothing is listening —
    callers that expect the peer to come back (the worker's reconnect
    loop) catch it and retry with backoff.
    """
    scheme, rest = _parse_address(address)
    if scheme == "inproc":
        return _inproc_connect(rest)
    return _tcp_connect(rest, timeout)


__all__ = [
    "AddressInUse",
    "ClusterError",
    "ClusterUnavailable",
    "Connection",
    "ConnectionClosed",
    "InprocListener",
    "MAX_FRAME_BYTES",
    "TcpConnection",
    "TcpListener",
    "adopt",
    "connect",
    "listen",
    "reset_after_fork",
]
