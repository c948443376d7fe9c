"""A concurrent smart server for the SPW protocol.

One :class:`SmartServer` serves many connections; each connection is a
framed byte stream (see :mod:`repro.serve.framing`) carrying pipelined
SPW requests. The per-connection machinery is deliberately boring:

* a **reader** loop pulls frames off the stream and submits each to the
  shared dispatch pool — *without* waiting for earlier replies, which is
  what makes pipelining work;
* a :class:`threading.BoundedSemaphore` caps the frames one connection
  may have in flight (``max_in_flight``) — a client that floods simply
  stops being read until replies drain, so backpressure propagates to
  its socket buffer and no connection can monopolize the pool;
* a **writer** thread pops completed dispatch futures in FIFO order and
  writes the replies back. Replies therefore always return in request
  order even though dispatches complete out of order — the client
  correlates by position, exactly like the in-process batch path.

Failure policy mirrors the framing contract: corruption *inside* a
frame already became an ``ErrorReply`` inside ``dispatch`` and costs one
request; a broken *stream* (truncated frame, bogus length prefix, dead
socket) tears the connection down, because no later byte can be
trusted. The one courtesy: an oversized length prefix is answered with
a final ``bad-message`` ErrorReply before the teardown, so a
misconfigured client learns why it was dropped.

Dispatch happens on a pool shared by all connections, so
``dispatcher.dispatch`` must be reentrant —
:class:`~repro.proto.engine.PuzzleProtocolEngine` documents and honours
that contract.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.obs.runtime import maybe_span, use
from repro.proto.envelope import peek_type
from repro.proto.messages import ErrorReply, encode_message
from repro.serve.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_HEADER_BYTES,
    FrameTooLargeError,
    FramingError,
)
from repro.serve.transport import Connection, SocketConnection

__all__ = ["ConnectionStats", "ServerMetrics", "SmartServer", "TcpSmartServer"]

# Closed connections whose stats stay readable (the shutdown summary
# lists them); older ones survive only in the server-wide totals.
CLOSED_CONNECTIONS_KEPT = 32


@dataclass
class ConnectionStats:
    """Counters for one connection, updated under the metrics lock."""

    peer: str = "?"
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    error_replies: int = 0
    in_flight: int = 0
    max_in_flight_seen: int = 0
    aborted: bool = False
    open: bool = True

    def describe(self) -> str:
        state = "open" if self.open else ("aborted" if self.aborted else "closed")
        return (
            "%s: %s, frames in=%d out=%d, bytes in=%d out=%d, "
            "errors=%d, peak in-flight=%d"
            % (
                self.peer,
                state,
                self.frames_in,
                self.frames_out,
                self.bytes_in,
                self.bytes_out,
                self.error_replies,
                self.max_in_flight_seen,
            )
        )


@dataclass
class ServerMetrics:
    """Server-wide totals plus retained per-connection stats.

    ``connections`` holds every open connection and the
    :data:`CLOSED_CONNECTIONS_KEPT` most recently closed ones, in opening
    order; the totals count every connection ever served.

    All mutation goes through methods holding ``_lock``; reading a
    snapshot (:meth:`summary`, :meth:`as_dict`) takes the same lock, so
    observers never see torn counters.
    """

    connections_total: int = 0
    connections_open: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    error_replies: int = 0
    max_in_flight_seen: int = field(default=0, init=False)
    connections: list[ConnectionStats] = field(default_factory=list)
    _closed: deque[ConnectionStats] = field(
        default_factory=deque, init=False, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def connection_opened(self, peer: str) -> ConnectionStats:
        stats = ConnectionStats(peer=peer)
        with self._lock:
            self.connections_total += 1
            self.connections_open += 1
            self.connections.append(stats)
        return stats

    def connection_closed(self, stats: ConnectionStats, aborted: bool) -> None:
        with self._lock:
            stats.open = False
            stats.aborted = stats.aborted or aborted
            self.connections_open -= 1
            self._closed.append(stats)
            if len(self._closed) > CLOSED_CONNECTIONS_KEPT:
                oldest = self._closed.popleft()
                self.connections = [c for c in self.connections if c is not oldest]

    def frame_received(self, stats: ConnectionStats, nbytes: int) -> int:
        """Record one inbound frame; returns the connection's new
        in-flight depth (for the high-water mark assertions in tests)."""
        with self._lock:
            stats.frames_in += 1
            stats.bytes_in += nbytes
            stats.in_flight += 1
            if stats.in_flight > stats.max_in_flight_seen:
                stats.max_in_flight_seen = stats.in_flight
                self.max_in_flight_seen = max(self.max_in_flight_seen, stats.in_flight)
            self.frames_in += 1
            self.bytes_in += nbytes
            return stats.in_flight

    def frame_sent(self, stats: ConnectionStats, nbytes: int, is_error: bool) -> None:
        with self._lock:
            stats.frames_out += 1
            stats.bytes_out += nbytes
            stats.in_flight -= 1
            self.frames_out += 1
            self.bytes_out += nbytes
            if is_error:
                stats.error_replies += 1
                self.error_replies += 1

    def dispatch_abandoned(self, stats: ConnectionStats) -> None:
        """A dispatched request whose reply could not be written (the
        connection died first) still leaves the in-flight window."""
        with self._lock:
            stats.in_flight -= 1

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "connections_total": self.connections_total,
                "connections_open": self.connections_open,
                "frames_in": self.frames_in,
                "frames_out": self.frames_out,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "error_replies": self.error_replies,
                "max_in_flight_seen": self.max_in_flight_seen,
            }

    def summary(self) -> str:
        with self._lock:
            lines = [
                "connections: total=%d open=%d"
                % (self.connections_total, self.connections_open),
                "frames: in=%d out=%d (bytes in=%d out=%d, error replies=%d)"
                % (
                    self.frames_in,
                    self.frames_out,
                    self.bytes_in,
                    self.bytes_out,
                    self.error_replies,
                ),
            ]
            lines.extend("  " + stats.describe() for stats in self.connections)
        return "\n".join(lines)


class SmartServer:
    """Serve pipelined SPW connections over a shared dispatch pool.

    ``dispatcher`` is anything with a reentrant
    ``dispatch(bytes) -> bytes`` — normally a
    :class:`~repro.proto.engine.PuzzleProtocolEngine`. ``obs`` (optional)
    is an :class:`~repro.obs.Observability` hub activated around every
    dispatched request, giving server-side spans and counters without
    the dispatcher knowing it is being served.
    """

    def __init__(
        self,
        dispatcher,
        max_in_flight: int = 8,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        workers: int | None = None,
        obs=None,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.dispatcher = dispatcher
        self.max_in_flight = max_in_flight
        self.max_frame_bytes = max_frame_bytes
        self.obs = obs
        self.metrics = ServerMetrics()
        self._pool = ThreadPoolExecutor(
            max_workers=workers if workers is not None else max(4, max_in_flight),
            thread_name_prefix="spw-dispatch",
        )
        self._conns: set[Connection] = set()
        self._conn_threads: set[threading.Thread] = set()
        self._lock = threading.Lock()
        self._closed = False

    # -- connection lifecycle ----------------------------------------------------

    def spawn_connection(self, conn: Connection) -> threading.Thread:
        """Serve ``conn`` on a fresh daemon thread (in-memory transports
        and TCP accept loops both land here)."""

        def serve() -> None:
            try:
                self.serve_connection(conn)
            finally:
                with self._lock:
                    self._conn_threads.discard(thread)

        thread = threading.Thread(
            target=serve, name="spw-conn-%s" % conn.peer, daemon=True
        )
        with self._lock:
            if self._closed:
                conn.close()
                raise RuntimeError("server is closed")
            self._conn_threads.add(thread)
        thread.start()
        return thread

    def serve_connection(self, conn: Connection) -> None:
        """Run one connection to completion: reader loop here, writer on
        a companion thread, dispatches on the shared pool."""
        stats = self.metrics.connection_opened(conn.peer)
        with self._lock:
            if self._closed:
                conn.close()
                self.metrics.connection_closed(stats, aborted=True)
                return
            self._conns.add(conn)

        window = threading.BoundedSemaphore(self.max_in_flight)
        replies: "queue.Queue[Future | None]" = queue.Queue()
        conn_dead = threading.Event()
        aborted = False

        writer = threading.Thread(
            target=self._write_replies,
            args=(conn, stats, replies, window, conn_dead),
            name="spw-writer-%s" % conn.peer,
            daemon=True,
        )
        writer.start()

        try:
            while not conn_dead.is_set():
                try:
                    payload = conn.recv()
                except FrameTooLargeError as exc:
                    # The one framing error worth a courtesy reply: tell
                    # the client why, then stop reading (the stream
                    # cannot be resynchronized past an unread body).
                    window.acquire()
                    self.metrics.frame_received(stats, 0)
                    done: Future = Future()
                    done.set_result(
                        encode_message(
                            ErrorReply(
                                code="bad-message", message=str(exc), transient=True
                            )
                        )
                    )
                    replies.put(done)
                    aborted = True
                    break
                except (FramingError, OSError):
                    aborted = True
                    break
                if payload is None:  # clean EOF at a frame boundary
                    break
                window.acquire()  # backpressure: block the reader, not the pool
                depth = self.metrics.frame_received(stats, len(payload))
                assert depth <= self.max_in_flight
                replies.put(self._pool.submit(self._dispatch_one, payload))
        finally:
            replies.put(None)  # writer drains in-order then exits
            writer.join()
            self._teardown(conn, stats, aborted or conn_dead.is_set())

    def _write_replies(
        self,
        conn: Connection,
        stats: ConnectionStats,
        replies: "queue.Queue[Future | None]",
        window: threading.BoundedSemaphore,
        conn_dead: threading.Event,
    ) -> None:
        """Pop futures FIFO, write each reply, release its window slot.

        A write failure marks the connection dead and closes it (which
        unblocks the reader), but draining continues so every in-flight
        dispatch is awaited and every window slot released — otherwise a
        blocked reader could never observe the death.
        """
        while True:
            item = replies.get()
            if item is None:
                return
            payload = item.result()  # dispatch never raises; see _dispatch_one
            if conn_dead.is_set():
                self.metrics.dispatch_abandoned(stats)
            else:
                try:
                    conn.send(payload)  # raises on an oversized reply
                    self.metrics.frame_sent(
                        stats,
                        FRAME_HEADER_BYTES + len(payload),
                        is_error=peek_type(payload) == ErrorReply.TYPE,
                    )
                except (FramingError, OSError):
                    conn_dead.set()
                    conn.close()
                    self.metrics.dispatch_abandoned(stats)
            window.release()

    def _dispatch_one(self, payload: bytes) -> bytes:
        """One request through the engine; never raises (a dispatcher
        bug still answers with a typed ErrorReply frame)."""
        try:
            if self.obs is not None:
                with use(self.obs), maybe_span("serve.request"):
                    return self.dispatcher.dispatch(payload)
            return self.dispatcher.dispatch(payload)
        except Exception as exc:
            return encode_message(ErrorReply.from_exception(exc))

    def _teardown(self, conn: Connection, stats: ConnectionStats, aborted: bool) -> None:
        conn.close()
        with self._lock:
            self._conns.discard(conn)
        self.metrics.connection_closed(stats, aborted=aborted)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop serving: close every live connection (their reader loops
        observe the dead socket and unwind), then retire the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
            threads = list(self._conn_threads)
        for conn in conns:
            conn.close()
        for thread in threads:
            thread.join(timeout=10.0)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SmartServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TcpSmartServer(SmartServer):
    """A :class:`SmartServer` behind a real TCP listener.

    ``port=0`` asks the kernel for an ephemeral port; read the bound
    address back from :attr:`address` (the CLI prints it so a second
    terminal can connect).
    """

    def __init__(
        self,
        dispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 8,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        workers: int | None = None,
        obs=None,
    ):
        super().__init__(
            dispatcher,
            max_in_flight=max_in_flight,
            max_frame_bytes=max_frame_bytes,
            workers=workers,
            obs=obs,
        )
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None

    def start(self) -> "TcpSmartServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="spw-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # listener closed: the stop signal
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                self.spawn_connection(
                    SocketConnection(sock, self.max_frame_bytes)
                )
            except RuntimeError:  # raced with close()
                return

    def stop(self) -> None:
        # On Linux close() alone does not wake a thread blocked in
        # accept(); shutting the listener down does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # already shut down, or not connected (other OSes)
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        self.close()

    def __enter__(self) -> "TcpSmartServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
