"""The smart server: pipelining, backpressure, ordering, teardown."""

from __future__ import annotations

import socket
import struct
import threading
import time

from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.proto.engine import PuzzleProtocolEngine
from repro.proto.envelope import seal
from repro.proto.messages import ErrorReply, decode_message
from repro.serve import (
    InMemoryPipeTransport,
    SmartServer,
    TcpSmartServer,
    TcpTransport,
)
from repro.serve.framing import FRAME_HEADER_BYTES
from repro.serve.server import CLOSED_CONNECTIONS_KEPT

DEADLINE_S = 20.0


def wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + DEADLINE_S
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for " + what)
        time.sleep(0.01)


class EchoDispatcher:
    """Echoes each request payload back, tracking dispatch concurrency.

    ``hold`` (optional) makes every dispatch block until the event is
    set, so tests can pile up in-flight requests deterministically;
    ``rendezvous`` makes dispatches block until ``rendezvous.parties``
    of them are inside at once — direct proof of pipelining.
    """

    def __init__(self, hold: threading.Event | None = None,
                 rendezvous: threading.Barrier | None = None):
        self.hold = hold
        self.rendezvous = rendezvous
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def dispatch(self, payload: bytes) -> bytes:
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            if self.rendezvous is not None:
                self.rendezvous.wait(timeout=DEADLINE_S)
            if self.hold is not None:
                assert self.hold.wait(timeout=DEADLINE_S)
            return payload
        finally:
            with self._lock:
                self.active -= 1


def frame(marker: bytes) -> bytes:
    return seal(0x01, marker)


def test_two_requests_run_concurrently_on_one_connection():
    """The pipelining acceptance bar: >=2 batches in flight at once.

    Both dispatches block inside a two-party barrier, so neither can
    finish until the *other* has been dispatched — a serial server would
    deadlock here (and trip the barrier timeout), a pipelining one
    sails through.
    """
    dispatcher = EchoDispatcher(rendezvous=threading.Barrier(2))
    with SmartServer(dispatcher, max_in_flight=4) as server:
        conn = InMemoryPipeTransport(server).connect()
        try:
            conn.send(frame(b"first in flight"))
            conn.send(frame(b"second in flight"))
            assert conn.recv() == frame(b"first in flight")
            assert conn.recv() == frame(b"second in flight")
        finally:
            conn.close()
    assert dispatcher.peak >= 2
    assert server.metrics.as_dict()["max_in_flight_seen"] >= 2


def test_backpressure_caps_in_flight_while_all_complete():
    release = threading.Event()
    dispatcher = EchoDispatcher(hold=release)
    with SmartServer(dispatcher, max_in_flight=2, workers=8) as server:
        conn = InMemoryPipeTransport(server).connect()
        try:
            frames = [frame(b"request number %d" % i) for i in range(5)]
            for payload in frames:
                conn.send(payload)
            # The window fills at 2; the reader must stop accepting more.
            wait_until(lambda: dispatcher.active == 2, "window to fill")
            assert dispatcher.peak == 2
            release.set()
            replies = [conn.recv() for _ in frames]
            assert replies == frames  # all five, strictly in order
        finally:
            conn.close()
    assert dispatcher.peak == 2
    stats = server.metrics.connections[0]
    assert stats.max_in_flight_seen <= 2
    assert stats.frames_out == 5


def test_replies_keep_request_order_when_dispatch_finishes_out_of_order():
    first_may_finish = threading.Event()

    class SlowFirstDispatcher:
        def dispatch(self, payload: bytes) -> bytes:
            if b"slow" in payload:
                assert first_may_finish.wait(timeout=DEADLINE_S)
            else:
                first_may_finish.set()  # the fast one finished first
            return payload

    with SmartServer(SlowFirstDispatcher(), max_in_flight=4) as server:
        conn = InMemoryPipeTransport(server).connect()
        try:
            conn.send(frame(b"slow request"))
            conn.send(frame(b"fast request"))
            # The fast dispatch completes first, but the slow one was
            # requested first — FIFO says it must also *reply* first.
            assert conn.recv() == frame(b"slow request")
            assert conn.recv() == frame(b"fast request")
        finally:
            conn.close()


def test_dispatcher_exception_becomes_error_reply_frame():
    class ExplodingDispatcher:
        def dispatch(self, payload: bytes) -> bytes:
            raise RuntimeError("engine bug")

    with SmartServer(ExplodingDispatcher()) as server:
        conn = InMemoryPipeTransport(server).connect()
        try:
            conn.send(frame(b"doomed"))
            reply = decode_message(conn.recv())
        finally:
            conn.close()
    assert isinstance(reply, ErrorReply)
    assert "engine bug" in reply.message


def test_mid_frame_disconnect_tears_the_connection_down():
    engine = PuzzleProtocolEngine(ServiceProvider(), StorageHost())
    with TcpSmartServer(engine) as server:
        host, port = server.address
        sock = socket.create_connection((host, port))
        # A header promising 100 bytes, then only a sliver, then gone.
        sock.sendall(struct.pack(">I", 100) + b"partial")
        sock.close()
        wait_until(
            lambda: server.metrics.connections_open == 0
            and server.metrics.connections_total == 1,
            "the aborted connection to close",
        )
    stats = server.metrics.connections[0]
    assert stats.aborted
    assert stats.frames_out == 0


def test_oversized_frame_gets_error_reply_then_disconnect():
    engine = PuzzleProtocolEngine(ServiceProvider(), StorageHost())
    with TcpSmartServer(engine, max_frame_bytes=1024) as server:
        host, port = server.address
        # The client's own cap must be bigger, or it would refuse to send.
        conn = TcpTransport(host, port, max_frame_bytes=1 << 20).connect()
        try:
            conn.send(seal(0x01, b"x" * 2048))
            reply = decode_message(conn.recv())
            assert isinstance(reply, ErrorReply)
            assert reply.code == "bad-message"
            assert conn.recv() is None  # then the server hung up
        finally:
            conn.close()
    stats = server.metrics.connections[0]
    assert stats.aborted
    assert stats.error_replies == 1


def test_clean_eof_is_not_an_abort():
    with SmartServer(EchoDispatcher()) as server:
        conn = InMemoryPipeTransport(server).connect()
        conn.send(frame(b"one and done"))
        assert conn.recv() == frame(b"one and done")
        conn.close()
        wait_until(
            lambda: server.metrics.connections_open == 0,
            "the connection to close",
        )
    stats = server.metrics.connections[0]
    assert not stats.aborted
    assert stats.frames_in == stats.frames_out == 1


def test_stop_unblocks_idle_connections():
    engine = PuzzleProtocolEngine(ServiceProvider(), StorageHost())
    server = TcpSmartServer(engine).start()
    host, port = server.address
    conn = TcpTransport(host, port).connect()
    try:
        # The connection is idle — the server is blocked in recv on it.
        wait_until(
            lambda: server.metrics.connections_open == 1, "the connection"
        )
        server.stop()  # must not hang on the idle reader
        assert server.metrics.connections_open == 0
    finally:
        conn.close()


def test_stop_wakes_the_idle_listener_promptly():
    engine = PuzzleProtocolEngine(ServiceProvider(), StorageHost())
    server = TcpSmartServer(engine).start()
    accept_thread = server._accept_thread
    assert accept_thread.is_alive()
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.5
    assert not accept_thread.is_alive()
    assert not any(t.name == "spw-accept" and t.is_alive()
                   for t in threading.enumerate())


def test_connections_are_tracked_per_peer():
    with SmartServer(EchoDispatcher()) as server:
        transport = InMemoryPipeTransport(server)
        a, b = transport.connect(), transport.connect()
        try:
            a.send(frame(b"from the first"))
            b.send(frame(b"from the second"))
            b.send(frame(b"again the second"))
            assert a.recv() == frame(b"from the first")
            assert b.recv() == frame(b"from the second")
            assert b.recv() == frame(b"again the second")
        finally:
            a.close()
            b.close()
        wait_until(
            lambda: server.metrics.connections_open == 0, "both to close"
        )
    per_conn = sorted(s.frames_in for s in server.metrics.connections)
    assert per_conn == [1, 2]
    assert server.metrics.frames_in == 3
    assert "connections: total=2" in server.metrics.summary()


def test_finished_connections_leave_bounded_state():
    """Serving many short connections keeps no finished thread and only
    a bounded tail of closed-connection stats; the totals count all."""
    with SmartServer(EchoDispatcher()) as server:
        transport = InMemoryPipeTransport(server)
        for i in range(300):
            conn = transport.connect()
            try:
                conn.send(frame(b"ping %03d" % i))
                assert conn.recv() == frame(b"ping %03d" % i)
            finally:
                conn.close()
        wait_until(
            lambda: server.metrics.connections_open == 0 and not server._conn_threads,
            "every connection thread to finish",
        )
        assert len(server.metrics.connections) == CLOSED_CONNECTIONS_KEPT
        assert server.metrics.connections_total == 300
        # Reply bytes are counted as the frame the wire carried.
        assert server.metrics.bytes_out == 300 * (
            FRAME_HEADER_BYTES + len(frame(b"ping 000"))
        )
        summary = server.metrics.summary()
        assert "connections: total=300 open=0" in summary
        assert len(summary.splitlines()) == 2 + CLOSED_CONNECTIONS_KEPT


def test_oversized_reply_tears_the_connection_down():
    class BloatingDispatcher:
        def dispatch(self, payload: bytes) -> bytes:
            return seal(0x01, b"x" * 4096)

    with SmartServer(BloatingDispatcher(), max_frame_bytes=1024) as server:
        conn = InMemoryPipeTransport(server).connect()
        try:
            conn.send(frame(b"small request"))
            assert conn.recv() is None  # no reply, just the hang-up
        finally:
            conn.close()
        wait_until(
            lambda: server.metrics.connections_open == 0, "the connection to close"
        )
    stats = server.metrics.connections[0]
    assert stats.aborted
    assert stats.frames_out == stats.bytes_out == 0
    assert stats.in_flight == 0
