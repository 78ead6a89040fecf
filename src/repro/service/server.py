"""The JSON-over-TCP transport (``python -m repro serve``).

A *thin transport*: op dispatch, validation, auth, size/rate limits,
telemetry and the whole ``subscribe`` stream live in the transport-neutral
:class:`~repro.service.core.RequestHandler`, which the TCP server shares with
the HTTP gateway (:mod:`repro.service.http`).  What remains here is TCP's:
newline framing and the rule for a client line during a stream.

Like the gateway this is a :mod:`socketserver` threading server: an accept
loop, and one daemon thread per connection running a blocking read–answer
loop.  Each connection speaks the messages of :mod:`repro.service.wire`: a
request — always one JSON line, ``{"id": n, "op": ..., ...params}`` — is
answered by ``{"id": n, "ok": true, "result": ...}`` followed by the raw bytes
of the result's arrays (or ``"ok": false`` with an ``error`` string and its
``kind``; a failed request does not tear down the connection).
The engine call runs on the connection's own thread — at most ``max_workers``
of them at once — so a slow decode on one connection does not stall the
others, and many clients share one
:class:`~repro.service.engine.QueryEngine` (a chunk decoded for client A is a
cache hit for client B).  When the core enforces auth a request carries its
bearer token in the ``"auth"`` field; oversized and rate-limited requests get
the structured envelopes the HTTP gateway maps to 413/429.

**Subscribe.**  ``subscribe`` is the one *streaming* verb: after the
acknowledgement the connection carries one event line per committed step of
a live series, then ``finalized`` — all produced by
:meth:`RequestHandler.subscribe <repro.service.core.RequestHandler.subscribe>`.
The client may send a line at any time to end the stream: the server answers
``{"event": "end"}`` and then that line, as an ordinary request on the same
connection.

Constructor, ``run`` / ``start`` / ``stop`` and ``.port`` are
:class:`~repro.service.lifecycle.ThreadedServer`'s, shared with
:class:`~repro.service.http.HttpServer`.
"""

from __future__ import annotations

import selectors
import socket
import socketserver
import threading

from repro.service.core import (
    ERROR_BAD_REQUEST,
    PROTOCOL_VERSION,
    RequestContext,
    error_envelope,
    request_trace,
)
from repro.service.lifecycle import ConnectionTracking, ThreadedServer
from repro.service.wire import encode_frames, read_message

__all__ = ["ReproServer", "DEFAULT_PORT"]

DEFAULT_PORT = 9753


class _LineConnection(socketserver.BaseRequestHandler):
    """One TCP client: read a line, answer it, on the connection's thread."""

    def setup(self) -> None:
        # a response is one small write; do not let Nagle hold it back
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self._buf = bytearray()
        self._spoke = False

    def _read_line(self) -> bytes:
        """The next request line, terminator included; ``b""`` at EOF and on
        a reset.  Reading stops once the line is past the core's request
        limit: what has arrived comes back unterminated, to be refused by
        size — the rest of it is never buffered."""
        buf = self._buf
        limit = self.server.owner.handler.max_request_bytes
        end = buf.find(b"\n")    # a pipelined line may already be buffered
        while end < 0 and len(buf) <= limit:
            try:
                chunk = self.request.recv(1 << 16)
            except OSError:
                return b""
            if not chunk:
                break
            end = chunk.find(b"\n")
            if end >= 0:
                end += len(buf)
            buf += chunk
        if end < 0:
            # EOF (an unterminated tail is still answered, as readline()) or
            # a line cut off at the limit
            end = len(buf) - 1
        line = bytes(buf[:end + 1])
        del buf[:end + 1]
        return line

    def _send(self, message: dict) -> None:
        for frame in encode_frames(message):
            self.request.sendall(frame)

    def _client_spoke(self, timeout: float) -> bool:
        """The subscribe loop's ``wait``: True as soon as the socket is
        readable — the client sent a line (possibly already buffered behind
        the subscribe request) or hung up, or stop() shut the socket down."""
        self._spoke = bool(self._buf)
        if not self._spoke:
            with selectors.DefaultSelector() as selector:
                selector.register(self.request, selectors.EVENT_READ)
                self._spoke = bool(selector.select(timeout))
        return self._spoke

    def handle(self) -> None:
        owner = self.server.owner
        core = owner.handler
        peer = str(self.client_address[0])
        line = self._read_line()
        while line:
            context = RequestContext(transport="tcp", client=peer,
                                     nbytes=len(line))
            request = events = None
            if len(line) > core.max_request_bytes:
                # refused unparsed: the size limit exists so a huge line
                # costs the server nothing but this reply
                response = core.handle(None, context)
            else:
                try:
                    request = read_message(line)
                except ValueError as exc:
                    response = error_envelope(
                        None, f"bad request line: {exc}", ERROR_BAD_REQUEST)
                else:
                    with owner.slots:
                        if isinstance(request, dict) \
                                and request.get("op") == "subscribe":
                            response, events = core.subscribe(
                                request, context, self._client_spoke,
                                owner.watch_interval)
                        else:
                            response = core.handle(request, context)
            self._send(response)
            if len(line) > core.max_request_bytes and line[-1:] != b"\n":
                return      # cut off mid-line: the framing is lost, hang up
            self._spoke = False
            for event in events or ():
                self._send(event)
            line = self._read_line()
            if self._spoke and line:
                # a client line ended the stream: say so, then answer that
                # line as an ordinary request
                self._send({"v": PROTOCOL_VERSION, "event": "end"})
                core.tally_event("subscribe", "end", request_trace(request),
                                 "tcp")


class _LineListener(ConnectionTracking, socketserver.ThreadingTCPServer):
    pass


class ReproServer(ThreadedServer):
    """Serve one :class:`RequestHandler` to concurrent TCP clients.

    ``max_workers`` bounds the engine calls in flight across all connections;
    the remaining options are
    :class:`~repro.service.lifecycle.ThreadedServer`'s.
    """

    listener_class = _LineListener
    connection_class = _LineConnection
    default_port = DEFAULT_PORT

    def __init__(self, engine=None, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, max_workers: int = 8,
                 watch_interval: float = 0.25, **options):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__(engine, host, port, watch_interval, **options)
        self.slots = threading.BoundedSemaphore(max_workers)
