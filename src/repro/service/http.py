"""The HTTP/1.1 JSON gateway of the query service (``repro serve --http``).

A second thin transport over the same :class:`~repro.service.core.RequestHandler`
the TCP server uses — stdlib only (:mod:`http.server`), so browsers, load
balancers, ``curl`` and standard tooling can reach a repro service without
speaking the custom TCP wire format.  The gateway owns nothing but HTTP:
routes, status codes, headers, chunked encoding.  Dispatch, auth, size and
rate limits, tracing and tallies are the shared core's, so the two transports
cannot drift.

Endpoints::

    GET  /healthz          liveness (always open; no auth)
    GET  /metrics          Prometheus exposition of the engine registry
    POST /v1/query         a protocol request envelope, verbatim: {"op": ...}
    POST /v1/<op>          sugar: the op named by the path, params in the body
    GET  /v1/subscribe     chunked stream of a live series' step events
                           (?path=...&from_step=N)

A body is one message of the wire codec (:mod:`repro.service.wire`), the
same bytes TCP carries: a JSON line — ``Content-Type: application/json`` —
and, when the result holds arrays, their raw bytes after it
(``application/vnd.repro.frames``; ``Content-Length`` covers both), so an HTTP
read is element-wise identical to a TCP or direct one.  A request body is
JSON alone.  Error envelopes keep their structured ``kind`` and additionally
map onto status codes: ``unauthorized`` → 401, ``oversized_request`` → 413,
``rate_limited`` → 429, ``unknown_op`` / ``not_found`` → 404, ``corrupt_data``
→ 422, ``internal`` → 500, anything else failed (``bad_request``,
``unsupported_version``) → 400.

Auth is a standard ``Authorization: Bearer <token>`` header, checked by the
core with a constant-time compare.  ``/healthz`` stays open (a load balancer
probe must not need the secret); ``/metrics`` requires the token when one is
set.  Oversized requests are refused from ``Content-Length`` *before* the
body is read.

:class:`HttpClient` mirrors :class:`~repro.service.client.ReproClient`
method-for-method (both get the surface from
:class:`~repro.service.client.ServiceOps`), including ``subscribe`` over the
chunked stream.
"""

from __future__ import annotations

import http.client
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional
from urllib.parse import parse_qs, quote, urlsplit

from repro.obs import new_trace_id
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.client import (
    ServiceOps,
    read_response,
    subscription_events,
)
from repro.service.core import (
    ERROR_BAD_REQUEST,
    ERROR_CORRUPT_DATA,
    ERROR_INTERNAL,
    ERROR_NOT_FOUND,
    ERROR_OVERSIZED_REQUEST,
    ERROR_RATE_LIMITED,
    ERROR_UNAUTHORIZED,
    ERROR_UNKNOWN_OP,
    PROTOCOL_VERSION,
    RequestContext,
    RequestHandler,
    error_envelope,
)
from repro.service.lifecycle import ConnectionTracking, ThreadedServer
from repro.service.wire import encode_frames, encode_line, read_message

__all__ = ["HttpServer", "HttpClient", "DEFAULT_HTTP_PORT"]

DEFAULT_HTTP_PORT = 9754

#: structured error kind -> HTTP status (else failed=400, ok=200)
_STATUS_BY_KIND = {
    ERROR_UNAUTHORIZED: 401,
    ERROR_OVERSIZED_REQUEST: 413,
    ERROR_RATE_LIMITED: 429,
    ERROR_UNKNOWN_OP: 404,
    ERROR_NOT_FOUND: 404,
    ERROR_CORRUPT_DATA: 422,
    ERROR_INTERNAL: 500,
}

_JSON = "application/json; charset=utf-8"
#: a body whose JSON line is followed by array payloads
_FRAMES = "application/vnd.repro.frames"


def _status_for(response: dict) -> int:
    if response.get("ok"):
        return 200
    return _STATUS_BY_KIND.get(response.get("kind"), 400)


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange: route, build a protocol request, answer with JSON.

    ``self.server.owner`` is the :class:`HttpServer`, whose ``handler`` is
    the shared core.  Instances are per-connection (ThreadingHTTPServer), so
    no state lives here.
    """

    protocol_version = "HTTP/1.1"
    #: a response is a few small writes (headers, JSON line, array bytes) on
    #: a keep-alive connection; with Nagle on, the second waits ~40 ms for
    #: the client's delayed ACK of the first
    disable_nagle_algorithm = True
    server: "_GatewayListener"

    @property
    def core(self) -> RequestHandler:
        return self.server.owner.handler

    # the default implementation writes an access line per request to
    # stderr; the structured request log is the core's job
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def _context(self, nbytes: Optional[int]) -> RequestContext:
        auth = None
        header = self.headers.get("Authorization")
        if isinstance(header, str) and header.startswith("Bearer "):
            auth = header[len("Bearer "):]
        return RequestContext(transport="http",
                              client=self.client_address[0],
                              auth=auth, nbytes=nbytes)

    def _send_message(self, status: int, payload: dict,
                      close: bool = False) -> None:
        frames = encode_frames(payload)
        self.send_response(status)
        self.send_header("Content-Type", _JSON if len(frames) == 1 else _FRAMES)
        self.send_header("Content-Length", str(sum(map(len, frames))))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        for frame in frames:
            self.wfile.write(frame)

    def _send_envelope(self, response: dict, close: bool = False) -> None:
        self._send_message(_status_for(response), response, close=close)

    def _refuse(self, message: str, kind: str = ERROR_BAD_REQUEST,
                request_id=None, status: Optional[int] = None) -> None:
        """A refusal worded here (``status`` when HTTP has an exacter one)."""
        envelope = error_envelope(request_id, message, kind)
        self._send_message(status or _status_for(envelope), envelope)

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        if not path.startswith("/v1/"):
            return self._refuse(f"no such endpoint: POST {path}",
                                ERROR_UNKNOWN_OP)
        length = self.headers.get("Content-Length")
        if length is None:
            return self._refuse("Content-Length required", status=411)
        try:
            declared = int(length)
        except ValueError:
            return self._refuse(f"bad Content-Length: {length!r}")
        if declared > self.core.max_request_bytes:
            # refused from the declared length, before reading: the limit
            # exists so a huge body costs the server nothing.  The core's
            # size check comes first, so this is its refusal (tallied);
            # close rather than resync past the unread body
            return self._send_envelope(
                self.core.handle({}, self._context(declared)), close=True)
        try:
            body = read_message(self.rfile.read(declared))
        except ValueError as exc:
            return self._refuse(f"bad request body: {exc}")
        if not isinstance(body, dict):
            return self._refuse("request body must be a JSON object")
        op = path[len("/v1/"):]
        if op != "query" and body.setdefault("op", op) != op:
            return self._refuse(
                f"body op {body['op']!r} contradicts endpoint {path!r}",
                request_id=body.get("id"))
        self._send_envelope(self.core.handle(body, self._context(declared)))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        path = split.path
        if path == "/healthz":
            # liveness must not need the secret: a load balancer health
            # probe is configured long before tokens are distributed
            self._send_message(200, {"ok": True, "status": "serving",
                                     "protocol_version": PROTOCOL_VERSION})
            return
        if path == "/metrics":
            context = self._context(None)
            refusal = self.core.refuse({}, context)
            if refusal is not None:
                self.core.tally("metrics", None, refusal, 0.0,
                                transport="http")
                self._send_envelope(refusal)
                return
            body = render_prometheus(
                self.core.registry.snapshot()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/v1/subscribe":
            self._do_subscribe(parse_qs(split.query))
            return
        self._refuse(f"no such endpoint: GET {path}", ERROR_UNKNOWN_OP)

    def _do_subscribe(self, query: dict) -> None:
        """The chunked streaming endpoint: one JSON line per event.

        The first line is the acknowledgement envelope the TCP subscribe
        verb sends; then ``step``/``finalized``/``error`` events follow as
        they commit, each a chunk, so a plain ``curl -N`` shows the stream
        live.  Envelope and events are the core's
        (:meth:`RequestHandler.subscribe`); a refusal is an ordinary JSON
        response with its status code.
        """
        owner = self.server.owner
        request = {"op": "subscribe",
                   "path": query.get("path", [None])[0],
                   "from_step": query.get("from_step", [None])[0],
                   "trace": query.get("trace", [None])[0]}
        response, events = self.core.subscribe(
            request, self._context(None), owner.stopping.wait,
            owner.watch_interval)
        if events is None:
            self._send_envelope(response)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()

        def write_chunk(line: bytes) -> None:
            self.wfile.write(f"{len(line):x}\r\n".encode("ascii"))
            self.wfile.write(line)
            self.wfile.write(b"\r\n")
            self.wfile.flush()

        # a client that hangs up surfaces as an OSError on the next write,
        # which the listener treats as the end of the connection
        write_chunk(encode_line(response))
        for event in events:
            write_chunk(encode_line(event))
        self.wfile.write(b"0\r\n\r\n")


class _GatewayListener(ConnectionTracking, ThreadingHTTPServer):
    pass


class HttpServer(ThreadedServer):
    """The gateway: :class:`~repro.service.lifecycle.ThreadedServer`'s
    constructor and lifecycle (those of
    :class:`~repro.service.server.ReproServer`) over a ThreadingHTTPServer."""

    listener_class = _GatewayListener
    connection_class = _GatewayRequestHandler
    default_port = DEFAULT_HTTP_PORT


class HttpClient(ServiceOps):
    """A blocking client for one :class:`HttpServer`, mirroring
    :class:`~repro.service.client.ReproClient` method-for-method.

    One keep-alive connection, one ``POST /v1/query`` per call; a response
    body is read as the TCP client reads its socket — header line, then each
    array's bytes straight into the array returned — so an HTTP read is
    element-wise identical to a TCP or direct one.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_HTTP_PORT,
                 timeout: float = 120.0, trace: bool = True,
                 auth_token: Optional[str] = None):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn = http.client.HTTPConnection(host, self.port,
                                                timeout=timeout)
        self._closed = False
        self._init_requests(trace, auth_token)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HttpClient({self._peer})"

    # ------------------------------------------------------------------
    def _headers(self) -> dict:
        headers = {"Content-Type": _JSON}
        if self.auth_token is not None:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        return headers

    def call(self, op: str, **params):
        if self._closed:
            raise ValueError("client is closed")
        try:
            self._conn.request("POST", "/v1/query",
                               body=encode_line(self._request(op, **params)),
                               headers=self._headers())
            resp = self._conn.getresponse()
            response = read_response(resp, self._peer)
            if resp.read(1):
                raise ConnectionError("bytes after the response message")
        except OSError:     # ConnectionError included: the framing is lost
            self.close()
            raise
        return self._result(response)

    # ------------------------------------------------------------------
    def metrics(self) -> str:
        """The raw Prometheus exposition from ``GET /metrics``."""
        if self._closed:
            raise ValueError("client is closed")
        self._conn.request("GET", "/metrics", headers=self._headers())
        resp = self._conn.getresponse()
        if resp.status != 200:      # a refusal is an envelope, which raises
            self._result(read_response(resp, self._peer))
        return resp.read().decode("utf-8")

    def healthz(self) -> dict:
        if self._closed:
            raise ValueError("client is closed")
        self._conn.request("GET", "/healthz")
        return read_response(self._conn.getresponse(), self._peer)

    def subscribe(self, path: str, from_step: int = 0) -> Iterator[dict]:
        """Stream a live series' step events over chunked HTTP.

        Same yields as :meth:`ReproClient.subscribe <repro.service.client.ReproClient.subscribe>`:
        the ``subscribed`` acknowledgement, one ``step`` event per committed
        step (exactly once, in order), then ``finalized``.  Uses its own
        connection — the stream consumes it — so ``call`` stays usable on
        this client while a subscription runs.
        """
        if self._closed:
            raise ValueError("client is closed")
        trace = None
        if self._trace:
            trace = self.last_trace = new_trace_id()
        target = (f"/v1/subscribe?path={quote(str(path), safe='')}"
                  f"&from_step={int(from_step)}")
        if trace is not None:
            target += f"&trace={trace}"
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", target, headers=self._headers())
            resp = conn.getresponse()
            # one line either way: a refusal's whole body (which raises) or
            # the ack opening the stream (yielded in the TCP client's shape);
            # events then arrive as chunks — readline sees through the framing
            ack = self._result(read_response(resp, self._peer))
            yield from subscription_events(ack, resp, self._peer)
        finally:
            conn.close()
