"""In-process fakes of the query service: the core without sockets.

Gateway and client tests mostly exercise *policy* — dispatch, auth, limits,
envelopes, telemetry — and none of that needs a TCP handshake or an HTTP
server thread.  :class:`FakeTransport` drives a real
:class:`~repro.service.core.RequestHandler` directly, and :class:`FakeClient`
puts the standard client surface (:class:`~repro.service.client.ServiceOps`)
on top, so a test (or an application embedding repro) talks to the exact
production core with zero network.

Fidelity matters more than speed here: every request and response passes
through the real wire codec (:func:`~repro.service.wire.encode_line` /
:func:`~repro.service.wire.decode_line`), so a payload that would not
survive serialisation — a NaN that JSON rejects, an object with no wire
form — fails in the fake exactly as it would on a socket, and arrays come
back as fresh decoded copies, never aliases of engine memory.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.obs import new_trace_id
from repro.service.client import ServiceError, ServiceOps
from repro.service.core import RequestContext, RequestHandler
from repro.service.wire import decode_line, encode_line, read_message

__all__ = ["FakeTransport", "FakeClient"]


class FakeTransport:
    """A transport that is nothing but the shared core.

    ``round_trip`` encodes the request to its wire form, measures it (so the
    size limit applies, exactly as on TCP), hands the decoded dict to the
    handler with ``transport="fake"``, and decodes the encoded response —
    the full serialisation path with no socket in the middle.
    """

    def __init__(self, handler: Optional[RequestHandler] = None,
                 engine=None, client: str = "fake", **handler_kwargs):
        if handler is not None:
            if engine is not None or handler_kwargs:
                raise ValueError(
                    "pass either a handler or constructor arguments, not both")
            self.handler = handler
            self._owns_handler = False
        else:
            self.handler = RequestHandler(engine, **handler_kwargs)
            self._owns_handler = engine is None
        self.engine = self.handler.engine
        #: the rate-limiter key and log label this transport presents as
        self.client = str(client)

    def round_trip(self, request: dict, auth: Optional[str] = None) -> dict:
        """One request through codec + core + codec, as a socket would see it."""
        line = encode_line(request)
        context = RequestContext(transport="fake", client=self.client,
                                 auth=auth, nbytes=len(line))
        # parsed as a server parses a request: one JSON line, no arrays
        response = self.handler.handle(read_message(line), context)
        return decode_line(encode_line(response))

    def subscribe_events(self, path: str, from_step: int = 0,
                         poll_interval: float = 0.05,
                         trace: Optional[str] = None) -> Iterator[dict]:
        """The streaming verb, through the same codec round-trip per event."""
        for event in self.handler.subscribe_events(
                path, from_step=from_step, poll_interval=poll_interval,
                trace=trace, transport="fake"):
            yield decode_line(encode_line(event))

    def close(self) -> None:
        if self._owns_handler:
            self.handler.close()

    def __enter__(self) -> "FakeTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FakeClient(ServiceOps):
    """The standard client surface over a :class:`FakeTransport`.

    Drop-in for :class:`~repro.service.client.ReproClient` /
    :class:`~repro.service.http.HttpClient` in tests: same methods, same
    :class:`~repro.service.client.ServiceError` on failure, same decoded
    array types — no server process, no port.
    """

    def __init__(self, transport: Optional[FakeTransport] = None, *,
                 handler: Optional[RequestHandler] = None, engine=None,
                 trace: bool = True, auth_token: Optional[str] = None,
                 **handler_kwargs):
        if transport is not None:
            if handler is not None or engine is not None or handler_kwargs:
                raise ValueError(
                    "pass either a transport or constructor arguments, "
                    "not both")
            self.transport = transport
            self._owns_transport = False
        else:
            self.transport = FakeTransport(handler=handler, engine=engine,
                                           **handler_kwargs)
            self._owns_transport = True
        self._closed = False
        self._init_requests(trace, auth_token)

    def close(self) -> None:
        if not self._closed:
            if self._owns_transport:
                self.transport.close()
            self._closed = True

    def call(self, op: str, **params):
        if self._closed:
            raise ValueError("client is closed")
        return self._result(self.transport.round_trip(
            self._request(op, **params), auth=self.auth_token))

    def subscribe(self, path: str, from_step: int = 0) -> Iterator[dict]:
        """Same yields as the TCP/HTTP clients' ``subscribe``."""
        if self._closed:
            raise ValueError("client is closed")
        trace = None
        if self._trace:
            trace = self.last_trace = new_trace_id()
        series = self.transport.handler.open_subscribed_series(str(path))
        yield {"event": "subscribed", "subscribed": str(path),
               "nsteps": series.nsteps, "high_water": series.nsteps - 1,
               "live": series.live}
        for event in self.transport.subscribe_events(
                str(path), from_step=int(from_step), trace=trace):
            if event.get("event") == "error":
                raise ServiceError(
                    str(event.get("error", "unknown server error")),
                    kind=event.get("kind"))
            yield event
