"""The thin synchronous client of the query service (``python -m repro query``).

One TCP connection, one request line per call, blocking until the response
message arrives.  Arrays come back bit-identical to what the server's engine
decoded, their bytes read off the socket straight into the arrays returned
(see :mod:`repro.service.wire`).  A server-side failure raises
:class:`ServiceError` carrying the server's one-line error message and its
``kind``; the connection stays usable afterwards.

The one-method-per-op surface (``ping`` ... ``refresh``) lives in the
:class:`ServiceOps` mixin, shared verbatim with the HTTP client
(:class:`~repro.service.http.HttpClient`) and the in-process fake
(:class:`~repro.service.fakes.FakeClient`): a transport only implements
``call(op, **params)``, and the three clients cannot drift apart.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.obs import new_trace_id
from repro.service.core import PROTOCOL_VERSION
from repro.service.engine import BoxQuery
from repro.service.server import DEFAULT_PORT
from repro.service.wire import MAX_LINE_BYTES, encode_line, read_message

__all__ = ["ReproClient", "ServiceError", "ServiceOps", "follow_series"]


class ServiceError(RuntimeError):
    """The server answered ``ok: false`` (its error string is the message).

    :attr:`kind` carries the server's machine-readable error class (e.g.
    :data:`~repro.service.core.ERROR_UNAUTHORIZED` for a refused bearer
    token, :data:`~repro.service.core.ERROR_NOT_FOUND` for a path that does
    not exist); every error a protocol-3 server sends has one.
    """

    def __init__(self, message: str, kind: Optional[str] = None):
        super().__init__(message)
        self.kind = kind


def _box_json(box: Optional[Box]):
    return [list(box.lo), list(box.hi)] if box is not None else None


def read_response(stream, peer: str) -> dict:
    """The next response on ``stream`` (``readline`` + ``readinto``), arrays
    filled straight from it.  A closed stream or a message breaking the
    codec's rules is a :class:`ConnectionError`: the framing is lost."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        raise ConnectionError(f"server at {peer} closed the connection")
    try:
        response = read_message(line, stream.readinto)
    except ValueError as exc:
        raise ConnectionError(f"malformed response from {peer}: {exc}") from exc
    if not isinstance(response, dict):
        raise ConnectionError(f"malformed response from {peer}: {response!r}")
    return response


def subscription_events(result, stream, peer: str) -> Iterator[dict]:
    """What every client's ``subscribe`` yields once the server acknowledged:
    the ``subscribed`` event carrying the acknowledgement's ``result``, then
    each event message on ``stream``, through the terminal ``finalized`` /
    ``end`` (an ``error`` event raises instead)."""
    yield {"event": "subscribed",
           **(result if isinstance(result, dict) else {})}
    while True:
        event = read_response(stream, peer)
        if "event" not in event:
            raise ConnectionError(f"malformed event: {event!r}")
        if event["event"] == "error":
            raise ServiceError(str(event.get("error", "unknown server error")),
                               kind=event.get("kind"))
        yield event
        if event["event"] in ("finalized", "end"):
            return


class ServiceOps:
    """The service surface, one method per op, over an abstract ``call``.

    Mixed into every client (TCP, HTTP, fake); subclasses provide ``close()``
    and ``call(op, **params)`` returning the decoded ``result`` or raising
    :class:`ServiceError` — a transport between :meth:`_request`, which
    builds the wire request, and :meth:`_result`, which unwraps the response.
    """

    #: whether the bearer token rides in the request itself (a transport
    #: with a header for it, or none at all, leaves the body alone)
    _auth_in_body = False

    def _init_requests(self, trace: bool, auth_token: Optional[str]) -> None:
        self._next_id = 0
        #: mint a fresh trace ID per request (see :mod:`repro.service.wire`)
        self._trace = bool(trace)
        #: bearer token for a server running with ``--auth-token``; None
        #: against an open server
        self.auth_token = auth_token
        #: the trace ID of the most recent request sent (None before the
        #: first request, or with tracing off)
        self.last_trace: Optional[str] = None

    def _request(self, op: str, **params) -> dict:
        """The next wire request: version, id, op, parameters, trace."""
        self._next_id += 1
        request = {"v": PROTOCOL_VERSION, "id": self._next_id, "op": op,
                   **params}
        if self._auth_in_body and self.auth_token is not None:
            request["auth"] = self.auth_token
        if self._trace:
            self.last_trace = new_trace_id()
            request["trace"] = self.last_trace
        return request

    @staticmethod
    def _result(response: dict):
        """A response envelope's ``result``; ``ok: false`` raises."""
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown server error"),
                               kind=response.get("kind"))
        return response.get("result")

    def call(self, op: str, **params):  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def _peer(self) -> str:
        return f"{self.host}:{self.port}"

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def describe(self, path: str) -> Dict[str, object]:
        return self.call("describe", path=str(path))

    def read_field(self, path: str, field: str, level: int = 0,
                   box: Optional[Box] = None, step: Optional[int] = None,
                   refill: bool = True, fill_value: float = 0.0,
                   max_level: Optional[int] = None) -> np.ndarray:
        return self.call("read_field", path=str(path), field=field, level=level,
                         box=_box_json(box), step=step, refill=refill,
                         fill_value=fill_value, max_level=max_level)

    def read_batch(self, queries: Sequence[BoxQuery]) -> List[np.ndarray]:
        return self.call("read_batch",
                         queries=[q.to_json() for q in queries])

    def time_slice(self, path: str, field: str, box: Optional[Box] = None,
                   level: int = 0, steps: Optional[Sequence[int]] = None,
                   refill: bool = True, fill_value: float = 0.0,
                   max_level: Optional[int] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        result = self.call("time_slice", path=str(path), field=field,
                           box=_box_json(box), level=level,
                           steps=list(steps) if steps is not None else None,
                           refill=refill, fill_value=fill_value,
                           max_level=max_level)
        return result["times"], result["values"]

    def stats(self) -> Dict[str, object]:
        return self.call("stats")

    def refresh(self, path: str) -> Dict[str, object]:
        """Poll one live series for new commits: {appended, nsteps, high_water, live}."""
        return self.call("refresh", path=str(path))


class ReproClient(ServiceOps):
    """A blocking client for one :class:`~repro.service.server.ReproServer`."""

    _auth_in_body = True        # a request line has no header to carry it

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 120.0, trace: bool = True,
                 auth_token: Optional[str] = None):
        self.host = host
        self.port = int(port)
        self._sock = socket.create_connection((host, self.port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._closed = False
        self._init_requests(trace, auth_token)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._rfile.close()
            self._sock.close()
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReproClient({self._peer})"

    # ------------------------------------------------------------------
    def _round_trip(self, request: dict) -> dict:
        """Send one line, read one message, enforce id matching."""
        try:
            self._sock.sendall(encode_line(request))
            response = read_response(self._rfile, self._peer)
        except OSError:     # ConnectionError included
            self.close()
            raise
        if response.get("id") is not None and response["id"] != request["id"]:
            self.close()
            raise ConnectionError(
                f"out-of-sync response (id {response['id']!r}, expected "
                f"{request['id']}); connection closed")
        return response

    def call(self, op: str, **params):
        """Send one request and return its decoded result (or raise).

        A transport failure (timeout, reset) closes the client: the next
        line on the socket would belong to the abandoned request, so the
        connection cannot be trusted again.  Responses are matched to the
        request id for the same reason — a mismatch means the stream is
        desynchronised.
        """
        if self._closed:
            raise ValueError("client is closed")
        return self._result(self._round_trip(self._request(op, **params)))

    # ------------------------------------------------------------------
    # the streaming verb
    # ------------------------------------------------------------------
    def subscribe(self, path: str, from_step: int = 0) -> Iterator[dict]:
        """Stream a live series' step-committed events (a generator).

        Yields a ``{"event": "subscribed", ...}`` acknowledgement, then one
        ``{"event": "step", "step_index": ..., "summary": ...}`` per committed
        step — strictly ordered from ``from_step``, each exactly once — and
        finally ``{"event": "finalized", ...}`` when the writer finalizes.
        The stream consumes the connection; to stop early, close the client
        (or use :func:`follow_series`, which also reconnects).
        """
        if self._closed:
            raise ValueError("client is closed")
        result = self._result(self._round_trip(self._request(
            "subscribe", path=str(path), from_step=int(from_step))))
        try:
            yield from subscription_events(result, self._rfile, self._peer)
        except OSError:
            self.close()
            raise


def follow_series(path: str, field: Optional[str] = None, *,
                  host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                  level: int = 0, box: Optional[Box] = None,
                  from_step: int = 0, refill: bool = True,
                  fill_value: float = 0.0, max_level: Optional[int] = None,
                  reconnect: bool = True, max_retries: int = 5,
                  retry_delay: float = 0.5, timeout: float = 120.0,
                  auth_token: Optional[str] = None
                  ) -> Iterator[Tuple[dict, Optional[np.ndarray]]]:
    """Follow a live series end to end: ``(event, array)`` per committed step.

    The client half of ``repro query follow DIR``.  Two connections are used —
    one carries the subscription stream, the other the box reads — so a slow
    read can never desynchronise the event stream.  With ``field`` set, each
    step event is paired with that step's box read (element-wise identical to
    reading the finalized series later); with ``field=None`` the arrays are
    ``None`` and only events flow.

    On a dropped connection (server restart, network blip) the generator
    reconnects — waiting ``retry_delay`` between at most ``max_retries``
    consecutive attempts, the counter resetting on progress — and resumes the
    subscription *from the first step it has not yielded*: committed steps
    are delivered exactly once across reconnects.  The generator ends after
    the ``finalized`` event (yielded last, with a ``None`` array).
    """
    next_step = int(from_step)
    retries = 0
    while True:
        sub: Optional[ReproClient] = None
        reads: Optional[ReproClient] = None
        try:
            sub = ReproClient(host, port, timeout=timeout,
                              auth_token=auth_token)
            if field is not None:
                reads = ReproClient(host, port, timeout=timeout,
                                    auth_token=auth_token)
            for event in sub.subscribe(path, from_step=next_step):
                name = event.get("event")
                if name == "step":
                    step_index = int(event["step_index"])
                    array = None
                    if reads is not None:
                        array = reads.read_field(
                            path, field, level=level, box=box,
                            step=step_index, refill=refill,
                            fill_value=fill_value, max_level=max_level)
                    next_step = step_index + 1
                    retries = 0
                    yield event, array
                elif name == "finalized":
                    yield event, None
                    return
                elif name == "end":
                    return
                else:
                    retries = 0
                    yield event, None
            return
        except (ConnectionError, OSError):
            if not reconnect or retries >= max_retries:
                raise
            retries += 1
            time.sleep(retry_delay)
        finally:
            for client in (sub, reads):
                if client is not None:
                    client.close()
