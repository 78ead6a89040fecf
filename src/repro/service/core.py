"""The transport-neutral request core of the query service.

Every transport — the JSON-over-TCP server, the HTTP/JSON gateway, the
in-process fakes — is a thin shell over one :class:`RequestHandler`.
The handler owns everything that must behave identically no matter how a
request arrived:

* **op dispatch** (``ping``, ``describe``, ``read_field``, ``read_batch``,
  ``time_slice``, ``stats``, ``refresh``) against one
  :class:`~repro.service.engine.QueryEngine`;
* **the protocol-version rule** and the structured :func:`error_envelope`
  vocabulary: every failure carries a ``kind`` — a refusal's
  (:data:`ERROR_UNKNOWN_OP`, :data:`ERROR_UNSUPPORTED_VERSION`, ...) or,
  from :func:`failure_envelope`, whose fault a failed answer was;
* **admission control** — request-size limits
  (:data:`ERROR_OVERSIZED_REQUEST`), bearer-token auth with a constant-time
  compare (:data:`ERROR_UNAUTHORIZED`), and a per-client token-bucket rate
  limiter (:data:`ERROR_RATE_LIMITED`).  A transport only has to say who the
  client is and how many bytes it sent (:class:`RequestContext`); the policy
  lives here, so adding a transport can never fork auth or limits;
* **instrumentation** — trace binding around the engine call, per-op request
  counters and latency histograms, error-kind counters, and the structured
  JSON request log;
* **the streaming verb** — :meth:`RequestHandler.subscribe` is the whole
  ``subscribe`` preamble (admission, version, validation, the tallied
  acknowledgement) and :meth:`RequestHandler.subscribe_events` the one event
  loop behind it, so TCP pushes, HTTP chunked streams and the fakes yield and
  tally the same events.

Transports keep only what is genuinely theirs: newline framing and
connection lifecycle (TCP), routes/status codes/chunked encoding (HTTP),
nothing at all (fakes).

Auth tokens come from :func:`resolve_auth_token`: a literal value, or
``env:NAME`` / ``file:PATH`` indirections so secrets stay out of ``ps``
output and shell history.
"""

from __future__ import annotations

import hmac
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import CorruptFileError
from repro.obs import make_request_log, trace_scope
from repro.series.reader import is_series_dir
from repro.service.engine import BoxQuery, QueryEngine

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_UNKNOWN_OP",
    "ERROR_UNSUPPORTED_VERSION",
    "ERROR_UNAUTHORIZED",
    "ERROR_OVERSIZED_REQUEST",
    "ERROR_RATE_LIMITED",
    "ERROR_BAD_REQUEST",
    "ERROR_NOT_FOUND",
    "ERROR_INTERNAL",
    "DEFAULT_MAX_REQUEST_BYTES",
    "RequestError",
    "error_envelope",
    "failure_envelope",
    "check_version",
    "request_trace",
    "resolve_auth_token",
    "RateLimiter",
    "RequestContext",
    "RequestHandler",
    "step_event",
    "finalized_event",
]

#: version 3: arrays travel as raw frames after the JSON header line (see
#: :mod:`repro.service.wire`) and every error envelope carries a ``kind``.
#: Versions are not negotiated: a request naming another one is refused.
PROTOCOL_VERSION = 3

#: error kinds (the ``kind`` field of an error envelope)
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
ERROR_UNAUTHORIZED = "unauthorized"
ERROR_OVERSIZED_REQUEST = "oversized_request"
ERROR_RATE_LIMITED = "rate_limited"
#: the request itself is wrong: not an object, a missing or ill-typed
#: parameter, an unknown field / level / step, a malformed box
ERROR_BAD_REQUEST = "bad_request"
#: the named plotfile or series directory does not exist
ERROR_NOT_FOUND = "not_found"
#: the file exists but its bytes cannot be what a writer wrote (a damaged
#: chunk, a failed checksum, an unsupported format version)
ERROR_CORRUPT_DATA = "corrupt_data"
#: anything else that went wrong while answering
ERROR_INTERNAL = "internal"

#: default per-request size ceiling.  Requests are queries (JSON objects
#: naming paths, fields and boxes) — only *responses* carry arrays — so this
#: is far below the wire layer's response line limit, and generous enough
#: for read_batch calls with tens of thousands of queries.
DEFAULT_MAX_REQUEST_BYTES = 16 * 1024 * 1024


def error_envelope(request_id, message: str, kind: str) -> dict:
    """A failed-request response, machine-classified by ``kind``."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": str(message), "kind": kind}


class RequestError(ValueError):
    """A request the core turns down in its own words: the message goes to
    the client as written, under ``kind``."""

    def __init__(self, message: str, kind: str = ERROR_BAD_REQUEST):
        super().__init__(message)
        self.kind = kind


def failure_envelope(request_id, exc: Exception) -> dict:
    """The envelope of an exception raised while answering a request.

    Stored bytes that fail to parse raise
    :class:`~repro.errors.CorruptFileError`: :data:`ERROR_CORRUPT_DATA`.
    Below the core, what is wrong with a *request* — an unknown field, level
    or step, a malformed box or parameter — surfaces as a lookup or value
    error, so those are :data:`ERROR_BAD_REQUEST`; anything else is
    :data:`ERROR_INTERNAL`.
    """
    if isinstance(exc, RequestError):
        return error_envelope(request_id, str(exc), exc.kind)
    if isinstance(exc, CorruptFileError):
        kind = ERROR_CORRUPT_DATA
    else:
        kind = ERROR_BAD_REQUEST if isinstance(exc, (LookupError, ValueError)) \
            else ERROR_INTERNAL
    return error_envelope(request_id, f"{type(exc).__name__}: {exc}", kind)


def existing_path(path, op: str, series: bool = False) -> str:
    """``path`` as ``op`` received it: a string naming something that exists
    (a series directory, for the ops only those answer).  The refusal echoes
    the client's own spelling of it."""
    if not isinstance(path, str):
        raise RequestError(f"{op} needs a 'path' string")
    if not os.path.exists(path):
        raise RequestError(f"no such file or series directory: {path!r}",
                           ERROR_NOT_FOUND)
    if series and not is_series_dir(path):
        raise RequestError(
            f"{path!r} is not a series directory (no series journal)")
    return path


def _queries(items: list) -> List[BoxQuery]:
    """Wire queries as :class:`BoxQuery` objects over existing paths;
    whatever is wrong with one is the request's fault."""
    try:
        queries = [BoxQuery.from_json(item) for item in items]
    except (LookupError, TypeError, ValueError) as exc:
        raise RequestError(f"bad query: {exc}") from None
    for query in queries:
        existing_path(query.path, "a query")
    return queries


def check_version(request) -> Optional[dict]:
    """The version rule shared by every transport and the subscribe path.

    A request that names a protocol version other than this server's is
    refused, not guessed at — the refusal is array-free, so a peer of any
    version can read it; a ``v``-less request (curl) is served.  Returns the
    refusal, or None when the version is acceptable.
    """
    v = request.get("v") if isinstance(request, dict) else None
    if v is None or (v == PROTOCOL_VERSION and not isinstance(v, bool)):
        return None
    older = "server" if isinstance(v, int) and v > PROTOCOL_VERSION else "client"
    return error_envelope(
        request.get("id"),
        f"request speaks protocol version {v!r} but this server speaks "
        f"{PROTOCOL_VERSION}; upgrade the {older}",
        kind=ERROR_UNSUPPORTED_VERSION)


def request_trace(request) -> Optional[str]:
    """The client-minted trace ID a request carries (None when absent)."""
    trace = request.get("trace") if isinstance(request, dict) else None
    return trace if isinstance(trace, str) and trace else None


def resolve_auth_token(spec: Optional[str]) -> Optional[str]:
    """Resolve an ``--auth-token`` spec into the secret itself.

    ``None`` disables auth; ``env:NAME`` reads the environment; ``file:PATH``
    reads (and strips) a file; anything else is the literal token.  An empty
    resolved token is an error — it would make every compare succeed against
    an empty presentation.
    """
    if spec is None:
        return None
    if spec.startswith("env:"):
        name = spec[len("env:"):]
        token = os.environ.get(name)
        if not token:
            raise ValueError(f"auth token environment variable {name!r} is "
                             "unset or empty")
        return token
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            token = fh.read().strip()
        if not token:
            raise ValueError(f"auth token file {path!r} is empty")
        return token
    if not spec:
        raise ValueError("auth token must not be empty")
    return spec


class RateLimiter:
    """Per-client token buckets: ``rate`` requests/second, ``burst`` deep.

    One bucket per client key, refilled continuously; a request costs one
    token and is refused when the bucket is dry.  ``clock`` is injectable so
    tests can step time instead of sleeping.  Stale (full) buckets are pruned
    opportunistically so an open service cannot be grown unboundedly by
    clients that each show up once.
    """

    _PRUNE_AT = 4096

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be > 0 requests/second")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst < 1.0:
            raise ValueError("burst must allow at least one request")
        self._clock = clock
        self._lock = threading.Lock()
        #: client key -> [tokens, last refill timestamp]
        self._buckets: Dict[str, list] = {}

    def allow(self, key: str = "global") -> bool:
        """Spend one token of ``key``'s bucket; False when rate-limited."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = [self.burst, now]
                if len(self._buckets) >= self._PRUNE_AT:
                    self._prune(now)
                self._buckets[key] = bucket
            tokens, last = bucket
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                bucket[0] = tokens - 1.0
                bucket[1] = now
                return True
            bucket[0] = tokens
            bucket[1] = now
            return False

    def _prune(self, now: float) -> None:
        """Drop buckets that have refilled completely (idle clients)."""
        for key in [k for k, (tokens, last) in self._buckets.items()
                    if tokens + (now - last) * self.rate >= self.burst]:
            del self._buckets[key]


@dataclass
class RequestContext:
    """What a transport knows about one request's arrival.

    ``transport`` labels tallies and log lines; ``client`` keys the rate
    limiter (peer IP for sockets); ``auth`` is the presented bearer token
    (from the HTTP ``Authorization`` header — TCP requests carry theirs in
    the ``"auth"`` wire field instead); ``nbytes`` is the encoded request
    size for the admission limit (None = not measured, e.g. local calls).
    """

    transport: str = "local"
    client: str = "local"
    auth: Optional[str] = None
    nbytes: Optional[int] = None


# ----------------------------------------------------------------------
# streaming event payloads (shared verbatim by TCP push and HTTP chunked)
# ----------------------------------------------------------------------
def step_event(series, step_index: int) -> dict:
    """One committed step of a live series, as the wire event both
    transports push."""
    from repro.analysis.series_report import step_summary_row

    record = series.index.steps[step_index]
    return {"v": PROTOCOL_VERSION, "event": "step",
            "step_index": step_index, "step": record.step,
            "time": record.time, "kind": record.kind, "path": record.path,
            "summary": step_summary_row(record)}


def finalized_event(nsteps: int) -> dict:
    return {"v": PROTOCOL_VERSION, "event": "finalized", "nsteps": int(nsteps)}


class RequestHandler:
    """Dispatch, validation, auth, limits and telemetry for every transport."""

    #: ops answered with one response (``subscribe`` is the streaming verb)
    OPS = ("ping", "describe", "read_field", "read_batch", "time_slice",
           "stats", "refresh", "subscribe")

    def __init__(self, engine=None, *, auth_token: Optional[str] = None,
                 max_request_bytes: Optional[int] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 request_log=None,
                 rate_clock: Callable[[], float] = time.monotonic):
        self.engine = engine if engine is not None else QueryEngine()
        self._owns_engine = engine is None
        #: the resolved bearer token (None = open service).  Compared
        #: constant-time; use :func:`resolve_auth_token` for env:/file: specs.
        self.auth_token = auth_token
        self.max_request_bytes = int(max_request_bytes) \
            if max_request_bytes is not None else DEFAULT_MAX_REQUEST_BYTES
        self.limiter = RateLimiter(rate_limit, rate_burst, clock=rate_clock) \
            if rate_limit is not None else None
        #: structured JSON request log (a stream, a RequestLog, or None);
        #: one line per answered request and per pushed stream event
        self.request_log = make_request_log(request_log)

    @property
    def registry(self):
        return self.engine.registry

    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "RequestHandler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission control (size -> auth -> rate), shared by every transport
    # ------------------------------------------------------------------
    def refuse(self, request, context: RequestContext) -> Optional[dict]:
        """The admission refusal for one request, or None when admitted.

        Order matters: the size check is free and guards everything after
        it; auth comes before rate so an attacker without the token cannot
        starve an authenticated client's bucket.
        """
        request_id = request.get("id") if isinstance(request, dict) else None
        if context.nbytes is not None \
                and context.nbytes > self.max_request_bytes:
            return error_envelope(
                request_id,
                f"request of {context.nbytes} bytes exceeds this server's "
                f"{self.max_request_bytes}-byte request limit",
                kind=ERROR_OVERSIZED_REQUEST)
        if self.auth_token is not None:
            presented = context.auth
            if presented is None and isinstance(request, dict):
                auth = request.get("auth")
                presented = auth if isinstance(auth, str) else None
            if presented is None:
                return error_envelope(
                    request_id,
                    "authentication required: present a bearer token "
                    "(HTTP 'Authorization: Bearer <token>' header, or the "
                    "'auth' field of a TCP request)",
                    kind=ERROR_UNAUTHORIZED)
            if not hmac.compare_digest(presented.encode("utf-8"),
                                       self.auth_token.encode("utf-8")):
                return error_envelope(request_id, "invalid bearer token",
                                      kind=ERROR_UNAUTHORIZED)
        if self.limiter is not None and not self.limiter.allow(context.client):
            return error_envelope(
                request_id,
                f"rate limit exceeded for client {context.client} "
                f"({self.limiter.rate:g} requests/s, burst "
                f"{self.limiter.burst:g}); retry later",
                kind=ERROR_RATE_LIMITED)
        return None

    # ------------------------------------------------------------------
    # the instrumented entry point
    # ------------------------------------------------------------------
    def handle(self, request, context: Optional[RequestContext] = None) -> dict:
        """One request, end to end: admission, trace binding, dispatch, tally.

        This is the method a transport calls (on whatever thread suits it);
        the trace ID the client minted is bound around the engine call,
        which is what carries it client -> server -> engine.
        """
        context = context if context is not None else RequestContext()
        op = request.get("op") if isinstance(request, dict) else None
        trace = request_trace(request)
        start = time.perf_counter()
        response = self.refuse(request, context)
        if response is None:
            with trace_scope(trace):
                response = self.dispatch(request)
        self.tally(op, trace, response, time.perf_counter() - start,
                   transport=context.transport)
        return response

    def dispatch(self, request) -> dict:
        """The op switch: request dict in, response envelope out (never raises)."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise RequestError("a request must be a JSON object")
            refusal = check_version(request)
            if refusal is not None:
                return refusal
            op = request.get("op")
            if op == "ping":
                result: object = {"pong": True,
                                  "protocol_version": PROTOCOL_VERSION}
            elif op == "describe":
                result = self.engine.describe(
                    existing_path(request.get("path"), op))
            elif op == "read_field":
                result = self.engine.read_batch(_queries([request]))[0]
            elif op == "read_batch":
                queries = request.get("queries")
                if not isinstance(queries, list):
                    raise RequestError("read_batch needs a 'queries' list")
                result = self.engine.read_batch(_queries(queries))
            elif op == "time_slice":
                (query,) = _queries([request])
                existing_path(query.path, op, series=True)
                steps = request.get("steps")
                if steps is not None and not (
                        isinstance(steps, list)
                        and all(type(s) is int for s in steps)):
                    raise RequestError("time_slice 'steps' must be a list of ints")
                times, values = self.engine.time_slice(
                    query.path, query.field, box=query.box, level=query.level,
                    steps=steps, refill=query.refill,
                    fill_value=query.fill_value, max_level=query.max_level)
                result = {"times": times, "values": values}
            elif op == "stats":
                # flat engine keys (backwards compatible) + the full metrics
                # registry snapshot under "registry"
                result = dict(self.engine.stats())
                result["registry"] = self.engine.metrics_snapshot()
            elif op == "refresh":
                path = existing_path(request.get("path"), op, series=True)
                appended = self.engine.refresh(path)
                series = self.engine.series(path)
                result = {"appended": appended, "nsteps": series.nsteps,
                          "high_water": series.high_water,
                          "live": series.live}
            elif op == "subscribe":
                # unary dispatch cannot stream; each transport has a
                # streaming endpoint that takes this op instead
                raise RequestError(
                    "subscribe is a streaming op: use the TCP subscribe "
                    "verb or HTTP GET /v1/subscribe")
            else:
                raise RequestError(
                    f"unknown op {op!r}; this server supports "
                    f"{', '.join(self.OPS)}", ERROR_UNKNOWN_OP)
            return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
                    "result": result}
        except Exception as exc:  # noqa: BLE001 - every failure becomes a reply
            return failure_envelope(request_id, exc)

    # ------------------------------------------------------------------
    # telemetry (also used by the streaming paths of both transports)
    # ------------------------------------------------------------------
    def tally(self, op, trace: Optional[str], response: dict,
              elapsed: float, transport: str = "local") -> None:
        """Count and log one answered request."""
        registry = self.registry
        op_label = str(op) if op is not None else "invalid"
        registry.counter("repro_server_requests_total",
                         {"op": op_label}).inc()
        registry.histogram("repro_server_request_seconds",
                           {"op": op_label}).observe(elapsed)
        ok = bool(response.get("ok"))
        error_kind = response.get("kind")
        if not ok:
            # structured kinds (unknown_op, unauthorized, rate_limited, ...)
            # get their own label so policy refusals and protocol skew are
            # visible in the snapshot
            registry.counter("repro_server_errors_total",
                             {"kind": str(error_kind)}).inc()
        if self.request_log is None:
            return
        fields: Dict[str, object] = {
            "op": op_label, "id": response.get("id"), "ok": ok,
            "transport": transport,
            "latency_ms": round(elapsed * 1000.0, 3),
            "cache_hit_rate": round(self.engine.cache.stats.hit_rate, 4),
        }
        if trace is not None:
            fields["trace"] = trace
        if error_kind is not None:
            fields["error_kind"] = error_kind
        self.request_log.log("request", **fields)

    def tally_event(self, op, event: str, trace: Optional[str] = None,
                    transport: str = "local", **fields: object) -> None:
        """Count and log one pushed stream event (the per-event sibling of
        :meth:`tally`, so TCP and HTTP subscriptions report identically)."""
        self.registry.counter("repro_server_stream_events_total",
                              {"op": str(op), "event": str(event)}).inc()
        if self.request_log is None:
            return
        payload: Dict[str, object] = {"op": str(op), "stream_event": str(event),
                                      "transport": transport}
        if trace is not None:
            payload["trace"] = trace
        payload.update(fields)
        self.request_log.log("stream", **payload)

    # ------------------------------------------------------------------
    # the streaming verb: one preamble, one event loop, every transport
    # ------------------------------------------------------------------
    def open_subscribed_series(self, path: str):
        """Validate + open + first refresh of a subscription target."""
        series = self.engine.series(
            existing_path(path, "subscribe", series=True))
        series.refresh()
        return series

    def subscribe(self, request: dict, context: RequestContext,
                  wait: Optional[Callable[[float], bool]] = None,
                  poll_interval: float = 0.25
                  ) -> Tuple[dict, Optional[Iterator[dict]]]:
        """The ``subscribe`` request, up to and including its answer.

        Admission and version negotiation as for a unary op, then ``path`` /
        ``from_step`` validation and the first refresh.  Returns the
        already-tallied envelope to send — the acknowledgement
        ``{subscribed, nsteps, high_water, live}`` or a refusal — and, when
        acknowledged, the :meth:`subscribe_events` iterator to stream after
        it (``wait`` and ``poll_interval`` are that method's).
        """
        start = time.perf_counter()
        trace = request_trace(request)
        events = None
        response = self.refuse(request, context) or check_version(request)
        if response is None:
            try:
                path = request.get("path")
                try:
                    from_step = int(request.get("from_step") or 0)
                except (TypeError, ValueError):
                    from_step = -1
                if from_step < 0:
                    raise RequestError("from_step must be an integer >= 0")
                series = self.open_subscribed_series(path)
                response = {
                    "v": PROTOCOL_VERSION, "id": request.get("id"), "ok": True,
                    "result": {"subscribed": path, "nsteps": series.nsteps,
                               "high_water": series.nsteps - 1,
                               "live": series.live}}
                events = self.subscribe_events(path, from_step, poll_interval,
                                               trace, context.transport, wait)
            except Exception as exc:  # noqa: BLE001 - refusal, not a stream
                response = failure_envelope(request.get("id"), exc)
        # tallied before the answer is on the wire (as unary ops are): a
        # client holding its reply must find the request already counted
        self.tally("subscribe", trace, response, time.perf_counter() - start,
                   transport=context.transport)
        return response, events

    def subscribe_events(self, path: str, from_step: int = 0,
                         poll_interval: float = 0.25,
                         trace: Optional[str] = None,
                         transport: str = "local",
                         wait: Optional[Callable[[float], bool]] = None
                         ) -> Iterator[dict]:
        """The one stream of a live series' committed-step events.

        Yields ``step`` events — strictly ordered, each step exactly once
        from ``from_step`` — then ``finalized`` when the writer finalizes, or
        ``error`` when a refresh fails.  While the series is live, each
        caught-up subscriber calls ``wait(poll_interval)`` and then
        :meth:`QueryEngine.refresh` (committed steps are immutable, so a poll
        costs a ``stat``).  ``wait`` has :meth:`threading.Event.wait`'s
        signature: it sleeps up to the timeout and returns True to end the
        stream early and silently (server shutdown, a client that spoke or
        hung up); the default only sleeps.  Every event is tallied through
        :meth:`tally_event`.
        """
        from_step = int(from_step)
        if from_step < 0:
            raise ValueError("from_step must be >= 0")
        series = self.open_subscribed_series(path)
        wait = wait if wait is not None else threading.Event().wait
        next_step = from_step
        while True:
            while next_step < series.nsteps:
                event = step_event(series, next_step)
                self.tally_event("subscribe", "step", trace, transport,
                                 step_index=next_step)
                yield event
                next_step += 1
            if not series.live:
                self.tally_event("subscribe", "finalized", trace, transport,
                                 nsteps=series.nsteps)
                yield finalized_event(series.nsteps)
                return
            if wait(poll_interval):
                return
            try:
                self.engine.refresh(path)
            except Exception as exc:  # noqa: BLE001 - published to the stream
                failure = failure_envelope(None, exc)
                self.tally_event("subscribe", "error", trace, transport,
                                 error=failure["error"])
                yield {"v": PROTOCOL_VERSION, "event": "error",
                       "error": failure["error"], "kind": failure["kind"]}
                return
