"""The asyncio JSON-over-TCP transport (``python -m repro serve``).

Since PR 10 this module is a *thin transport*: op dispatch, validation,
auth, size/rate limits and telemetry all live in the transport-neutral
:class:`~repro.service.core.RequestHandler`, which the TCP server shares
with the HTTP gateway (:mod:`repro.service.http`).  What remains here is
genuinely TCP's: newline framing, connection lifecycle, and the asyncio
push machinery of the ``subscribe`` stream.

Each client connection speaks the newline-delimited JSON protocol of
:mod:`repro.service.wire`: a request line ``{"id": n, "op": ..., ...params}``
is answered by ``{"id": n, "ok": true, "result": ...}`` (or ``"ok": false``
with an ``error`` string; a failed request never tears down the connection).
When the shared core enforces auth, a request carries its bearer token in
the ``"auth"`` field; oversized and rate-limited requests are refused with
the same structured envelopes the HTTP gateway maps to 413/429.  The asyncio
loop only shuttles bytes — every engine call runs on a worker thread pool,
so slow decodes on one connection do not stall the others, and many clients
share one :class:`~repro.service.engine.QueryEngine` (and hence one chunk
cache: a chunk decoded for client A is a cache hit for client B).

Ops: ``ping``, ``describe``, ``read_field``, ``read_batch``, ``time_slice``,
``stats``, ``refresh``.  Array results travel base64-raw, so a served read is
element-wise identical to a direct :func:`repro.open` read.

**Subscribe.**  ``subscribe`` is the one *streaming* verb: after the usual
``ok`` acknowledgement the server takes over the connection and pushes one
newline-delimited event per committed step of a live series — strictly
ordered, each step exactly once from the requested ``from_step`` — followed
by a ``finalized`` event when the writer finalizes.  A
:class:`_SeriesWatcher` per watched series polls
:meth:`QueryEngine.refresh <repro.service.engine.QueryEngine.refresh>` off
the event loop (committed steps are immutable, so a poll costs a ``stat``)
and fans one wakeup out to every subscriber.  Event payloads are built by
the core (:func:`~repro.service.core.step_event`) and every pushed event is
tallied through :meth:`RequestHandler.tally_event`, so a TCP subscription
and an HTTP chunked one report identically.  The client may send a line at
any time to end the stream (``event: "end"``); that line is then answered as
an ordinary request on the same connection.

The server runs in the foreground for the CLI (:meth:`ReproServer.run`) or on
a background thread for tests and in-process use (:meth:`ReproServer.start` /
:meth:`ReproServer.stop`); ``port=0`` binds an ephemeral port, published as
:attr:`ReproServer.port` once listening.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional

from repro.service.core import (
    PROTOCOL_VERSION,
    RequestContext,
    RequestHandler,
    check_version,
    error_envelope,
    finalized_event,
    step_event,
)
from repro.service.core import error_event as core_error_event
from repro.service.wire import MAX_LINE_BYTES, decode_line, encode_line

__all__ = ["ReproServer", "DEFAULT_PORT"]

DEFAULT_PORT = 9753


class _SeriesWatcher:
    """One live series' poll loop, shared by every subscriber of that series.

    Owned by the server's event loop (no locks: all state transitions happen
    there).  The poll task refreshes the pooled series handle on the worker
    executor, publishes ``(nsteps, live, error)`` and notifies the condition;
    it parks itself once the series finalizes or errors.
    """

    def __init__(self, path: str, nsteps: int, live: bool):
        self.path = path
        self.nsteps = nsteps
        self.live = live
        self.error: Optional[str] = None
        self.refs = 0
        self.condition = asyncio.Condition()
        self.task: Optional[asyncio.Task] = None

    async def poll_loop(self, server: "ReproServer", interval: float) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                await loop.run_in_executor(
                    server._executor, server.engine.refresh, self.path)
                series = server.engine.series(self.path)
                nsteps, live, error = series.nsteps, series.live, None
            except Exception as exc:  # noqa: BLE001 - published to subscribers
                nsteps, live = self.nsteps, False
                error = f"{type(exc).__name__}: {exc}"
            if (nsteps, live, error) != (self.nsteps, self.live, self.error):
                self.nsteps, self.live, self.error = nsteps, live, error
                async with self.condition:
                    self.condition.notify_all()
            if not live:
                return
            await asyncio.sleep(interval)

    async def wait_for_step(self, step_index: int) -> None:
        """Block until step ``step_index`` commits (or live/error flips)."""
        async with self.condition:
            await self.condition.wait_for(
                lambda: self.nsteps > step_index or not self.live
                or self.error is not None)


class ReproServer:
    """Serve one :class:`RequestHandler` to concurrent TCP clients.

    Construct it from an engine (a private handler is built around it), from
    nothing (a private engine too), or from an explicit ``handler`` — the
    latter is how ``repro serve --http`` runs TCP and HTTP over one shared
    core, so both transports enforce one auth/limits policy and tally into
    one registry.
    """

    def __init__(self, engine=None,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 max_workers: int = 8, watch_interval: float = 0.25,
                 request_log=None, handler: Optional[RequestHandler] = None,
                 auth_token: Optional[str] = None,
                 max_request_bytes: Optional[int] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None):
        if handler is not None:
            if engine is not None:
                raise ValueError("pass either engine or handler, not both")
            self.handler = handler
            self._owns_handler = False
        else:
            self.handler = RequestHandler(
                engine, auth_token=auth_token,
                max_request_bytes=max_request_bytes,
                rate_limit=rate_limit, rate_burst=rate_burst,
                request_log=request_log)
            # the handler owns the engine exactly when we built both
            self._owns_handler = True
        self.engine = self.handler.engine
        #: the shared core's structured request log (kept as an attribute
        #: for introspection; the core writes it)
        self.request_log = self.handler.request_log
        self.host = host
        self.requested_port = int(port)
        #: the bound port (== requested_port unless that was 0); set on listen
        self.port: Optional[int] = None
        #: how often a watched live series is polled for new commits; the
        #: subscriber-visible event-to-commit lag is bounded by this
        self.watch_interval = float(watch_interval)
        self._executor = ThreadPoolExecutor(max_workers=max_workers)
        #: abs series path -> its watcher (event-loop state only)
        self._watchers: Dict[str, _SeriesWatcher] = {}
        #: live connection tasks, cancelled on stop so clients see EOF
        #: promptly instead of waiting out their socket timeout
        self._conn_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        # a stopped server's executor (and possibly engine) are gone for
        # good; instances are one-shot by design
        self._stopped = False

    # ------------------------------------------------------------------
    # the asyncio shell
    # ------------------------------------------------------------------
    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peername = writer.get_extra_info("peername")
        if isinstance(peername, (tuple, list)) and peername:
            return str(peername[0])
        return str(peername) if peername else "unknown"

    def _context(self, writer: asyncio.StreamWriter,
                 line: bytes) -> RequestContext:
        return RequestContext(transport="tcp", client=self._peer(writer),
                              nbytes=len(line))

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        pending_line: Optional[bytes] = None
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                if pending_line is not None:
                    line, pending_line = pending_line, None
                else:
                    try:
                        line = await reader.readline()
                    except ConnectionResetError:
                        break
                    except ValueError:
                        # readline wraps a limit overrun in ValueError; the
                        # line framing is lost, so the connection cannot
                        # continue
                        break
                if not line:
                    break
                if len(line) > self.handler.max_request_bytes:
                    # refuse before parsing: the size limit exists so a
                    # huge line costs the server nothing but this reply
                    response = error_envelope(
                        None,
                        f"request of {len(line)} bytes exceeds this "
                        f"server's {self.handler.max_request_bytes}-byte "
                        "request limit",
                        kind="oversized_request")
                    self.handler.tally(None, None, response, 0.0,
                                       transport="tcp")
                    writer.write(encode_line(response))
                    await writer.drain()
                    continue
                try:
                    request = decode_line(line)
                except ValueError as exc:
                    response = {"id": None, "ok": False,
                                "error": f"bad request line: {exc}"}
                else:
                    if isinstance(request, dict) \
                            and request.get("op") == "subscribe":
                        # streaming verb: takes over the connection until the
                        # series finalizes or the client sends a line (which
                        # comes back here as the next request)
                        pending_line = await self._stream_subscription(
                            reader, writer, request,
                            self._context(writer, line))
                        if pending_line is None:
                            continue
                        if not pending_line:
                            break
                        continue
                    response = await loop.run_in_executor(
                        self._executor, self.handler.handle, request,
                        self._context(writer, line))
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # the subscribe stream
    # ------------------------------------------------------------------
    async def _acquire_watcher(self, key: str, series) -> _SeriesWatcher:
        watcher = self._watchers.get(key)
        if watcher is None:
            watcher = _SeriesWatcher(key, series.nsteps, series.live)
            self._watchers[key] = watcher
            if watcher.live:
                watcher.task = asyncio.ensure_future(
                    watcher.poll_loop(self, self.watch_interval))
        watcher.refs += 1
        return watcher

    async def _release_watcher(self, key: str, watcher: _SeriesWatcher) -> None:
        watcher.refs -= 1
        if watcher.refs <= 0:
            self._watchers.pop(key, None)
            if watcher.task is not None:
                watcher.task.cancel()
                await asyncio.gather(watcher.task, return_exceptions=True)

    async def _stream_subscription(self, reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter,
                                   request: dict,
                                   context: RequestContext) -> Optional[bytes]:
        """Push step-committed events until finalize or a client line.

        Returns ``None`` when the stream never started (a refused request —
        the caller resumes its normal read loop), or the next raw line of the
        connection: the client's mid-stream request to answer next, or ``b""``
        at client EOF.
        """
        loop = asyncio.get_running_loop()
        request_id = request.get("id")
        start = time.perf_counter()
        trace = request.get("trace")
        trace = trace if isinstance(trace, str) and trace else None
        # admission + version negotiation go through the same core checks a
        # unary op gets (HTTP's streaming endpoint does the same)
        refusal = self.handler.refuse(request, context) \
            or check_version(request)
        if refusal is not None:
            # tally before the answer is on the wire (as unary ops do): a
            # client holding its reply must find the request already counted
            self.handler.tally("subscribe", trace, refusal,
                               time.perf_counter() - start, transport="tcp")
            writer.write(encode_line(refusal))
            await writer.drain()
            return None
        try:
            path = request.get("path")
            if not isinstance(path, str):
                raise ValueError("subscribe needs a 'path' string")
            from_step = request.get("from_step", 0)
            from_step = 0 if from_step is None else int(from_step)
            if from_step < 0:
                raise ValueError("from_step must be >= 0")
            series = await loop.run_in_executor(
                self._executor, self.handler.open_subscribed_series, path)
        except Exception as exc:  # noqa: BLE001 - refusal, not a stream
            response = error_envelope(request_id, f"{type(exc).__name__}: {exc}")
            self.handler.tally("subscribe", trace, response,
                               time.perf_counter() - start, transport="tcp")
            writer.write(encode_line(response))
            await writer.drain()
            return None
        key = os.path.abspath(path)
        watcher = await self._acquire_watcher(key, series)
        read_task: Optional[asyncio.Task] = None
        try:
            response = {
                "v": PROTOCOL_VERSION, "id": request_id, "ok": True,
                "result": {"subscribed": path, "nsteps": watcher.nsteps,
                           "high_water": watcher.nsteps - 1,
                           "live": watcher.live}}
            self.handler.tally("subscribe", trace, response,
                               time.perf_counter() - start, transport="tcp")
            writer.write(encode_line(response))
            await writer.drain()
            read_task = asyncio.ensure_future(reader.readline())
            next_step = from_step
            while True:
                # drain every committed step the subscriber has not seen;
                # strictly ordered, each exactly once
                while next_step < watcher.nsteps:
                    writer.write(encode_line(step_event(series, next_step)))
                    self.handler.tally_event("subscribe", "step", trace,
                                             "tcp", step_index=next_step)
                    next_step += 1
                await writer.drain()
                if watcher.error is not None:
                    writer.write(encode_line(
                        core_error_event(watcher.error)))
                    await writer.drain()
                    self.handler.tally_event("subscribe", "error", trace,
                                             "tcp", error=watcher.error)
                    break
                if not watcher.live:
                    writer.write(encode_line(
                        finalized_event(watcher.nsteps)))
                    await writer.drain()
                    self.handler.tally_event("subscribe", "finalized", trace,
                                             "tcp", nsteps=watcher.nsteps)
                    break
                wait_task = asyncio.ensure_future(
                    watcher.wait_for_step(next_step))
                try:
                    await asyncio.wait({read_task, wait_task},
                                       return_when=asyncio.FIRST_COMPLETED)
                finally:
                    if not wait_task.done():
                        wait_task.cancel()
                        await asyncio.gather(wait_task,
                                             return_exceptions=True)
                if read_task.done():
                    # the client spoke (or hung up): end the stream and hand
                    # its line back to the request loop
                    try:
                        line = read_task.result()
                    except (ConnectionResetError, ValueError):
                        line = b""
                    read_task = None
                    if line:
                        writer.write(encode_line(
                            {"v": PROTOCOL_VERSION, "event": "end"}))
                        await writer.drain()
                        self.handler.tally_event("subscribe", "end", trace,
                                                 "tcp")
                    return line
            # stream over (finalized/error) with the client silent so far:
            # its next line — whenever it comes — resumes the request loop
            try:
                line = await read_task
            except (ConnectionResetError, ValueError):
                line = b""
            read_task = None
            return line
        except (ConnectionResetError, BrokenPipeError):
            return b""
        finally:
            if read_task is not None:
                read_task.cancel()
                await asyncio.gather(read_task, return_exceptions=True)
            await self._release_watcher(key, watcher)

    async def _open(self) -> None:
        # the stream limit and the wire-format line limit are one number:
        # any line the protocol allows must be readable
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # foreground (the CLI) and background (tests / in-process) modes
    # ------------------------------------------------------------------
    def run(self, on_ready: Optional[Callable[["ReproServer"], None]] = None
            ) -> None:
        """Serve in the foreground until cancelled (Ctrl-C returns cleanly)."""

        async def main() -> None:
            await self._open()
            if on_ready is not None:
                on_ready(self)
            async with self._server:
                await self._server.serve_forever()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass
        finally:
            self._shutdown_sync()

    def start(self) -> "ReproServer":
        """Serve on a background thread; returns once the port is bound.

        An instance serves once: after :meth:`stop` the executor (and an
        owned engine) are shut down, so a fresh ``ReproServer`` must be
        created instead of restarting this one.
        """
        if self._stopped:
            raise RuntimeError(
                "this server was stopped and cannot be restarted; "
                "create a new ReproServer")
        if self._thread is not None:
            raise RuntimeError("server is already running")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve", daemon=True)
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(self._open(), self._loop) \
                .result(timeout=30)
        except BaseException:
            # binding failed (port taken, bad host): reap the loop thread so
            # the instance is inert, not wedged half-started
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()
            self._loop = None
            self._thread = None
            raise
        return self

    def stop(self) -> None:
        """Stop a background server and release the engine's handles."""
        if self._loop is not None and self._thread is not None:
            async def close_server() -> None:
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()
                # drop established connections too: a stopped server must
                # hand its clients EOF now, not at their socket timeout
                for conn in list(self._conn_tasks):
                    conn.cancel()
                if self._conn_tasks:
                    await asyncio.gather(*self._conn_tasks,
                                         return_exceptions=True)

            asyncio.run_coroutine_threadsafe(close_server(), self._loop) \
                .result(timeout=30)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
            self._loop.close()
            self._loop = None
            self._thread = None
            self._server = None
        self._shutdown_sync()

    def _shutdown_sync(self) -> None:
        self._stopped = True
        self._executor.shutdown(wait=False)
        if self._owns_handler:
            self.handler.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReproServer({self.host}:{self.port or self.requested_port})"
