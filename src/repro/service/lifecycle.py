"""The concurrency model and lifecycle both socket transports share.

:class:`~repro.service.server.ReproServer` and
:class:`~repro.service.http.HttpServer` are :mod:`socketserver` threading
servers — an accept loop plus one daemon thread per connection — under one
:class:`ThreadedServer`: engine-or-handler construction and ownership,
``port=0`` published as ``.port``, foreground ``run`` for the CLI, one-shot
``start`` / ``stop`` around a background thread for tests and in-process use.
A transport supplies its listener class and its per-connection handler class.
"""

from __future__ import annotations

import socket
import sys
import threading
from typing import Callable, Optional

from repro.service.core import RequestHandler

__all__ = ["ThreadedServer", "ConnectionTracking"]


class ConnectionTracking:
    """:mod:`socketserver` mixin: a daemon thread per connection, and a record
    of the established sockets so :meth:`ThreadedServer.stop` can end them.

    ``owner`` is the :class:`ThreadedServer`; connection handlers reach the
    shared core through ``self.server.owner``.
    """

    # a stuck connection must not block process exit
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 100

    def __init__(self, address, connection_class, owner: "ThreadedServer"):
        self.owner = owner
        self.connections: set = set()
        super().__init__(address, connection_class)

    def process_request(self, request, client_address) -> None:
        self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # a connection that reset, or that stop() shut down mid-write, just
        # ends; anything else keeps socketserver's traceback on stderr
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


class ThreadedServer:
    """Serve one :class:`RequestHandler` from a threading socket server.

    Construct it from an engine (a private handler is built around it), from
    nothing (a private engine too), or from an explicit ``handler`` — the
    latter is how ``repro serve --http`` runs TCP and HTTP over one shared
    core, so both transports enforce one auth/limits policy and tally into
    one registry.  An instance serves once: :meth:`run` in the foreground or
    :meth:`start` / :meth:`stop` around a background thread.
    """

    #: set by each transport: its ConnectionTracking socketserver class, the
    #: per-connection handler class, and the port used when none is given
    listener_class: type
    connection_class: type
    default_port: int

    def __init__(self, engine=None, host: str = "127.0.0.1",
                 port: Optional[int] = None, watch_interval: float = 0.25,
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
        self.host = host
        self.requested_port = int(port if port is not None
                                  else self.default_port)
        #: the bound port (== requested_port unless that was 0); set on listen
        self.port: Optional[int] = None
        #: how often a subscriber polls its live series for new commits; the
        #: subscriber-visible event-to-commit lag is bounded by this
        self.watch_interval = float(watch_interval)
        #: set by stop(); HTTP subscribe streams wait on it between polls
        self.stopping = threading.Event()
        self._listener = None
        #: the background accept-loop thread (None in foreground run())
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    def _bind(self) -> None:
        if self._stopped:
            raise RuntimeError(
                "this server was stopped and cannot be restarted; "
                f"create a new {type(self).__name__}")
        if self._listener is not None:
            raise RuntimeError("server is already running")
        # a failed bind raises here with nothing assigned: the instance
        # stays inert, and stop() on it is a no-op
        self._listener = self.listener_class(
            (self.host, self.requested_port), self.connection_class, self)
        self.port = self._listener.server_address[1]

    def run(self, on_ready: Optional[Callable[["ThreadedServer"], None]] = None
            ) -> None:
        """Serve on the calling thread until interrupted (Ctrl-C returns
        cleanly); ``on_ready(self)`` runs once the port is bound.  Only this
        call stops a foreground server — :meth:`stop` is for :meth:`start`."""
        self._bind()
        try:
            if on_ready is not None:
                on_ready(self)
            self._listener.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def start(self) -> "ThreadedServer":
        """Serve on a background thread; returns once the port is bound."""
        self._bind()
        self._thread = threading.Thread(
            target=self._listener.serve_forever, kwargs={"poll_interval": 0.1},
            name=f"repro-{type(self).__name__}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every established connection, release the
        engine's handles (when owned).  Idle clients see EOF now, not at
        their socket timeout, and no connection thread answers afterwards."""
        if self._stopped:
            return
        self._stopped = True
        self.stopping.set()
        if self._listener is not None:
            if self._thread is not None:
                self._listener.shutdown()
                self._thread.join(timeout=30)
                self._thread = None
            self._listener.server_close()
            for conn in list(self._listener.connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already went away
        if self._owns_handler:
            self.handler.close()

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}"
                f"({self.host}:{self.port or self.requested_port})")
