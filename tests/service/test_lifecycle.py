"""The lifecycle both socket transports inherit: what ``stop()`` means."""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.service import ReproClient, ReproServer
from repro.service.http import HttpClient, HttpServer


@pytest.fixture(params=["tcp", "http"])
def transport(request):
    """(server class, client class) — stop() means the same on both."""
    return {"tcp": (ReproServer, ReproClient),
            "http": (HttpServer, HttpClient)}[request.param]


class TestStopSemantics:
    def test_stop_drops_an_idle_established_connection(self, transport):
        """A stopped server hands its connected clients a connection error
        on their next call — promptly, and never an answer from the closed
        engine (the HTTP gateway's keep-alive threads used to keep serving)."""
        server_cls, client_cls = transport
        server = server_cls(port=0).start()
        client = client_cls(port=server.port, timeout=30)
        try:
            assert client.ping() is True
            server.stop()
            begun = time.monotonic()
            with pytest.raises(OSError):     # ConnectionError included
                client.ping()
            assert time.monotonic() - begun < 1.0
        finally:
            client.close()
            server.stop()

    def test_start_ping_stop_leaves_stderr_empty(self, transport):
        """stderr is the request log's stream: a clean stop with a client
        still connected must not write a traceback there (the asyncio
        server's cancelled connection tasks did)."""
        server_cls, client_cls = transport
        code = (
            f"from {server_cls.__module__} import {server_cls.__name__} as S\n"
            f"from {client_cls.__module__} import {client_cls.__name__} as C\n"
            "server = S(port=0).start()\n"
            "client = C(port=server.port)\n"
            "assert client.ping() is True\n"
            "server.stop()\n"
            "client.close()\n"
            "print('stopped')\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "stopped"
        assert result.stderr == ""

    def test_stop_ends_a_live_subscribe_stream_within_one_wakeup(
            self, transport, tmp_path):
        """An open stream on a live series must not hold stop() for a poll
        interval: the wait it sleeps in is woken by the stop itself."""
        from repro.apps.nyx import NyxSimulation
        from repro.series.writer import SeriesWriter

        server_cls, client_cls = transport
        directory = str(tmp_path / "live")
        sim = NyxSimulation(coarse_shape=(8, 8, 8), nranks=1, seed=5)
        writer = SeriesWriter(directory, append=True, error_bound=1e-3)
        writer.append(next(iter(sim.run(1))))
        outcome = []
        # a 30 s poll: only the stop can end the stream inside the test
        server = server_cls(port=0, watch_interval=30.0).start()
        client = client_cls(port=server.port, timeout=60)
        stream = client.subscribe(directory)
        try:
            assert next(stream)["event"] == "subscribed"
            assert next(stream)["event"] == "step"

            def drain():
                try:
                    outcome.extend(stream)
                except OSError as exc:
                    outcome.append(exc)

            consumer = threading.Thread(target=drain, daemon=True)
            consumer.start()
            time.sleep(0.2)          # the stream is now parked in its wait
            begun = time.monotonic()
            server.stop()
            assert time.monotonic() - begun < 1.0
            consumer.join(timeout=5)
            assert not consumer.is_alive()
            # the subscriber saw the drop, not a finalized/end event
            assert len(outcome) == 1 and isinstance(outcome[0], OSError)
        finally:
            writer.abort()
            client.close()
            server.stop()
