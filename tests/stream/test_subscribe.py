"""The subscribe verb end to end: live events, versioning, reconnect resume."""

import json
import socket
import threading
import time

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.series.writer import SeriesWriter
from repro.service import ReproClient, ReproServer
from repro.service.client import ServiceError, follow_series
from repro.service.core import (
    ERROR_UNKNOWN_OP,
    ERROR_UNSUPPORTED_VERSION,
    PROTOCOL_VERSION,
)

KEYFRAME_INTERVAL = 3
BOX = Box((0, 0, 0), (7, 7, 7))


def make_server(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("watch_interval", 0.05)
    return ReproServer(**kwargs)


class Producer(threading.Thread):
    """Appends the snapshots on a schedule, then finalizes (or aborts)."""

    def __init__(self, directory, hierarchies, delay=0.15, finalize=True,
                 **writer_kwargs):
        super().__init__(daemon=True)
        writer_kwargs.setdefault("keyframe_interval", KEYFRAME_INTERVAL)
        writer_kwargs.setdefault("error_bound", 1e-3)
        self.writer = SeriesWriter(directory, append=True, **writer_kwargs)
        self.hierarchies = hierarchies
        self.delay = delay
        self.finalize = finalize
        self.error = None

    def run(self):
        try:
            for h in self.hierarchies:
                self.writer.append(h)
                time.sleep(self.delay)
            if self.finalize:
                self.writer.close()
            else:
                self.writer.abort()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc


class TestProtocolVersion:
    def test_responses_carry_the_protocol_version(self, tmp_path):
        with make_server() as server, ReproClient(port=server.port) as client:
            result = client.call("ping")
            assert result["protocol_version"] == PROTOCOL_VERSION

    def test_version_free_requests_still_work(self, tmp_path):
        """curl omits "v" entirely; the server must not care."""
        with make_server() as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                sock.sendall(b'{"id": 1, "op": "ping"}\n')
                line = sock.makefile("rb").readline()
        response = json.loads(line)
        assert response["ok"] is True
        assert response["v"] == PROTOCOL_VERSION

    def test_newer_version_is_refused_with_a_kind(self):
        with make_server() as server, ReproClient(port=server.port) as client:
            with pytest.raises(ServiceError) as err:
                client.call("ping", v=PROTOCOL_VERSION + 7)
            assert err.value.kind == ERROR_UNSUPPORTED_VERSION
            assert "upgrade the server" in str(err.value)

    def test_unknown_op_names_the_supported_ops(self):
        with make_server() as server, ReproClient(port=server.port) as client:
            with pytest.raises(ServiceError) as err:
                client.call("transmogrify")
            assert err.value.kind == ERROR_UNKNOWN_OP
            assert "subscribe" in str(err.value)     # the op list is in the message


class TestSubscribeStream:
    def test_subscribe_refuses_a_non_series_path(self, tmp_path):
        with make_server() as server, ReproClient(port=server.port) as client:
            with pytest.raises(ServiceError, match="series"):
                for _ in client.subscribe(str(tmp_path)):
                    pass
            # the connection survives the refusal
            assert client.ping() is True

    def test_finalized_series_catch_up_then_finalized(self, hierarchies,
                                                      tmp_path):
        directory = str(tmp_path / "done")
        repro.write_series(hierarchies[:3], directory,
                           keyframe_interval=KEYFRAME_INTERVAL, error_bound=1e-3)
        with make_server() as server, ReproClient(port=server.port) as client:
            events = list(client.subscribe(directory))
            kinds = [e["event"] for e in events]
            assert kinds == ["subscribed", "step", "step", "step", "finalized"]
            assert [e["step_index"] for e in events[1:4]] == [0, 1, 2]
            assert events[1]["summary"]["kind"] == "key"
            # the same connection answers ordinary requests afterwards
            assert client.ping() is True

    def test_live_run_exactly_once_with_reads(self, hierarchies, tmp_path):
        """Producer -> server -> follow_series: every step exactly once, and
        each mid-run read equals the post-finalize read."""
        directory = str(tmp_path / "live")
        producer = Producer(directory, hierarchies, delay=0.15)
        producer.start()
        # wait for the first commit so subscribe finds a series directory
        deadline = time.time() + 30
        while producer.writer.nsteps == 0 and time.time() < deadline:
            time.sleep(0.01)
        seen, arrays = [], {}
        with make_server() as server:
            for event, arr in follow_series(directory, "baryon_density",
                                            port=server.port, box=BOX,
                                            reconnect=False):
                if event["event"] == "step":
                    seen.append(event["step_index"])
                    arrays[event["step_index"]] = arr
        producer.join(timeout=60)
        assert producer.error is None
        assert seen == list(range(len(hierarchies)))     # exactly once, ordered
        with repro.open_series(directory) as final:
            assert final.live is False
            for i, arr in arrays.items():
                want = final.read_field("baryon_density", step=i, box=BOX)
                assert np.array_equal(arr, want), f"step {i} differs"

    def test_from_step_skips_the_prefix(self, hierarchies, tmp_path):
        directory = str(tmp_path / "done")
        repro.write_series(hierarchies[:4], directory,
                           keyframe_interval=KEYFRAME_INTERVAL, error_bound=1e-3)
        with make_server() as server, ReproClient(port=server.port) as client:
            events = [e for e in client.subscribe(directory, from_step=2)
                      if e["event"] == "step"]
            assert [e["step_index"] for e in events] == [2, 3]

    def test_reconnect_resumes_from_the_next_unseen_step(self, hierarchies,
                                                         tmp_path):
        """Kill the server mid-stream; follow_series reconnects to its
        successor on the same port and never repeats or drops a step."""
        directory = str(tmp_path / "live")
        producer = Producer(directory, hierarchies, delay=0.25)
        producer.start()
        deadline = time.time() + 30
        while producer.writer.nsteps == 0 and time.time() < deadline:
            time.sleep(0.01)

        first = make_server().start()
        port = first.port
        servers = [first]
        stopped = threading.Event()

        def chaos():
            # let a few events flow, then yank the server and start another
            time.sleep(0.6)
            first.stop()
            replacement = None
            for _ in range(50):
                try:
                    replacement = ReproServer(
                        port=port, watch_interval=0.05).start()
                    break
                except OSError:
                    time.sleep(0.1)      # the old port lingers briefly
            assert replacement is not None, "could not rebind the port"
            servers.append(replacement)
            stopped.set()

        chaos_thread = threading.Thread(target=chaos, daemon=True)
        chaos_thread.start()
        seen = []
        try:
            for event, arr in follow_series(directory, port=port,
                                            max_retries=40, retry_delay=0.25):
                if event["event"] == "step":
                    seen.append(event["step_index"])
        finally:
            producer.join(timeout=60)
            chaos_thread.join(timeout=60)
            for s in servers:
                try:
                    s.stop()
                except Exception:  # noqa: BLE001 - already stopped
                    pass
        assert producer.error is None
        assert stopped.is_set(), "the server restart never happened"
        assert seen == list(range(len(hierarchies)))

    def test_eight_subscribers_each_see_every_step_once_in_order(
            self, hierarchies, tmp_path):
        """Each subscriber polls the series itself; none may miss, repeat or
        reorder a step whatever the interleaving."""
        directory = str(tmp_path / "live")
        producer = Producer(directory, hierarchies[:4], delay=0.15)
        producer.start()
        deadline = time.time() + 30
        while producer.writer.nsteps == 0 and time.time() < deadline:
            time.sleep(0.01)
        results = {}
        with make_server() as server:
            def subscriber(tag):
                steps = [e["step_index"]
                         for e, _ in follow_series(directory, port=server.port,
                                                   reconnect=False)
                         if e["event"] == "step"]
                results[tag] = steps

            threads = [threading.Thread(target=subscriber, args=(t,))
                       for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        producer.join(timeout=60)
        assert producer.error is None
        assert results == {tag: list(range(4)) for tag in range(8)}


class TestClientLineDuringStream:
    """TCP's own rule: a client line ends the stream with one ``end`` event
    and is then answered as an ordinary request on the same connection."""

    @pytest.fixture()
    def live_dir(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, append=True, error_bound=1e-3,
                              keyframe_interval=KEYFRAME_INTERVAL)
        writer.append(hierarchies[0])
        yield directory
        writer.abort()

    @staticmethod
    def _line(**request):
        return (json.dumps(request) + "\n").encode()

    def test_a_line_mid_stream_yields_one_end_and_is_answered(self, live_dir):
        # a 30 s poll: only the client's line can end the stream in time
        with make_server(watch_interval=30.0) as server, \
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=10) as sock:
            lines = sock.makefile("rb")
            sock.sendall(self._line(id=1, op="subscribe", path=live_dir))
            ack = json.loads(lines.readline())
            assert ack["ok"] is True and ack["result"]["live"] is True
            assert json.loads(lines.readline())["event"] == "step"
            time.sleep(0.2)              # the stream is parked in its wait
            begun = time.monotonic()
            sock.sendall(self._line(id=2, op="ping"))
            assert json.loads(lines.readline()) \
                == {"v": PROTOCOL_VERSION, "event": "end"}
            assert time.monotonic() - begun < 1.0
            pong = json.loads(lines.readline())
            assert pong["id"] == 2 and pong["result"]["pong"] is True
            # exactly one end: the connection is back to request/response
            sock.sendall(self._line(id=3, op="ping"))
            assert json.loads(lines.readline())["id"] == 3

    def test_a_line_pipelined_behind_the_subscribe_request(self, live_dir):
        """The client's line may already sit in the server's read buffer
        when the stream starts; it must still end it."""
        with make_server(watch_interval=30.0) as server, \
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=10) as sock:
            lines = sock.makefile("rb")
            sock.sendall(self._line(id=1, op="subscribe", path=live_dir)
                         + self._line(id=2, op="ping"))
            received = [json.loads(lines.readline()) for _ in range(4)]
            samples = server.engine.registry.snapshot()[
                "repro_server_stream_events_total"]["samples"]
        assert received[0]["id"] == 1 and received[0]["ok"] is True
        # the committed step is still delivered before the stream ends
        assert [r.get("event") for r in received[1:3]] == ["step", "end"]
        assert received[3]["id"] == 2 and received[3]["result"]["pong"] is True
        # the end event is tallied like the core's own events
        assert {s["labels"]["event"]: s["value"] for s in samples} \
            == {"step": 1, "end": 1}


class TestRefreshOp:
    def test_refresh_op_reports_live_state(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        writer.append(hierarchies[0])
        try:
            with make_server() as server, \
                    ReproClient(port=server.port) as client:
                state = client.refresh(directory)
                assert state["live"] is True and state["nsteps"] == 1
                writer.append(hierarchies[1])
                state = client.refresh(directory)
                assert state["appended"] == 1
                assert state["nsteps"] == 2 and state["high_water"] == 1
        finally:
            writer.abort()
