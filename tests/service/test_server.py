"""The TCP service: wire format, concurrent clients, errors, CLI verbs."""

import io
import json
import socket
import threading
import time

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.cli import main as cli_main
from repro.service import BoxQuery, QueryEngine, ReproClient, ReproServer
from repro.service.client import ServiceError
from repro.service.wire import decode_line, encode_line


@pytest.fixture(scope="module")
def server(service_plotfile, service_series):
    with ReproServer(port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    with ReproClient(port=server.port) as c:
        yield c


class TestWireFormat:
    def test_arrays_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5))
        back = decode_line(encode_line(arr))
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)          # bitwise, not approx

    def test_nested_structures_round_trip(self):
        payload = {"times": np.arange(3.0), "meta": {"n": np.int64(7)},
                   "list": [np.float64(1.5), "text", None]}
        back = decode_line(encode_line(payload))
        assert np.array_equal(back["times"], np.arange(3.0))
        assert back["meta"]["n"] == 7
        assert back["list"] == [1.5, "text", None]

    def test_nan_and_inf_survive(self):
        arr = np.array([np.nan, np.inf, -np.inf, 0.0])
        back = decode_line(encode_line(arr))
        assert np.isnan(back[0]) and np.isinf(back[1]) and np.isinf(-back[2])


class TestServedReads:
    def test_ping_describe(self, client, service_plotfile):
        assert client.ping() is True
        summary = client.describe(service_plotfile)
        assert summary["self_describing"] is True
        assert "baryon_density" in summary["fields"]

    def test_read_field_identical_to_direct(self, client, service_plotfile):
        box = Box((3, 3, 3), (18, 18, 18))
        with repro.open(service_plotfile) as direct:
            for level in (0, 1):
                served = client.read_field(service_plotfile, "baryon_density",
                                           level=level, box=box)
                assert np.array_equal(
                    served, direct.read_field("baryon_density", level=level,
                                              box=box))

    def test_read_batch_identical_to_direct(self, client, service_plotfile):
        queries = [BoxQuery(path=service_plotfile, field="temperature",
                            box=Box((i, i, 0), (i + 7, i + 7, 7)))
                   for i in range(5)]
        served = client.read_batch(queries)
        with repro.open(service_plotfile) as direct:
            for q, arr in zip(queries, served):
                assert np.array_equal(
                    arr, direct.read_field(q.field, level=q.level, box=q.box))

    def test_series_time_slice_identical_to_direct(self, client, service_series):
        box = Box((0, 0, 0), (5, 5, 5))
        times, values = client.time_slice(service_series, "baryon_density",
                                          box=box, refill=False)
        with repro.open_series(service_series) as direct:
            t2, v2 = direct.time_slice("baryon_density", box=box, refill=False)
        assert np.array_equal(times, t2)
        assert np.array_equal(values, v2)

    def test_stats_op(self, client, service_plotfile):
        client.read_field(service_plotfile, "baryon_density",
                          box=Box((0, 0, 0), (7, 7, 7)))
        stats = client.stats()
        assert stats["requests"] >= 1
        assert "cache_hits" in stats


class TestConcurrentClients:
    def test_many_clients_read_identical_values(self, server, service_plotfile):
        with repro.open(service_plotfile) as direct:
            expected = {level: direct.read_field("baryon_density", level=level)
                        for level in (0, 1)}
        failures = []

        def worker(tid):
            try:
                with ReproClient(port=server.port) as mine:
                    for round_ in range(4):
                        level = (tid + round_) % 2
                        arr = mine.read_field(service_plotfile,
                                              "baryon_density", level=level)
                        if not np.array_equal(arr, expected[level]):
                            failures.append((tid, round_, level))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append((tid, repr(exc)))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_clients_share_one_cache(self, service_plotfile):
        engine = QueryEngine()
        with ReproServer(engine, port=0) as running:
            box = Box((0, 0, 0), (15, 15, 15))
            with ReproClient(port=running.port) as first:
                first.read_field(service_plotfile, "baryon_density", box=box,
                                 refill=False)
            decoded_after_first = engine.stats()["chunks_decoded"]
            with ReproClient(port=running.port) as second:
                second.read_field(service_plotfile, "baryon_density", box=box,
                                  refill=False)
            assert engine.stats()["chunks_decoded"] == decoded_after_first
        engine.close()


class TestServerErrors:
    def test_unknown_op_is_an_error_reply(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client.call("frobnicate")

    def test_missing_file_is_an_error_reply(self, client, tmp_path):
        with pytest.raises(ServiceError, match="no such file") as err:
            client.describe(str(tmp_path / "nope.h5z"))
        assert err.value.kind == "not_found"

    def test_connection_survives_an_error(self, client, service_plotfile):
        with pytest.raises(ServiceError):
            client.call("frobnicate")
        assert client.ping() is True

    def test_bad_json_line_gets_error_reply(self, server):
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False and reply["kind"] == "bad_request"
        assert "bad request line" in reply["error"]


class TestLineFraming:
    """The threaded shell's own job: newline framing over raw ``recv``."""

    @staticmethod
    def _connect(server):
        return socket.create_connection(("127.0.0.1", server.port), 10)

    def test_split_and_pipelined_lines(self, server):
        with self._connect(server) as sock:
            lines = sock.makefile("rb")
            # one request in two segments, then two requests in one segment
            sock.sendall(b'{"id": 1, "op"')
            time.sleep(0.05)
            sock.sendall(b': "ping"}\n')
            assert json.loads(lines.readline())["id"] == 1
            sock.sendall(b'{"id": 2, "op": "ping"}\n{"id": 3, "op": "ping"}\n')
            assert [json.loads(lines.readline())["id"] for _ in range(2)] \
                == [2, 3]

    def test_unterminated_tail_is_answered_at_eof(self, server):
        with self._connect(server) as sock:
            sock.sendall(b'{"id": 7, "op": "ping"}')
            sock.shutdown(socket.SHUT_WR)
            lines = sock.makefile("rb")
            assert json.loads(lines.readline())["id"] == 7
            assert lines.readline() == b""

    def test_oversized_request_is_refused_unparsed(self):
        with ReproServer(port=0, max_request_bytes=256) as running, \
                self._connect(running) as sock:
            lines = sock.makefile("rb")
            sock.sendall(b"x" * 1000 + b"\n")        # not even JSON
            reply = json.loads(lines.readline())
            assert reply["ok"] is False and reply["id"] is None
            assert reply["kind"] == "oversized_request"
            # refused, tallied, and the connection serves on
            sock.sendall(b'{"id": 2, "op": "ping"}\n')
            assert json.loads(lines.readline())["id"] == 2
            errors = running.engine.registry.snapshot()[
                "repro_server_errors_total"]["samples"]
            assert [(s["labels"]["kind"], s["value"]) for s in errors] \
                == [("oversized_request", 1)]

    def test_a_newline_less_flood_is_refused_at_the_request_limit(self):
        """Nothing past ``max_request_bytes`` is buffered waiting for a
        newline: the line is refused by size as it stands and, the framing
        lost, the connection ends."""
        with ReproServer(port=0, max_request_bytes=1024) as running, \
                self._connect(running) as sock:
            lines = sock.makefile("rb")
            try:
                for _ in range(64):                  # 4 MiB, no newline in sight
                    sock.sendall(b"x" * (1 << 16))
            except OSError:
                pass                                 # hung up on mid-flood
            reply = json.loads(lines.readline())
            assert reply["ok"] is False and reply["kind"] == "oversized_request"
            assert "exceeds" in reply["error"]
            assert lines.readline() == b""


class TestCLIVerbs:
    def test_query_cli_against_running_server(self, server, service_plotfile,
                                              service_series, capsys):
        port = ["--port", str(server.port)]
        assert cli_main(["query", "ping", *port]) == 0
        assert "pong" in capsys.readouterr().out
        assert cli_main(["query", "describe", service_plotfile, *port]) == 0
        assert '"self_describing": true' in capsys.readouterr().out
        assert cli_main(["query", "read-field", service_plotfile,
                         "--field", "baryon_density", "--box", "0:7,0:7,0:7",
                         *port]) == 0
        assert "shape=(8, 8, 8)" in capsys.readouterr().out
        assert cli_main(["query", "time-slice", service_series,
                         "--field", "baryon_density", "--box", "0:3,0:3,0:3",
                         "--no-refill", *port]) == 0
        assert "over 6 steps" in capsys.readouterr().out
        assert cli_main(["query", "stats", *port]) == 0
        assert "cache_hits" in capsys.readouterr().out

    def test_query_cli_json_read_field(self, server, service_plotfile, capsys):
        assert cli_main(["query", "read-field", service_plotfile,
                         "--field", "baryon_density", "--box", "0:3,0:3,0:3",
                         "--json", "--port", str(server.port)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == [4, 4, 4]

    def test_query_cli_argument_validation(self, server, capsys):
        port = ["--port", str(server.port)]
        assert cli_main(["query", "read-field", *port]) == 1
        assert "needs a path" in capsys.readouterr().err
        assert cli_main(["query", "read-field", "x.h5z", *port]) == 1
        assert "needs --field" in capsys.readouterr().err
        assert cli_main(["query", "read-field", "x.h5z", "--field", "rho",
                         "--box", "0-7", *port]) == 1
        assert "bad --box" in capsys.readouterr().err
        assert cli_main(["query", "frobnicate", *port]) == 1
        assert "unknown query op" in capsys.readouterr().err
        assert cli_main(["query", "follow", "series_dir", "--http", *port]) == 1
        assert "streams over the TCP service" in capsys.readouterr().err

    def test_query_cli_unreachable_server_fails_cleanly(self, capsys):
        assert cli_main(["query", "ping", "--port", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_cli_server_error_is_one_line(self, server, tmp_path, capsys):
        # a ServiceError reply must become a one-line error, not a traceback
        assert cli_main(["query", "describe", str(tmp_path / "nope.h5z"),
                         "--port", str(server.port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no such file" in err


class TestServerLifecycle:
    def test_stopped_server_cannot_be_restarted(self):
        srv = ReproServer(port=0).start()
        srv.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            srv.start()

    def test_failed_bind_leaves_the_instance_inert(self, server):
        # the background fixture already owns its port; binding it again fails
        doomed = ReproServer(port=server.port)
        with pytest.raises(OSError):
            doomed.start()
        assert doomed._thread is None and doomed.port is None
        doomed.stop()   # a clean no-op, not a hang

    def test_max_workers_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_workers"):
            ReproServer(port=0, max_workers=0)

    def test_more_clients_than_engine_slots_are_all_served(self,
                                                           service_plotfile):
        """max_workers bounds concurrent engine calls, not connections."""
        failures = []
        with ReproServer(port=0, max_workers=2) as running:
            def worker():
                try:
                    with ReproClient(port=running.port) as mine:
                        for _ in range(5):
                            mine.describe(service_plotfile)
                except Exception as exc:  # noqa: BLE001 - collected
                    failures.append(repr(exc))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestClientDesyncProtection:
    def test_mismatched_response_id_closes_the_client(self, server):
        # a stale line (e.g. left over from a timed-out call) must not be
        # returned as the answer to the next request
        with ReproClient(port=server.port) as c:
            c._rfile = io.BytesIO(
                encode_line({"id": 999, "ok": True, "result": {}}))
            with pytest.raises(ConnectionError, match="out-of-sync"):
                c.ping()
            assert c._closed
