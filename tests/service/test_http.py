"""The HTTP/JSON gateway: endpoints, status codes, auth, parity with TCP."""

import http.client
import json
import threading

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.apps.nyx import NyxSimulation
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.service import ReproClient, ReproServer
from repro.service.client import ServiceError
from repro.service.core import (
    ERROR_OVERSIZED_REQUEST,
    ERROR_RATE_LIMITED,
    ERROR_UNAUTHORIZED,
    ERROR_UNKNOWN_OP,
    PROTOCOL_VERSION,
    RequestHandler,
)
from repro.service.http import HttpClient, HttpServer


@pytest.fixture(scope="module")
def http_server(service_plotfile, service_series):
    with HttpServer(port=0) as running:
        yield running


@pytest.fixture()
def client(http_server):
    with HttpClient(port=http_server.port) as c:
        yield c


def _raw(port: int, method: str, path: str, body=None, headers=None):
    """One raw HTTP exchange: (status, decoded-JSON-or-None, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except ValueError:
            decoded = None
        return resp.status, decoded, dict(resp.getheaders())
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, http_server):
        status, body, _ = _raw(http_server.port, "GET", "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["protocol_version"] == PROTOCOL_VERSION

    def test_ping_via_client(self, client):
        assert client.ping() is True

    def test_query_endpoint_envelope(self, http_server):
        status, body, _ = _raw(
            http_server.port, "POST", "/v1/query",
            body=json.dumps({"id": 9, "op": "ping"}),
            headers={"Content-Type": "application/json"})
        assert status == 200
        assert body["ok"] is True
        assert body["id"] == 9
        assert body["result"]["pong"] is True

    def test_op_sugar_endpoint(self, http_server, service_plotfile):
        status, body, _ = _raw(
            http_server.port, "POST", "/v1/describe",
            body=json.dumps({"path": service_plotfile}),
            headers={"Content-Type": "application/json"})
        assert status == 200
        assert body["result"]["self_describing"] is True

    def test_op_sugar_contradiction_is_refused(self, http_server):
        status, body, _ = _raw(
            http_server.port, "POST", "/v1/describe",
            body=json.dumps({"op": "ping"}),
            headers={"Content-Type": "application/json"})
        assert status == 400
        assert "contradicts" in body["error"]

    def test_unknown_endpoint_404_structured(self, http_server):
        status, body, _ = _raw(http_server.port, "GET", "/nope")
        assert status == 404
        assert body["ok"] is False
        assert body["kind"] == ERROR_UNKNOWN_OP

    def test_unknown_op_404_structured(self, http_server):
        status, body, _ = _raw(
            http_server.port, "POST", "/v1/florble", body=b"{}",
            headers={"Content-Type": "application/json"})
        assert status == 404
        assert body["kind"] == ERROR_UNKNOWN_OP

    def test_missing_content_length_411(self, http_server):
        conn = http.client.HTTPConnection("127.0.0.1", http_server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/v1/query")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 411
        finally:
            conn.close()

    def test_error_kinds_map_to_statuses(self, http_server, service_plotfile,
                                         tmp_path, monkeypatch):
        def post(**request):
            status, body, _ = _raw(
                http_server.port, "POST", "/v1/query", body=json.dumps(request),
                headers={"Content-Type": "application/json"})
            assert body["ok"] is False
            return status, body["kind"]

        assert post(op="describe", path=str(tmp_path / "x")) \
            == (404, "not_found")
        assert post(op="read_field", path=service_plotfile, field="nope") \
            == (400, "bad_request")
        assert post(op="ping", v=2) == (400, "unsupported_version")
        monkeypatch.setattr(http_server.handler.engine, "describe",
                            lambda path: 1 / 0)
        assert post(op="describe", path=service_plotfile) == (500, "internal")
        # HTTP-level refusals are envelopes with a kind too
        status, body, _ = _raw(http_server.port, "POST", "/v1/query",
                               body=b"not json")
        assert (status, body["kind"]) == (400, "bad_request")

    def test_metrics_prometheus_exposition(self, client):
        client.ping()
        text = client.metrics()
        assert "# TYPE repro_server_requests_total counter" in text
        assert 'repro_server_requests_total{op="ping"}' in text

    def test_metrics_content_type(self, http_server):
        _, _, headers = _raw(http_server.port, "GET", "/metrics")
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE


class TestReadParity:
    def test_http_tcp_direct_element_wise_identical(self, http_server,
                                                    service_plotfile):
        box = Box((3, 3, 3), (18, 18, 18))
        tcp_server = ReproServer(handler=http_server.handler, port=0).start()
        try:
            with HttpClient(port=http_server.port) as hc, \
                    ReproClient(port=tcp_server.port) as tc, \
                    repro.open(service_plotfile) as direct:
                for level in (0, 1):
                    via_http = hc.read_field(service_plotfile,
                                             "baryon_density",
                                             level=level, box=box)
                    via_tcp = tc.read_field(service_plotfile,
                                            "baryon_density",
                                            level=level, box=box)
                    expected = direct.read_field("baryon_density",
                                                 level=level, box=box)
                    assert via_http.dtype == expected.dtype
                    assert np.array_equal(via_http, expected)
                    assert np.array_equal(via_tcp, expected)
        finally:
            tcp_server.stop()

    def test_time_slice_identical_to_direct(self, client, service_series):
        box = Box((0, 0, 0), (5, 5, 5))
        times, values = client.time_slice(service_series, "baryon_density",
                                          box=box, refill=False)
        with repro.open_series(service_series) as direct:
            t2, v2 = direct.time_slice("baryon_density", box=box, refill=False)
        assert np.array_equal(times, t2)
        assert np.array_equal(values, v2)

    def test_stats_op(self, client):
        stats = client.stats()
        assert "requests" in stats
        assert "registry" in stats

    def test_series_describe_is_the_handle_summary(self, http_server,
                                                   service_series, tmp_path):
        """The ``describe`` op returns exactly ``SeriesHandle.describe()`` —
        what ``info DIR --json`` prints — on both transports, an infinite
        PSNR (a series whose every dataset is exact) included."""
        sim = NyxSimulation(coarse_shape=(16, 16, 16), nranks=2,
                            target_fine_density=0.05, max_grid_size=8, seed=3)
        exact = list(sim.run(2))
        for hierarchy in exact:
            for level in hierarchy.levels:
                for fab in level.multifab:
                    fab.data[...] = 1.0
        constant = str(tmp_path / "constant")
        repro.write_series(exact, constant, error_bound=1e-3)
        tcp_server = ReproServer(handler=http_server.handler, port=0).start()
        try:
            with HttpClient(port=http_server.port) as hc, \
                    ReproClient(port=tcp_server.port) as tc:
                for directory in (service_series, constant):
                    with repro.open_series(directory) as direct:
                        expected = direct.describe()
                    assert http_server.handler.engine.describe(directory) \
                        == expected
                    assert hc.describe(directory) == expected
                    assert tc.describe(directory) == expected
        finally:
            tcp_server.stop()
        assert expected["mean_psnr_db"] == expected["worst_psnr_db"] == np.inf


class TestAuth:
    @pytest.fixture(scope="class")
    def secured(self, service_plotfile):
        with HttpServer(port=0, auth_token="s3cret") as running:
            yield running

    def test_valid_token(self, secured):
        with HttpClient(port=secured.port, auth_token="s3cret") as c:
            assert c.ping() is True

    def test_missing_token_401(self, secured):
        status, body, _ = _raw(
            secured.port, "POST", "/v1/query", body=b'{"op":"ping"}',
            headers={"Content-Type": "application/json"})
        assert status == 401
        assert body["kind"] == ERROR_UNAUTHORIZED

    def test_wrong_token_401(self, secured):
        with HttpClient(port=secured.port, auth_token="wrong") as c:
            with pytest.raises(ServiceError) as err:
                c.ping()
        assert err.value.kind == ERROR_UNAUTHORIZED

    def test_metrics_requires_token(self, secured):
        status, body, _ = _raw(secured.port, "GET", "/metrics")
        assert status == 401
        assert body["kind"] == ERROR_UNAUTHORIZED
        with HttpClient(port=secured.port, auth_token="s3cret") as c:
            assert "repro_server_requests_total" in c.metrics()

    def test_healthz_stays_open(self, secured):
        status, body, _ = _raw(secured.port, "GET", "/healthz")
        assert status == 200
        assert body["ok"] is True


class TestLimits:
    def test_oversized_request_413(self, service_plotfile):
        with HttpServer(port=0, max_request_bytes=256) as server:
            payload = json.dumps({"op": "ping", "junk": "x" * 1000})
            status, body, _ = _raw(
                server.port, "POST", "/v1/query", body=payload,
                headers={"Content-Type": "application/json"})
            assert status == 413
            assert body["kind"] == ERROR_OVERSIZED_REQUEST

    def test_rate_limit_429_and_refill(self):
        clock = [0.0]
        handler = RequestHandler(rate_limit=1.0, rate_burst=2,
                                 rate_clock=lambda: clock[0])
        with HttpServer(port=0, handler=handler) as server, \
                HttpClient(port=server.port) as c:
            assert c.ping() is True
            assert c.ping() is True
            with pytest.raises(ServiceError) as err:
                c.ping()
            assert err.value.kind == ERROR_RATE_LIMITED
            status, body, _ = _raw(
                server.port, "POST", "/v1/query", body=b'{"op":"ping"}',
                headers={"Content-Type": "application/json"})
            assert status == 429
            clock[0] += 1.5  # one token refilled
            assert c.ping() is True
        handler.close()


class TestSubscribe:
    def test_stream_over_chunked_http(self, tmp_path, service_plotfile):
        """A live series streamed over HTTP: every step exactly once, in
        order, then finalized — same contract as the TCP subscribe verb."""
        from repro.apps.nyx import NyxSimulation
        from repro.series.writer import SeriesWriter

        directory = tmp_path / "live"
        sim = NyxSimulation(coarse_shape=(8, 8, 8), nranks=1, seed=5)
        snapshots = list(sim.run(4))
        writer = SeriesWriter(str(directory), append=True,
                              keyframe_interval=2, error_bound=1e-3)
        writer.append(snapshots[0])

        with HttpServer(port=0, watch_interval=0.05) as server:
            client = HttpClient(port=server.port)
            seen = []
            done = threading.Event()

            def consume():
                for event in client.subscribe(str(directory)):
                    seen.append(event)
                done.set()

            thread = threading.Thread(target=consume, daemon=True)
            thread.start()
            for snapshot in snapshots[1:]:
                writer.append(snapshot)
            writer.close()
            assert done.wait(timeout=30), f"stream did not finish: {seen}"
            thread.join(timeout=10)
            client.close()
        assert seen[0]["event"] == "subscribed"
        steps = [e for e in seen if e["event"] == "step"]
        assert [e["step_index"] for e in steps] == [0, 1, 2, 3]
        assert seen[-1]["event"] == "finalized"
        assert seen[-1]["nsteps"] == 4

    def test_subscribe_bad_path_is_structured_error(self, http_server,
                                                    tmp_path):
        status, body, _ = _raw(
            http_server.port, "GET",
            f"/v1/subscribe?path={tmp_path}/nothing")
        assert (status, body["ok"], body["kind"]) == (404, False, "not_found")
        status, body, _ = _raw(                  # exists, but is no series
            http_server.port, "GET", f"/v1/subscribe?path={tmp_path}")
        assert (status, body["ok"], body["kind"]) == (400, False, "bad_request")

    def test_subscribe_missing_path_param(self, http_server):
        status, body, _ = _raw(http_server.port, "GET", "/v1/subscribe")
        assert status == 400
        assert "path" in body["error"]


class TestLifecycle:
    def test_stopped_server_cannot_be_restarted(self):
        server = HttpServer(port=0).start()
        server.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            server.start()

    def test_engine_and_handler_are_exclusive(self):
        from repro.service import QueryEngine

        engine = QueryEngine()
        handler = RequestHandler(engine)
        try:
            with pytest.raises(ValueError, match="not both"):
                HttpServer(engine=engine, handler=handler)
        finally:
            engine.close()
