"""The in-process fakes: the production core with no sockets."""

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.service.client import ServiceError
from repro.service.core import (
    ERROR_OVERSIZED_REQUEST,
    ERROR_UNAUTHORIZED,
    RequestHandler,
)
from repro.service.fakes import FakeClient, FakeTransport


class TestFakeTransport:
    def test_round_trip_through_real_codec(self, service_plotfile):
        with FakeTransport() as transport:
            response = transport.round_trip(
                {"id": 1, "op": "read_field", "path": service_plotfile,
                 "field": "baryon_density", "level": 0,
                 "box": [[0, 0, 0], [7, 7, 7]]})
        assert response["ok"] is True
        arr = response["result"]
        assert isinstance(arr, np.ndarray)  # codec decoded, not aliased
        with repro.open(service_plotfile) as direct:
            assert np.array_equal(
                arr, direct.read_field("baryon_density",
                                       box=Box((0, 0, 0), (7, 7, 7))))

    def test_unserialisable_payload_fails_like_a_socket(self):
        with FakeTransport() as transport:
            with pytest.raises(TypeError):
                transport.round_trip({"id": 1, "op": "ping",
                                      "junk": object()})

    def test_size_limit_applies_to_encoded_form(self):
        with FakeTransport(max_request_bytes=64) as transport:
            response = transport.round_trip(
                {"id": 1, "op": "ping", "junk": "x" * 200})
        assert response["kind"] == ERROR_OVERSIZED_REQUEST

    def test_auth_passes_through_context(self):
        with FakeTransport(auth_token="s3cret") as transport:
            refused = transport.round_trip({"id": 1, "op": "ping"})
            admitted = transport.round_trip({"id": 2, "op": "ping"},
                                            auth="s3cret")
        assert refused["kind"] == ERROR_UNAUTHORIZED
        assert admitted["ok"] is True

    def test_shares_an_external_handler(self):
        with RequestHandler() as handler:
            transport = FakeTransport(handler=handler)
            assert transport.round_trip({"id": 1, "op": "ping"})["ok"]
            snapshot = handler.registry.snapshot()
            ops = {s["labels"]["op"]: s["value"] for s in
                   snapshot["repro_server_requests_total"]["samples"]}
            assert ops["ping"] == 1
            transport.close()  # must not close the borrowed handler
            assert transport.round_trip({"id": 2, "op": "ping"})["ok"]


class TestFakeClient:
    def test_full_client_surface(self, service_plotfile):
        with FakeClient() as client:
            assert client.ping() is True
            summary = client.describe(service_plotfile)
            assert "baryon_density" in summary["fields"]
            stats = client.stats()
            assert "requests" in stats

    def test_reads_identical_to_direct(self, service_plotfile):
        box = Box((2, 2, 2), (12, 12, 12))
        with FakeClient() as client, repro.open(service_plotfile) as direct:
            served = client.read_field(service_plotfile, "baryon_density",
                                       box=box)
            expected = direct.read_field("baryon_density", box=box)
            assert served.dtype == expected.dtype
            assert np.array_equal(served, expected)

    def test_errors_raise_service_error(self, tmp_path):
        with FakeClient() as client:
            with pytest.raises(ServiceError):
                client.describe(str(tmp_path / "missing"))

    def test_auth_policy(self):
        handler = RequestHandler(auth_token="s3cret")
        try:
            with FakeClient(transport=FakeTransport(handler=handler),
                            auth_token="s3cret") as good:
                assert good.ping() is True
            with FakeClient(transport=FakeTransport(handler=handler)) as bad:
                with pytest.raises(ServiceError) as err:
                    bad.ping()
            assert err.value.kind == ERROR_UNAUTHORIZED
        finally:
            handler.close()

    def test_subscribe_finalized_series(self, service_series):
        with FakeClient() as client:
            events = list(client.subscribe(service_series))
        assert events[0]["event"] == "subscribed"
        steps = [e for e in events if e["event"] == "step"]
        assert [e["step_index"] for e in steps] == list(range(6))
        assert events[-1]["event"] == "finalized"

    def test_tcp_http_and_fake_yield_identical_event_lists(self,
                                                           service_series):
        """One core loop behind all three: same events, same payloads."""
        from repro.service import ReproClient, ReproServer
        from repro.service.http import HttpClient, HttpServer

        with RequestHandler() as handler:
            with ReproServer(handler=handler, port=0) as tcp, \
                    HttpServer(handler=handler, port=0) as http, \
                    ReproClient(port=tcp.port) as tcp_client, \
                    HttpClient(port=http.port) as http_client, \
                    FakeClient(handler=handler) as fake_client:
                via = [list(client.subscribe(service_series, from_step=1))
                       for client in (tcp_client, http_client, fake_client)]
        assert [e["event"] for e in via[0]] \
            == ["subscribed"] + ["step"] * 5 + ["finalized"]
        assert via[0] == via[1] == via[2]

    def test_tcp_http_and_fake_build_one_request_and_unwrap_one_envelope(self):
        """``ServiceOps`` owns the request and the envelope: same fields in
        the same order from every client (the wire bytes the inline copies
        produced), the bearer token in the body for TCP alone."""
        from repro.service import ReproClient, ReproServer
        from repro.service.core import PROTOCOL_VERSION
        from repro.service.http import HttpClient, HttpServer

        with RequestHandler(auth_token="s3cret") as handler:
            with ReproServer(handler=handler, port=0) as tcp, \
                    HttpServer(handler=handler, port=0) as http, \
                    ReproClient(port=tcp.port, auth_token="s3cret") as tcp_client, \
                    HttpClient(port=http.port, auth_token="s3cret") as http_client, \
                    FakeClient(handler=handler, auth_token="s3cret") as fake_client:
                for client in (tcp_client, http_client, fake_client):
                    assert client.ping() is True            # id 1, authorised
                    request = client._request("describe", path="/p")
                    in_body = client is tcp_client
                    assert list(request) == ["v", "id", "op", "path"] \
                        + ["auth"] * in_body + ["trace"]
                    assert (request["v"], request["id"], request["op"]) \
                        == (PROTOCOL_VERSION, 2, "describe")
                    assert request["trace"] == client.last_trace
                    assert request.get("auth") == ("s3cret" if in_body else None)
                    with pytest.raises(ServiceError, match="no such") as failure:
                        client.describe("/no/such/file.h5z")
                    assert failure.value.kind == "not_found"
                    client.auth_token = "wrong"
                    with pytest.raises(ServiceError) as refused:
                        client.ping()
                    assert refused.value.kind == ERROR_UNAUTHORIZED
            assert client._result({"ok": True, "result": 7}) == 7
        with FakeClient(trace=False) as untraced:
            assert list(untraced._request("ping")) == ["v", "id", "op"]
