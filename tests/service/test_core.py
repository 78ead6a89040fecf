"""The transport-neutral request core: dispatch, admission, telemetry."""

import io
import json

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.service.core import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_NOT_FOUND,
    ERROR_OVERSIZED_REQUEST,
    ERROR_RATE_LIMITED,
    ERROR_UNAUTHORIZED,
    ERROR_UNKNOWN_OP,
    ERROR_UNSUPPORTED_VERSION,
    PROTOCOL_VERSION,
    RateLimiter,
    RequestContext,
    RequestHandler,
    check_version,
    error_envelope,
    resolve_auth_token,
)


class TestDispatch:
    def test_ping(self):
        with RequestHandler() as handler:
            response = handler.handle({"id": 1, "op": "ping"})
        assert response["ok"] is True
        assert response["id"] == 1
        assert response["v"] == PROTOCOL_VERSION
        assert response["result"]["pong"] is True

    def test_read_field_identical_to_direct(self, service_plotfile):
        box = Box((2, 2, 2), (17, 17, 17))
        with RequestHandler() as handler:
            response = handler.handle(
                {"id": 1, "op": "read_field", "path": service_plotfile,
                 "field": "baryon_density", "level": 0,
                 "box": [list(box.lo), list(box.hi)]})
        with repro.open(service_plotfile) as direct:
            expected = direct.read_field("baryon_density", box=box)
        assert np.array_equal(response["result"], expected)

    def test_unknown_op_kind(self):
        with RequestHandler() as handler:
            response = handler.handle({"id": 5, "op": "florble"})
        assert response["ok"] is False
        assert response["kind"] == ERROR_UNKNOWN_OP

    def test_engine_errors_become_replies_not_raises(self, tmp_path):
        with RequestHandler() as handler:
            response = handler.handle(
                {"id": 2, "op": "describe", "path": str(tmp_path / "nope")})
        assert response["ok"] is False
        assert "nope" in response["error"]

    def test_newer_protocol_version_is_refused(self):
        with RequestHandler() as handler:
            response = handler.handle(
                {"v": PROTOCOL_VERSION + 1, "id": 3, "op": "ping"})
        assert response["ok"] is False
        assert response["kind"] == ERROR_UNSUPPORTED_VERSION
        # the shared negotiation rule agrees
        assert check_version({"v": PROTOCOL_VERSION + 1}) is not None
        assert check_version({"v": PROTOCOL_VERSION, "op": "ping"}) is None
        assert check_version({"op": "ping"}) is None  # curl sends no "v"

    def test_older_protocol_version_is_refused_too(self):
        """No negotiation: a v2 peer would misread a framed array, so it gets
        the (array-free, hence readable) refusal instead."""
        with RequestHandler() as handler:
            for v in (PROTOCOL_VERSION - 1, 1, 0, True, "3"):
                response = handler.handle({"v": v, "id": 3, "op": "ping"})
                assert response["kind"] == ERROR_UNSUPPORTED_VERSION, v
                assert response["id"] == 3

    def test_subscribe_is_not_a_unary_op(self):
        with RequestHandler() as handler:
            response = handler.handle({"id": 4, "op": "subscribe"})
        assert response["ok"] is False
        assert "streaming" in response["error"]


class TestAuth:
    def test_open_service_needs_no_token(self):
        with RequestHandler() as handler:
            assert handler.handle({"id": 1, "op": "ping"})["ok"] is True

    def test_missing_token_refused(self):
        with RequestHandler(auth_token="s3cret") as handler:
            response = handler.handle({"id": 1, "op": "ping"})
        assert response["ok"] is False
        assert response["kind"] == ERROR_UNAUTHORIZED

    def test_wrong_token_refused(self):
        with RequestHandler(auth_token="s3cret") as handler:
            response = handler.handle(
                {"id": 1, "op": "ping", "auth": "wrong"})
        assert response["ok"] is False
        assert response["kind"] == ERROR_UNAUTHORIZED

    def test_valid_token_admitted_via_wire_field(self):
        with RequestHandler(auth_token="s3cret") as handler:
            response = handler.handle(
                {"id": 1, "op": "ping", "auth": "s3cret"})
        assert response["ok"] is True

    def test_valid_token_admitted_via_context(self):
        with RequestHandler(auth_token="s3cret") as handler:
            response = handler.handle(
                {"id": 1, "op": "ping"},
                RequestContext(transport="http", auth="s3cret"))
        assert response["ok"] is True

    def test_refusals_happen_before_dispatch(self, tmp_path):
        # an unauthenticated request must not touch the engine
        with RequestHandler(auth_token="s3cret") as handler:
            response = handler.handle(
                {"id": 1, "op": "describe", "path": str(tmp_path / "x")})
        assert response["kind"] == ERROR_UNAUTHORIZED
        assert "describe" not in response.get("error", "describe")


class TestResolveAuthToken:
    def test_none_disables_auth(self):
        assert resolve_auth_token(None) is None

    def test_literal(self):
        assert resolve_auth_token("hunter2") == "hunter2"

    def test_env_indirection(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_TOKEN", "from-env")
        assert resolve_auth_token("env:REPRO_TEST_TOKEN") == "from-env"

    def test_unset_env_is_an_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_TOKEN", raising=False)
        with pytest.raises(ValueError, match="REPRO_TEST_TOKEN"):
            resolve_auth_token("env:REPRO_TEST_TOKEN")

    def test_file_indirection(self, tmp_path):
        secret = tmp_path / "token"
        secret.write_text("from-file\n")
        assert resolve_auth_token(f"file:{secret}") == "from-file"

    def test_empty_file_is_an_error(self, tmp_path):
        secret = tmp_path / "token"
        secret.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            resolve_auth_token(f"file:{secret}")

    def test_empty_literal_is_an_error(self):
        with pytest.raises(ValueError):
            resolve_auth_token("")


class TestSizeLimit:
    def test_oversized_request_refused(self):
        with RequestHandler(max_request_bytes=100) as handler:
            response = handler.handle(
                {"id": 1, "op": "ping"},
                RequestContext(transport="tcp", nbytes=101))
        assert response["ok"] is False
        assert response["kind"] == ERROR_OVERSIZED_REQUEST

    def test_unmeasured_and_small_requests_admitted(self):
        with RequestHandler(max_request_bytes=100) as handler:
            assert handler.handle(
                {"id": 1, "op": "ping"},
                RequestContext(nbytes=100))["ok"] is True
            assert handler.handle({"id": 2, "op": "ping"})["ok"] is True

    def test_size_refused_before_auth_checked(self):
        with RequestHandler(auth_token="s3cret",
                            max_request_bytes=10) as handler:
            response = handler.handle(
                {"id": 1, "op": "ping"}, RequestContext(nbytes=11))
        assert response["kind"] == ERROR_OVERSIZED_REQUEST


class TestRateLimiter:
    def test_burst_then_refusal_then_refill(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=3, clock=lambda: clock[0])
        assert [limiter.allow("a") for _ in range(4)] \
            == [True, True, True, False]
        clock[0] += 2.0  # 2 tokens back at 1 rps
        assert limiter.allow("a") is True
        assert limiter.allow("a") is True
        assert limiter.allow("a") is False

    def test_buckets_are_per_client(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        assert limiter.allow("a") is True
        assert limiter.allow("a") is False
        assert limiter.allow("b") is True  # a's dry bucket is not b's

    def test_bucket_never_exceeds_burst(self):
        clock = [0.0]
        limiter = RateLimiter(rate=10.0, burst=2, clock=lambda: clock[0])
        assert limiter.allow("a")
        clock[0] += 100.0  # a century of refill still caps at burst
        assert [limiter.allow("a") for _ in range(3)] == [True, True, False]

    def test_idle_buckets_are_pruned(self):
        clock = [0.0]
        limiter = RateLimiter(rate=100.0, burst=1, clock=lambda: clock[0])
        limiter._PRUNE_AT = 4  # force the path without 4096 clients
        for i in range(4):
            limiter.allow(f"client-{i}")
        clock[0] += 10.0  # everyone refilled -> all prunable
        limiter.allow("one-more")
        assert len(limiter._buckets) <= 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)
        with pytest.raises(ValueError):
            RateLimiter(rate=5, burst=0.5)

    def test_handler_rate_limit_exhaustion_and_refill(self):
        clock = [0.0]
        with RequestHandler(rate_limit=1.0, rate_burst=2,
                            rate_clock=lambda: clock[0]) as handler:
            context = RequestContext(transport="tcp", client="10.0.0.1")
            assert handler.handle({"id": 1, "op": "ping"}, context)["ok"]
            assert handler.handle({"id": 2, "op": "ping"}, context)["ok"]
            refused = handler.handle({"id": 3, "op": "ping"}, context)
            assert refused["ok"] is False
            assert refused["kind"] == ERROR_RATE_LIMITED
            clock[0] += 1.5
            assert handler.handle({"id": 4, "op": "ping"}, context)["ok"]


class TestTelemetry:
    def test_tallies_and_log_lines(self):
        log = io.StringIO()
        with RequestHandler(request_log=log) as handler:
            handler.handle({"id": 1, "op": "ping", "trace": "t-abc"},
                           RequestContext(transport="http"))
            handler.handle({"id": 2, "op": "florble"})
        snapshot = handler.registry.snapshot()
        requests = {tuple(sorted((s.get("labels") or {}).items())): s["value"]
                    for s in snapshot["repro_server_requests_total"]["samples"]}
        assert requests[(("op", "ping"),)] == 1
        assert requests[(("op", "florble"),)] == 1
        errors = {s["labels"]["kind"]: s["value"]
                  for s in snapshot["repro_server_errors_total"]["samples"]}
        assert errors[ERROR_UNKNOWN_OP] == 1
        records = [json.loads(line) for line in
                   log.getvalue().strip().splitlines()]
        assert len(records) == 2
        assert records[0]["event"] == "request"
        assert records[0]["op"] == "ping"
        assert records[0]["ok"] is True
        assert records[0]["trace"] == "t-abc"
        assert records[0]["transport"] == "http"
        assert records[1]["ok"] is False
        assert records[1]["error_kind"] == ERROR_UNKNOWN_OP

    def test_refusals_are_tallied_with_kind(self):
        with RequestHandler(auth_token="s3cret") as handler:
            handler.handle({"id": 1, "op": "ping"})
        snapshot = handler.registry.snapshot()
        errors = {s["labels"]["kind"]: s["value"]
                  for s in snapshot["repro_server_errors_total"]["samples"]}
        assert errors[ERROR_UNAUTHORIZED] == 1

    def test_stream_events_are_tallied(self, service_series):
        log = io.StringIO()
        with RequestHandler(request_log=log) as handler:
            events = list(handler.subscribe_events(
                service_series, trace="t-sub", transport="http"))
        assert [e["event"] for e in events] \
            == ["step"] * 6 + ["finalized"]
        snapshot = handler.registry.snapshot()
        counts = {s["labels"]["event"]: s["value"]
                  for s in
                  snapshot["repro_server_stream_events_total"]["samples"]}
        assert counts["step"] == 6
        assert counts["finalized"] == 1
        records = [json.loads(line) for line in
                   log.getvalue().strip().splitlines()]
        assert all(r["event"] == "stream" for r in records)
        assert all(r["transport"] == "http" for r in records)
        assert all(r["trace"] == "t-sub" for r in records)


class TestErrorEnvelope:
    def test_shape(self):
        envelope = error_envelope(7, "boom", kind=ERROR_UNKNOWN_OP)
        assert envelope == {"v": PROTOCOL_VERSION, "id": 7, "ok": False,
                            "error": "boom", "kind": ERROR_UNKNOWN_OP}

    def test_a_kind_is_not_optional(self):
        with pytest.raises(TypeError):
            error_envelope(None, "boom")


class TestErrorKinds:
    """Every failed request says whose fault it was."""

    @pytest.fixture(scope="class")
    def handler(self):
        with RequestHandler() as running:
            yield running

    def _kind(self, handler, request):
        response = handler.handle(request)
        assert response["ok"] is False
        return response["kind"], response["error"]

    @pytest.mark.parametrize("request_", [
        "not an object", ["op", "ping"], None,
        {"op": "describe"}, {"op": "describe", "path": 5},
        {"op": "read_batch"}, {"op": "read_batch", "queries": [5]},
        {"op": "subscribe", "path": "x"},
        {"op": "read_field", "path": "{plotfile}"},
        {"op": "read_field", "path": "{plotfile}", "field": "nope"},
        {"op": "read_field", "path": "{plotfile}", "field": "baryon_density",
         "level": 9},
        {"op": "read_field", "path": "{plotfile}", "field": "baryon_density",
         "level": [0]},
        {"op": "read_field", "path": "{plotfile}", "field": "baryon_density",
         "step": 1},
        {"op": "read_field", "path": "{plotfile}", "field": "baryon_density",
         "box": [[5, 5, 5], [1, 1, 1]]},
        {"op": "read_field", "path": "{plotfile}", "field": "baryon_density",
         "box": "0:7"},
        {"op": "read_field", "path": "{series}", "field": "baryon_density",
         "step": 99},
        {"op": "time_slice", "path": "{series}", "field": "baryon_density",
         "steps": "all"},
        {"op": "time_slice", "path": "{plotfile}", "field": "baryon_density"},
        {"op": "refresh", "path": "{plotfile}"},
    ], ids=repr)
    def test_bad_request(self, handler, request_, service_plotfile,
                         service_series):
        if isinstance(request_, dict) and "path" in request_:
            request_ = dict(request_, path=str(request_["path"]).format(
                plotfile=service_plotfile, series=service_series)
                if isinstance(request_["path"], str) else request_["path"])
        kind, _ = self._kind(handler, request_)
        assert kind == ERROR_BAD_REQUEST

    @pytest.mark.parametrize("op", ["describe", "read_field", "time_slice",
                                    "refresh"])
    def test_not_found_echoes_the_clients_own_path(self, handler, op,
                                                   tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        kind, error = self._kind(
            handler, {"op": op, "path": "runs/nope.h5z", "field": "rho"})
        assert kind == ERROR_NOT_FOUND
        assert "'runs/nope.h5z'" in error
        assert str(tmp_path) not in error       # not the server's absolute path

    def test_not_found_inside_a_batch(self, handler, service_plotfile):
        kind, error = self._kind(handler, {"op": "read_batch", "queries": [
            {"path": service_plotfile, "field": "baryon_density"},
            {"path": "/no/such/file.h5z", "field": "baryon_density"}]})
        assert (kind, "'/no/such/file.h5z'" in error) == (ERROR_NOT_FOUND, True)

    def test_anything_else_is_internal(self, service_plotfile):
        with RequestHandler() as handler:
            handler.engine.describe = lambda path: 1 / 0
            kind, error = self._kind(
                handler, {"op": "describe", "path": service_plotfile})
        assert kind == ERROR_INTERNAL and "ZeroDivisionError" in error

    def test_error_counter_is_labelled_by_kind(self, service_plotfile):
        with RequestHandler() as handler:
            handler.handle({"op": "describe", "path": "/no/such/file"})
            handler.handle({"op": "read_field", "path": service_plotfile})
            errors = {s["labels"]["kind"]: s["value"] for s in
                      handler.registry.snapshot()
                      ["repro_server_errors_total"]["samples"]}
        assert errors == {ERROR_NOT_FOUND: 1, ERROR_BAD_REQUEST: 1}

    def test_a_failed_refresh_mid_stream_carries_its_kind(self, tmp_path):
        from repro.apps.nyx import NyxSimulation
        from repro.series.writer import SeriesWriter

        writer = SeriesWriter(str(tmp_path / "live"), append=True,
                              error_bound=1e-3)
        writer.append(next(iter(
            NyxSimulation(coarse_shape=(8, 8, 8), nranks=1, seed=5).run(1))))
        try:
            with RequestHandler() as handler:
                handler.engine.refresh = lambda path: 1 / 0
                events = list(handler.subscribe_events(
                    str(tmp_path / "live"), poll_interval=0.01))
        finally:
            writer.close()
        assert [e["event"] for e in events] == ["step", "error"]
        assert events[-1]["kind"] == ERROR_INTERNAL
        assert "ZeroDivisionError" in events[-1]["error"]
