"""The observability layer end to end: traces, request logs, the stats op,
error-envelope counting, and the one I/O ledger over shared sources."""

import io
import json
import os
import socket

import pytest

import repro
from repro.cli import main as cli_main
from repro.core.reader import PlotfileHandle
from repro.h5lite.source import make_source
from repro.obs import NULL_REGISTRY, render_prometheus
from repro.service import QueryEngine, ReproClient, ReproServer
from repro.service.wire import decode_line, encode_line


@pytest.fixture()
def observed_server(service_plotfile, service_series):
    """A server whose request log and registry the test can inspect."""
    log = io.StringIO()
    engine = QueryEngine()
    with ReproServer(engine, port=0, request_log=log) as running:
        yield running, engine, log


def _log_records(log: io.StringIO):
    return [json.loads(line) for line in log.getvalue().splitlines()]


class TestTracePropagation:
    def test_trace_travels_client_to_server_to_engine(self, observed_server,
                                                      service_plotfile):
        server, engine, log = observed_server
        with ReproClient(port=server.port) as client:
            client.read_field(service_plotfile, "baryon_density")
            sent = client.last_trace
        assert sent is not None
        assert engine.last_trace == sent
        traced = [r for r in _log_records(log) if r.get("trace") == sent]
        assert len(traced) == 1
        assert traced[0]["op"] == "read_field"

    def test_tracing_can_be_disabled(self, observed_server, service_plotfile):
        server, engine, _ = observed_server
        with ReproClient(port=server.port, trace=False) as client:
            client.describe(service_plotfile)
            assert client.last_trace is None


class TestRequestLog:
    def test_fields_per_request(self, observed_server, service_plotfile):
        server, _, log = observed_server
        with ReproClient(port=server.port) as client:
            client.read_field(service_plotfile, "baryon_density")
            client.read_field(service_plotfile, "baryon_density")
        records = [r for r in _log_records(log) if r["op"] == "read_field"]
        assert len(records) == 2
        for record in records:
            assert record["event"] == "request"
            assert record["ok"] is True
            assert record["latency_ms"] >= 0
            assert 0.0 <= record["cache_hit_rate"] <= 1.0
            assert "ts" in record and "trace" in record
        # the repeat read hits the shared cache, and the log shows it
        assert records[1]["cache_hit_rate"] > 0

    def test_failed_requests_are_logged_with_kind(self, observed_server):
        server, _, log = observed_server
        with ReproClient(port=server.port) as client:
            with pytest.raises(Exception):
                client.call("no_such_op")
        record = [r for r in _log_records(log) if r["op"] == "no_such_op"][0]
        assert record["ok"] is False
        assert record["error_kind"] == "unknown_op"


class TestServerMetrics:
    def test_per_op_latency_histograms(self, observed_server,
                                       service_plotfile):
        server, engine, _ = observed_server
        with ReproClient(port=server.port) as client:
            client.ping()
            client.read_field(service_plotfile, "baryon_density")
        snap = engine.registry.snapshot()
        hist = snap["repro_server_request_seconds"]
        ops = {tuple(s["labels"].items()): s for s in hist["samples"]}
        assert ops[(("op", "ping"),)]["count"] == 1
        assert ops[(("op", "read_field"),)]["count"] == 1
        counters = {tuple(s["labels"].items()): s["value"]
                    for s in snap["repro_server_requests_total"]["samples"]}
        assert counters[(("op", "ping"),)] == 1

    def test_protocol_skew_is_counted(self, observed_server):
        """unknown_op and unsupported_version each get an error label."""
        server, engine, _ = observed_server
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(encode_line({"v": 1 + 10, "id": 1, "op": "ping"}))
            assert decode_line(rfile.readline())["kind"] == \
                "unsupported_version"
            sock.sendall(encode_line({"v": 3, "id": 2, "op": "bogus"}))
            assert decode_line(rfile.readline())["kind"] == "unknown_op"
        errors = {tuple(s["labels"].items()): s["value"]
                  for s in engine.registry.snapshot()
                  ["repro_server_errors_total"]["samples"]}
        assert errors[(("kind", "unsupported_version"),)] == 1
        assert errors[(("kind", "unknown_op"),)] == 1

    def test_subscribe_refusals_are_counted(self, observed_server, tmp_path):
        server, engine, log = observed_server
        with ReproClient(port=server.port) as client:
            with pytest.raises(Exception):
                list(client.subscribe(str(tmp_path / "not-a-series")))
        counters = {tuple(s["labels"].items()): s["value"]
                    for s in engine.registry.snapshot()
                    ["repro_server_requests_total"]["samples"]}
        assert counters[(("op", "subscribe"),)] == 1
        record = [r for r in _log_records(log) if r["op"] == "subscribe"][0]
        assert record["ok"] is False


class TestStatsOp:
    def test_registry_snapshot_rides_the_stats_op(self, observed_server,
                                                  service_plotfile,
                                                  service_series):
        server, _, _ = observed_server
        with ReproClient(port=server.port) as client:
            client.read_field(service_plotfile, "baryon_density")
            client.read_field(service_plotfile, "baryon_density")
            client.time_slice(service_series, "baryon_density", steps=[0, 1])
            stats = client.stats()
        # the flat engine keys stay (backwards compatible)...
        assert stats["requests"] >= 2
        assert stats["cache_hit_rate"] > 0
        # ...and the registry snapshot rides along
        registry = stats["registry"]
        assert registry["repro_cache_hits_total"]["samples"][0]["value"] > 0
        assert registry["repro_io_bytes_read_total"]["samples"][0]["value"] > 0
        assert "repro_io_coalesced" not in registry  # full names only
        spans = {tuple(s["labels"].items()): s["count"]
                 for s in registry["repro_span_seconds"]["samples"]}
        assert spans[(("span", "engine.read_batch"),)] >= 2
        assert spans[(("span", "engine.time_slice"),)] == 1
        # the snapshot is renderable client-side without a live registry
        text = render_prometheus(registry)
        assert "repro_server_request_seconds_bucket" in text

    def test_query_stats_cli(self, observed_server, service_plotfile, capsys):
        server, _, _ = observed_server
        with ReproClient(port=server.port) as client:
            client.read_field(service_plotfile, "baryon_density")
        port = ["--port", str(server.port)]
        assert cli_main(["query", "stats", "--host", "127.0.0.1", *port]) == 0
        table = capsys.readouterr().out
        assert "metrics registry" in table
        assert "repro_cache_hits_total" in table
        assert cli_main(["query", "stats", *port, "--prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_server_request_seconds histogram" in prom
        assert cli_main(["query", "stats", *port, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "repro_engine_requests_total" in payload["registry"]
        assert payload["engine"]["requests"] >= 1
        assert cli_main(["query", "ping", *port, "--prom"]) == 1
        assert "--prom applies to query stats" in capsys.readouterr().err


class TestEngineRegistry:
    def test_engines_have_private_registries(self, service_plotfile):
        with QueryEngine() as a, QueryEngine() as b:
            a.read_field(service_plotfile, "baryon_density")
            assert "repro_span_seconds" in a.metrics_snapshot(
                include_global=False)
            assert "repro_span_seconds" not in b.metrics_snapshot(
                include_global=False)

    def test_null_registry_opts_out(self, service_plotfile):
        with QueryEngine(registry=NULL_REGISTRY) as engine:
            engine.read_field(service_plotfile, "baryon_density")
            assert engine.metrics_snapshot(include_global=False) == {}
            # the flat stats stay available regardless
            assert engine.stats()["requests"] == 1


class TestSharedSourceAccounting:
    def test_two_handles_on_one_source_are_counted_once(self, service_plotfile,
                                                        tmp_path):
        """Handles sharing a ByteSource share its counters — there is no
        per-handle copy to keep in step — and the engine's totals, flat and
        registry, are that source's own counters: once, not once per handle."""
        source = make_source(service_plotfile)
        first = PlotfileHandle(service_plotfile, source=source)
        first.read_field("baryon_density")
        second = PlotfileHandle(service_plotfile, source=source)
        second.read_field("baryon_density", level=0)
        assert first.source_stats is second.source_stats is source.stats
        first.close()
        second.close()

        alias = str(tmp_path / "alias.h5z")         # two pooled paths, one file
        os.symlink(service_plotfile, alias)
        shared = make_source(service_plotfile)
        with QueryEngine(source=lambda path: shared) as engine:
            engine.read_field(service_plotfile, "baryon_density")
            engine.read_field(alias, "baryon_density", level=0)
            stats = engine.stats()
            snap = engine.metrics_snapshot(include_global=False)
            assert stats["plotfiles_open"] == 2
            assert stats["io_bytes_read"] == shared.stats.bytes_read > 0
            assert stats["io_requests"] == shared.stats.requests
            assert stats["io_coalesced_requests"] == shared.stats.coalesced_requests
            for flat, row in (("io_bytes_read", "repro_io_bytes_read_total"),
                              ("io_requests", "repro_io_requests_total"),
                              ("io_coalesced_requests", "repro_io_reads_total")):
                assert snap[row]["samples"][0]["value"] == float(stats[flat])

    def test_engine_io_rollup_matches_source_totals(self, service_plotfile):
        """The registry's io counters aggregate by unique source: no
        double-count across pooled handles."""
        with QueryEngine() as engine:
            engine.read_field(service_plotfile, "baryon_density")
            snap = engine.metrics_snapshot(include_global=False)
            reported = snap["repro_io_bytes_read_total"]["samples"][0]["value"]
            handle = engine.handle(service_plotfile)
            assert reported == float(handle.source_stats.bytes_read)
