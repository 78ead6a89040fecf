#!/usr/bin/env python3
"""End-to-end observability smoke (``make smoke-obs``).

The telemetry loop as an operator would drive it, across real processes:

* a **server** (``python -m repro serve``) with its structured JSON request
  log on stderr;
* a few **clients** (``python -m repro query``) issuing traced requests —
  the same box read twice, so the second lands in the warm chunk cache and
  parses no chunk record (``records_parsed`` is unchanged by it);
* ``python -m repro query stats`` pulling the live registry snapshot over
  the wire: as JSON, as Prometheus text and as its default tables.

The driver asserts the snapshot shows the traffic it just generated
(nonzero cache hits, IO bytes, per-op latency bucket counts), that the
Prometheus rendering carries the histogram exposition, and that the
server's request log has one parseable line per request with latency,
cache-hit-ratio and a trace ID — the second read visibly warmer than the
first.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

from smoke_common import repro_env, run, serve, stop

FIELD = "baryon_density"
BOX = "0:15,0:15,0:15"


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="smoke-obs-")
    plotfile = os.path.join(workdir, "plt.h5z")
    env = repro_env()
    server = None
    try:
        run(env, "compress", "--preset", "nyx_1", plotfile)

        # ---- server on an ephemeral port, request log on stderr ---------
        server, ports = serve(env)
        if not ports:
            return 1
        (port,) = ports

        # ---- traced traffic: the repeat read must hit the warm cache ----
        run(env, "query", "ping", "--port", port)
        snapshots = []
        for _ in range(2):
            run(env, "query", "read-field", plotfile, "--port", port,
                "--field", FIELD, "--box", BOX)
            snapshots.append(json.loads(
                run(env, "query", "stats", "--port", port, "--json").stdout))

        # ---- query stats, JSON form: the repeat read parsed no record ---
        snapshot = snapshots[-1]
        registry = snapshot["registry"]
        parsed = [s["registry"]["repro_records_parsed_total"]["samples"][0]["value"]
                  for s in snapshots]
        assert parsed[0] > 0 and parsed == [parsed[0]] * 2, \
            f"records parsed after each read: {parsed}"
        assert snapshot["engine"]["records_parsed"] == parsed[0]
        assert registry["repro_record_parse_seconds_total"]["samples"][0]["value"] > 0
        assert registry["repro_cache_hits_total"]["samples"][0]["value"] > 0, \
            "warm repeat read produced no cache hits"
        assert registry["repro_io_bytes_read_total"]["samples"][0]["value"] > 0
        latency = {s["labels"]["op"]: s
                   for s in registry["repro_server_request_seconds"]["samples"]}
        assert latency["read_field"]["count"] == 2, latency.keys()
        assert latency["ping"]["count"] == 1
        assert sum(n for _, n in latency["read_field"]["buckets"]) > 0, \
            "read_field latency landed in no bucket"

        # ---- and the Prometheus text form -------------------------------
        prom = run(env, "query", "stats", "--port", port, "--prom").stdout
        assert "# TYPE repro_server_request_seconds histogram" in prom
        assert re.search(
            r'repro_server_request_seconds_bucket\{op="read_field",le="[^"]+"}',
            prom), "no per-op latency buckets in the exposition"
        assert 'repro_server_requests_total{op="ping"} 1' in prom
        assert f"repro_records_parsed_total {int(parsed[0])}" in prom, "no records-parsed row"

        # ---- and the default table form ----------------------------------
        table = run(env, "query", "stats", "--port", port).stdout
        assert "metrics registry" in table
        assert re.search(r"repro_server_request_seconds\{op=read_field\} p50 +\| *\d",
                         table), "no read_field latency percentile row in the registry table"

        # ---- the request log: one parseable line per request ------------
        stop(server)
        records = [json.loads(line)
                   for line in server.stderr.read().splitlines()
                   if line.startswith("{")]
        reads = [r for r in records if r.get("op") == "read_field"]
        assert len(reads) == 2, f"expected 2 read_field log lines: {records}"
        for record in reads:
            assert record["ok"] is True
            assert record["latency_ms"] >= 0
            assert re.fullmatch(r"[0-9a-f]{16}", record["trace"])
        assert reads[1]["cache_hit_rate"] > reads[0]["cache_hit_rate"], \
            "the repeat read did not show up warmer in the request log"

        print(f"smoke-obs ok: {len(records)} logged requests, "
              f"cache hits visible in stats, per-op latency histograms "
              "rendered in JSON, Prometheus and table form")
        return 0
    finally:
        stop(server)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
