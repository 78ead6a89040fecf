#!/usr/bin/env python3
"""End-to-end observability smoke (``make smoke-obs``).

The telemetry loop as an operator would drive it, across real processes:

* a **server** (``python -m repro serve``) with its structured JSON request
  log on stderr;
* a few **clients** (``python -m repro query``) issuing traced requests —
  the same box read twice, so the second lands in the warm chunk cache;
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
import subprocess
import sys
import tempfile

FIELD = "baryon_density"
BOX = "0:15,0:15,0:15"


def python_cmd(*args: str) -> list:
    return [sys.executable, *args]


def run(env, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(python_cmd("-m", "repro", *args), env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(f"repro {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}",
              file=sys.stderr)
        raise SystemExit(1)
    return proc


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="smoke-obs-")
    plotfile = os.path.join(workdir, "plt.h5z")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    server = None
    try:
        run(env, "compress", "--preset", "nyx_1", plotfile)

        # ---- server on an ephemeral port, request log on stderr ---------
        server = subprocess.Popen(
            python_cmd("-m", "repro", "serve", "--port", "0"),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        ready = server.stdout.readline()
        match = re.search(r"serving on [\w.]+:(\d+)", ready)
        if not match:
            print(f"server never came up: {ready!r}", file=sys.stderr)
            return 1
        port = match.group(1)

        # ---- traced traffic: the repeat read must hit the warm cache ----
        for _ in range(2):
            run(env, "query", "read-field", plotfile, "--port", port,
                "--field", FIELD, "--box", BOX)
        run(env, "query", "ping", "--port", port)

        # ---- query stats, JSON form -------------------------------------
        snapshot = json.loads(
            run(env, "query", "stats", "--port", port, "--json").stdout)
        registry = snapshot["registry"]
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

        # ---- and the default table form ----------------------------------
        table = run(env, "query", "stats", "--port", port).stdout
        assert "metrics registry" in table
        assert re.search(r"repro_server_request_seconds\{op=read_field\} p50 +\| *\d",
                         table), "no read_field latency percentile row in the registry table"

        # ---- the request log: one parseable line per request ------------
        server.terminate()
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
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
        if server is not None and server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
