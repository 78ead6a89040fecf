#!/usr/bin/env python3
"""End-to-end HTTP gateway smoke (``make smoke-http``).

The gateway as an operator would deploy it, across real processes:

* a **server** (``python -m repro serve --http 0``) running TCP and HTTP
  over one shared request core, with bearer-token auth and a request-size
  limit on both transports;
* **curl-equivalent requests** (stdlib http.client, no CLI shortcuts) against
  ``/healthz``, ``/v1/query``, ``/v1/describe`` and ``/metrics``;
* the **query CLI over HTTP** (``python -m repro query --http``) reading a
  box through the gateway, and the same box read **raw** — the recipe for
  clients without this package: split the body at the first newline, the
  header's ``dtype`` / ``shape`` describe the bytes after it;
* **negative paths**: a missing token must get 401, a wrong token 401, a
  declared oversized body 413, an unknown op 404 — each with the structured JSON
  error envelope, and the same refusals on the TCP port;
* a second, short-lived **rate-limited server** (``--rate-limit`` /
  ``--rate-burst``): once the burst is spent a request gets 429.

The driver asserts an HTTP-served box read is byte-identical to the same
read over TCP, and that ``/metrics`` serves the Prometheus exposition with
the per-op counters the traffic just generated.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from http.client import HTTPConnection

import numpy as np
from smoke_common import repro_env, run, serve, stop

FIELD = "baryon_density"
BOX = "0:15,0:15,0:15"
TOKEN = "smoke-http-token"


def http(port: str, method: str, path: str, body=None, token=None,
         expect: int = 200, declared: int | None = None) -> dict:
    """One raw HTTP exchange; asserts the status and decodes the body's JSON
    line (array bytes after it under ``"_payload"``; a non-JSON body under
    ``"_raw"`` beside its ``"_type"``).  ``declared`` declares that many body
    bytes and sends none: the gateway refuses an oversized request from its
    headers and closes (sending the body would hit a broken pipe first)."""
    headers = {} if declared is None else {"Content-Length": str(declared)}
    if body is not None:
        headers["Content-Type"] = "application/json"
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    conn = HTTPConnection("127.0.0.1", int(port), timeout=60)
    try:
        conn.request(method, path, headers=headers,
                     body=json.dumps(body).encode() if body is not None else None)
        resp = conn.getresponse()
        status, ctype, raw = resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()
    assert status == expect, \
        f"{method} {path}: HTTP {status}, expected {expect}: {raw[:300]!r}"
    head, _, payload = raw.partition(b"\n")
    try:
        return dict(json.loads(head.decode("utf-8")), _payload=payload)
    except ValueError:
        return {"_raw": raw.decode("utf-8", "replace"), "_type": ctype}


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="smoke-http-")
    plotfile = os.path.join(workdir, "plt.h5z")
    env = repro_env(SMOKE_HTTP_TOKEN=TOKEN)
    servers = []
    try:
        run(env, "compress", "--preset", "nyx_1", plotfile)

        # ---- one process, both transports, one auth policy ---------------
        server, ports = serve(env, "--http", "0", "--auth-token", "env:SMOKE_HTTP_TOKEN",
                              "--max-request-bytes", "1048576")
        servers.append(server)
        if len(ports) < 2:
            return 1
        tcp_port, port = ports

        # ---- the happy paths ---------------------------------------------
        health = http(port, "GET", "/healthz")
        assert health["ok"] is True, health

        pong = http(port, "POST", "/v1/query",
                    body={"id": 1, "op": "ping"}, token=TOKEN)
        assert pong["ok"] is True and pong["result"]["pong"] is True, pong

        described = http(port, "POST", "/v1/describe",
                         body={"path": plotfile}, token=TOKEN)
        assert FIELD in described["result"]["fields"], described

        # ---- the negative paths: structured refusals with status codes ---
        missing = http(port, "POST", "/v1/query", body={"op": "ping"},
                       expect=401)
        assert missing["kind"] == "unauthorized", missing
        wrong = http(port, "POST", "/v1/query", body={"op": "ping"},
                     token="not-the-token", expect=401)
        assert wrong["kind"] == "unauthorized", wrong
        huge = http(port, "POST", "/v1/query", token=TOKEN, expect=413,
                    declared=2_000_000)
        assert huge["kind"] == "oversized_request", huge
        unknown = http(port, "POST", "/v1/florble", body={},
                       token=TOKEN, expect=404)
        assert unknown["kind"] == "unknown_op", unknown

        # ---- the same policy on the TCP port (one shared core) -----------
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", "ping", "--port", tcp_port],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, "tokenless TCP query was not refused"
        assert "authentication required" in proc.stderr, proc.stderr
        run(env, "query", "ping", "--port", tcp_port,
            "--auth-token", "env:SMOKE_HTTP_TOKEN")

        # ---- reads: HTTP vs TCP byte-identical through the CLIs ----------
        via_http = run(env, "query", "read-field", plotfile, "--http",
                       "--port", port, "--auth-token", "env:SMOKE_HTTP_TOKEN",
                       "--field", FIELD, "--box", BOX, "--json").stdout
        via_tcp = run(env, "query", "read-field", plotfile,
                      "--port", tcp_port, "--auth-token",
                      "env:SMOKE_HTTP_TOKEN",
                      "--field", FIELD, "--box", BOX, "--json").stdout
        assert json.loads(via_http) == json.loads(via_tcp), \
            "HTTP and TCP reads disagree"
        raw = http(port, "POST", "/v1/read_field", token=TOKEN,
                   body={"path": plotfile, "field": FIELD,
                         "box": [[0, 0, 0], [15, 15, 15]]})    # = BOX
        tag = raw["result"]["__ndarray__"]
        assert len(raw["_payload"]) == tag["nbytes"], tag
        array = np.frombuffer(raw["_payload"], tag["dtype"]).reshape(tag["shape"])
        assert array.tolist() == json.loads(via_tcp)["values"], \
            "raw stdlib + numpy read disagrees with the TCP read"

        # ---- /metrics: the Prometheus exposition, live -------------------
        metrics = http(port, "GET", "/metrics", token=TOKEN)
        ctype, prom = metrics["_type"], metrics["_raw"]
        assert ctype.startswith("text/plain"), ctype
        assert "# TYPE repro_server_requests_total counter" in prom
        assert 'repro_server_requests_total{op="ping"}' in prom
        assert re.search(
            r'repro_server_request_seconds_bucket\{op="read_field",le="[^"]+"}',
            prom), "no per-op latency buckets in the exposition"
        # refusals from both transports share one error counter
        assert 'repro_server_errors_total{kind="unauthorized"}' in prom
        # and /metrics itself requires the token
        http(port, "GET", "/metrics", expect=401)

        # ---- a rate-limited server: the spent burst is a 429 -------------
        # a token every 2 s: the request after the burst is refused unless
        # the burst took 2 s, and 2.5 s later /metrics is admitted again
        limited, ports = serve(env, "--http", "0", "--rate-limit", "0.5", "--rate-burst", "2")
        servers.append(limited)
        if len(ports) < 2:
            return 1
        limited_port = ports[1]
        for _ in range(2):
            http(limited_port, "POST", "/v1/query", body={"op": "ping"})
        refused = http(limited_port, "POST", "/v1/query", body={"op": "ping"},
                       expect=429)
        assert refused["kind"] == "rate_limited", refused
        time.sleep(2.5)
        limited_prom = http(limited_port, "GET", "/metrics")["_raw"]
        assert 'repro_server_errors_total{kind="rate_limited"}' in limited_prom

        print("smoke-http ok: shared-core gateway served health/query/"
              "describe/metrics; 401/413/404/429 refused with structured "
              "envelopes; HTTP and raw reads identical to TCP read")
        return 0
    finally:
        stop(*servers)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
