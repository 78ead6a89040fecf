#!/usr/bin/env python3
"""End-to-end live-streaming smoke (``make smoke-stream``).

Three real processes, the in situ deployment shape:

* a **producer** appending a small nyx series step by step through the
  crash-safe journal (``SeriesWriter(append=True)``), sleeping between
  dumps like a simulation would;
* a **server** (``python -m repro serve --http 0``) watching the live
  directory, with its HTTP gateway beside the TCP listener;
* a **subscriber** (``python -m repro query follow``) streaming one JSON
  line per committed step, each paired with a box read.

The driver asserts the subscriber saw every step exactly once in order plus
the finalized event.  Once the producer is done it checks that ``query
refresh`` counts every committed step, reads a box over every step
(``query time-slice``), replays the finalized stream through the
gateway's ``GET /v1/subscribe`` and runs ``repro verify`` over the
directory — proving the journal, closed by its ``final`` record, is a
verifiable series.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from smoke_common import repro_env, run, serve, stop

from repro.service.http import HttpClient

NSTEPS = 5
FIELD = "baryon_density"

PRODUCER = """
import time
from repro.apps.nyx import NyxSimulation
from repro.series.writer import SeriesWriter

sim = NyxSimulation(coarse_shape=(24, 24, 24), nranks=2,
                    target_fine_density=0.03, max_grid_size=12, seed=7,
                    drift_rate=0.05, growth_rate=0.02, regrid_interval=4)
with SeriesWriter({directory!r}, keyframe_interval=3, error_bound=1e-3,
                  append=True) as writer:
    for hierarchy in sim.run({nsteps}):
        writer.append(hierarchy)
        print("committed step", writer.nsteps - 1, flush=True)
        time.sleep(0.3)
print("producer done", flush=True)
"""


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="smoke-stream-")
    directory = os.path.join(workdir, "run")
    env = repro_env()
    server = producer = None
    try:
        # ---- server on an ephemeral port --------------------------------
        server, ports = serve(env, "--http", "0", "--watch-interval", "0.1",
                              stderr=subprocess.STDOUT)
        if len(ports) < 2:
            return 1
        port, http_port = ports

        # ---- producer: journal commits with a dump cadence --------------
        producer = subprocess.Popen(
            [sys.executable, "-c", PRODUCER.format(directory=directory, nsteps=NSTEPS)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        # wait for the first commit so `follow` finds a series directory
        journal = os.path.join(directory, "series.journal")
        deadline = time.time() + 120
        while not os.path.exists(journal) and time.time() < deadline:
            if producer.poll() is not None:
                print("producer died before its first commit:\n"
                      + producer.stdout.read(), file=sys.stderr)
                return 1
            time.sleep(0.05)

        # ---- subscriber: the follow verb, box reads included ------------
        follow = run(env, "query", "follow", directory, "--port", port, "--field", FIELD,
                     "--box", "0:7,0:7,0:7")
        events = [json.loads(line) for line in follow.stdout.splitlines()
                  if line.startswith("{")]
        steps = [e["step_index"] for e in events if e["event"] == "step"]
        finalized = [e for e in events if e["event"] == "finalized"]
        assert steps == list(range(NSTEPS)), \
            f"expected steps 0..{NSTEPS - 1} exactly once, got {steps}"
        assert len(finalized) == 1, f"expected one finalized event: {events}"
        for e in events:
            if e["event"] == "step":
                assert e["shape"] == [8, 8, 8], e
                assert e["min"] <= e["mean"] <= e["max"], e

        if producer.wait(timeout=120) != 0:
            print("producer failed:\n" + producer.stdout.read(),
                  file=sys.stderr)
            return 1

        # ---- a refresh finds every committed step ------------------------
        refresh = run(env, "query", "refresh", directory, "--port", port)
        assert json.loads(refresh.stdout)["nsteps"] == NSTEPS, refresh.stdout

        # ---- one time-slice row per committed step ----------------------
        sliced = run(env, "query", "time-slice", directory, "--port", port,
                     "--field", FIELD, "--box", "0:7,0:7,0:7", "--json")
        answer = json.loads(sliced.stdout)
        assert answer["shape"] == [NSTEPS, 8, 8, 8], answer["shape"]
        assert len(answer["times"]) == NSTEPS, answer["times"]

        # ---- the gateway's chunked stream replays the same steps --------
        with HttpClient(port=int(http_port)) as client:
            replay = list(client.subscribe(directory))
        replayed = [e["step_index"] for e in replay if e["event"] == "step"]
        assert replayed == steps, f"GET /v1/subscribe saw {replayed}, follow {steps}"
        assert replay[-1]["event"] == "finalized", replay[-1]

        # ---- the finalized directory is a verifiable series -------------
        run(env, "verify", directory)
        print(f"smoke-stream ok: {NSTEPS} steps streamed exactly once over TCP "
              "and HTTP, refreshed, time-sliced, finalized series verified")
        return 0
    finally:
        stop(producer, server)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
