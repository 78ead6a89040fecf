"""What the smoke drivers (``make smoke-stream``, ``smoke-obs``, ``smoke-http``)
share: the environment, one CLI call, a server on ephemeral ports, stopping."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from typing import List, Tuple


def repro_env(**extra: str) -> dict:
    """This environment with ``src`` first on ``PYTHONPATH``, and ``extra``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def run(env, *args: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGS``; a failure prints its output and exits 1."""
    proc = subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(f"repro {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}",
              file=sys.stderr)
        raise SystemExit(1)
    return proc


def serve(env, *flags: str, stderr=subprocess.PIPE) -> Tuple[subprocess.Popen, List[str]]:
    """Start ``repro serve --port 0 FLAGS``: the process and its ports as it
    prints them (TCP, then the ``--http`` gateway's), cut short at one missing."""
    server = subprocess.Popen([sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
                              env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
    ports: List[str] = []
    for what in ("serving on", "http gateway on")[:1 + ("--http" in flags)]:
        ready = server.stdout.readline()
        match = re.search(what + r" [\w.]+:(\d+)", ready)
        if not match:
            print(f"no {what!r} line from the server: {ready!r}", file=sys.stderr)
            break
        ports.append(match.group(1))
    return server, ports


def stop(*procs) -> None:
    """Terminate every process still running (killing one that will not stop)."""
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
