#!/usr/bin/env python3
"""The benchmark-regression gate: fresh BENCH_*.json vs committed baselines.

``make bench`` leaves one pytest-benchmark JSON per suite in the repo root
(``BENCH_entropy.json``, ``BENCH_writer.json``, ...).  This tool compares the
*median* of every benchmark in those files against the committed reference
copies under ``benchmarks/baselines/`` and fails (exit 1) when any median
regressed beyond the tolerance (default 25%), printing a per-benchmark delta
table either way.

Matching is by file name and benchmark name.  A benchmark present only in the
fresh results is reported as ``new`` (not a failure — baselines are updated
with ``--update``); one present only in the baseline is reported as
``missing`` and *does* fail, because a silently dropped benchmark would
otherwise disable its own gate.  A fresh file that does not exist at all is
skipped with a notice (``make bench`` degrades to plain pytest runs when
pytest-benchmark is absent, producing no JSON).

On top of the per-median regression gate, the tool asserts the
**parallel-vs-serial speedups** declared in :data:`SPEEDUP_TARGETS`: within
one fresh suite, the pooled benchmark's median must beat its serial sibling
by the target factor.  It also asserts the **remote-read targets** on the
fresh ``BENCH_remote.json`` (see :func:`check_remote`): request coalescing
must cut the full read's round-trips by at least
:data:`REMOTE_COALESCING_MIN`, and the progressive ``max_level=0`` probe must
fetch at most :data:`REMOTE_PROBE_BYTES_MAX` of the full read's bytes in at
most :data:`REMOTE_PROBE_TIME_MAX` of its wall time.  The **live-streaming
targets** on the fresh ``BENCH_stream.json`` (see :func:`check_stream`) hold
the journal to its point: a live ``refresh()`` must be at least
:data:`STREAM_REFRESH_MIN` times cheaper than a full reopen, and a
subscriber's mean commit-to-event lag must stay under
:data:`STREAM_LAG_MAX_SECONDS`.  The **observability-overhead target** on the
fresh ``BENCH_obs.json`` (see :func:`check_obs`) holds the metrics layer to
its pull-model promise: warm batched reads on an instrumented engine may
cost at most :data:`OBS_OVERHEAD_MAX` (5%) over the same reads with
``NULL_REGISTRY``.  The **HTTP-gateway target** on the fresh
``BENCH_http.json`` (see :func:`check_http`) holds the second transport to
its thin-shell promise: warm batched reads over the HTTP/JSON gateway may
cost at most :data:`HTTP_OVERHEAD_MAX` (2x) the same reads over the TCP
transport, both served by one shared request core and warm cache.  The
**entropy targets** on the fresh ``BENCH_entropy.json`` (see
:func:`check_entropy`) hold the Huffman decoder to one lane pass per
container — decoding a symbol from hundreds of small streams that share a
table may cost at most :data:`ENTROPY_SMALL_STREAMS_MAX` (2x) a symbol of
one long stream — and the encoder to its integer kernel: encoding a symbol
of the same streams may cost at most :data:`ENTROPY_ENCODE_MAX` (2.5x) that
same decoded symbol.  The
speedup target is declared for a 4-core machine and
auto-scales to the *recording* machine's core count (stamped into each
benchmark's ``extra_info.cpu_count`` by the perf conftest): below 2 cores it
relaxes to "no worse than serial", and when the fresh run's machine has
fewer cores than the baseline's the assertion is skipped with a printed
notice — a smaller box cannot be asked to reproduce a bigger box's speedup.

Deliberately dependency-free (stdlib only) so CI can run it before/without
installing the package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Dict, List, Optional, Tuple

#: default locations, relative to the repo root (= this file's parent's parent)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")
DEFAULT_TOLERANCE = 0.25

OK = "ok"
REGRESSED = "REGRESSED"
IMPROVED = "improved"
NEW = "new"
MISSING = "MISSING"

#: the core count the speedup targets below are declared for
SPEEDUP_REFERENCE_CORES = 4
#: (suite, parallel benchmark, serial benchmark, speedup target at 4 cores)
SPEEDUP_TARGETS: List[Tuple[str, str, str, float]] = [
    ("writer", "test_writer_plotfile_nyx1_shm_backend[sz_lr]",
     "test_writer_plotfile_nyx1[sz_lr]", 3.0),
    ("writer", "test_writer_plotfile_nyx1_shm_backend[sz_interp]",
     "test_writer_plotfile_nyx1[sz_interp]", 3.0),
    ("reader", "test_reader_full_shm_backend", "test_reader_full_serial", 3.0),
]


def load_entries(path: str) -> Dict[str, dict]:
    """``name → {"median": seconds, "extra_info": {...}}`` of one JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "benchmarks" not in payload:
        raise ValueError(f"{path} is not a pytest-benchmark JSON file")
    out: Dict[str, dict] = {}
    for bench in payload["benchmarks"]:
        stats = bench.get("stats") or {}
        median = stats.get("median")
        if median is None:
            raise ValueError(
                f"{path}: benchmark {bench.get('name')!r} has no stats.median")
        out[str(bench["name"])] = {
            "median": float(median),
            "extra_info": dict(bench.get("extra_info") or {}),
        }
    return out


def load_medians(path: str) -> Dict[str, float]:
    """``benchmark name → median seconds`` of one pytest-benchmark JSON file."""
    return {name: entry["median"] for name, entry in load_entries(path).items()}


def compare_medians(baseline: Dict[str, float], fresh: Dict[str, float],
                    tolerance: float, suite: str = "") -> List[dict]:
    """Delta rows for one suite; a row's status is REGRESSED when the fresh
    median exceeds the baseline by more than ``tolerance`` (fractional)."""
    rows: List[dict] = []
    for name in sorted(set(baseline) | set(fresh)):
        base = baseline.get(name)
        new = fresh.get(name)
        if base is None:
            status, delta = NEW, None
        elif new is None:
            status, delta = MISSING, None
        else:
            delta = (new - base) / base if base > 0 else 0.0
            if delta > tolerance:
                status = REGRESSED
            elif delta < -tolerance:
                status = IMPROVED
            else:
                status = OK
        rows.append({
            "suite": suite, "benchmark": name,
            "baseline_ms": None if base is None else base * 1e3,
            "fresh_ms": None if new is None else new * 1e3,
            "delta": delta, "status": status,
        })
    return rows


def compare_directories(baseline_dir: str, fresh_dir: str,
                        tolerance: float) -> Tuple[List[dict], List[str]]:
    """Compare every ``BENCH_*.json`` under ``baseline_dir`` against
    ``fresh_dir``; returns (all delta rows, notices for skipped files)."""
    rows: List[dict] = []
    notices: List[str] = []
    names = sorted(n for n in os.listdir(baseline_dir)
                   if n.startswith("BENCH_") and n.endswith(".json")) \
        if os.path.isdir(baseline_dir) else []
    if not names:
        notices.append(f"no baselines under {baseline_dir}; nothing to check")
        return rows, notices
    for name in names:
        fresh_path = os.path.join(fresh_dir, name)
        suite = name[len("BENCH_"):-len(".json")]
        if not os.path.isfile(fresh_path):
            notices.append(
                f"{name}: no fresh results in {fresh_dir} (make bench "
                "without pytest-benchmark produces none); skipped")
            continue
        baseline = load_medians(os.path.join(baseline_dir, name))
        fresh = load_medians(fresh_path)
        rows.extend(compare_medians(baseline, fresh, tolerance, suite=suite))
    # fresh suites with no baseline at all are worth a notice too
    for name in sorted(os.listdir(fresh_dir)):
        if name.startswith("BENCH_") and name.endswith(".json") \
                and name not in names:
            notices.append(f"{name}: no committed baseline; run with --update "
                           "to adopt it")
    return rows, notices


def has_regression(rows: List[dict]) -> bool:
    return any(row["status"] in (REGRESSED, MISSING) for row in rows)


# ----------------------------------------------------------------------
# parallel-vs-serial speedup assertions
# ----------------------------------------------------------------------
def effective_speedup_target(target: float, cores: Optional[int]) -> float:
    """The speedup a machine with ``cores`` cores is held to.

    ``target`` is declared for :data:`SPEEDUP_REFERENCE_CORES` cores.  Below
    2 cores a process pool cannot beat serial at all, so the gate relaxes to
    "no worse than serial" (1.0); between 2 and the reference count the
    target scales linearly; an unknown core count is treated like 1 core
    (the conservative reading — never fail on missing metadata).
    """
    if cores is None or cores < 2:
        return 1.0
    if cores >= SPEEDUP_REFERENCE_CORES:
        return float(target)
    return 1.0 + (float(target) - 1.0) * (cores - 1) / (SPEEDUP_REFERENCE_CORES - 1)


def _entry_cores(entry: Optional[dict]) -> Optional[int]:
    if entry is None:
        return None
    cores = entry.get("extra_info", {}).get("cpu_count")
    return int(cores) if cores is not None else None


def check_speedups(baseline_dir: str, fresh_dir: str,
                   tolerance: float) -> Tuple[List[str], List[str], int]:
    """Assert every :data:`SPEEDUP_TARGETS` pair in the fresh results.

    Returns ``(result lines, notices, failures)``.  A pair whose fresh suite
    file or benchmarks are absent is a notice (the median comparator already
    flags genuinely dropped benchmarks); a fresh run recorded on fewer cores
    than the baseline machine skips the assertion with a notice.  The
    regression ``tolerance`` also pads the speedup requirement, so bench
    noise does not flake the gate.
    """
    lines: List[str] = []
    notices: List[str] = []
    failures = 0
    for suite, parallel_name, serial_name, target in SPEEDUP_TARGETS:
        filename = f"BENCH_{suite}.json"
        fresh_path = os.path.join(fresh_dir, filename)
        if not os.path.isfile(fresh_path):
            notices.append(
                f"speedup {suite}: no fresh {filename}; skipped")
            continue
        fresh = load_entries(fresh_path)
        par, ser = fresh.get(parallel_name), fresh.get(serial_name)
        if par is None or ser is None:
            missing = parallel_name if par is None else serial_name
            notices.append(
                f"speedup {suite}: {missing!r} not in fresh results; skipped")
            continue
        fresh_cores = _entry_cores(par)
        baseline_path = os.path.join(baseline_dir, filename)
        baseline_cores = None
        if os.path.isfile(baseline_path):
            baseline_cores = _entry_cores(
                load_entries(baseline_path).get(parallel_name))
        if fresh_cores is not None and baseline_cores is not None \
                and fresh_cores < baseline_cores:
            notices.append(
                f"speedup {suite}: recording machine has {fresh_cores} "
                f"core(s) but the baseline was recorded on {baseline_cores}; "
                f"skipping the {parallel_name!r} speedup assertion")
            continue
        if par["median"] <= 0:
            notices.append(
                f"speedup {suite}: {parallel_name!r} has a zero median; skipped")
            continue
        speedup = ser["median"] / par["median"]
        goal = effective_speedup_target(target, fresh_cores)
        required = goal * (1.0 - tolerance)
        ok = speedup >= required
        if not ok:
            failures += 1
        cores_note = f"{fresh_cores}" if fresh_cores is not None else "?"
        lines.append(
            f"speedup {suite}: {parallel_name} {speedup:.2f}x over "
            f"{serial_name} ({'ok' if ok else 'FAIL'}; target {goal:.2f}x "
            f"on {cores_note} core(s), required >= {required:.2f}x after "
            f"{tolerance:.0%} tolerance)")
    return lines, notices, failures


# ----------------------------------------------------------------------
# remote-read assertions (BENCH_remote.json)
# ----------------------------------------------------------------------
#: the remote suite's full-resolution read and its coarse progressive probe
REMOTE_SUITE = "remote"
REMOTE_FULL_BENCH = "test_remote_read_full"
REMOTE_PROBE_BENCH = "test_remote_probe_coarse"
#: the full read must save at least this many round-trips per issued read
REMOTE_COALESCING_MIN = 3.0
#: the max_level=0 probe vs the full read: bytes and wall-time ceilings
REMOTE_PROBE_BYTES_MAX = 0.25
REMOTE_PROBE_TIME_MAX = 0.50


def check_remote(fresh_dir: str) -> Tuple[List[str], List[str], int]:
    """Assert the remote-read targets on a fresh ``BENCH_remote.json``.

    Returns ``(result lines, notices, failures)`` like :func:`check_speedups`.
    A missing suite file, benchmark or ``extra_info`` counter downgrades the
    assertion to a notice — the median comparator already fails genuinely
    dropped benchmarks — so machines that cannot run the suite do not fail
    the gate for the wrong reason.
    """
    lines: List[str] = []
    notices: List[str] = []
    failures = 0
    fresh_path = os.path.join(fresh_dir, f"BENCH_{REMOTE_SUITE}.json")
    if not os.path.isfile(fresh_path):
        notices.append(
            f"remote: no fresh BENCH_{REMOTE_SUITE}.json; skipped")
        return lines, notices, failures
    entries = load_entries(fresh_path)
    full = entries.get(REMOTE_FULL_BENCH)
    probe = entries.get(REMOTE_PROBE_BENCH)
    if full is None or probe is None:
        missing = REMOTE_FULL_BENCH if full is None else REMOTE_PROBE_BENCH
        notices.append(
            f"remote: {missing!r} not in fresh results; skipped")
        return lines, notices, failures

    def _io(entry: dict, key: str) -> Optional[float]:
        value = entry["extra_info"].get(f"io_{key}")
        return None if value is None else float(value)

    requests = _io(full, "requests")
    coalesced = _io(full, "coalesced_requests")
    if requests is None or coalesced is None:
        notices.append(
            f"remote: {REMOTE_FULL_BENCH!r} carries no io_* extra_info; "
            "coalescing assertion skipped")
    else:
        factor = requests / max(coalesced, 1.0)
        ok = factor >= REMOTE_COALESCING_MIN
        failures += 0 if ok else 1
        lines.append(
            f"remote: full read coalescing {factor:.2f}x "
            f"({requests:.0f} ranges -> {coalesced:.0f} reads; "
            f"{'ok' if ok else 'FAIL'}; required >= "
            f"{REMOTE_COALESCING_MIN:.1f}x)")

    full_bytes, probe_bytes = _io(full, "bytes_read"), _io(probe, "bytes_read")
    if full_bytes is None or probe_bytes is None or full_bytes <= 0:
        notices.append(
            "remote: bytes_read missing from extra_info; probe byte "
            "assertion skipped")
    else:
        ratio = probe_bytes / full_bytes
        ok = ratio <= REMOTE_PROBE_BYTES_MAX
        failures += 0 if ok else 1
        lines.append(
            f"remote: max_level=0 probe fetched {ratio:.1%} of the full "
            f"read's bytes ({'ok' if ok else 'FAIL'}; required <= "
            f"{REMOTE_PROBE_BYTES_MAX:.0%})")

    if full["median"] <= 0:
        notices.append(
            f"remote: {REMOTE_FULL_BENCH!r} has a zero median; "
            "time-to-first-array assertion skipped")
    else:
        ratio = probe["median"] / full["median"]
        ok = ratio <= REMOTE_PROBE_TIME_MAX
        failures += 0 if ok else 1
        lines.append(
            f"remote: time-to-first-array {ratio:.1%} of the full read "
            f"({'ok' if ok else 'FAIL'}; required <= "
            f"{REMOTE_PROBE_TIME_MAX:.0%})")
    return lines, notices, failures


# ----------------------------------------------------------------------
# observability-overhead assertions (BENCH_obs.json)
# ----------------------------------------------------------------------
#: the obs suite's instrumented and opted-out warm batched reads
OBS_SUITE = "obs"
OBS_INSTRUMENTED_BENCH = "test_obs_warm_batched_instrumented"
OBS_NULL_BENCH = "test_obs_warm_batched_null_registry"
#: instrumented warm batched reads may cost at most 5% over NULL_REGISTRY
OBS_OVERHEAD_MAX = 1.05


def check_obs(fresh_dir: str) -> Tuple[List[str], List[str], int]:
    """Assert the metrics-overhead ceiling on a fresh ``BENCH_obs.json``.

    Returns ``(result lines, notices, failures)`` like :func:`check_stream`.
    The preferred signal is the ``obs_overhead_ratio`` the suite stamps into
    the instrumented benchmark's ``extra_info`` — interleaved min-of-N
    timing, far less noisy than two independently recorded medians — with
    the median ratio as a fallback when the stamp is absent.
    """
    lines: List[str] = []
    notices: List[str] = []
    failures = 0
    fresh_path = os.path.join(fresh_dir, f"BENCH_{OBS_SUITE}.json")
    if not os.path.isfile(fresh_path):
        notices.append(f"obs: no fresh BENCH_{OBS_SUITE}.json; skipped")
        return lines, notices, failures
    entries = load_entries(fresh_path)
    instrumented = entries.get(OBS_INSTRUMENTED_BENCH)
    null = entries.get(OBS_NULL_BENCH)
    if instrumented is None or null is None:
        missing = OBS_INSTRUMENTED_BENCH if instrumented is None \
            else OBS_NULL_BENCH
        notices.append(f"obs: {missing!r} not in fresh results; skipped")
        return lines, notices, failures
    ratio = instrumented["extra_info"].get("obs_overhead_ratio")
    how = "interleaved min-of-N"
    if ratio is None:
        if null["median"] <= 0:
            notices.append(
                f"obs: {OBS_NULL_BENCH!r} has a zero median and no "
                "obs_overhead_ratio extra_info; skipped")
            return lines, notices, failures
        ratio = instrumented["median"] / null["median"]
        how = "median ratio (no obs_overhead_ratio extra_info)"
    ratio = float(ratio)
    ok = ratio <= OBS_OVERHEAD_MAX
    failures += 0 if ok else 1
    lines.append(
        f"obs: metrics overhead {(ratio - 1.0) * 100:+.1f}% on warm batched "
        f"reads, {how} ({'ok' if ok else 'FAIL'}; required <= "
        f"+{(OBS_OVERHEAD_MAX - 1.0) * 100:.0f}%)")
    return lines, notices, failures


# ----------------------------------------------------------------------
# HTTP-gateway-overhead assertions (BENCH_http.json)
# ----------------------------------------------------------------------
#: the http suite's warm batched reads over each transport (one shared core)
HTTP_SUITE = "http"
HTTP_BENCH = "test_http_warm_batched"
HTTP_TCP_BENCH = "test_tcp_warm_batched"
#: warm batched reads over the HTTP gateway may cost at most 2x TCP
HTTP_OVERHEAD_MAX = 2.0


def check_http(fresh_dir: str) -> Tuple[List[str], List[str], int]:
    """Assert the gateway-overhead ceiling on a fresh ``BENCH_http.json``.

    Returns ``(result lines, notices, failures)`` like :func:`check_obs`.
    The preferred signal is the ``http_overhead_ratio`` the suite stamps
    into the HTTP benchmark's ``extra_info`` — interleaved min-of-N timing
    over one shared warm cache — with the median ratio as a fallback when
    the stamp is absent.
    """
    lines: List[str] = []
    notices: List[str] = []
    failures = 0
    fresh_path = os.path.join(fresh_dir, f"BENCH_{HTTP_SUITE}.json")
    if not os.path.isfile(fresh_path):
        notices.append(f"http: no fresh BENCH_{HTTP_SUITE}.json; skipped")
        return lines, notices, failures
    entries = load_entries(fresh_path)
    over_http = entries.get(HTTP_BENCH)
    over_tcp = entries.get(HTTP_TCP_BENCH)
    if over_http is None or over_tcp is None:
        missing = HTTP_BENCH if over_http is None else HTTP_TCP_BENCH
        notices.append(f"http: {missing!r} not in fresh results; skipped")
        return lines, notices, failures
    ratio = over_http["extra_info"].get("http_overhead_ratio")
    how = "interleaved min-of-N"
    if ratio is None:
        if over_tcp["median"] <= 0:
            notices.append(
                f"http: {HTTP_TCP_BENCH!r} has a zero median and no "
                "http_overhead_ratio extra_info; skipped")
            return lines, notices, failures
        ratio = over_http["median"] / over_tcp["median"]
        how = "median ratio (no http_overhead_ratio extra_info)"
    ratio = float(ratio)
    ok = ratio <= HTTP_OVERHEAD_MAX
    failures += 0 if ok else 1
    lines.append(
        f"http: gateway overhead {ratio:.2f}x TCP on warm batched reads, "
        f"{how} ({'ok' if ok else 'FAIL'}; required <= "
        f"{HTTP_OVERHEAD_MAX:.1f}x)")
    return lines, notices, failures


# ----------------------------------------------------------------------
# entropy-stage assertions (BENCH_entropy.json)
# ----------------------------------------------------------------------
#: the yardstick: decoding one long stream (one lane pass, no per-stream cost)
ENTROPY_SUITE = "entropy"
ENTROPY_LONG_BENCH = "test_huffman_decode_1m"
ENTROPY_SMALL_BENCH = "test_huffman_decode_many_small_streams"
ENTROPY_ENCODE_BENCH = "test_huffman_encode_many_small_streams"
#: a symbol of a shared-table container of small streams may cost at most
#: this many times a symbol of one long stream (a ratio: host speed cancels)
ENTROPY_SMALL_STREAMS_MAX = 2.0
#: encoding a symbol of the same small streams, against the same yardstick
#: (the lookup/window kernel measures 1.1-1.6x from quiet to noisy host; the
#: searchsorted + float64 bincount kernel it replaced sat above 4x)
ENTROPY_ENCODE_MAX = 2.5
#: (benchmark, what it does, ceiling) — one result line each
ENTROPY_ROWS = ((ENTROPY_SMALL_BENCH, "decode", ENTROPY_SMALL_STREAMS_MAX),
                (ENTROPY_ENCODE_BENCH, "encode", ENTROPY_ENCODE_MAX))


def check_entropy(fresh_dir: str) -> Tuple[List[str], List[str], int]:
    """Assert the per-symbol ceilings on a fresh ``BENCH_entropy.json``.

    Returns ``(result lines, notices, failures)`` like :func:`check_obs`.
    Every benchmark involved stamps its symbol count into
    ``extra_info.symbols``; a missing file, benchmark or stamp downgrades the
    assertion to a notice.
    """
    fresh_path = os.path.join(fresh_dir, f"BENCH_{ENTROPY_SUITE}.json")
    if not os.path.isfile(fresh_path):
        return [], [f"entropy: no fresh BENCH_{ENTROPY_SUITE}.json; skipped"], 0
    entries = load_entries(fresh_path)
    cost: Dict[str, float] = {}             # seconds per symbol
    notices: List[str] = []
    for name in (ENTROPY_LONG_BENCH,) + tuple(row[0] for row in ENTROPY_ROWS):
        entry = entries.get(name)
        symbols = None if entry is None else entry["extra_info"].get("symbols")
        if symbols and entry["median"] > 0:
            cost[name] = entry["median"] / float(symbols)
        else:
            notices.append(f"entropy: {name!r} missing from fresh results (or "
                           "carries no symbols extra_info); skipped")
    lines: List[str] = []
    failures = 0
    long = cost.get(ENTROPY_LONG_BENCH)
    for name, verb, ceiling in ENTROPY_ROWS:
        if long is None or name not in cost:
            continue
        ok = cost[name] / long <= ceiling
        failures += 0 if ok else 1
        lines.append(f"entropy: many small streams {verb} at {cost[name] / long:.2f}x the "
                     f"per-symbol cost of decoding one long stream ({cost[name] * 1e9:.0f} "
                     f"vs {long * 1e9:.0f} ns/symbol; {'ok' if ok else 'FAIL'}; "
                     f"required <= {ceiling:.1f}x)")
    return lines, notices, failures


# ----------------------------------------------------------------------
# live-streaming assertions (BENCH_stream.json)
# ----------------------------------------------------------------------
#: the stream suite's full live reopen and its journal-tail refresh
STREAM_SUITE = "stream"
STREAM_REOPEN_BENCH = "test_stream_reopen_live"
STREAM_REFRESH_BENCH = "test_stream_refresh_noop"
STREAM_LAG_BENCH = "test_stream_follow_event_lag"
#: refresh must beat a full reopen of the live directory by at least this
STREAM_REFRESH_MIN = 5.0
#: a subscriber's mean commit-to-event lag ceiling (the suite polls at 50ms)
STREAM_LAG_MAX_SECONDS = 2.0


def check_stream(fresh_dir: str) -> Tuple[List[str], List[str], int]:
    """Assert the live-streaming targets on a fresh ``BENCH_stream.json``.

    Returns ``(result lines, notices, failures)`` like :func:`check_remote`.
    The journal exists so a follower pays a stat + head probe per poll
    instead of re-parsing the whole manifest — so the refresh median must be
    at least :data:`STREAM_REFRESH_MIN` times cheaper than a full reopen —
    and the subscriber's recorded commit-to-event lag must stay under
    :data:`STREAM_LAG_MAX_SECONDS`.  Missing files/benchmarks downgrade to
    notices (the median comparator already fails dropped benchmarks).
    """
    lines: List[str] = []
    notices: List[str] = []
    failures = 0
    fresh_path = os.path.join(fresh_dir, f"BENCH_{STREAM_SUITE}.json")
    if not os.path.isfile(fresh_path):
        notices.append(f"stream: no fresh BENCH_{STREAM_SUITE}.json; skipped")
        return lines, notices, failures
    entries = load_entries(fresh_path)
    reopen = entries.get(STREAM_REOPEN_BENCH)
    refresh = entries.get(STREAM_REFRESH_BENCH)
    if reopen is None or refresh is None:
        missing = STREAM_REOPEN_BENCH if reopen is None else STREAM_REFRESH_BENCH
        notices.append(f"stream: {missing!r} not in fresh results; skipped")
    elif refresh["median"] <= 0:
        notices.append(
            f"stream: {STREAM_REFRESH_BENCH!r} has a zero median; skipped")
    else:
        factor = reopen["median"] / refresh["median"]
        ok = factor >= STREAM_REFRESH_MIN
        failures += 0 if ok else 1
        lines.append(
            f"stream: live refresh {factor:.1f}x cheaper than a full reopen "
            f"({'ok' if ok else 'FAIL'}; required >= "
            f"{STREAM_REFRESH_MIN:.1f}x)")
    lag_entry = entries.get(STREAM_LAG_BENCH)
    lag = None if lag_entry is None else \
        lag_entry["extra_info"].get("mean_event_lag_seconds")
    if lag is None:
        notices.append(
            "stream: mean_event_lag_seconds missing from extra_info; "
            "lag assertion skipped")
    else:
        ok = float(lag) <= STREAM_LAG_MAX_SECONDS
        failures += 0 if ok else 1
        lines.append(
            f"stream: mean commit-to-event lag {float(lag) * 1e3:.0f}ms "
            f"({'ok' if ok else 'FAIL'}; required <= "
            f"{STREAM_LAG_MAX_SECONDS * 1e3:.0f}ms)")
    return lines, notices, failures


def format_rows(rows: List[dict]) -> str:
    """A fixed-width delta table (stdlib-only sibling of analysis.format_table)."""
    columns = ["suite", "benchmark", "baseline_ms", "fresh_ms", "delta", "status"]

    def fmt(row: dict, column: str) -> str:
        value = row[column]
        if value is None:
            return "-"
        if column in ("baseline_ms", "fresh_ms"):
            return f"{value:.3f}"
        if column == "delta":
            return f"{value:+.1%}"
        return str(value)

    table = [[fmt(row, c) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in table)) if table else len(c)
              for i, c in enumerate(columns)]
    lines = [" | ".join(c.ljust(w) for c, w in zip(columns, widths)),
             "-+-".join("-" * w for w in widths)]
    lines += [" | ".join(v.ljust(w) for v, w in zip(r, widths)) for r in table]
    return "\n".join(lines)


def update_baselines(baseline_dir: str, fresh_dir: str) -> List[str]:
    """Adopt every fresh ``BENCH_*.json`` as the new committed baseline."""
    os.makedirs(baseline_dir, exist_ok=True)
    adopted = []
    for name in sorted(os.listdir(fresh_dir)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            shutil.copyfile(os.path.join(fresh_dir, name),
                            os.path.join(baseline_dir, name))
            adopted.append(name)
    return adopted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh benchmark medians regressed past the "
                    "committed baselines")
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                        help="committed reference JSONs "
                             "(default benchmarks/baselines)")
    parser.add_argument("--fresh-dir", default=REPO_ROOT,
                        help="where make bench wrote BENCH_*.json "
                             "(default the repo root)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown per median "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--update", action="store_true",
                        help="adopt the fresh results as the new baselines "
                             "instead of checking")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    if args.update:
        adopted = update_baselines(args.baseline_dir, args.fresh_dir)
        if not adopted:
            print(f"no BENCH_*.json under {args.fresh_dir} to adopt",
                  file=sys.stderr)
            return 1
        for name in adopted:
            print(f"baseline updated: {name}")
        return 0

    rows, notices = compare_directories(args.baseline_dir, args.fresh_dir,
                                        args.tolerance)
    speedup_lines, speedup_notices, speedup_failures = check_speedups(
        args.baseline_dir, args.fresh_dir, args.tolerance)
    remote_lines, remote_notices, remote_failures = check_remote(args.fresh_dir)
    stream_lines, stream_notices, stream_failures = check_stream(args.fresh_dir)
    obs_lines, obs_notices, obs_failures = check_obs(args.fresh_dir)
    http_lines, http_notices, http_failures = check_http(args.fresh_dir)
    entropy_lines, entropy_notices, entropy_failures = check_entropy(args.fresh_dir)
    for notice in notices + speedup_notices + remote_notices \
            + stream_notices + obs_notices + http_notices + entropy_notices:
        print(f"note: {notice}")
    if rows:
        print(format_rows(rows))
    for line in speedup_lines + remote_lines + stream_lines + obs_lines \
            + http_lines + entropy_lines:
        print(line)
    bad = [row for row in rows if row["status"] in (REGRESSED, MISSING)]
    if bad or speedup_failures or remote_failures or stream_failures \
            or obs_failures or http_failures or entropy_failures:
        parts = []
        if bad:
            parts.append(f"{len(bad)} benchmark(s) regressed beyond "
                         f"{args.tolerance:.0%} (or went missing)")
        if speedup_failures:
            parts.append(f"{speedup_failures} speedup assertion(s) failed")
        if remote_failures:
            parts.append(f"{remote_failures} remote-read assertion(s) failed")
        if stream_failures:
            parts.append(f"{stream_failures} streaming assertion(s) failed")
        if obs_failures:
            parts.append(f"{obs_failures} observability assertion(s) failed")
        if http_failures:
            parts.append(f"{http_failures} http-gateway assertion(s) failed")
        if entropy_failures:
            parts.append(f"{entropy_failures} entropy assertion(s) failed")
        print(f"\nFAIL: " + "; ".join(parts))
        return 1
    checked = sum(1 for row in rows if row["status"] in (OK, IMPROVED))
    print(f"\nbench-check: {checked} benchmark(s) within {args.tolerance:.0%} "
          f"of baseline; {len(speedup_lines)} speedup, {len(remote_lines)} "
          f"remote-read, {len(stream_lines)} streaming, {len(obs_lines)} "
          f"observability, {len(http_lines)} http-gateway and "
          f"{len(entropy_lines)} entropy assertion(s) held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
