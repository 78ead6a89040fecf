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

On top of the per-median regression gate, the tool asserts every row of the
:data:`GATES` table on the fresh results: a row names a suite, a numerator
and a denominator (each a benchmark's median or one of its ``extra_info``
stamps), a bound and a direction, and :func:`evaluate_gates` holds the
quotient to the bound.  The rows are the shm backend's **speedups** over
serial, the **remote-read** targets (request coalescing; bytes and wall time
of the progressive ``max_level=0`` probe), the **streaming** targets (journal
refresh vs full reopen, subscriber lag), the **observability** and
**HTTP-gateway** overhead ceilings, the **entropy** per-symbol and
shared-pass ceilings, the **series** delta-write ceiling and the **service**
cold block-read ceiling;
the comment on each bound says why it is what it is.  One rule covers
everything a row cannot find: a missing suite file, benchmark or stamp (or a
zero denominator) downgrades the row to a printed notice — the median
comparator already fails genuinely dropped benchmarks — so a machine that
cannot run a suite does not fail the gate for the wrong reason.

The speedup targets are declared for a 4-core machine and auto-scale to the
*recording* machine's core count (stamped into each benchmark's
``extra_info.cpu_count`` by the perf conftest): below 2 cores they relax to
"no worse than serial", and when the fresh run's machine has fewer cores than
the baseline's the row is skipped with a notice — a smaller box cannot be
asked to reproduce a bigger box's speedup.  The regression tolerance also
pads the speedup requirement, so bench noise does not flake the gate.

Deliberately dependency-free (stdlib only) so CI can run it before/without
installing the package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: default locations, relative to the repo root (= this file's parent's parent)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")
DEFAULT_TOLERANCE = 0.25

OK = "ok"
REGRESSED = "REGRESSED"
IMPROVED = "improved"
NEW = "new"
MISSING = "MISSING"


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
# the gate table
# ----------------------------------------------------------------------
#: the core count the speedup target below is declared for
SPEEDUP_REFERENCE_CORES = 4
#: the shm pool must beat its serial sibling by this factor at 4 cores
SPEEDUP_TARGET = 3.0
#: the full remote read must save at least this many round-trips per issued read
REMOTE_COALESCING_MIN = 3.0
#: the max_level=0 probe vs the full read: bytes and wall-time ceilings
REMOTE_PROBE_BYTES_MAX = 0.25
REMOTE_PROBE_TIME_MAX = 0.50
#: the journal exists so a follower pays a stat + head probe per poll, not a
#: manifest re-parse: refresh must beat a full reopen by at least this
STREAM_REFRESH_MIN = 5.0
#: a subscriber's mean commit-to-event lag ceiling (the suite polls at 50ms)
STREAM_LAG_MAX_SECONDS = 2.0
#: instrumented warm batched reads may cost at most 5% over NULL_REGISTRY
OBS_OVERHEAD_MAX = 1.05
#: warm batched reads over the HTTP gateway may cost at most 2x TCP (one
#: shared request core and warm cache behind both)
HTTP_OVERHEAD_MAX = 2.0
#: a symbol of a shared-table container of small streams may cost at most
#: this many times a symbol of one long stream (a ratio: host speed cancels)
ENTROPY_SMALL_STREAMS_MAX = 2.0
#: encoding a symbol of the same small streams, against the same yardstick
#: (the lookup/window kernel measures 1.1-1.6x from quiet to noisy host; the
#: searchsorted + float64 bincount kernel it replaced sat above 4x)
ENTROPY_ENCODE_MAX = 2.5

#: a decode job's four containers in one lane pass may cost at most this much
#: of the same four in a pass each: the pass's SYNC_INTERVAL Python-level steps
#: are shared, the per-symbol work is not (measures 0.45-0.55)
ENTROPY_SHARED_PASS_MAX = 0.7

#: a delta step = a keyframe step + one histogram and table build per chunk.  One session,
#: sides alternating, 18 writes each: parent 0.575 / 0.396 = 1.46, PR 23 0.417 / 0.373 = 1.12;
#: 3-round recordings on this shared box spread 1.00-1.16 (once 1.49): re-record, don't raise
SERIES_DELTA_WRITE_MAX = 1.25

#: a cold read of one unit block must not cost its chunk: it entropy-decodes and
#: reconstructs that block alone (1 of nyx_1's 62 level-0 blocks in 4 chunks; what is
#: left is its payload's parse and the lane pass's fixed steps).  Measures 0.21-0.24,
#: quiet host and noisy; the chunk door it replaced measured 0.41 (6.0 / 14.5 ms) —
#: ISSUE 24 asked for <= 0.5, which that would have passed, so the bound sits between
SERVICE_BLOCK_READ_MAX = 0.33

#: a gated quantity: (benchmark name, "median" or an ``extra_info`` key)
Quantity = Tuple[str, str]


class Gate(NamedTuple):
    """One assertion on a fresh suite: ``num / den`` held to ``bound``."""

    suite: str                      #: reads ``BENCH_<suite>.json``
    kind: str                       #: the summary bucket the row counts under
    label: str                      #: what the quotient measures
    num: Quantity
    den: Optional[Quantity]         #: None: the numerator is the gated value
    bound: float
    at_least: bool                  #: direction: value >= bound (else <=)
    #: scale ``bound`` to the recording machine's cores, pad it by the
    #: tolerance, and skip when the baseline machine had more cores
    scale_by_cores: bool = False
    #: divide both quantities by this ``extra_info`` count of their benchmark
    per: Optional[str] = None
    unit: str = "x"


_REMOTE_FULL, _REMOTE_PROBE = "test_remote_read_full", "test_remote_probe_coarse"
#: the entropy yardstick: decoding one long stream (one lane pass)
_ENTROPY_LONG = ("test_huffman_decode_1m", "median")

GATES: Tuple[Gate, ...] = (
    *(Gate(suite, "speedup", f"{pooled} over {serial}", (serial, "median"),
           (pooled, "median"), SPEEDUP_TARGET, True, scale_by_cores=True)
      for suite, pooled, serial in (
          ("writer", "test_writer_plotfile_nyx1_shm_backend[sz_lr]",
           "test_writer_plotfile_nyx1[sz_lr]"),
          ("writer", "test_writer_plotfile_nyx1_shm_backend[sz_interp]",
           "test_writer_plotfile_nyx1[sz_interp]"),
          ("reader", "test_reader_full_shm_backend", "test_reader_full_serial"))),
    Gate("remote", "remote-read", "full read coalescing, ranges per read",
         (_REMOTE_FULL, "io_requests"), (_REMOTE_FULL, "io_coalesced_requests"),
         REMOTE_COALESCING_MIN, True),
    Gate("remote", "remote-read", "max_level=0 probe bytes over full read's",
         (_REMOTE_PROBE, "io_bytes_read"), (_REMOTE_FULL, "io_bytes_read"),
         REMOTE_PROBE_BYTES_MAX, False),
    Gate("remote", "remote-read", "time-to-first-array over full read time",
         (_REMOTE_PROBE, "median"), (_REMOTE_FULL, "median"),
         REMOTE_PROBE_TIME_MAX, False),
    Gate("stream", "streaming", "full reopen over live refresh",
         ("test_stream_reopen_live", "median"),
         ("test_stream_refresh_noop", "median"), STREAM_REFRESH_MIN, True),
    Gate("stream", "streaming", "mean commit-to-event lag",
         ("test_stream_follow_event_lag", "mean_event_lag_seconds"), None,
         STREAM_LAG_MAX_SECONDS, False, unit="s"),
    # the two overhead ratios are stamped by their suites from interleaved
    # min-of-N timing, far less noisy than two independently recorded medians
    Gate("obs", "observability", "metrics overhead on warm batched reads",
         ("test_obs_warm_batched_instrumented", "obs_overhead_ratio"), None,
         OBS_OVERHEAD_MAX, False),
    Gate("http", "http-gateway", "gateway over TCP on warm batched reads",
         ("test_http_warm_batched", "http_overhead_ratio"), None,
         HTTP_OVERHEAD_MAX, False),
    *(Gate("entropy", "entropy", f"a symbol of many small streams, {verb}, "
           "over a symbol of one long stream, decode",
           (f"test_huffman_{verb}_many_small_streams", "median"),
           _ENTROPY_LONG, ceiling, False, per="symbols")
      for verb, ceiling in (("decode", ENTROPY_SMALL_STREAMS_MAX),
                            ("encode", ENTROPY_ENCODE_MAX))),
    Gate("entropy", "entropy", "one 4-table lane pass over four single-table passes",
         ("test_huffman_decode_many_tables[1]", "median"),
         ("test_huffman_decode_many_tables[4]", "median"),
         ENTROPY_SHARED_PASS_MAX, False),
    Gate("series", "series", "delta series write over keyframe-only write",
         ("test_series_write_delta", "median"),
         ("test_series_write_keyframes_only", "median"), SERIES_DELTA_WRITE_MAX, False),
    Gate("service", "service", "cold unit-block read over cold whole-level read",
         ("test_service_cold_unit_block_read", "median"),
         ("test_service_cold_level_read", "median"), SERVICE_BLOCK_READ_MAX, False),
)


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


class _Skip(Exception):
    """A gate row cannot be evaluated; the message is the printed notice."""


def _measure(entries: Dict[str, dict], quantity: Quantity,
             per: Optional[str]) -> float:
    """One quantity of a fresh suite; raises :class:`_Skip` when absent."""
    name, key = quantity
    entry = entries.get(name)
    if entry is None:
        raise _Skip(f"{name!r} not in fresh results")
    value = entry["median"] if key == "median" else entry["extra_info"].get(key)
    count = 1.0 if per is None else entry["extra_info"].get(per)
    if value is None or not count:
        raise _Skip(f"{name!r} carries no {key if value is None else per} "
                    "extra_info")
    return float(value) / float(count)


def _evaluate(gate: Gate, baseline_dir: str, fresh_dir: str,
              tolerance: float) -> Tuple[str, bool]:
    """``(result line, held?)`` of one row; raises :class:`_Skip` to skip it."""
    filename = f"BENCH_{gate.suite}.json"
    fresh_path = os.path.join(fresh_dir, filename)
    if not os.path.isfile(fresh_path):
        raise _Skip(f"no fresh {filename}")
    entries = load_entries(fresh_path)
    value, detail = _measure(entries, gate.num, gate.per), ""
    if gate.den is not None:
        num, den = value, _measure(entries, gate.den, gate.per)
        if den <= 0:
            raise _Skip(f"{gate.den[0]!r} has a zero {gate.den[1]}")
        value, detail = num / den, f"{num:.4g} / {den:.4g}; "
    required = gate.bound
    needs = f"required {'>=' if gate.at_least else '<='} {required:g}{gate.unit}"
    if gate.scale_by_cores:
        pooled = gate.den[0]
        cores = entries[pooled]["extra_info"].get("cpu_count")
        baseline_path = os.path.join(baseline_dir, filename)
        baseline_cores = None if not os.path.isfile(baseline_path) else \
            load_entries(baseline_path).get(pooled, {}) \
            .get("extra_info", {}).get("cpu_count")
        if cores is not None and baseline_cores is not None \
                and cores < baseline_cores:
            raise _Skip(f"recording machine has {cores} core(s) but the "
                        f"baseline was recorded on {baseline_cores}")
        goal = effective_speedup_target(gate.bound, cores)
        required = goal * (1.0 - tolerance)
        needs = (f"target {goal:.2f}x on {'?' if cores is None else cores} "
                 f"core(s), required >= {required:.2f}x after "
                 f"{tolerance:.0%} tolerance")
    held = value >= required if gate.at_least else value <= required
    return (f"{gate.suite}: {gate.label} {value:.4g}{gate.unit} ({detail}"
            f"{'ok' if held else 'FAIL'}; {needs})"), held


def evaluate_gates(baseline_dir: str, fresh_dir: str, tolerance: float,
                   gates: Sequence[Gate] = GATES,
                   ) -> Tuple[List[Tuple[Gate, str, bool]], List[str]]:
    """Assert every gate row on the fresh results.

    Returns ``(results, notices)``: one ``(gate, result line, held?)`` per
    row that could be evaluated, and one notice per distinct reason a row was
    skipped (a missing file, benchmark or stamp — see the module docstring).
    """
    results: List[Tuple[Gate, str, bool]] = []
    notices: List[str] = []
    for gate in gates:
        try:
            line, held = _evaluate(gate, baseline_dir, fresh_dir, tolerance)
        except _Skip as skip:
            notices.append(f"{gate.suite} {gate.kind}: {skip}; skipped")
        else:
            results.append((gate, line, held))
    return results, list(dict.fromkeys(notices))


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
    results, gate_notices = evaluate_gates(args.baseline_dir, args.fresh_dir,
                                           args.tolerance)
    for notice in notices + gate_notices:
        print(f"note: {notice}")
    if rows:
        print(format_rows(rows))
    for _, line, _ in results:
        print(line)
    bad = [row for row in rows if row["status"] in (REGRESSED, MISSING)]
    failed = Counter(gate.kind for gate, _, held in results if not held)
    if bad or failed:
        parts = []
        if bad:
            parts.append(f"{len(bad)} benchmark(s) regressed beyond "
                         f"{args.tolerance:.0%} (or went missing)")
        parts += [f"{count} {kind} assertion(s) failed"
                  for kind, count in failed.items() if count]
        print("\nFAIL: " + "; ".join(parts))
        return 1
    checked = sum(1 for row in rows if row["status"] in (OK, IMPROVED))
    counts = Counter(gate.kind for gate, _, _ in results)
    held = [f"{counts[kind]} {kind}"
            for kind in dict.fromkeys(gate.kind for gate in GATES)]
    print(f"\nbench-check: {checked} benchmark(s) within {args.tolerance:.0%} "
          f"of baseline; {', '.join(held[:-1])} and {held[-1]} "
          "assertion(s) held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
