"""The end-to-end benchmark: one workload per invocation, or all of them.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
sets the workload up, measures it, checks its outputs and prints one JSON
object as the last line of stdout: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0`` (no wrapper installed anywhere), its per-layer metrics with
``--trace 1``.  The three end-to-end timings are stated at a reference host
speed (see ``host.py``); the wall-clock values are printed beside them.
Without ``--workload`` it runs every workload twice untraced and twice traced,
each in a fresh interpreter, and prints every metric by name with per-pass
values, so run-to-run noise is visible next to each bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".e2e_work")
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _stop_resource_tracker() -> None:
    """End and reap the helper process ``multiprocessing.shared_memory`` starts.

    The shared-memory backend of the traced pass makes the interpreter spawn
    a resource tracker that lives until its parent is gone, so it outlives
    the run by a moment and nobody waits for it.  Closing its pipe ends it;
    the stdlib's own ``_stop`` does that and waits for the process.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, setups: int = SETUPS) -> dict:
    """Set up, measure, check and tear down one workload; returns the result object."""
    import inputs
    import workloads
    from host import REFERENCE_MS, HostSpeed
    from repro.parallel.shm import sweep_segments

    spec = load_spec()
    sizes = sizes or inputs.FULL
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    workload = None
    try:
        host = HostSpeed()      # of the set-up phase; the timed loop gets its own
        setup_s: List[float] = []
        for index in range(1 if trace else setups):
            if workload is not None:
                workload.teardown()
                gc.collect()
            workload = workloads.WORKLOADS[name](seed, sizes,
                                                 os.path.join(workdir, f"setup{index}"))
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
            host.probe()
        if trace:
            measured, attempted, failed = workload.layers()
            host.probe()
            measured["host.nproc"] = os.cpu_count() or 1
            measured["host.calib_ms"] = host.calib_ms
            declared = spec["per_layer"]
            unknown = set(measured) - {m["name"] for m in declared}
            if unknown:
                raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
            # a layer this workload never enters reads 0
            values = {m["name"]: measured.get(m["name"], 0.0) for m in declared}
        else:
            setup_host, host = host, HostSpeed()
            timed = workload.measure(seconds, host)
            rss_mb = workload.peak_rss_mb()
            workload.check(timed)
            ratio, psnr = workload.quality()
            attempted, failed = len(timed.op_s), timed.failed
            wall = {
                "setup_s": statistics.median(setup_s),
                "throughput_MBps": timed.throughput_MBps(),
                "latency_ms_p50": statistics.median(timed.latency_s) * 1e3,
            }
            values = {
                "setup_s": setup_host.at_reference(wall["setup_s"]),
                "throughput_MBps": wall["throughput_MBps"] / host.at_reference(1.0),
                "latency_ms_p50": host.at_reference(wall["latency_ms_p50"]),
                "compression_ratio": ratio,
                "psnr_db_min": psnr,
                "peak_rss_mb": rss_mb,
            }
            declared = spec["end_to_end"]
            if set(values) != {m["name"] for m in declared}:
                raise RuntimeError("end-to-end metrics differ from BENCHMARK.json")
            print(f"# {name}: operations {_quartiles(timed.op_s)} s; "
                  f"latency {_quartiles(timed.latency_s)} s; "
                  f"set-ups {[round(s, 3) for s in setup_s]} s")
            print(f"# {name}: wall clock " + json.dumps(wall)
                  + f"; host.calib_ms {host.calib_ms:.3f} over {len(host.samples_ms)} "
                  f"kernels ({setup_host.calib_ms:.3f} over {len(setup_host.samples_ms)} "
                  f"during set-up), reference {REFERENCE_MS}: the timings below are "
                  f"wall clock x {host.at_reference(1.0):.3f} "
                  f"(set-up x {setup_host.at_reference(1.0):.3f})")
    finally:
        try:
            if workload is not None:
                workload.teardown()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                sweep_segments()
            finally:
                _stop_resource_tracker()
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass        # another run is using it
    units = {m["name"]: m["unit"] for m in declared}
    for key, value in values.items():
        print(f"# {name}: {key} = {value:.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in values.items()}}


# ----------------------------------------------------------------------
# every workload, with the noise self-report
# ----------------------------------------------------------------------
#: per-layer units whose metrics repeat exactly for a seed (one client, no timers)
EXACT_UNITS = ("count", "bytes")


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name} (trace {trace}) printed no result "
                           f"(exit {proc.returncode})")
    for line in lines:
        if "host.calib_ms" in line and line.startswith("#"):
            print(line)
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, passes: int = 2) -> int:
    """Interleaved passes over every workload, each run in a fresh interpreter.

    Untraced passes give the end-to-end metrics, traced passes the per-layer
    ones.  Per-pass values are printed beside the pooled median; a timing
    whose passes differ by more than its bound is ``unresolved`` (lengthen
    the run, do not widen the bound), and a metric that must repeat exactly
    for a seed but did not counts as a failed operation.
    """
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    runs = {trace: {n: [] for n in names} for trace in (0, 1)}
    for trace in (0, 1):
        for _ in range(passes):
            for name in names:
                runs[trace][name].append(_child(name, seed, seconds, trace))

    def per_pass(trace: int, name: str, metric: str) -> List[float]:
        return [r["metrics"][metric]["value"] for r in runs[trace][name]]

    failed = 0
    columns = "".join(f"{'pass ' + str(i + 1):>12}" for i in range(passes))
    print(f"\n{'workload':<14}{'metric':<20}{'unit':<7}{columns}"
          f"{'pooled':>12}{'bound':>7}  status")
    for name in names:
        for metric in spec["end_to_end"]:
            values = per_pass(0, name, metric["name"])
            pooled = statistics.median(values)
            apart = (max(values) - min(values)) / abs(pooled)
            status = "unresolved" if apart > metric["bound"] else "ok"
            if metric["name"] in ("compression_ratio", "psnr_db_min") and apart:
                status = "NOT REPEATED"
                failed += 1
            print(f"{name:<14}{metric['name']:<20}{metric['unit']:<7}"
                  + "".join(f"{v:>12.5g}" for v in values)
                  + f"{pooled:>12.5g}{metric['bound']:>7}  {status}")
        results = runs[0][name] + runs[1][name]
        failed += sum(r["failed"] for r in results)
        print(f"{name:<14}operations attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}")

    print(f"\n{'layer metric (median of traced passes)':<40}{'unit':<7}"
          + "".join(f"{n:>14}" for n in names))
    for metric in spec["per_layer"]:
        cells = []
        for name in names:
            values = per_pass(1, name, metric["name"])
            repeated = len(set(values)) == 1 or metric["unit"] not in EXACT_UNITS
            failed += not repeated
            cells.append(f"{statistics.median(values):>13.5g}{' ' if repeated else '!'}")
        print(f"{metric['name']:<40}{metric['unit']:<7}" + "".join(cells))
    print("('!' marks a count that did not repeat exactly between passes)")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [p for p in (HERE, SRC) if p not in sys.path]
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    # a terminated run unwinds through the same teardown as a finished one
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
