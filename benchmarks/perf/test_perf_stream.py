"""Live-streaming timing: append commits, refresh vs reopen, event lag.

``make bench`` runs this file into ``BENCH_stream.json``: one timed
append-mode series write (the per-step journal commit is the in situ hot
path), one timed full reopen of a live directory against one timed
steady-state ``refresh()`` — the headline assertion the journal exists for:
a follower polling a live series must pay a stat + 24-byte head probe, not
an O(nsteps) manifest re-parse, so ``tools/bench_check.py`` gates
reopen/refresh at >= 5x — plus one producer→server→subscriber run recording
the commit-to-event lag a live dashboard would see.
"""

import shutil
import threading
import time

import pytest

pytest.importorskip("pytest_benchmark")

import repro
from repro.apps.nyx import NyxSimulation
from repro.series.reader import SeriesHandle
from repro.series.writer import SeriesWriter
from repro.service import ReproServer
from repro.service.client import follow_series

NSTEPS = 10


@pytest.fixture(scope="module")
def bench_hierarchies():
    sim = NyxSimulation(coarse_shape=(32, 32, 32), nranks=4,
                        target_fine_density=0.02, max_grid_size=16, seed=7,
                        drift_rate=0.05, growth_rate=0.02, regrid_interval=4)
    return list(sim.run(NSTEPS))


@pytest.fixture(scope="module")
def live_dir(bench_hierarchies, tmp_path_factory):
    """A live series (the writer 'crashed' before finalize)."""
    directory = str(tmp_path_factory.mktemp("stream") / "live")
    writer = SeriesWriter(directory, keyframe_interval=8, error_bound=1e-3,
                          append=True)
    for h in bench_hierarchies:
        writer.append(h)
    writer.abort()
    return directory


def _write_append(hierarchies, directory):
    shutil.rmtree(directory, ignore_errors=True)
    return repro.write_series(hierarchies, str(directory), keyframe_interval=8,
                              error_bound=1e-3, append=True)


def test_stream_append_commit(benchmark, bench_hierarchies, tmp_path):
    """Timed: the whole series through journal commits (fsync per step)."""
    target = tmp_path / "append"
    reports = benchmark.pedantic(_write_append,
                                 args=(bench_hierarchies, target),
                                 rounds=3, iterations=1)
    assert len(reports) == NSTEPS
    benchmark.extra_info["steps"] = NSTEPS


def test_stream_reopen_live(benchmark, live_dir):
    """Timed: what a poller without the journal tail would pay per poll —
    a full open (journal replay) of the live directory."""

    def reopen():
        handle = SeriesHandle(live_dir)
        nsteps = len(handle.steps())
        handle.close()
        return nsteps

    nsteps = benchmark.pedantic(reopen, rounds=10, iterations=3)
    assert nsteps == NSTEPS


def test_stream_refresh_noop(benchmark, live_dir):
    """Timed: the steady-state poll — refresh() when nothing changed."""
    handle = SeriesHandle(live_dir)
    try:
        assert handle.live and len(handle.steps()) == NSTEPS
        appended = benchmark.pedantic(handle.refresh, rounds=10, iterations=50)
        assert appended == 0
    finally:
        handle.close()


def test_stream_follow_event_lag(benchmark, bench_hierarchies, tmp_path):
    """Timed: producer -> server -> subscriber; extra_info records the mean
    commit-to-event lag (bounded by the server's watch interval)."""
    directory = str(tmp_path / "followed")
    commit_times = {}
    lags = []

    def run_once():
        shutil.rmtree(directory, ignore_errors=True)
        commit_times.clear()
        writer = SeriesWriter(directory, keyframe_interval=8,
                              error_bound=1e-3, append=True)

        def produce():
            for i, h in enumerate(bench_hierarchies[:5]):
                writer.append(h)
                commit_times[i] = time.perf_counter()
                time.sleep(0.05)
            writer.close()

        writer.append(bench_hierarchies[5])      # step 0 pre-exists
        producer = threading.Thread(target=produce)
        seen = 0
        with ReproServer(port=0, watch_interval=0.05) as server:
            producer.start()
            for event, _ in follow_series(directory, port=server.port,
                                          reconnect=False):
                if event["event"] == "step":
                    idx = event["step_index"]
                    if idx - 1 in commit_times:   # step 0 predates the clock
                        lags.append(time.perf_counter()
                                    - commit_times[idx - 1])
                    seen += 1
        producer.join(timeout=60)
        return seen

    seen = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert seen == 6                              # the pre-existing step + 5
    assert lags, "no commit-to-event lag samples collected"
    mean_lag = sum(lags) / len(lags)
    benchmark.extra_info["mean_event_lag_seconds"] = mean_lag
    benchmark.extra_info["max_event_lag_seconds"] = max(lags)
    # generous sanity ceiling: the watcher polls at 50ms, so multi-second
    # lag means the subscription machinery is broken, not the machine slow
    assert mean_lag < 5.0


def test_stream_refresh_vs_reopen_at_least_5x(live_dir):
    """The acceptance bar, asserted in-suite too (bench_check gates the
    recorded medians): tail-follow must beat a full reopen by >= 5x."""

    def timed(fn, repeat):
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def reopen():
        SeriesHandle(live_dir).close()

    handle = SeriesHandle(live_dir)
    try:
        reopen_t = timed(reopen, 5)

        def refresh_many():
            for _ in range(20):
                handle.refresh()

        refresh_t = timed(refresh_many, 5) / 20
        assert refresh_t * 5 <= reopen_t, (
            f"refresh {refresh_t * 1e6:.0f}us vs reopen "
            f"{reopen_t * 1e6:.0f}us: less than 5x apart")
    finally:
        handle.close()
