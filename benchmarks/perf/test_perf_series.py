"""Series write timing + the delta-vs-keyframe byte comparison.

``make bench`` runs this file separately into ``BENCH_series.json``: one
timed write of a multi-step nyx series with temporal deltas, one with
keyframes only, plus the headline assertion the subsystem exists for — the
delta-compressed series must be at least 1.3x smaller than storing every
step self-contained.

The run models a realistic dump cadence: the nyx fields drift coherently a
few percent per dump (``drift_rate``/``growth_rate``) and the grids regrid
every few dumps (``regrid_interval``), the way an AMReX run with
``regrid_int > 1`` behaves.
"""

import shutil

import pytest

pytest.importorskip("pytest_benchmark")

from repro import open_series, write_series
from repro.apps.nyx import NyxSimulation
from repro.series import SeriesIndex

NSTEPS = 10


@pytest.fixture(scope="module")
def bench_hierarchies():
    sim = NyxSimulation(coarse_shape=(32, 32, 32), nranks=4,
                        target_fine_density=0.02, max_grid_size=16, seed=7,
                        drift_rate=0.05, growth_rate=0.02, regrid_interval=4)
    return list(sim.run(NSTEPS))


def _write(hierarchies, directory, keyframe_interval):
    shutil.rmtree(directory, ignore_errors=True)
    return write_series(hierarchies, str(directory),
                        keyframe_interval=keyframe_interval, error_bound=1e-3)


def test_series_write_delta(benchmark, bench_hierarchies, tmp_path):
    """Timed: the delta series (keyframe every 8th dump)."""
    target = tmp_path / "delta"
    reports = benchmark.pedantic(_write, args=(bench_hierarchies, target, 8),
                                 rounds=3, iterations=1)
    assert len(reports) == NSTEPS
    index = SeriesIndex.load(str(target))
    assert any(s.kind == "delta" for s in index.steps)


def test_series_write_keyframes_only(benchmark, bench_hierarchies, tmp_path):
    """Timed: the same dumps with every step self-contained."""
    target = tmp_path / "key"
    reports = benchmark.pedantic(_write, args=(bench_hierarchies, target, 1),
                                 rounds=3, iterations=1)
    assert all(r.compression_ratio > 1 for r in reports)
    index = SeriesIndex.load(str(target))
    assert all(s.kind == "key" for s in index.steps)


def test_series_delta_saves_at_least_1_3x(bench_hierarchies, tmp_path):
    """The acceptance bar: temporal deltas beat keyframe-only by >= 1.3x."""
    _write(bench_hierarchies, tmp_path / "d", 8)
    _write(bench_hierarchies, tmp_path / "k", 1)
    delta_bytes = SeriesIndex.load(str(tmp_path / "d")).stored_bytes
    key_bytes = SeriesIndex.load(str(tmp_path / "k")).stored_bytes
    assert key_bytes / delta_bytes >= 1.3, \
        f"delta series saved only {key_bytes / delta_bytes:.2f}x"


def test_series_time_slice_probe(benchmark, bench_hierarchies, tmp_path):
    """Timed: a probe-box time series across the whole run (lazy chains)."""
    from repro.amr.box import Box

    _write(bench_hierarchies, tmp_path / "probe", 8)

    def probe():
        with open_series(str(tmp_path / "probe")) as series:
            return series.time_slice("baryon_density",
                                     box=Box((0, 0, 0), (7, 7, 7)),
                                     level=0, refill=False)

    times, values = benchmark.pedantic(probe, rounds=3, iterations=1)
    assert values.shape == (NSTEPS, 8, 8, 8)
