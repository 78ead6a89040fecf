"""A series plans each geometry once: step files whose own headers declare the
same geometry share one set of level layouts, and a regrid gets its own."""

import json
import shutil
import struct
import sys
import threading

import numpy as np
import pytest

import repro
import repro.core.reader as core_reader
import repro.series.reader as series_reader
from repro.amr.box import Box
from repro.apps import RUN_PRESETS, build_run
from repro.core.reader import PlotfileHandle
from repro.series.reader import SeriesStepHandle

NSTEPS = 4
FIELD = "baryon_density"


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    """benchmarks/e2e's TINY nyx_1 sizes; blocking factor 2 lets the regrid at
    step 2 move the fine boxes, so steps 0-1 and 2-3 are two geometries."""
    preset = RUN_PRESETS["nyx_1"]
    sim = build_run("nyx_1", seed=preset.seed, coarse_shape=(16, 16, 16), max_grid_size=8,
                    blocking_factor=2, regrid_interval=2)
    path = str(tmp_path_factory.mktemp("regrid") / "run")
    repro.write_series(list(sim.run(NSTEPS)), path, keyframe_interval=NSTEPS,
                       error_bound=preset.error_bound_amric)
    return path


@pytest.fixture
def builds(monkeypatch):
    """Every ``level_layouts`` call a reader makes, by its arguments."""
    calls = []
    real = series_reader.level_layouts

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (series_reader, core_reader):
        monkeypatch.setattr(module, "level_layouts", counted)
    return calls


def geometries(series):
    return [series.open_step(i).header.geometry for i in range(len(series))]


def test_the_fixture_regrids_mid_run(series_dir):
    with repro.open_series(series_dir) as series:
        geometry = geometries(series)
        assert geometry[0] == geometry[1] != geometry[2] == geometry[3]
        assert [s.kind for s in series.steps()] == ["key", "delta", "key", "delta"]


def test_steps_of_one_geometry_hold_the_same_layouts(series_dir):
    with repro.open_series(series_dir) as series:
        geometry = geometries(series)
        plans = [series.open_step(i)._scan() for i in range(NSTEPS)]
        for i in range(NSTEPS):
            assert all(d.layout is plans[i].layouts[d.level] for d in plans[i].datasets)
            for j in range(NSTEPS):
                same = [a is b for a, b in zip(plans[i].layouts, plans[j].layouts)]
                assert all(same) if geometry[i] == geometry[j] else not any(same)


def test_a_time_slice_builds_each_geometry_once(series_dir, builds):
    with repro.open_series(series_dir) as series:
        series.time_slice(FIELD, Box((2, 2, 2), (9, 9, 9)))
        assert len(builds) == len(set(geometries(series))) == 2


def test_eight_threads_on_one_handle_build_each_geometry_once(series_dir, builds):
    with repro.open_series(series_dir) as series:
        barrier = threading.Barrier(8)
        answers, errors = [], []

        def run():
            try:
                barrier.wait()
                answers.append(series.time_slice(FIELD)[1])
            except Exception as exc:           # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)                # many more thread switches per build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(answers) == 8
        assert len(builds) == 2
        for values in answers:
            np.testing.assert_array_equal(values, answers[0])


def _own_plans(monkeypatch):
    """Step handles that scan their one file, as a plotfile handle does."""
    monkeypatch.setattr(SeriesStepHandle, "_scan", PlotfileHandle._scan)


def _fabs(hierarchy):
    return [fab.data for level in hierarchy.levels for fab in level.multifab.fabs]


def test_reads_equal_fresh_per_step_reads(series_dir, monkeypatch):
    box = Box((3, 0, 5), (12, 15, 10))
    with repro.open_series(series_dir) as series:
        times, values = series.time_slice(FIELD, box)
        fine = [series.read_field(FIELD, level=1, step=i) for i in range(NSTEPS)]
        full = [series.read(step=i) for i in range(NSTEPS)]
        paths = [f"{series_dir}/{s.path}" for s in series.steps()]
    with monkeypatch.context() as patch:
        _own_plans(patch)
        for step in range(NSTEPS):
            with repro.open_series(series_dir) as fresh:
                np.testing.assert_array_equal(values[step],
                                              fresh.read_field(FIELD, box=box, step=step))
                np.testing.assert_array_equal(fine[step],
                                              fresh.read_field(FIELD, level=1, step=step))
                for a, b in zip(_fabs(full[step]), _fabs(fresh.read(step=step))):
                    np.testing.assert_array_equal(a, b)
    for step in (0, 2):                            # the keyframes decode standalone
        with repro.open(paths[step]) as plotfile:
            np.testing.assert_array_equal(values[step], plotfile.read_field(FIELD, box=box))
            for a, b in zip(_fabs(full[step]), _fabs(plotfile.read())):
                np.testing.assert_array_equal(a, b)


def test_a_step_whose_chunk_table_disagrees_still_fails_its_own_check(series_dir,
                                                                      tmp_path, builds):
    """Step 1 declares step 0's geometry but one chunk of one dataset records
    another cell count: the shared layouts do not excuse it."""
    damaged = str(tmp_path / "run")
    shutil.copytree(series_dir, damaged)
    with repro.open_series(damaged) as series:
        path = f"{damaged}/{series.steps()[1].path}"
    with open(path, "rb") as fh:
        data = fh.read()
    (offset,) = struct.unpack_from("<Q", data, 4)
    superblock = json.loads(data[offset:])
    chunks = next(d for d in superblock["datasets"]
                  if d["name"] == f"level_0/{FIELD}")["chunks"]
    chunks[-1][2] -= 1                                 # [offset, nbytes, valid elements]
    with open(path, "wb") as fh:
        fh.write(data[:offset] + json.dumps(superblock).encode())

    with repro.open_series(damaged) as series:
        series.read_field(FIELD, step=0)
        assert series.open_step(1).header.geometry == series.open_step(0).header.geometry
        with pytest.raises(ValueError, match="header does not match this file"):
            series.read_field(FIELD, step=1)
        assert len(builds) == 1
