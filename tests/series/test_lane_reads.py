"""A box read of a series decodes only the decoder lanes its blocks lie in, and
a time slice resolves all of its steps' chains together.

The property: over TINY series (keyframe intervals 1, 2 and 4, and one that
regrids), any in-domain box and any step subset, ``time_slice`` equals the same
cells of whole-domain reads on a fresh handle, and a full ``read`` on the
handle that sliced equals a fresh handle's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.amr.box import Box
from repro.apps import RUN_PRESETS, build_run
from repro.compress.huffman import SYNC_INTERVAL, HuffmanCodec
from repro.compress.temporal import TemporalDeltaCodec
from repro.series.reader import _PASS_STREAMS, _lanes_of

NSTEPS = 5
FIELD = "baryon_density"
PRESET = RUN_PRESETS["nyx_1"]


def _write(path, interval, **sim):
    steps = list(build_run("nyx_1", seed=PRESET.seed, coarse_shape=(16, 16, 16),
                           max_grid_size=8, **sim).run(NSTEPS))
    repro.write_series(steps, path, keyframe_interval=interval, unit_block_size=4,
                       error_bound=PRESET.error_bound_amric)
    return path


@pytest.fixture(scope="module")
def series_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("lanes")
    dirs = {f"interval {k}": _write(str(root / f"k{k}"), k, regrid_interval=NSTEPS + 1)
            for k in (1, 2, 4)}
    # a regrid at step 2 moves the fine boxes: steps 0-1 and 2-4 are two geometries
    dirs["regrid"] = _write(str(root / "regrid"), 4, blocking_factor=2, regrid_interval=2)
    return dirs


def _same_hierarchy(a, b):
    return all(np.array_equal(fa.data, fb.data)
               for la, lb in zip(a.levels, b.levels)
               for fa, fb in zip(la.multifab, lb.multifab))


_whole = {}         # (directory, step, level, refill) -> a fresh handle's whole-domain read


def _whole_domain(directory, step, level, refill):
    key = (directory, step, level, refill)
    if key not in _whole:
        with repro.open_series(directory) as fresh:
            _whole[key] = fresh.read_field(FIELD, level=level, step=step, refill=refill)
    return _whole[key]


@st.composite
def slices(draw):
    level = draw(st.sampled_from([0, 1]))
    edge = 16 << level
    lo = [draw(st.integers(0, edge - 1)) for _ in range(3)]
    hi = [draw(st.integers(a, min(edge - 1, a + 11))) for a in lo]
    steps = draw(st.none() | st.lists(st.integers(-NSTEPS, NSTEPS - 1), max_size=NSTEPS))
    return level, Box(tuple(lo), tuple(hi)), steps, draw(st.booleans())


class TestSliceEqualsWholeReads:
    @settings(max_examples=12)
    @given(name=st.sampled_from(["interval 1", "interval 2", "interval 4", "regrid"]),
           request=slices())
    # a refilled box whose average-down once summed in another order than the whole level's
    @example(name="regrid", request=(0, Box((3, 0, 0), (14, 0, 10)), None, True))
    def test_slice_then_read(self, series_dirs, name, request):
        directory = series_dirs[name]
        level, box, steps, refill = request
        with repro.open_series(directory) as series:
            times, values = series.time_slice(FIELD, box, level=level, steps=steps,
                                              refill=refill)
            indices = [s % NSTEPS for s in (range(NSTEPS) if steps is None else steps)]
            assert values.shape == (len(indices), *box.shape)
            assert np.array_equal(times, [series.times[i] for i in indices])
            for got, i in zip(values, indices):
                want = _whole_domain(directory, i, level, refill)[box.slices()]
                np.testing.assert_array_equal(got, want)
            # partial code streams never stand in for whole ones
            step = indices[0] if indices else NSTEPS - 1
            full = series.read(step)
        with repro.open_series(directory) as fresh:
            assert _same_hierarchy(full, fresh.read(step))


class TestEmptySlice:
    def test_no_steps_has_the_box_shape(self, series_dirs):
        with repro.open_series(series_dirs["interval 2"]) as series:
            box = Box((1, 2, 3), (4, 6, 8))
            times, values = series.time_slice(FIELD, box, steps=[])
            assert times.shape == (0,) and values.shape == (0, 4, 5, 6)
            _, values = series.time_slice(FIELD, level=1, steps=[])
            assert values.shape == (0, 32, 32, 32)
            assert series.stats.chunks_decoded == 0


class TestLaneAccounting:
    @pytest.fixture
    def passes(self, monkeypatch):
        """The symbols of every part of every ``HuffmanCodec.decode`` call."""
        calls = []
        decode = HuffmanCodec.decode

        def counted(self, enc):
            calls.append([e.nsymbols for _, e in enc.parts] if enc.parts else [enc.nsymbols])
            return decode(self, enc)

        monkeypatch.setattr(HuffmanCodec, "decode", counted)
        return calls

    def test_a_one_block_probe_decodes_its_lanes_at_every_chain_step(self, series_dirs,
                                                                     passes):
        with repro.open_series(series_dirs["interval 4"]) as series:
            step = 3                                    # a delta chain of four streams
            handle = series.open_step(step)
            dplan = handle._scan().dataset(0, FIELD)
            slot = dplan.layout.nblocks // 2
            (chunk, (ordinal,)), = dplan.pieces_of([slot]).items()
            pieces = dplan.chunk_layout(chunk)
            lanes = _lanes_of(pieces, [ordinal])
            n = sum(pieces[-1])
            assert lanes is not None and lanes.size < -(-n // SYNC_INTERVAL)
            box = Box(tuple(dplan.layout.lo[slot].tolist()), tuple(dplan.layout.hi[slot].tolist()))
            series.read_field(FIELD, box=box, step=step, refill=False)
            assert passes == [[TemporalDeltaCodec.lane_cells(lanes, n).size] * (step + 1)]
            assert series.stats.chunks_decoded == step + 1
            # a full read wants every lane: the partial code streams cached on
            # the way do not serve it, the chunk's streams are decoded whole
            del passes[:]
            series.read(step)
            assert n in [part for call in passes for part in call]

    def test_an_eight_step_interval_four_slice_is_one_pass(self, tmp_path, passes):
        path = str(tmp_path / "eight")
        steps = list(build_run("nyx_1", seed=PRESET.seed, coarse_shape=(16, 16, 16),
                               max_grid_size=8, regrid_interval=8).run(8))
        repro.write_series(steps, path, keyframe_interval=4,
                           error_bound=PRESET.error_bound_amric)
        with repro.open_series(path) as series:
            assert [s.kind for s in series.steps()] == ["key", "delta", "delta", "delta"] * 2
            series.time_slice(FIELD, Box((1, 1, 1), (4, 4, 4)), refill=False)
            assert series.stats.chunks_decoded == 8 == _PASS_STREAMS
            assert len(passes) == 1
