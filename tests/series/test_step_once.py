"""A series step does each thing once (DESIGN.md §6).

``temporal_encode_job`` quantises a chunk once, tables it as a key and — when
the previous step's codes line up — as a delta candidate, compares the sizes
of the records they would be (from the table where the codes go raw, from an
encode where they would be deflated) and packs the winner only.  The job it
replaced fully encoded both candidates and kept the smaller committed
byte total; it is kept here as the reference: same step files on a
simulation's series, the same choice wherever the two real sizes are not
close, element-wise the same decoded values always.
"""

import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.compress.temporal as temporal_mod
import repro.series.writer as writer_mod
from repro.apps.nyx import NyxSimulation
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.compress.metrics import ErrorTally
from repro.compress.temporal import MODE_DELTA, MODE_KEY, TemporalDeltaCodec
from repro.series import SeriesIndex, SeriesWriter
from repro.series.writer import TemporalEncodeJob, TemporalEncodeResult, temporal_encode_job
from repro.stream.journal import JOURNAL_FILENAME

#: DESIGN.md §6: a recorded candidate size over a real record of that candidate
BAND = (0.85, 1.0)


def _ref_temporal_encode_job(job: TemporalEncodeJob) -> TemporalEncodeResult:
    """The encode-both job: every chunk fully encoded under both modes (two
    quantise passes, two entropy encodes, two records), smaller total kept."""
    codec = TemporalDeltaCodec(ErrorBound.absolute(job.eb_abs), offset=job.offset)
    ce = job.chunk_elements
    recipes = {mode: codec.recipe(job.eb_abs, stream=mode) for mode in (MODE_KEY, MODE_DELTA)}
    key_payloads, delta_payloads, codes_out, errors = [], [], [], []
    for i, (actual, owned) in enumerate(zip(job.actual_sizes, job.owned_sizes)):
        chunk = job.data[i * ce:i * ce + int(actual)]
        codes = codec.quantize(chunk, job.eb_abs)
        key_payloads.append(codec.pack(codec.candidate(codes), recipes[MODE_KEY]))
        codes_out.append(codes)
        errors.append(ErrorTally.of(chunk[:owned], codec.grid_values(
            codes, job.eb_abs, job.offset)[:owned]))
        if job.ref_codes is not None:
            delta_payloads.append(codec.pack(codec.candidate(
                codec.quantize(chunk, job.eb_abs), job.ref_codes[i]), recipes[MODE_DELTA]))
    key_bytes = sum(len(p) for p in key_payloads)
    delta_bytes = sum(len(p) for p in delta_payloads) if job.ref_codes is not None else None
    if delta_bytes is not None and delta_bytes < key_bytes:
        mode, payloads = MODE_DELTA, delta_payloads
    else:
        mode, payloads = MODE_KEY, key_payloads
    return TemporalEncodeResult(
        key=job.key, mode=mode, recipe=recipes[mode], payloads=payloads, codes=codes_out,
        key_bytes=key_bytes, delta_bytes=delta_bytes, error=sum(errors, ErrorTally()),
        filter_calls=len(job.actual_sizes))


def make_sim(seed=42, nranks=2):
    return NyxSimulation(coarse_shape=(24, 24, 24), nranks=nranks,
                         target_fine_density=0.03, max_grid_size=12, seed=seed,
                         drift_rate=0.05, growth_rate=0.02, regrid_interval=3)


@pytest.fixture(scope="module")
def hierarchies():
    return list(make_sim().run(6))


def _snapshot(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def _step_files(directory):
    return {name: data for name, data in _snapshot(directory).items()
            if name.endswith(".h5z")}


# ----------------------------------------------------------------------
# (1) counts: one quantise, one entropy encode, one deflate per chunk
# ----------------------------------------------------------------------
def _counted_append(monkeypatch, writer, hierarchy):
    """``append`` one step; how often each stage of the encode ran meanwhile."""
    calls = {"quantize": 0, "from_data": 0, "encode": 0, "pack_record": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(TemporalDeltaCodec, "quantize",
                      counting("quantize", TemporalDeltaCodec.quantize))
        patch.setattr(HuffmanCodec, "encode", counting("encode", HuffmanCodec.encode))
        patch.setattr(HuffmanCodec, "from_data",
                      staticmethod(counting("from_data", HuffmanCodec.from_data)))
        patch.setattr(temporal_mod, "pack_record",
                      counting("pack_record", temporal_mod.pack_record))
        writer.append(hierarchy)
    return calls


def test_a_delta_step_does_each_stage_once_per_chunk(hierarchies, tmp_path, monkeypatch):
    counts = {}
    for name, job in (("once", temporal_encode_job), ("both", _ref_temporal_encode_job)):
        monkeypatch.setattr(writer_mod, "temporal_encode_job", job)
        with SeriesWriter(str(tmp_path / name), keyframe_interval=4, error_bound=1e-3) as writer:
            writer.append(hierarchies[0])
            counts[name] = _counted_append(monkeypatch, writer, hierarchies[1])
            step = writer.index.steps[1]
            assert all(d.mode == MODE_DELTA for d in step.datasets)
            nchunks = sum(len(codes) for _, codes in writer._ref.values())
    assert nchunks > len(step.datasets)          # some datasets span two ranks
    assert counts["once"] == {"quantize": nchunks, "encode": nchunks,
                              "pack_record": nchunks, "from_data": 2 * nchunks}
    assert counts["both"] == {name: 2 * nchunks for name in counts["both"]}
    # and the step files are the encode-both job's, byte for byte
    assert _step_files(str(tmp_path / "once")) == _step_files(str(tmp_path / "both"))


def test_a_keyframe_step_tables_each_chunk_once(hierarchies, tmp_path, monkeypatch):
    with SeriesWriter(str(tmp_path / "k"), error_bound=1e-3) as writer:
        calls = _counted_append(monkeypatch, writer, hierarchies[0])
        nchunks = sum(len(codes) for _, codes in writer._ref.values())
    assert calls == {name: nchunks for name in calls}


@pytest.mark.parametrize("modify_filter", [True, False])
def test_flat_chunk_tally_matches_the_per_block_tally(tmp_path, modify_filter):
    """The error tally ``append`` takes on flat chunks, against one taken per unit
    block of the grid values: same record — over the cells a rank owns, also
    when a naive chunk (``modify_filter=False``) encodes its zero tail."""
    from repro.core.config import AMRICConfig
    from repro.core.stages import dataset_record, pack_dataset, plan_write
    from repro.parallel.mpi_sim import SimComm

    hierarchy = next(iter(make_sim(nranks=3).run(1)))      # 8 coarse boxes on 3 ranks: uneven
    config = AMRICConfig(error_bound=1e-3, modify_filter=modify_filter)
    with SeriesWriter(str(tmp_path / "s"), config=config) as writer:
        records = iter(writer.append(hierarchy).records)
        grids = writer.index.field_grids
    padded = 0
    for level_plan in plan_write(hierarchy, config, SimComm(3)).levels:
        for dplan in level_plan.datasets:
            grid = grids[dplan.field]
            result = temporal_encode_job(TemporalEncodeJob(
                key=dplan.name, data=pack_dataset(hierarchy[level_plan.level], dplan),
                chunk_elements=dplan.chunk_elements,
                actual_sizes=dplan.actual_elements,
                eb_abs=grid.eb_abs, offset=grid.offset,
                owned_sizes=dplan.layout.rank_elements))
            layout = dplan.layout
            views = layout.views(hierarchy[level_plan.level], dplan.field)
            blocked = ErrorTally()
            for codes, actual, valid, run in zip(result.codes, dplan.actual_elements,
                                                 layout.rank_elements, layout.rank_runs):
                padded += actual - valid
                recon = TemporalDeltaCodec.grid_values(codes, grid.eb_abs, grid.offset)
                bounds = np.cumsum([0] + [view.size for view in views[run]])
                for a, b, view in zip(bounds, bounds[1:], views[run]):
                    blocked += ErrorTally.of(view, recon[a:b].reshape(view.shape))
            ref = dataset_record(dplan.level, dplan.field, blocked, result.compressed_bytes,
                                 result.filter_calls, layout.nblocks)
            flat = next(records)
            assert abs(flat.psnr - ref.psnr) < 1e-9
            assert flat.sq_error == pytest.approx(ref.sq_error, rel=1e-12)
            assert (flat.max_error, flat.n_elements, flat.raw_bytes, flat.value_min,
                    flat.value_max) == (ref.max_error, ref.n_elements, ref.raw_bytes,
                                        ref.value_min, ref.value_max)
    assert (padded > 0) != modify_filter


# ----------------------------------------------------------------------
# (3) the manifest's candidate sizes against real encodes of the candidates
# ----------------------------------------------------------------------
def test_recorded_candidate_sizes_sit_in_the_stated_band(hierarchies, tmp_path, monkeypatch):
    real = []                   # per job, in submission order: the reference's result

    def both(job):
        real.append(_ref_temporal_encode_job(job))
        return temporal_encode_job(job)

    monkeypatch.setattr(writer_mod, "temporal_encode_job", both)
    directory = str(tmp_path / "band")
    repro.write_series(hierarchies, directory, keyframe_interval=3, error_bound=1e-3)
    recorded = [d for step in SeriesIndex.load(directory).steps for d in step.datasets]
    assert len(recorded) == len(real)
    assert any(d.mode == MODE_DELTA for d in recorded)
    for d, ref in zip(recorded, real):
        assert d.name == ref.key and d.mode == ref.mode
        assert BAND[0] <= d.key_bytes / ref.key_bytes <= BAND[1]
        assert (d.delta_bytes is None) == (ref.delta_bytes is None)
        if d.delta_bytes is not None:
            assert BAND[0] <= d.delta_bytes / ref.delta_bytes <= BAND[1]
        # the rule, checkable from the manifest alone; stored bytes stay real
        assert (d.mode == MODE_DELTA) == (d.delta_bytes is not None
                                          and d.delta_bytes < d.key_bytes)
        assert d.stored_bytes == ref.compressed_bytes


# ----------------------------------------------------------------------
# (2) step pairs: the choice against the encode-both reference
# ----------------------------------------------------------------------
EB = 0.5            # one grid step = 1.0


def _smooth_pair(rng, n, textured):
    """A sinusoid and its drifted successor; ``textured`` adds the cell-scale noise
    of at least a grid step that a simulation field carries."""
    x = np.arange(n) / n
    amp, waves, phase = 10 ** rng.uniform(-1, 4), rng.uniform(0.5, 20), rng.uniform(0, 6)
    previous = amp * np.sin(2 * np.pi * waves * x + phase)
    if textured:
        previous += rng.normal(0, 10 ** rng.uniform(0, 1.5), n)
    current = previous * (1 + rng.uniform(-0.05, 0.05)) \
        + amp * rng.uniform(0, 0.05) * np.cos(2 * np.pi * waves * x + phase)
    if textured:
        current += rng.normal(0, 10 ** rng.uniform(-0.5, 1), n)
    return previous, current


@st.composite
def chunk_pairs(draw):
    """``(family, previous, current)``: one chunk's values at two steps.

    ``drift`` is the smooth family without its texture: deflate then shrinks the
    Huffman bitstream several-fold, so a table-implied size would not rank the
    real ones (DESIGN.md §6) — the one family held to a tripwire only.
    """
    family = draw(st.sampled_from(["smooth", "drift", "noise", "constant", "cell", "empty"]))
    n = {"cell": 1, "empty": 0}.get(family)         # those two are white noise of that size
    if n is None:
        n = draw(st.sampled_from([7, 300, 4096, 20000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "constant":
        return family, np.full(n, rng.uniform(-1e3, 1e3)), np.full(n, rng.uniform(-1e3, 1e3))
    if family in ("smooth", "drift"):
        return (family,) + _smooth_pair(rng, n, textured=family == "smooth")
    sigma = 10 ** rng.uniform(-1, 3)
    return family, rng.normal(0, sigma, n), rng.normal(0, sigma, n)


def _job(pairs, which, ref_codes=None):
    """One dataset whose chunks are ``pairs``' values at step ``which`` (1 or 2)."""
    ce = max(max(len(p[1]) for p in pairs), 1)
    data = np.zeros(ce * len(pairs))
    for i, pair in enumerate(pairs):
        data[i * ce:i * ce + len(pair[which])] = pair[which]
    sizes = [len(p[1]) for p in pairs]
    return TemporalEncodeJob(key="level_0/f", data=data, chunk_elements=ce,
                             actual_sizes=sizes, owned_sizes=sizes,
                             eb_abs=EB, offset=0.0, ref_codes=ref_codes)


def _decoded(result, ref_codes):
    """Each record resolved the way the series reader does: unpacked under
    the dataset's recipe, a delta added onto its reference's codes,
    reconstructed on the recipe's grid."""
    mode, eb, offset = TemporalDeltaCodec.grid_of(result.recipe)
    out = []
    for codes, ref in zip(TemporalDeltaCodec.unpack_codes_many(
            result.payloads, [result.recipe] * len(result.payloads),
            [c.size for c in result.codes]), ref_codes):
        codes = codes + ref if mode == MODE_DELTA else codes
        out.append(TemporalDeltaCodec.grid_values(codes, eb, offset))
    return out


def _both(pairs):
    """The delta step of ``pairs`` under the job and under the encode-both reference."""
    ref_codes = temporal_encode_job(_job(pairs, 1)).codes
    job = _job(pairs, 2, ref_codes)
    return temporal_encode_job(job), _ref_temporal_encode_job(job), ref_codes


#: drift lists are held to a tripwire, not to a derived bound: of 3,000 drift pairs
#: (seeds 0-1499, 4,096 and 20,000 cells) none committed over 1.10x the smaller record
#: since codes a record deflates are sized deflated (8 over 1.10x, none over 1.20x,
#: worst 1.16x while they were sized from their tables; 32 / 8 / 1.48x of 6,000 while
#: every stream was deflated)
DRIFT_CEILING = 2.0


@settings(max_examples=80, deadline=None)
@given(st.lists(chunk_pairs(), min_size=1, max_size=3))
def test_choice_against_the_encode_both_reference(pairs):
    ours, ref, ref_codes = _both(pairs)
    small, large = sorted((ref.key_bytes, ref.delta_bytes))
    if any(family == "drift" for family, _, _ in pairs):
        assert ours.compressed_bytes <= DRIFT_CEILING * small
    elif large > 1.10 * small:
        assert ours.mode == ref.mode
    else:
        assert ours.compressed_bytes <= 1.10 * small
    assert (ours.mode == MODE_DELTA) == (ours.delta_bytes < ours.key_bytes)
    decoded = _decoded(ours, ref_codes)
    for a, b in zip(decoded, _decoded(ref, ref_codes)):
        assert np.array_equal(a, b)
    # the error numbers the job measured are the decoded values'
    assert ours.error == ref.error == sum(
        (ErrorTally.of(np.asarray(pair[2], dtype=np.float64), values)
         for pair, values in zip(pairs, decoded)), ErrorTally())
    for a, b in zip(ours.codes, ref.codes):
        assert np.array_equal(a, b)


def test_codes_a_record_deflates_are_ranked_deflated():
    """A noise-free sinusoid a few grid steps in amplitude (an error bound of
    percents of the range, no cell-scale texture): both candidates spend under
    2 bits a symbol and deflate takes most of them, the key from 3,993 implied
    bytes to 151, the delta from 2,881 to 255.  Ranked by their tables the delta
    would win, 64% over the key record; sized as their records store them the
    job keeps the key, and each size is its record less the 17-byte header."""
    pairs = [("drift",) + _smooth_pair(np.random.default_rng(346), 20000, False)]
    ours, ref, _ = _both(pairs)
    assert (ours.mode, ref.mode) == (MODE_KEY, MODE_KEY)
    assert ours.payloads == ref.payloads
    assert (ref.key_bytes - ours.key_bytes, ref.delta_bytes - ours.delta_bytes) == (17, 17)


def test_a_stream_stored_raw_is_ranked_by_its_implied_size():
    """At 2 bits a symbol and more the codes are stored raw, so deflate cannot
    reorder the candidates: this drift key (7,018 implied, 2.8 bits a symbol) is
    a 7,205 B raw record, and the job's delta (710 B, deflated) is the smaller
    real record too."""
    pairs = [("drift",) + _smooth_pair(np.random.default_rng(585), 20000, False)]
    ours, ref, _ = _both(pairs)
    assert (ours.mode, ref.mode) == (MODE_DELTA, MODE_DELTA)
    assert ours.payloads == ref.payloads
    assert 0 < ref.key_bytes - ours.key_bytes < 400      # raw: plus header and sync


# ----------------------------------------------------------------------
# (4) degenerate streams through candidate -> pack -> unpack
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codes", [[], [41], [7, 7, 7, 7]])
@pytest.mark.parametrize("delta", [False, True])
def test_degenerate_streams_round_trip(codes, delta):
    codec = TemporalDeltaCodec(ErrorBound.absolute(EB), offset=2.5)
    codes = np.asarray(codes, dtype=np.int64)
    ref = codes - 3 if delta else None
    candidate = codec.candidate(codes, ref)
    assert candidate.table.data_bits == codes.size      # one symbol: one bit each
    recipe = codec.recipe(EB, stream=MODE_DELTA if delta else MODE_KEY)
    (out,) = TemporalDeltaCodec.unpack_codes_many([codec.pack(candidate, recipe)], [recipe],
                                                  [codes.size])
    assert out.dtype == np.int64
    assert np.array_equal(out, codes - ref if delta else codes)


@pytest.mark.parametrize("n", [0, 1, 64, 300, 5000])
@pytest.mark.parametrize("family", ["wide", "sparse"])
def test_a_candidate_is_sized_as_its_record_stores_it(n, family):
    """What a candidate is ranked by: its record less the 17-byte header.
    Codes a record deflates (under 2 bits a symbol) are encoded and deflated
    to size them, so that size is exact; codes stored raw are sized from the
    table, short only of their sync residuals (none within one lane)."""
    codec = TemporalDeltaCodec(ErrorBound.absolute(EB))
    rng = np.random.default_rng(n)
    codes = rng.integers(-40, 40, n) if family == "wide" else (rng.random(n) < 0.05) * 3
    candidate = codec.candidate(codes)
    record = codec.pack(candidate, codec.recipe(EB, stream=MODE_KEY))
    form, ncodes = struct.unpack_from("<BxxxxQ", record, 4)
    if candidate.encoded is None:
        assert candidate.table.data_bits >= 2 * n      # 2 bits a symbol or more
        assert form == 1 and ncodes == (candidate.table.data_bits + 7) // 8
        assert 0 <= len(record) - 17 - candidate.nbytes <= (0 if n <= 64 else n // 16)
    else:
        assert candidate.table.data_bits < 2 * n
        assert candidate.nbytes == len(record) - 17
        assert form == (0 if (n, family) == (5000, "sparse") else 1)  # deflated where it shrinks


# ----------------------------------------------------------------------
# non-finite input is refused by name, and a refused append leaves nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_refuses_non_finite_values(bad):
    codec = TemporalDeltaCodec(ErrorBound.absolute(EB))
    data = np.linspace(0.0, 9.0, 50)
    data[17] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for encode in (lambda: codec.quantize(data, EB),
                       lambda: codec.compress_with_reconstruction(data)):
            with pytest.raises(ValueError, match="non-finite"):
                encode()


def _poisoned(hierarchy, bad=np.nan):
    # the finest level: no finer level carves the cell out of what is written
    hierarchy[hierarchy.nlevels - 1].multifab[0].component(0)[0, 0, 0] = bad
    return hierarchy


@pytest.mark.parametrize("append", [False, True])
@pytest.mark.parametrize("backend", ["serial", "shm"], indirect=True)
def test_refused_append_leaves_no_step_file_and_an_unchanged_journal(tmp_path, append,
                                                                       backend):
    steps = list(make_sim(seed=5).run(3))
    field = steps[0].component_names[0]
    directory = str(tmp_path / "run")
    writer = SeriesWriter(directory, keyframe_interval=4, error_bound=1e-3,
                          append=append, backend=backend)
    writer.append(steps[0])
    before = _snapshot(directory)
    # plain or not, a series is its step files and its journal
    assert set(before) == {JOURNAL_FILENAME, f"plt{steps[0].step:05d}.h5z"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{field}.*non-finite"):
            writer.append(_poisoned(steps[1]))
    assert _snapshot(directory) == before
    assert writer.nsteps == 1
    # the series goes on: the next step still deltas against step 0
    writer.append(steps[2])
    assert writer.index.steps[1].kind == MODE_DELTA
    writer.close()
    assert SeriesIndex.load(directory).nsteps == 2


@pytest.mark.parametrize("append", [False, True])
def test_refused_first_append_leaves_no_series(tmp_path, append):
    steps = list(make_sim(seed=6).run(2))
    clean = list(make_sim(seed=6).run(1))[0]
    directory = str(tmp_path / "run")
    writer = SeriesWriter(directory, error_bound=1e-3, append=append)
    with pytest.raises(ValueError, match="non-finite"):
        writer.append(_poisoned(steps[0]))
    assert os.listdir(directory) == [] and writer.index is None
    # a grid frozen from the poisoned dump would have been NaN: this one is not
    writer.append(clean)
    assert all(np.isfinite([g.eb_abs, g.offset]).all()
               for g in writer.index.field_grids.values())
    writer.close()
    assert SeriesIndex.load(directory).nsteps == 1


@pytest.mark.parametrize("seed, key_bytes, delta_bytes",
                         [(0, 4_502_020, 2_143_479), (3, 4_735_943, 2_295_399)])
def test_the_chunk_record_moves_no_choice(tmp_path, seed, key_bytes, delta_bytes):
    """The 8-step nyx_1 series of the benchmark's ``series_stream`` (seeds 0 and 3):
    every dataset's mode is the one made while every stream was a sectioned
    container and its implied size counted 178 B of framing and 5 B a table
    symbol (seed 0: 4,947,517 key / 2,260,034 delta bytes, seed 3: 5,265,312 /
    2,458,081); the sizes are the chunk records' estimates."""
    from repro.apps import RUN_PRESETS, build_run

    preset = RUN_PRESETS["nyx_1"]
    sim = build_run("nyx_1", seed=preset.seed + seed, regrid_interval=4)
    repro.write_series(list(sim.run(8)), str(tmp_path), keyframe_interval=4,
                       error_bound=preset.error_bound_amric)
    with repro.open_series(str(tmp_path)) as series:
        steps = series.steps()
    assert ["".join(d.mode[0] for d in step.datasets) for step in steps] == \
        2 * (["k" * 12] + 3 * ["d" * 12])
    assert sum(d.key_bytes for step in steps for d in step.datasets) == key_bytes
    assert sum(d.delta_bytes or 0 for step in steps for d in step.datasets) == delta_bytes
