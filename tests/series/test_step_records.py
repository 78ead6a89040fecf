"""A series step's chunks are chunk records (DESIGN.md §6): what a damaged one
reads back as, and the doors a step file opens through on its own.

Every byte of a record — codes, side blob, sync residuals — sits under its
CRC32, and so do the grid and the key/delta mode its dataset's recipe states:
a damaged step reads back as it was written or raises
:class:`~repro.errors.CorruptFileError`, on a whole read and on a lane-selected
time slice alike.
"""

import os
import shutil
import struct
import zlib

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.apps import RUN_PRESETS, build_run
from repro.compress import container as ctn
from repro.errors import CorruptFileError
from repro.h5lite.file import H5LiteFile
from repro.series.reader import _lanes_of

FIELD = "baryon_density"
PRESET = RUN_PRESETS["nyx_1"]
KEY, DELTA = 0, 1


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("records") / "s")
    steps = list(build_run("nyx_1", seed=PRESET.seed, coarse_shape=(16, 16, 16),
                           max_grid_size=8, regrid_interval=4).run(2))
    repro.write_series(steps, path, keyframe_interval=4, unit_block_size=4,
                       error_bound=PRESET.error_bound_amric)
    with repro.open_series(path) as series:
        assert [s.kind for s in series.steps()] == ["key", "delta"]
    return path


def _fabs(hierarchy):
    return [fab.data.copy() for level in hierarchy.levels for fab in level.multifab.fabs]


def _step_path(directory, step):
    with repro.open_series(directory) as series:
        return os.path.join(directory, series.steps()[step].path)


def _rewrite(src_path, dst_path, payload_of=lambda name, index, raw: raw,
             attrs_of=lambda name, attrs: attrs):
    """A copy of a step file with its chunk payloads and dataset attributes
    passed through."""
    with H5LiteFile(src_path, "r") as src, H5LiteFile(dst_path, "w") as dst:
        dst.header = src.header
        for name, info in src.datasets.items():
            payloads = [payload_of(name, index, raw) for index, raw in
                        enumerate(src.read_chunk_payloads(name, range(info.nchunks)))]
            dst.create_dataset_from_chunks(
                name, payloads, shape=info.shape, dtype=info.dtype,
                chunk_elements=info.chunk_elements, filter_id=info.filter_id,
                actual_elements_per_chunk=[c.actual_elements for c in info.chunks],
                attrs=attrs_of(name, info.attrs))


@pytest.fixture(scope="module")
def probe(series_dir):
    """A box of one unit block of the FIELD's level-0 chunk 0, whose lanes are
    some, not all, of the chunk's: ``(box, dataset name, chunk)``."""
    with repro.open_series(series_dir) as series:
        dplan = series.open_step(DELTA)._scan().dataset(0, FIELD)
    run = dplan.layout.rank_runs[0]
    slot = run.start + (run.stop - run.start) // 2
    (chunk, ordinals), = dplan.pieces_of([slot]).items()
    assert _lanes_of(dplan.chunk_layout(chunk), ordinals) is not None
    box = Box(tuple(dplan.layout.lo[slot].tolist()), tuple(dplan.layout.hi[slot].tolist()))
    return box, dplan.name, chunk


@pytest.fixture(scope="module")
def clean(series_dir, probe):
    box = probe[0]
    with repro.open_series(series_dir) as series:
        return {step: (_fabs(series.read(step)),
                       series.time_slice(FIELD, box, steps=[step], refill=False)[1])
                for step in (KEY, DELTA)}


def _sync_span(record, n):
    """``[lo, hi)`` of the sync residuals (and their escapes) in a record's
    inflated side blob, and the blob."""
    _, _, narrays, ncodes = struct.unpack_from("<IBIQ", record)
    blob = zlib.decompress(record[17 + ncodes:])
    side = ctn.SideReader(blob, "record")
    nbits = side.take("<i8", narrays).astype(np.int64)
    ctn._take_tables(side, 1)
    lo = side._at
    ctn._take_sync(side, nbits, np.asarray([n]))
    return lo, side._at, blob


def _mutants(rng, record, n, trials):
    """Single-byte flips of a record: anywhere in it as stored, and (one
    trial in three) in its inflated sync residuals, deflated again."""
    lo, hi, blob = _sync_span(record, n)
    assert hi > lo, "a chunk with one lane has no residuals to damage"
    _, _, _, ncodes = struct.unpack_from("<IBIQ", record)
    for trial in range(trials):
        flip = int(rng.integers(1, 256))
        if trial % 3 == 2:
            at = int(rng.integers(lo, hi))
            damaged = bytearray(blob)
            damaged[at] ^= flip
            yield "sync residual", record[:17 + ncodes] + zlib.compress(bytes(damaged))
        else:
            at = int(rng.integers(len(record)))
            damaged = bytearray(record)
            damaged[at] ^= flip
            yield f"byte {at}", bytes(damaged)


@pytest.mark.parametrize("step", [KEY, DELTA], ids=["key chunk", "delta chunk"])
def test_a_mutated_record_reads_back_clean_or_corrupt(series_dir, probe, clean, tmp_path,
                                                      step):
    """60 single-byte flips of the probed chunk's record (a third of them in
    its sync residuals): ``read(step)`` and a time slice of a box that keeps
    some of the chunk's lanes each equal the clean read or raise
    CorruptFileError — never a silently wrong value (a wrong but well-formed
    sync offset used to resynchronise a lane read onto wrong codes)."""
    box, name, chunk = probe
    work = str(tmp_path / "s")
    shutil.copytree(series_dir, work)
    path = _step_path(work, step)
    with H5LiteFile(path, "r") as f:
        record = f.read_chunk_payloads(name, [chunk])[0]
        n = f.datasets[name].chunks[chunk].actual_elements
    whole, sliced = clean[step]
    rng = np.random.default_rng(47 + step)
    outcomes = {"equal": 0, "corrupt": 0}
    for where, bad in _mutants(rng, record, n, 60):
        _rewrite(_step_path(series_dir, step), path, payload_of=lambda dsname, index, raw:
                 bad if (dsname, index) == (name, chunk) else raw)
        for read in ("whole", "slice"):
            try:
                with repro.open_series(work) as series:
                    if read == "whole":
                        assert all(np.array_equal(a, b) for a, b in
                                   zip(_fabs(series.read(step)), whole)), where
                    else:
                        got = series.time_slice(FIELD, box, steps=[step], refill=False)[1]
                        assert np.array_equal(got, sliced), where
            except CorruptFileError:
                outcomes["corrupt"] += 1
                continue
            outcomes["equal"] += 1
    assert sum(outcomes.values()) == 120 and outcomes["corrupt"] > 0


class TestTheStandaloneDoors:
    """A step file opened with plain :func:`repro.open`, outside its series."""

    def test_a_delta_step_is_refused_with_the_series_pointer(self, series_dir):
        with repro.open(_step_path(series_dir, DELTA)) as handle:
            with pytest.raises(ValueError, match="open_series"):
                handle.read()

    def test_a_key_step_reads_as_its_series_does(self, series_dir):
        with repro.open(_step_path(series_dir, KEY)) as handle, \
                repro.open_series(series_dir) as series:
            alone, within = _fabs(handle.read()), _fabs(series.read(KEY))
        assert len(alone) == len(within)
        assert all(np.array_equal(a, b) for a, b in zip(alone, within))

    @pytest.mark.parametrize("step, stream", [(DELTA, "key"), (KEY, "delta")])
    def test_a_rewritten_recipe_mode_fails_the_checksum(self, series_dir, tmp_path, step,
                                                        stream):
        """The recipe is stored once per dataset, outside the records; a mode
        rewritten there (delta to key, or key to delta) fails every record's CRC."""
        work = str(tmp_path / "s")
        shutil.copytree(series_dir, work)
        path = _step_path(work, step)
        _rewrite(_step_path(series_dir, step), path, attrs_of=lambda name, attrs:
                 dict(attrs, codec=dict(attrs["codec"], stream=stream)))
        with repro.open_series(work) as series:
            with pytest.raises(CorruptFileError, match="checksum"):
                series.read(step)
        if stream == "key":
            with repro.open(path) as handle:
                with pytest.raises(CorruptFileError, match="checksum"):
                    handle.read()
