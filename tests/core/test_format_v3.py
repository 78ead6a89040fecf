"""Format v3: every codec stores its Huffman sync offsets as lane-length
residuals, one lane per ``SYNC_INTERVAL`` symbols (DESIGN.md §5).

Damaged residuals must be refused with :class:`CorruptFileError` and nothing
else — by the residual checks, or by the lane pass that misses its ends.  (A
file of an earlier format version is refused by number:
``test_format_v2.py``'s version tests.)
"""

import os
import struct
import zlib

import numpy as np
import pytest

import repro
from repro.apps import build_run
from repro.compress import container as ctn
from repro.compress import sz_lr
from repro.compress.huffman import SYNC_INTERVAL
from repro.compress.sz_lr import SZLRCompressor
from repro.compress.temporal import TemporalDeltaCodec
from repro.errors import CorruptFileError
from repro.h5lite.file import H5LiteFile

TINY = {"coarse_shape": (16, 16, 16), "max_grid_size": 8}


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("v3series"))
    sim = build_run("nyx_1", seed=0, regrid_interval=2, **TINY)
    repro.write_series(list(sim.run(2)), directory, keyframe_interval=2, error_bound=1e-3)
    return directory


def _mutations(rng, raw, lo, hi, trials):
    """``trials`` damaged copies of ``raw`` whose bytes ``[lo, hi)`` changed:
    a byte set, a byte dropped or one inserted there."""
    for _ in range(trials):
        at = int(rng.integers(lo, hi))
        kind = rng.integers(3)
        if kind == 0:
            yield raw[:at] + bytes([int(rng.integers(256))]) + raw[at + 1:]
        elif kind == 1:
            yield raw[:at] + raw[at + 1:]
        else:
            yield raw[:at] + bytes([int(rng.integers(256))]) + raw[at:]


def _arrays(rng):
    """Unit blocks with outliers: lanes of very different bit lengths, so
    the residuals hold escapes too."""
    out = []
    for shape in ((16, 16, 16), (8, 16, 16), (16, 8, 8)):
        data = np.cumsum(rng.normal(0, 1, shape), axis=0)
        spikes = rng.integers(0, data.size, data.size // 20)
        data.flat[spikes] += rng.normal(0, 1e4, spikes.size)
        out.append(data)
    return out


class TestDamagedSyncResiduals:
    def test_an_sz_lr_records_sync_bytes(self):
        """Damage inside the side blob's residuals and escapes, under a
        checksum recomputed to match: read back exactly, or refused."""
        rng = np.random.default_rng(0)
        comp = SZLRCompressor(1e-3, block_size=4)
        payload = comp.compress_many(_arrays(rng)).payload
        clean = comp.decompress_many(payload)
        cont = ctn.unpack_container(payload)
        shapes = [tuple(s) for s in cont.meta["shapes"]]
        seed = ctn.shapes_seed(shapes, ctn.recipe_context(cont.meta, sz_lr._RECIPE, "recipe"))
        record = cont.sections["record"]
        _, narrays, ncodes = struct.unpack_from("<IIQ", record)
        codes = record[16:16 + ncodes]
        blob = zlib.decompress(record[16 + ncodes:])
        # locate the sync bytes: past the bit counts and the table
        side = ctn.SideReader(blob, "record")
        nbits = side.take("<i8", narrays).astype(np.int64)
        ctn._take_tables(side, 1)
        lo = side._at
        sync = ctn._take_sync(side, nbits, np.asarray([np.prod(s) for s in shapes]))
        hi = side._at
        assert sync.size == sum(-(-int(np.prod(s)) // SYNC_INTERVAL) for s in shapes)
        assert np.count_nonzero(np.frombuffer(blob[lo:hi], "u1") == 255), "no escape"
        outcomes = {"corrupt": 0, "equal": 0}
        for damaged in _mutations(rng, blob, lo, hi, 200):
            body = struct.pack("<IQ", narrays, ncodes) + codes + zlib.compress(damaged)
            cont.sections["record"] = struct.pack("<I", zlib.crc32(body, seed)) + body
            try:
                got = comp.decompress_many(ctn.pack_container(cont.codec, cont.meta,
                                                              cont.sections))
            except CorruptFileError:
                outcomes["corrupt"] += 1
                continue
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, clean))
            outcomes["equal"] += 1
        assert outcomes["corrupt"] >= 190

    def test_a_series_steps_huff_sync_section(self, series_dir):
        """Every chunk of a delta step: its ``huff_sync`` section damaged as
        stored (whole and lane reads), or inflated and deflated again past
        the deflate checksum (whole reads: a lane read decodes only its
        lanes, so it trusts their offsets — a wrong start can resynchronise
        onto the right end)."""
        rng = np.random.default_rng(1)
        with repro.open_series(series_dir) as series:
            path = os.path.join(series_dir, series.steps()[1].path)
        with H5LiteFile(path, "r") as f:
            payloads = [p for name, info in f.datasets.items()
                        for p in f.read_chunk_payloads(name, range(info.nchunks))]
        outcomes = {"corrupt": 0, "equal": 0}
        for payload in payloads[:6]:
            cont = ctn.unpack_container(payload)
            clean = TemporalDeltaCodec.unpack_codes(payload)[1]
            lanes = np.arange(0, -(-clean.size // SYNC_INTERVAL), 3)
            stored = cont.sections["huff_sync"]
            raw = zlib.decompress(stored)
            damaged = [(section, [None, lanes])
                       for section in _mutations(rng, stored, 0, len(stored), 20)]
            damaged += [(zlib.compress(section), [None])
                        for section in _mutations(rng, raw, 0, max(len(raw), 1), 30)]
            for section, reads in damaged:
                cont.sections["huff_sync"] = section
                bad = ctn.pack_container(cont.codec, cont.meta, cont.sections)
                for keep in reads:
                    want = clean if keep is None else \
                        clean[TemporalDeltaCodec.lane_cells(keep, clean.size)]
                    try:
                        ((_, got, _),) = TemporalDeltaCodec.unpack_codes_many([bad], [keep])
                    except CorruptFileError:
                        outcomes["corrupt"] += 1
                        continue
                    assert got.tobytes() == want.tobytes()
                    outcomes["equal"] += 1
        assert outcomes["corrupt"] > 0
