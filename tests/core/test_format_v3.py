"""Format v3 (and on): every codec stores its Huffman sync offsets as
lane-length residuals, one lane per ``SYNC_INTERVAL`` symbols (DESIGN.md §5).

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
from repro.compress import sz_lr, temporal
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
        _, form, narrays, ncodes = struct.unpack_from("<IBIQ", record)
        codes = record[17:17 + ncodes]
        blob = zlib.decompress(record[17 + ncodes:])
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
            body = struct.pack("<BIQ", form, narrays, ncodes) + codes + zlib.compress(damaged)
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

    def test_a_series_steps_sync_residuals(self, series_dir):
        """Every chunk of a delta step: its record damaged as stored inside
        the side blob (whole and lane reads: the record's CRC refuses each),
        or its sync residuals damaged inside the inflated blob under a
        checksum recomputed to match (whole reads: a lane read decodes only
        its lanes, so it trusts their offsets — a wrong start can
        resynchronise onto the right end)."""
        rng = np.random.default_rng(1)
        with repro.open_series(series_dir) as series:
            path = os.path.join(series_dir, series.steps()[1].path)
        with H5LiteFile(path, "r") as f:
            chunks = [(p, info.attrs["codec"], c.actual_elements)
                      for info in f.datasets.values()
                      for p, c in zip(f.read_chunk_payloads(info.name, range(info.nchunks)),
                                      info.chunks)]
        outcomes = {"corrupt": 0, "equal": 0}

        def read(record, recipe, n, keep):
            return TemporalDeltaCodec.unpack_codes_many([record], [recipe], [n], [keep])[0]

        for record, recipe, n in chunks[:6]:
            assert recipe["stream"] == "delta"
            clean = read(record, recipe, n, None)
            lanes = np.arange(0, -(-n // SYNC_INTERVAL), 3)
            _, form, narrays, ncodes = struct.unpack_from("<IBIQ", record)
            head, stored = record[:17 + ncodes], record[17 + ncodes:]
            for damaged in _mutations(rng, stored, 0, len(stored), 20):
                for keep in (None, lanes):
                    with pytest.raises(CorruptFileError, match="checksum"):
                        read(head + damaged, recipe, n, keep)
            blob = zlib.decompress(stored)
            side = ctn.SideReader(blob, "record")
            nbits = side.take("<i8", 1).astype(np.int64)
            ctn._take_tables(side, 1)
            lo = side._at
            ctn._take_sync(side, nbits, np.asarray([n]))
            seed = ctn.shapes_seed([(n,)], ctn.recipe_context(recipe, temporal._RECIPE, "r"))
            for damaged in _mutations(rng, blob, lo, max(side._at, lo + 1), 30):
                body = head[4:] + zlib.compress(damaged)
                bad = struct.pack("<I", zlib.crc32(body, seed)) + body
                try:
                    got = read(bad, recipe, n, None)
                except CorruptFileError:
                    outcomes["corrupt"] += 1
                    continue
                assert got.tobytes() == clean.tobytes()
                outcomes["equal"] += 1
        assert outcomes["corrupt"] > 0
