"""SZ_L/R and SZ_Interp round-trip timings on a 64³ field."""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from repro.compress import SZInterpCompressor, SZLRCompressor


def _roundtrip(comp, data):
    buf, recon = comp.compress_with_reconstruction(data)
    decoded = comp.decompress(buf)
    return recon, decoded


@pytest.mark.parametrize("cls", [SZLRCompressor, SZInterpCompressor],
                         ids=["sz_lr", "sz_interp"])
def test_sz_roundtrip_64cube(benchmark, cls, smooth_cube):
    comp = cls(1e-3)
    recon, decoded = benchmark.pedantic(_roundtrip, args=(comp, smooth_cube),
                                        rounds=3, iterations=1)
    np.testing.assert_array_equal(recon, decoded)


def test_sz_lr_unit_blocks_sle(benchmark, smooth_cube):
    """The AMRIC shape of the entropy stage: many unit blocks, one SLE table."""
    blocks = [smooth_cube[i:i + 16, j:j + 16, k:k + 16]
              for i in range(0, 64, 16) for j in range(0, 64, 16)
              for k in range(0, 64, 16)]
    comp = SZLRCompressor(1e-3)
    vrange = float(smooth_cube.max() - smooth_cube.min())

    def run():
        buf = comp.compress_many(blocks, shared_encoding=True, value_range=vrange)
        return comp.decompress_many(buf)

    decoded = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(decoded) == len(blocks)


def _rank_chunk(smooth_cube):
    """One rank chunk as the filter hands it over: 16 unit blocks, two of each
    of the eight 16/8 shape combinations."""
    shapes = [(a, b, c) for a in (16, 8) for b in (16, 8) for c in (16, 8)] * 2
    return [smooth_cube[2 * i:2 * i + a, 8:8 + b, 16:16 + c]
            for i, (a, b, c) in enumerate(shapes)]


def test_sz_lr_compress_many_unit_blocks(benchmark, smooth_cube):
    """The predictor's batch: one rank chunk in, one payload out."""
    blocks = _rank_chunk(smooth_cube)
    comp = SZLRCompressor(1e-3)
    vrange = float(smooth_cube.max() - smooth_cube.min())
    benchmark.extra_info["cells"] = sum(b.size for b in blocks)

    buf = benchmark.pedantic(
        lambda: comp.compress_many(blocks, shared_encoding=True, value_range=vrange),
        rounds=10, iterations=1, warmup_rounds=1)
    assert len(comp.decompress_many(buf)) == len(blocks)


def test_sz_lr_decompress_many_unit_blocks(benchmark, smooth_cube):
    """The decode twin: the same rank chunk's payload back to 16 arrays (what
    a cold box read pays per chunk it touches)."""
    blocks = _rank_chunk(smooth_cube)
    comp = SZLRCompressor(1e-3)
    vrange = float(smooth_cube.max() - smooth_cube.min())
    buf = comp.compress_many(blocks, shared_encoding=True, value_range=vrange)
    benchmark.extra_info["cells"] = sum(b.size for b in blocks)

    decoded = benchmark.pedantic(lambda: comp.decompress_many(buf),
                                 rounds=10, iterations=1, warmup_rounds=1)
    abs_eb = comp.error_bound.resolve(value_range=vrange)
    for block, dec in zip(blocks, decoded):
        assert dec.shape == block.shape
        assert np.max(np.abs(dec - block)) <= abs_eb * (1 + 1e-9)
