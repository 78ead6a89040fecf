"""Entropy-stage microbenchmarks: Huffman table build, encode and decode.

Two shapes each way: one 1M-symbol stream, and the shape a real plotfile has —
hundreds of small streams sharing a table (SLE) in one container.
``tools/bench_check.py`` holds a symbol of the small streams, decoded or
encoded, to <= 2x a symbol of the long decode (all three stamp
``extra_info.symbols``).  The wide table build has the alphabet of a temporal
key stream, where the code-length merge — not the histogram — is the cost.
``test_huffman_decode_many_tables`` is a decode job: four containers, each
under its own table, decoded in one lane pass or in four — the gate holds the
one pass to <= 0.7x the four (the pass's ``SYNC_INTERVAL`` Python-level
steps are shared).
``test_huffman_decode_cold_pass`` is the small pass a cold served box read
decodes, where the decoder peeks through its per-bit LUT index.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from repro.compress import container as ctn
from repro.compress import huffman
from repro.compress.huffman import SYNC_INTERVAL, HuffmanCodec

#: nyx_1's stream count, and roughly its symbols per stream
SMALL_STREAMS = 390
SMALL_STREAM_SYMBOLS = 2700


@pytest.fixture(scope="module")
def small_streams():
    rng = np.random.default_rng(1)
    return [rng.integers(0, 256, size=SMALL_STREAM_SYMBOLS + int(ragged)).astype(np.uint32)
            for ragged in rng.integers(-300, 300, size=SMALL_STREAMS)]


@pytest.fixture(scope="module")
def codec(entropy_codes) -> HuffmanCodec:
    return HuffmanCodec.from_data(entropy_codes)


@pytest.fixture(scope="module")
def encoded(codec, entropy_codes):
    return codec.encode(entropy_codes)


def test_huffman_table_build(benchmark, entropy_codes):
    benchmark.pedantic(HuffmanCodec.from_data, args=(entropy_codes,),
                       rounds=3, iterations=1)


def test_huffman_table_build_wide(benchmark):
    rng = np.random.default_rng(2)
    codes = np.abs(np.round(rng.laplace(0, 120, size=200_000))).astype(np.uint32)
    benchmark.extra_info["symbols"] = int(codes.size)
    result = benchmark.pedantic(HuffmanCodec.from_data, args=(codes,),
                                rounds=5, iterations=1)
    benchmark.extra_info["table_symbols"] = result.nsymbols
    assert 900 < result.nsymbols < 1100


def test_huffman_encode_1m(benchmark, codec, entropy_codes):
    result = benchmark.pedantic(codec.encode, args=(entropy_codes,),
                                rounds=5, iterations=1)
    assert result.nsymbols == entropy_codes.size


def test_huffman_decode_1m(benchmark, codec, encoded, entropy_codes):
    benchmark.extra_info["symbols"] = int(entropy_codes.size)
    result = benchmark.pedantic(codec.decode, args=(encoded,),
                                rounds=5, iterations=1)
    np.testing.assert_array_equal(result, entropy_codes)


def test_huffman_encode_many_small_streams(benchmark, small_streams):
    codec = HuffmanCodec.from_multiple(small_streams)
    benchmark.extra_info["symbols"] = sum(a.size for a in small_streams)
    benchmark.extra_info["streams"] = SMALL_STREAMS
    result = benchmark.pedantic(lambda: [codec.encode(a) for a in small_streams],
                                rounds=5, iterations=1)
    assert [stream.nsymbols for stream in result] == [a.size for a in small_streams]


def test_huffman_decode_many_small_streams(benchmark, small_streams):
    codec = HuffmanCodec.from_multiple(small_streams)
    sections = ctn.pack_huffman([codec.encode(a) for a in small_streams])
    benchmark.extra_info["symbols"] = sum(a.size for a in small_streams)
    benchmark.extra_info["streams"] = SMALL_STREAMS
    result = benchmark.pedantic(ctn.unpack_huffman, args=(sections,),
                                rounds=5, iterations=1)
    for got, array in zip(result, small_streams):
        np.testing.assert_array_equal(got, array)


def _containers(seed, scales, nstreams):
    """Chunks of one dataset as the reader parses them: ``nstreams`` unit-block
    streams of ~256 symbols each per chunk, one table per chunk, LUT widths
    12-15 (nyx_1 level 0's shape)."""
    rng = np.random.default_rng(seed)
    pairs, arrays = [], []
    for scale in scales:
        sizes = 256 - rng.integers(0, 9, size=nstreams) * (rng.random(nstreams) < 0.2)
        blocks = [(32768 + np.round(rng.laplace(0, scale, n))).astype(np.uint32)
                  for n in sizes]
        codec = HuffmanCodec.from_multiple(blocks)
        pairs += ctn.parse_huffman(ctn.pack_huffman([codec.encode(b) for b in blocks]))
        arrays.append(np.concatenate(blocks))
    assert all(12 <= codec._build_lut()[0] <= 15 for codec, _ in pairs)
    return pairs, arrays


@pytest.fixture(scope="module")
def job_containers():
    """Four chunks of ~108 streams (~27k symbols) each."""
    pairs, arrays = _containers(17, (0.8, 1.2, 2.5, 6.0), 108)
    assert len({codec._build_lut()[0] for codec, _ in pairs}) >= 3
    return pairs, arrays


@pytest.mark.parametrize("passes", [1, 4])
def test_huffman_decode_many_tables(benchmark, job_containers, passes):
    pairs, arrays = job_containers
    benchmark.extra_info["passes"] = passes
    benchmark.extra_info["symbols"] = sum(a.size for a in arrays)
    if passes == 1:
        def run():
            return huffman.decode_many(pairs)
    else:
        def run():
            return [codec.decode(encoded) for codec, encoded in pairs]
    result = benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=1)
    for got, array in zip(result, arrays):
        np.testing.assert_array_equal(got, array)


def test_huffman_decode_cold_pass(benchmark):
    """The pass a cold served box read decodes: three chunks' tables, ~9 KB
    of codes.  Its ``SYNC_INTERVAL`` steps, not its symbols, are the cost."""
    pairs, arrays = _containers(25, (1.2, 2.5, 6.0), 23)
    benchmark.extra_info["lanes"] = sum(-(-e.nsymbols // SYNC_INTERVAL) for _, e in pairs)
    benchmark.extra_info["payload_bytes"] = sum(len(e.payload) for _, e in pairs)
    result = benchmark.pedantic(huffman.decode_many, args=(pairs,),
                                rounds=30, iterations=1, warmup_rounds=2)
    for got, array in zip(result, arrays):
        np.testing.assert_array_equal(got, array)
