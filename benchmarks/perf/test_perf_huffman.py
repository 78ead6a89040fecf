"""Entropy-stage microbenchmarks: Huffman table build, encode and decode.

Two shapes each way: one 1M-symbol stream, and the shape a real plotfile has —
hundreds of small streams sharing a table (SLE) in one container.
``tools/bench_check.py`` holds a symbol of the small streams, decoded or
encoded, to <= 2x a symbol of the long decode (all three stamp
``extra_info.symbols``).  The wide table build has the alphabet of a temporal
key stream, where the code-length merge — not the histogram — is the cost.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from repro.compress import container as ctn
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
                                kwargs={"sync_interval": SYNC_INTERVAL},
                                rounds=5, iterations=1)
    for got, array in zip(result, small_streams):
        np.testing.assert_array_equal(got, array)
