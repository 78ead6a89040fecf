"""Entropy-stage microbenchmarks: Huffman table build, encode and decode.

Two decode shapes: one 1M-symbol stream, and the shape a real plotfile has —
hundreds of small streams sharing a table (SLE) in one container.
``tools/bench_check.py`` gates the second at <= 2x the first's per-symbol cost
(both stamp ``extra_info.symbols``).
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
def codec(entropy_codes) -> HuffmanCodec:
    return HuffmanCodec.from_data(entropy_codes)


@pytest.fixture(scope="module")
def encoded(codec, entropy_codes):
    return codec.encode(entropy_codes)


def test_huffman_table_build(benchmark, entropy_codes):
    benchmark.pedantic(HuffmanCodec.from_data, args=(entropy_codes,),
                       rounds=3, iterations=1)


def test_huffman_encode_1m(benchmark, codec, entropy_codes):
    result = benchmark.pedantic(codec.encode, args=(entropy_codes,),
                                rounds=5, iterations=1)
    assert result.nsymbols == entropy_codes.size


def test_huffman_decode_1m(benchmark, codec, encoded, entropy_codes):
    benchmark.extra_info["symbols"] = int(entropy_codes.size)
    result = benchmark.pedantic(codec.decode, args=(encoded,),
                                rounds=5, iterations=1)
    np.testing.assert_array_equal(result, entropy_codes)


def test_huffman_decode_many_small_streams(benchmark):
    rng = np.random.default_rng(1)
    arrays = [rng.integers(0, 256, size=SMALL_STREAM_SYMBOLS + int(ragged)).astype(np.uint32)
              for ragged in rng.integers(-300, 300, size=SMALL_STREAMS)]
    codec = HuffmanCodec.from_multiple(arrays)
    sections = ctn.pack_huffman([codec.encode(a) for a in arrays])
    benchmark.extra_info["symbols"] = sum(a.size for a in arrays)
    benchmark.extra_info["streams"] = SMALL_STREAMS
    result = benchmark.pedantic(ctn.unpack_huffman, args=(sections,),
                                kwargs={"sync_interval": SYNC_INTERVAL},
                                rounds=5, iterations=1)
    for got, array in zip(result, arrays):
        np.testing.assert_array_equal(got, array)
