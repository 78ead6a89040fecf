"""Tests for the canonical Huffman codec."""

import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import huffman
from repro.compress.huffman import (
    MAX_CODE_LEN,
    SYNC_INTERVAL,
    HuffmanCodec,
    HuffmanEncoded,
    _huffman_code_lengths_from_counts,
    _limit_lengths,
    decode,
    encode,
    sync_offsets,
    sync_residuals,
)
from repro.compress import container as ctn
from repro.compress.lossless import pack_arrays, unpack_arrays
from repro.errors import CorruptFileError


def _lane_mix(n, kind, seed):
    """``n`` symbols: one value, uniform over 200, or runs of one frequent
    symbol between bursts of a wide alphabet (lanes far from their mean)."""
    rng = np.random.default_rng(seed)
    if kind == "flat":
        return np.full(n, 7, dtype=np.uint32)
    if kind == "uniform":
        return rng.integers(0, 200, size=n).astype(np.uint32)
    data = np.zeros(n, dtype=np.uint32)
    burst = (np.arange(n) // (3 * SYNC_INTERVAL)) % 2 == 1
    data[burst] = rng.integers(1, 5000, size=int(burst.sum()))
    return data


@pytest.mark.usefixtures("peek")
class TestBasics:
    def test_roundtrip_small(self):
        data = np.array([1, 2, 2, 3, 3, 3, 3, 7], dtype=np.uint32)
        enc = encode(data)
        np.testing.assert_array_equal(decode(enc), data)

    def test_roundtrip_single_symbol(self):
        data = np.full(50, 42, dtype=np.uint32)
        enc = encode(data)
        assert enc.nbits == 50  # one bit per symbol for a single-symbol alphabet
        np.testing.assert_array_equal(decode(enc), data)

    def test_roundtrip_two_symbols(self):
        data = np.array([0, 1, 0, 1, 1], dtype=np.uint32)
        np.testing.assert_array_equal(decode(encode(data)), data)

    def test_empty(self):
        enc = encode(np.zeros(0, dtype=np.uint32))
        assert enc.nbits == 0
        assert decode(enc).size == 0

    def test_skewed_distribution_compresses(self):
        rng = np.random.default_rng(0)
        data = np.where(rng.random(4000) < 0.95, 100, rng.integers(0, 50, 4000)).astype(np.uint32)
        enc = encode(data)
        # strongly skewed data should need well under 8 bits/symbol
        assert enc.nbits < 4000 * 4

    def test_compression_beats_uniform_bound(self):
        """Average code length is within one bit of the empirical entropy."""
        rng = np.random.default_rng(1)
        data = rng.geometric(0.4, size=5000).astype(np.uint32)
        enc = encode(data)
        values, counts = np.unique(data, return_counts=True)
        p = counts / counts.sum()
        entropy = -(p * np.log2(p)).sum()
        avg_len = enc.nbits / data.size
        assert avg_len <= entropy + 1.0

    def test_decode_wrong_table_or_truncated(self):
        data = np.arange(100, dtype=np.uint32) % 7
        enc = encode(data)
        truncated = HuffmanEncoded(enc.payload[:2], 16, enc.nsymbols,
                                   enc.table_symbols, enc.table_lengths)
        with pytest.raises(ValueError):
            decode(truncated)

    def test_encode_unknown_symbol_raises(self):
        codec = HuffmanCodec.from_data(np.array([1, 2, 3], dtype=np.uint32))
        with pytest.raises(KeyError):
            codec.encode(np.array([99], dtype=np.uint32))

    def test_expected_bits_matches_encode(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 20, 500).astype(np.uint32)
        codec = HuffmanCodec.from_data(data)
        assert codec.expected_bits(data) == codec.encode(data).nbits


class TestSharedTable:
    def test_from_multiple_covers_all_symbols(self):
        a = np.array([1, 1, 2], dtype=np.uint32)
        b = np.array([3, 3, 3, 4], dtype=np.uint32)
        codec = HuffmanCodec.from_multiple([a, b])
        np.testing.assert_array_equal(codec.decode(codec.encode(a)), a)
        np.testing.assert_array_equal(codec.decode(codec.encode(b)), b)


class TestAdversarial:
    """Edge cases for the vectorized LUT decode path."""

    @pytest.mark.usefixtures("peek")
    def test_single_symbol_alphabet_large(self):
        data = np.full(3 * SYNC_INTERVAL + 17, 9, dtype=np.uint32)
        enc = encode(data)
        assert enc.nbits == data.size
        np.testing.assert_array_equal(decode(enc), data)

    def test_empty_input(self):
        enc = encode(np.zeros(0, dtype=np.uint32))
        assert enc.nbits == 0 and enc.nsymbols == 0
        assert decode(enc).size == 0

    @pytest.mark.usefixtures("peek")
    def test_kraft_repair_triggered_roundtrip(self):
        """Fibonacci-skewed counts force depths past the limit; the repaired
        length-limited code must still round-trip exactly."""
        fib = [1, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        raw_lengths = _huffman_code_lengths_from_counts(np.asarray(fib))
        assert raw_lengths.max() > MAX_CODE_LEN  # the repair has work to do
        data = np.concatenate([np.full(c, s, np.uint32) for s, c in enumerate(fib)])
        np.random.default_rng(0).shuffle(data)
        codec = HuffmanCodec.from_data(data)
        assert int(codec.lengths.max()) <= MAX_CODE_LEN
        enc = codec.encode(data)
        np.testing.assert_array_equal(codec.decode(enc), data)

    def test_limit_lengths_refuses_an_alphabet_past_16_bits(self):
        n = 1 << MAX_CODE_LEN                       # the largest table: every code 16 bits
        assert (_limit_lengths(np.full(n, MAX_CODE_LEN + 8, dtype=np.int64))
                == MAX_CODE_LEN).all()
        with pytest.raises(ValueError, match="at most 2\\*\\*16"):
            _limit_lengths(np.full(n + 1, MAX_CODE_LEN + 8, dtype=np.int64))
        with pytest.raises(ValueError, match="65537 distinct symbols"):
            HuffmanCodec.from_data(np.arange(n + 1, dtype=np.uint32))

    def test_million_symbol_roundtrip(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=1_000_000).astype(np.uint32)
        enc = encode(data)
        np.testing.assert_array_equal(decode(enc), data)

    def test_serialized_table_roundtrip(self):
        """Tables shipped through lossless.pack_arrays rebuild an equivalent codec."""
        rng = np.random.default_rng(8)
        data = rng.geometric(0.25, size=10_000).astype(np.uint32)
        codec = HuffmanCodec.from_data(data)
        enc = codec.encode(data)
        symbols, lengths = unpack_arrays(pack_arrays(enc.table_symbols, enc.table_lengths))
        rebuilt = HuffmanCodec(symbols, lengths)
        np.testing.assert_array_equal(rebuilt.codes, codec.codes)
        np.testing.assert_array_equal(rebuilt.decode(enc), data)

    def test_sync_residuals_roundtrip_and_compact(self):
        rng = np.random.default_rng(11)
        streams = [encode(rng.integers(0, 99, size=n).astype(np.uint32))
                   for n in (1, 300, 100_000)]
        residuals, escapes = sync_residuals(streams)
        # no stored first offset, no stored last lane: 0 + 4 + 1562 lanes
        assert residuals.dtype == np.uint8 and residuals.size == 4 + 1562
        back = sync_offsets(residuals, escapes, [s.nbits for s in streams],
                            [s.nsymbols for s in streams])
        np.testing.assert_array_equal(back, np.concatenate([s.sync for s in streams]))
        # the acceleration structure must stay a small fraction of the payload
        blob = zlib.compress(residuals.tobytes() + escapes.tobytes(), 6)
        assert len(blob) < 0.02 * sum(len(s.payload) for s in streams)

    @given(st.lists(st.tuples(
        st.sampled_from([0, 1, SYNC_INTERVAL - 1, SYNC_INTERVAL, SYNC_INTERVAL + 1,
                         2 * SYNC_INTERVAL, 5 * SYNC_INTERVAL, 7 * SYNC_INTERVAL + 3]),
        st.sampled_from(["flat", "uniform", "bursts"]), st.integers(0, 2 ** 16)),
        max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_sync_residuals_round_trip(self, shapes):
        """Streams shorter than a lane, exact multiples of it, empty ones and
        ones whose lanes swing far from their mean (escapes) come back as the
        offsets the encoder recorded, through the deflated section too."""
        streams = [encode(_lane_mix(n, kind, seed)) for n, kind, seed in shapes]
        residuals, escapes = sync_residuals(streams)
        nbits = np.asarray([s.nbits for s in streams], dtype=np.int64)
        counts = np.asarray([s.nsymbols for s in streams], dtype=np.int64)
        assert residuals.size == int(np.maximum(-(-counts // SYNC_INTERVAL) - 1, 0).sum())
        assert escapes.size == np.count_nonzero(residuals == 255)
        want = np.concatenate([np.zeros(0, np.int64)] + [s.sync for s in streams])
        got = sync_offsets(residuals, escapes, nbits, counts)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        for stream in streams:
            ((_, parsed),) = ctn.parse_huffman(ctn.pack_huffman([stream]))
            assert parsed.sync.tobytes() == stream.sync.tobytes()

    def test_lanes_far_from_their_mean_escape(self):
        stream = encode(_lane_mix(9 * SYNC_INTERVAL, "bursts", 1))
        residuals, escapes = sync_residuals([stream])
        assert escapes.size and int(escapes.min()) >= 255
        back = sync_offsets(residuals, escapes, [stream.nbits], [stream.nsymbols])
        np.testing.assert_array_equal(back, stream.sync)

    def test_every_damaged_value_is_corrupt(self):
        stream = encode(_lane_mix(9 * SYNC_INTERVAL, "bursts", 1))
        residuals, escapes = sync_residuals([stream])
        args = [stream.nbits], [stream.nsymbols]
        hole = int(np.flatnonzero(residuals == 255)[0])
        # a residual that leaves a lane no bits at all: -(its expected length)
        empty = 2 * ((SYNC_INTERVAL * stream.nbits + stream.nsymbols // 2)
                     // stream.nsymbols) - 1
        for damaged in (
                (residuals[:-1], escapes),                        # a lane short
                (residuals, escapes[:-1]),                        # an escape short
                (residuals, np.append(escapes, 300)),             # one too many
                (residuals, np.where(np.arange(escapes.size) == 0, 254,
                                     escapes).astype("<u2")),     # an escape a byte holds
                (np.where(np.arange(residuals.size) == hole + 1, 254,
                          residuals).astype("u1"), escapes),      # ... or an escape lost
                (np.full_like(residuals, 255),
                 np.full(residuals.size, empty, dtype="<u2")),    # lanes shorter than codes
                (np.full_like(residuals, 254), escapes[:0])):     # lanes past the end
            with pytest.raises(CorruptFileError):
                sync_offsets(*damaged, *args)

    @pytest.mark.usefixtures("peek")
    def test_a_stream_stripped_of_its_sync_offsets_is_refused(self):
        """The lanes are the only decoder: a stream without them is corrupt."""
        rng = np.random.default_rng(9)
        data = rng.integers(0, 50, size=5_000).astype(np.uint32)
        enc = encode(data)
        assert enc.sync is not None
        stripped = HuffmanEncoded(enc.payload, enc.nbits, enc.nsymbols,
                                  enc.table_symbols, enc.table_lengths)
        with pytest.raises(CorruptFileError, match="no sync offsets"):
            decode(stripped)


@pytest.mark.usefixtures("peek")
class TestCorruptStreams:
    """Truncated and invalid streams raise ValueError."""

    @staticmethod
    def _stream(n=2000):
        data = (np.arange(n, dtype=np.uint32) % 17)
        return data, encode(data)

    def test_truncated_payload_lut_path(self):
        _, enc = self._stream()
        bad = HuffmanEncoded(enc.payload[:len(enc.payload) // 2], enc.nbits,
                             enc.nsymbols, enc.table_symbols, enc.table_lengths,
                             sync=enc.sync)
        with pytest.raises(ValueError):
            decode(bad)

    def test_truncated_nbits_lut_path(self):
        """nbits lies low: lanes cannot land on their sync boundaries."""
        _, enc = self._stream()
        bad = HuffmanEncoded(enc.payload, enc.nbits - 3, enc.nsymbols,
                             enc.table_symbols, enc.table_lengths, sync=enc.sync)
        with pytest.raises(ValueError):
            decode(bad)

    def test_invalid_code_lut_path(self):
        """A Kraft-deficient table leaves unassigned LUT slots; hitting one raises."""
        one = encode(np.full(10, 7, dtype=np.uint32))   # single symbol, code '0'
        bad = HuffmanEncoded(b"\xff\xff", 10, 10, one.table_symbols,
                             one.table_lengths, sync=one.sync)
        with pytest.raises(ValueError):
            decode(bad)

    def test_corrupt_table_rejected_at_construction(self):
        """Deserialized tables with absurd lengths or a Kraft violation must
        raise, never silently build garbage canonical codes."""
        for lengths in ([1, 200, 200],   # shift overflow territory
                        [0, 1, 1],       # zero-length code
                        [1, 1, 1],       # Kraft sum 1.5 > 1
                        [1, 1, 16],      # over by 2**-16: '1' then '100...0'
                        [1, 2, 2, 16],   # the least excess a table can have
                        [1, 1, 30],      # past MAX_CODE_LEN: no LUT slot
                        [1, 2, 2, 31]):
            with pytest.raises(ValueError):
                HuffmanCodec(np.arange(1, len(lengths) + 1, dtype=np.uint32),
                             np.asarray(lengths, dtype=np.uint8))

    def test_corrupt_sync_offsets_raise(self):
        """Malformed sync metadata must never return silently-wrong data."""
        _, enc = self._stream()
        shifted = HuffmanEncoded(enc.payload, enc.nbits, enc.nsymbols,
                                 enc.table_symbols, enc.table_lengths,
                                 sync=np.asarray(enc.sync) + 1)
        with pytest.raises(CorruptFileError, match="malformed sync offsets"):
            decode(shifted)


@pytest.mark.usefixtures("peek")
class TestProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=400))
    def test_roundtrip_property(self, values):
        data = np.asarray(values, dtype=np.uint32)
        np.testing.assert_array_equal(decode(encode(data)), data)

    @given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=100))
    def test_roundtrip_large_symbols(self, values):
        data = np.asarray(values, dtype=np.uint32)
        np.testing.assert_array_equal(decode(encode(data)), data)

    @given(st.integers(1, 64), st.integers(2, 30))
    def test_prefix_free_codes(self, nsym, seed):
        """Canonical codes must be prefix-free."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, nsym, size=500).astype(np.uint32)
        codec = HuffmanCodec.from_data(data)
        codes = [(int(l), int(c)) for l, c in zip(codec.lengths, codec.codes)]
        for i, (li, ci) in enumerate(codes):
            for j, (lj, cj) in enumerate(codes):
                if i == j:
                    continue
                if li <= lj:
                    assert (cj >> (lj - li)) != ci, "code i is a prefix of code j"


@st.composite
def histogram_inputs(draw):
    """uint32 or int64 symbols, negatives included, whose span is below, at or
    far above their count; empty arrays too."""
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    n = draw(st.integers(0, 300))
    lo = draw(st.integers(0, 2**32 - 1) if dtype is np.uint32 else st.integers(-2**40, 2**40))
    span = draw(st.sampled_from([0, 1, max(n - 1, 0), n, n + 1, 10 * n + 7, 2**20]))
    top = min(lo + span, 2**32 - 1) if dtype is np.uint32 else lo + span
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(lo, top, size=n, endpoint=True).astype(dtype)
    if n and draw(st.booleans()):
        data[rng.integers(n)] = top                     # the span reached exactly
    return data


class TestHistogram:
    """``from_data`` counts by ``bincount`` when the span is at most the data's
    length and by ``np.unique`` otherwise: the same symbols, counts and table."""

    @settings(max_examples=300, deadline=None)
    @given(histogram_inputs())
    def test_bincount_and_unique_agree(self, data):
        if data.size:
            symbols, counts = huffman._histogram(data)
            want_symbols, want_counts = np.unique(data, return_counts=True)
            assert symbols.dtype == want_symbols.dtype
            np.testing.assert_array_equal(symbols, want_symbols)
            np.testing.assert_array_equal(counts, want_counts)
        codec = HuffmanCodec.from_data(data)
        with mock.patch.object(huffman, "_histogram",
                               lambda d: np.unique(d, return_counts=True)):
            sorted_codec = HuffmanCodec.from_data(data)
        np.testing.assert_array_equal(codec.symbols, sorted_codec.symbols)
        np.testing.assert_array_equal(codec.lengths, sorted_codec.lengths)
        assert codec.data_bits == sorted_codec.data_bits

    def test_both_paths_are_taken(self):
        with mock.patch.object(huffman.np, "unique", wraps=np.unique) as unique:
            HuffmanCodec.from_data(np.arange(-5, 95, dtype=np.int64) % 40)   # span 39 of 100
            assert unique.call_count == 0
            HuffmanCodec.from_data(np.asarray([0, 2**31, 7], dtype=np.uint32))
            assert unique.call_count == 1


class TestLazyTables:
    """A table builds its canonical codes, encode lookup and decode structures
    on first use, and they are the ones an eager build gives."""

    @staticmethod
    def _eager(codec):
        """Every structure built up front, before anything uses it."""
        assert codec.codes is not None and codec._canonical() and codec._build_lut()
        codec._lookup(codec.symbols[:1])
        return codec

    def test_from_data_builds_none_of_them(self):
        codec = HuffmanCodec.from_data(np.arange(1000, dtype=np.uint32) % 37)
        assert (codec._codes, codec._dec, codec._enc, codec._lut) == (None,) * 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=600))
    def test_lazy_equals_eager(self, values):
        data = np.asarray(values, dtype=np.uint32)
        eager = self._eager(HuffmanCodec.from_data(data))
        lazy = HuffmanCodec.from_data(data)
        first = lazy.encode(data)                   # encode first, then the rest
        assert lazy._dec is None and lazy._lut is None
        again = eager.encode(data)
        assert (first.payload, first.nbits) == (again.payload, again.nbits)
        np.testing.assert_array_equal(first.sync, again.sync)
        np.testing.assert_array_equal(lazy.codes, eager.codes)
        assert lazy._build_lut()[0] == eager._build_lut()[0]
        np.testing.assert_array_equal(lazy._build_lut()[1], eager._build_lut()[1])
        np.testing.assert_array_equal(HuffmanCodec.from_data(data).decode(first), data)
