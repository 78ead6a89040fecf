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
    encoded_size_per_block,
    pack_sync,
    unpack_sync,
)
from repro.compress.lossless import pack_arrays, unpack_arrays


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

    def test_table_nbytes(self):
        codec = HuffmanCodec.from_data(np.array([5, 6, 7, 7], dtype=np.uint32))
        assert codec.table_nbytes == 3 * 5

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

    def test_shared_table_cheaper_than_per_block_for_many_small_blocks(self):
        """The size rationale behind SLE: one shared table beats many tables."""
        rng = np.random.default_rng(3)
        blocks = [rng.geometric(0.3, size=64).astype(np.uint32) for _ in range(100)]
        shared = HuffmanCodec.from_multiple(blocks)
        shared_total = shared.table_nbytes + sum(
            (shared.expected_bits(b) + 7) // 8 for b in blocks)
        per_block_total = encoded_size_per_block(blocks)
        assert shared_total < per_block_total

    def test_per_block_total_counts_tables(self):
        blocks = [np.array([1, 2, 3], dtype=np.uint32)] * 4
        total = encoded_size_per_block(blocks)
        assert total >= 4 * 3 * 5  # at least the table bytes


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

    def test_limit_lengths_huge_alphabet_widens_limit(self):
        n = (1 << MAX_CODE_LEN) + 10
        lengths = np.full(n, MAX_CODE_LEN + 8, dtype=np.int64)
        limited = _limit_lengths(lengths)
        assert np.sum(2.0 ** (-limited.astype(np.float64))) <= 1.0 + 1e-9

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

    def test_pack_sync_roundtrip_and_compact(self):
        rng = np.random.default_rng(11)
        streams = [encode(rng.integers(0, 99, size=n).astype(np.uint32))
                   for n in (1, 300, 100_000)]
        blob = pack_sync([s.sync for s in streams])
        lanes = [np.asarray(s.sync).size for s in streams]
        back = unpack_sync(blob, lanes)
        for s, b in zip(streams, back):
            np.testing.assert_array_equal(np.asarray(s.sync), b)
        # the acceleration structure must stay a small fraction of the payload
        assert len(blob) < 0.05 * sum(len(s.payload) for s in streams)
        # a blob of the wrong size degrades to None (scalar fallback), not garbage
        assert unpack_sync(blob, [lanes[0]]) == [None]

    @given(st.lists(st.lists(st.integers(0, 2 ** 16 - 1), max_size=40), max_size=12),
           st.integers(-2, 2))
    def test_unpack_sync_equals_one_cumsum_per_stream(self, deltas, miscount):
        """One running sum split per stream gives the offsets a cumsum per
        stream gave, empty streams included; a count that disagrees with the
        blob is the ``None`` fallback for every stream."""
        blob = zlib.compress(np.asarray([d for stream in deltas for d in stream],
                                        dtype=np.uint16).tobytes())
        counts = [len(stream) for stream in deltas]
        got = unpack_sync(blob, counts)
        assert len(got) == len(deltas)
        for stream, offsets in zip(deltas, got):
            expected = np.cumsum(np.asarray(stream, dtype=np.int64))
            assert offsets.dtype == np.int64 and offsets.tobytes() == expected.tobytes()
        if counts and miscount:
            wrong = counts[:-1] + [max(counts[-1] + miscount, 0)]
            if wrong != counts:
                assert unpack_sync(blob, wrong) == [None] * len(counts)
        if len(counts) > 1:                     # a negative count is not a shorter stream
            lying = [-1, counts[0] + counts[1] + 1] + counts[2:]
            assert unpack_sync(blob, lying) == [None] * len(counts)

    @staticmethod
    def _pack_sync_per_stream(syncs):
        """``pack_sync`` as it was: one ``diff`` per stream."""
        parts = [np.diff(np.zeros(0, np.int64) if sync is None
                         else np.asarray(sync, dtype=np.int64).ravel(),
                         prepend=np.int64(0)).astype(np.uint16) for sync in syncs]
        cat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint16)
        return zlib.compress(cat.tobytes(), 6)

    @given(st.lists(st.one_of(st.none(),
                              st.lists(st.integers(0, 2 ** 16 - 1), max_size=1),
                              st.lists(st.integers(0, 2 ** 16 - 1), max_size=30)),
                    max_size=12))
    def test_pack_sync_equals_one_diff_per_stream(self, deltas):
        """One ``diff`` over all streams, each stream's first delta put back,
        is byte for byte the per-stream packing — ``None``, empty and
        one-lane streams among them — and unpacks to every stream's offsets."""
        syncs = [None if d is None else np.cumsum(np.asarray(d, dtype=np.int64))
                 for d in deltas]
        blob = pack_sync(syncs)
        assert blob == self._pack_sync_per_stream(syncs)
        back = unpack_sync(blob, [0 if s is None else s.size for s in syncs])
        for sync, offsets in zip(syncs, back, strict=True):
            expected = np.zeros(0, np.int64) if sync is None else sync
            assert offsets.tobytes() == expected.tobytes()

    @pytest.mark.usefixtures("peek")
    def test_scalar_fallback_matches_lut_path(self):
        """A stream stripped of its sync offsets decodes identically (slow path)."""
        rng = np.random.default_rng(9)
        data = rng.integers(0, 50, size=5_000).astype(np.uint32)
        enc = encode(data)
        assert enc.sync is not None
        stripped = HuffmanEncoded(enc.payload, enc.nbits, enc.nsymbols,
                                  enc.table_symbols, enc.table_lengths)
        np.testing.assert_array_equal(decode(stripped), decode(enc))


@pytest.mark.usefixtures("peek")
class TestCorruptStreams:
    """Truncated and invalid streams raise ValueError on both decode paths."""

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

    def test_truncated_payload_scalar_path(self):
        _, enc = self._stream()
        bad = HuffmanEncoded(enc.payload[:2], 16, enc.nsymbols,
                             enc.table_symbols, enc.table_lengths)
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

    def test_invalid_code_scalar_path(self):
        one = encode(np.full(10, 7, dtype=np.uint32))
        bad = HuffmanEncoded(b"\xff\xff", 10, 10, one.table_symbols, one.table_lengths)
        with pytest.raises(ValueError):
            decode(bad)

    def test_corrupt_table_rejected_at_construction(self):
        """Deserialized tables with absurd lengths or a Kraft violation must
        raise, never silently build garbage canonical codes."""
        for lengths in ([1, 200, 200],   # shift overflow territory
                        [0, 1, 1],       # zero-length code
                        [1, 1, 1],       # Kraft sum 1.5 > 1
                        [1, 1, 30],      # over by 2**-30: '1' then '100...0'
                        [1, 2, 2, 31]):  # over by 2**-31 (a float sum let both through)
            with pytest.raises(ValueError):
                HuffmanCodec(np.arange(1, len(lengths) + 1, dtype=np.uint32),
                             np.asarray(lengths, dtype=np.uint8))

    def test_corrupt_sync_offsets_fall_back_or_raise(self):
        """Malformed sync metadata must never return silently-wrong data."""
        data, enc = self._stream()
        shifted = HuffmanEncoded(enc.payload, enc.nbits, enc.nsymbols,
                                 enc.table_symbols, enc.table_lengths,
                                 sync=np.asarray(enc.sync) + 1)
        try:
            out = decode(shifted)
            np.testing.assert_array_equal(out, data)  # fell back to scalar path
        except ValueError:
            pass


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
