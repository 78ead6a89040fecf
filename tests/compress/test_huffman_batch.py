"""One lane pass per container — and per batch of containers, each under its table.

The batched decode (every stream of a container in one :meth:`HuffmanCodec.decode`
call) must equal per-stream decode must equal the scalar reference loop
(``huffman_reference.decode_scalar``), and a damaged container must fail with
:class:`ValueError` and nothing else.  The
same holds one level up: :func:`huffman.decode_many` over several ``(codec,
encoded)`` pairs, every pair under its own table, equals decoding each alone.
The lane-pass classes run once per peek (the ``peek`` fixture).
"""

import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compress import container as ctn
from repro.compress import huffman
from repro.compress.huffman import (
    MAX_CODE_LEN,
    SYNC_INTERVAL,
    HuffmanCodec,
    HuffmanEncoded,
)
from repro.errors import CorruptFileError

from huffman_reference import decode_scalar


def _deep_codec() -> HuffmanCodec:
    """Fibonacci counts: the Kraft repair clamps the table at MAX_CODE_LEN."""
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    codec = HuffmanCodec.from_data(
        np.concatenate([np.full(c, s, np.uint32) for s, c in enumerate(fib)]))
    assert int(codec.lengths.max()) == MAX_CODE_LEN
    return codec


DEEP = _deep_codec()

#: stream lengths that sit on the lane boundaries, plus ragged ones
SIZES = st.one_of(
    st.sampled_from([0, 1, SYNC_INTERVAL - 1, SYNC_INTERVAL, SYNC_INTERVAL + 1,
                     2 * SYNC_INTERVAL, 3 * SYNC_INTERVAL]),
    st.integers(2, 700))


@st.composite
def shared_table_mixes(draw):
    """(codec, arrays): several streams' symbols and the one table they share."""
    sizes = draw(st.lists(SIZES, min_size=1, max_size=8))
    kind = draw(st.sampled_from(["skewed", "uniform", "single", "deep"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "single":
        arrays = [np.full(n, 7, dtype=np.uint32) for n in sizes]
    elif kind == "deep":
        arrays = [rng.integers(0, 30, size=n).astype(np.uint32) for n in sizes]
        return DEEP, arrays
    elif kind == "uniform":
        arrays = [rng.integers(0, 200, size=n).astype(np.uint32) for n in sizes]
    else:
        arrays = [(1000 + np.round(rng.laplace(0, 2.0, size=n))).astype(np.uint32)
                  for n in sizes]
    return HuffmanCodec.from_multiple(arrays), arrays


def _batch(streams) -> HuffmanEncoded:
    return HuffmanEncoded(
        b"".join(s.payload for s in streams),
        sum(s.nbits for s in streams), sum(s.nsymbols for s in streams),
        streams[0].table_symbols, streams[0].table_lengths,
        sync=np.concatenate([np.zeros(0, np.int64)]
                            + [s.sync for s in streams if s.sync is not None]),
        streams=np.asarray([[s.nbits, s.nsymbols] for s in streams], dtype=np.int64))


@pytest.mark.usefixtures("peek")
class TestBatchedEqualsPerStream:
    @given(shared_table_mixes())
    def test_batched_equals_per_stream_equals_scalar(self, mix):
        codec, arrays = mix
        streams = [codec.encode(a) for a in arrays]
        flat = codec.decode(_batch(streams))
        np.testing.assert_array_equal(flat, np.concatenate(arrays))
        through = ctn.unpack_huffman(ctn.pack_huffman(streams))
        assert len(through) == len(arrays)
        for array, stream, got in zip(arrays, streams, through):
            np.testing.assert_array_equal(got, array)
            np.testing.assert_array_equal(codec.decode(stream), array)
            if array.size:
                np.testing.assert_array_equal(
                    decode_scalar(codec, stream.payload, stream.nbits, array.size), array)

    @given(shared_table_mixes(), st.data())
    def test_one_stream_without_sync_fails_the_batch(self, mix, data):
        codec, arrays = mix
        streams = [codec.encode(a) for a in arrays]
        victim = data.draw(st.integers(0, len(streams) - 1))
        # an empty stream has no sync offsets to lose
        if arrays[victim].size == 0:
            return
        streams[victim].sync = None
        with pytest.raises(ValueError, match="sync offsets"):    # never stored without
            ctn.pack_huffman(streams)
        with mock.patch.object(HuffmanCodec, "_decode_lanes",
                               side_effect=AssertionError("lane path taken")), \
                pytest.raises(CorruptFileError, match="sync offsets"):
            codec.decode(_batch(streams))

    def test_one_decode_call_per_container(self, monkeypatch):
        rng = np.random.default_rng(1)
        arrays = [rng.integers(0, 40, size=n).astype(np.uint32) for n in (900, 0, 300, 256)]
        codec = HuffmanCodec.from_multiple(arrays)
        sections = ctn.pack_huffman([codec.encode(a) for a in arrays])
        seen = []
        decode = HuffmanCodec.decode
        monkeypatch.setattr(HuffmanCodec, "decode",
                            lambda self, enc: seen.append(enc.nsymbols) or decode(self, enc))
        ctn.unpack_huffman(sections)
        assert seen == [sum(a.size for a in arrays)]


def _sections(arrays, codec=None):
    codec = codec or HuffmanCodec.from_multiple(arrays)
    return ctn.pack_huffman([codec.encode(a) for a in arrays])


def _codes(sections) -> bytes:
    """The codes section's bytes, inflated."""
    return zlib.decompress(sections["huff_payload"])


def _put_codes(sections, codes: bytes) -> None:
    """Replace the codes, deflated again, so the damage reaches the decoder's
    own checks."""
    sections["huff_payload"] = zlib.compress(codes)


@pytest.mark.usefixtures("peek")
class TestCorruptionMatrix:
    """Damage raises ValueError, or (sync only) decodes to exact data."""

    @staticmethod
    def _arrays(seed, sizes=(700, 1, 300, 513)):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, 60, size=n).astype(np.uint32) for n in sizes]

    @given(st.integers(0, 50), st.integers(1, 400))
    def test_truncated_payload(self, seed, cut):
        sections = _sections(self._arrays(seed))
        _put_codes(sections, _codes(sections)[:-cut])
        with pytest.raises(ValueError):
            ctn.unpack_huffman(sections)

    @given(st.integers(0, 50), st.integers(0, 7), st.sampled_from([-3, -1, 1, 2, 40]))
    def test_flipped_sync_delta(self, seed, lane, bump):
        arrays = self._arrays(seed)
        sections = _sections(arrays)
        deltas = np.frombuffer(zlib.decompress(sections["huff_sync"]), dtype=np.uint16).copy()
        lane %= deltas.size
        deltas[lane] = (int(deltas[lane]) + bump) % 2**16
        sections["huff_sync"] = zlib.compress(deltas.tobytes())
        try:
            got = ctn.unpack_huffman(sections)
        except ValueError:
            return
        for array, back in zip(arrays, got):  # offsets that still hold every lane's codes
            np.testing.assert_array_equal(back, array)

    def test_flipped_interior_sync_delta_is_refused(self):
        sections = _sections(self._arrays(3))
        deltas = np.frombuffer(zlib.decompress(sections["huff_sync"]), dtype=np.uint16).copy()
        deltas[1] += np.uint16(1)     # still monotone and in range: lanes run, and miss
        sections["huff_sync"] = zlib.compress(deltas.tobytes())
        with pytest.raises(ValueError, match="truncated or corrupt"):
            ctn.unpack_huffman(sections)

    @given(st.integers(0, 3), st.integers(0, 10_000))
    def test_lane_pointed_at_unassigned_code(self, which, where):
        # a one-symbol table assigns only code '0': any 1 bit matches nothing
        arrays = [np.full(n, 9, dtype=np.uint32) for n in (600, 40, 257, 256)]
        sections = _sections(arrays)
        payload = bytearray(_codes(sections))
        start = sum((a.size + 7) // 8 for a in arrays[:which])
        bit = where % arrays[which].size
        payload[start + bit // 8] |= 0x80 >> (bit % 8)
        _put_codes(sections, bytes(payload))
        with pytest.raises(ValueError, match="unassigned code"):
            ctn.unpack_huffman(sections)

    @given(st.integers(0, 50), st.permutations(range(4)))
    def test_swapped_nbits(self, seed, perm):
        sections = _sections(self._arrays(seed))
        nbits = np.frombuffer(sections["huff_nbits"], dtype=np.int64)
        if np.array_equal(nbits[list(perm)], nbits):
            return
        sections["huff_nbits"] = nbits[list(perm)].tobytes()
        with pytest.raises(ValueError):
            ctn.unpack_huffman(sections)

    @pytest.mark.parametrize("name", ["huff_nbits", "huff_ncodes"])
    @pytest.mark.parametrize("value", [-1, -(2**62), 2**60])
    def test_hostile_counts_refused_before_allocating(self, name, value):
        sections = _sections(self._arrays(5))
        counts = np.frombuffer(sections[name], dtype=np.int64).copy()
        counts[2] = value
        sections[name] = counts.tobytes()
        with pytest.raises(ValueError):
            ctn.unpack_huffman(sections)
        del sections["huff_sync"]                     # and without the sync section
        with pytest.raises(ValueError):
            ctn.unpack_huffman(sections)

    def test_count_section_mismatch_refused(self):
        sections = _sections(self._arrays(6))
        sections["huff_ncodes"] = sections["huff_ncodes"][:-8]
        with pytest.raises(ValueError, match="mismatch"):
            ctn.unpack_huffman(sections)
        del sections["huff_ncodes"]
        with pytest.raises(ValueError, match="huff_ncodes"):
            ctn.unpack_huffman(sections)

    def test_lane_path_checks_the_stream_end(self):
        """A stream must end exactly on its nbits, and without sync offsets it
        is refused."""
        codec = HuffmanCodec.from_data(np.arange(64, dtype=np.uint32) % 5)
        enc = codec.encode(np.arange(64, dtype=np.uint32) % 5)
        padded = HuffmanEncoded(enc.payload + b"\x00", enc.nbits + 8, enc.nsymbols,
                                enc.table_symbols, enc.table_lengths, sync=enc.sync)
        with pytest.raises(CorruptFileError, match="truncated or corrupt"):
            codec.decode(padded)
        padded.sync = None
        with pytest.raises(CorruptFileError, match="no sync offsets"):
            codec.decode(padded)


class TestDeflateErrors:
    """A damaged deflate stream is a ValueError from every section reader."""

    JUNK = b"\x00not a deflate stream"

    def test_zlib_decompress(self):
        from repro.compress.lossless import zlib_decompress
        with pytest.raises(ValueError, match="deflate"):
            zlib_decompress(self.JUNK)

    @pytest.mark.parametrize("section", ["huff_payload", "huff_sync"])
    def test_unpack_huffman(self, section):
        sections = _sections([np.arange(300, dtype=np.uint32) % 2])
        sections[section] = self.JUNK
        with pytest.raises(ValueError):
            ctn.unpack_huffman(sections)

    def test_side_sections(self):
        for reader in (ctn.unpack_zarray, ctn.unpack_zbytes):
            with pytest.raises(ValueError):
                reader(self.JUNK)
        with pytest.raises(ValueError):
            ctn.unpack_huffman_individual(self.JUNK, [10])


# ----------------------------------------------------------------------
# several tables in one pass
# ----------------------------------------------------------------------
@st.composite
def table_mixes(draw):
    """1-8 ``(codec, encoded, symbols)`` parts of mixed LUT width ``k``: from a
    one-symbol table (k = 1) to the clamped 16-bit one, each part one stream or
    a container's worth, some streams (and whole parts) empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["single", "deep", "uniform", "skewed"]),
                              min_size=1, max_size=8)):
        sizes = draw(st.lists(SIZES, min_size=1, max_size=4))
        if kind == "single":
            arrays = [np.full(n, 7, dtype=np.uint32) for n in sizes]
        elif kind == "deep":
            arrays = [rng.integers(0, 30, size=n).astype(np.uint32) for n in sizes]
        elif kind == "uniform":
            arrays = [rng.integers(0, 200, size=n).astype(np.uint32) for n in sizes]
        else:
            arrays = [(1000 + np.round(rng.laplace(0, 2.0, size=n))).astype(np.uint32)
                      for n in sizes]
        codec = DEEP if kind == "deep" else HuffmanCodec.from_multiple(arrays)
        streams = [codec.encode(a) for a in arrays]
        encoded = streams[0] if len(streams) == 1 and draw(st.booleans()) else _batch(streams)
        parts.append((codec, encoded, np.concatenate(arrays)))
    return parts


def _lane_passes(monkeypatch):
    """Record the table count of every lane pass from here on."""
    passes = []
    real = HuffmanCodec._decode_lanes
    monkeypatch.setattr(
        HuffmanCodec, "_decode_lanes",
        staticmethod(lambda tables, *rest: passes.append(len(tables)) or real(tables, *rest)))
    return passes


def _mid_batch(seed=11):
    """Three healthy containers of different tables; tests damage the middle one."""
    rng = np.random.default_rng(seed)
    pairs = []
    for spread, sizes in ((40, (700, 300)), (2, (513, 1, 256)), (3000, (900,))):
        arrays = [rng.integers(0, spread, size=n).astype(np.uint32) for n in sizes]
        codec = HuffmanCodec.from_multiple(arrays)
        pairs.append((codec, _batch([codec.encode(a) for a in arrays])))
    return pairs


@pytest.mark.usefixtures("peek")
class TestManyTablesOnePass:
    @given(table_mixes())
    def test_one_multi_table_pass_equals_per_stream_decode(self, parts):
        pairs = [(codec, encoded) for codec, encoded, _ in parts]
        together = huffman.decode_many(pairs)
        alone = [codec.decode(encoded) for codec, encoded in pairs]
        assert len(together) == len(parts)
        for (_, _, symbols), got, ref in zip(parts, together, alone):
            assert got.dtype == ref.dtype == np.uint32
            np.testing.assert_array_equal(got, symbols)
            np.testing.assert_array_equal(ref, symbols)

    def test_the_widths_really_mix_and_the_pass_is_one(self, monkeypatch):
        rng = np.random.default_rng(5)
        wide = rng.integers(0, 30, size=2000).astype(np.uint32)
        mid = rng.integers(0, 200, size=333).astype(np.uint32)
        one = np.full(300, 4, dtype=np.uint32)
        parts = [(DEEP, wide), (HuffmanCodec.from_data(one), one),
                 (HuffmanCodec.from_data(mid), mid), (DEEP, wide[:0])]
        assert [codec._build_lut()[0] for codec, _ in parts[:3]] == [MAX_CODE_LEN, 1, 8]
        passes = _lane_passes(monkeypatch)
        got = huffman.decode_many([(codec, codec.encode(a)) for codec, a in parts])
        assert passes == [3]                          # the empty part brings no lanes
        for (_, array), back in zip(parts, got):
            np.testing.assert_array_equal(back, array)
        assert huffman.decode_many([]) == []

    @given(table_mixes(), st.data())
    def test_a_part_without_sync_fails_the_batch_before_any_decode(self, parts, data):
        victim = data.draw(st.integers(0, len(parts) - 1))
        codec, encoded, symbols = parts[victim]
        if symbols.size == 0:
            return                                    # nothing to decode either way
        encoded.sync = None
        with mock.patch.object(HuffmanCodec, "_decode_lanes",
                               side_effect=AssertionError("decoded before every part was "
                                                          "checked")), \
                pytest.raises(CorruptFileError, match="no sync offsets"):
            huffman.decode_many([(c, e) for c, e, _ in parts])

    def test_a_lane_ending_on_the_next_tables_first_byte(self):
        """Table A's last lane ends on a byte boundary, where table B's payload
        starts.  A's last code is short, so it starts in A's last byte and its
        peek reaches into B's bytes: it must read A's slots, B's first code B's."""
        rng = np.random.default_rng(3)
        n = 5 * SYNC_INTERVAL + 13                   # 333 symbols: a short last lane
        a = (1000 + np.round(rng.laplace(0, 8.0, size=n))).astype(np.uint32)
        a[-1] = 1000                                  # the commonest symbol: a short code
        first = HuffmanCodec.from_data(a)
        while first.expected_bits(a) % 8:
            a = np.append(a[1:], a[-1])              # one symbol moved: another bit count
            first = HuffmanCodec.from_data(a)
        end = first.encode(a)
        assert end.nbits == 8 * len(end.payload)
        assert int(first.lengths[first.symbols == 1000][0]) < 8 <= first._build_lut()[0]
        b = rng.integers(0, 200, size=300).astype(np.uint32)
        second = HuffmanCodec.from_data(b)
        got = huffman.decode_many([(first, end), (second, second.encode(b))])
        np.testing.assert_array_equal(got[0], a)
        np.testing.assert_array_equal(got[1], b)

    @pytest.mark.parametrize("damage", ["truncate", "unassigned", "sync", "nbits"])
    def test_damage_mid_batch_raises_what_it_raises_alone(self, damage):
        pairs = _mid_batch()
        codec, victim = pairs[1]
        if damage == "truncate":
            victim.payload = victim.payload[:-3]
        elif damage == "unassigned":
            # the 2-symbol table of the middle container is complete (codes 0, 1),
            # so point its lanes at a table that is not: one code, '0'
            codec = HuffmanCodec.from_data(np.zeros(4, dtype=np.uint32))
            victim.payload = b"\xff" * len(victim.payload)
            pairs[1] = (codec, victim)
        elif damage == "sync":
            victim.sync = victim.sync.copy()
            victim.sync[1] += 1                       # monotone, in range: lanes run, and miss
        else:
            victim.streams = victim.streams.copy()
            victim.streams[0, 0] -= 1
        with pytest.raises(ValueError) as alone:
            codec.decode(victim)
        with pytest.raises(ValueError) as together:
            huffman.decode_many(pairs)
        assert str(together.value) == str(alone.value)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [-1, -(2**62), 2**60])
    @pytest.mark.parametrize("with_sync", [True, False])
    def test_counts_checked_per_part_before_any_decode(self, column, value, with_sync):
        pairs = _mid_batch()
        _, victim = pairs[2]
        victim.streams = victim.streams.copy()
        victim.streams[0, column] = value
        victim.nbits, victim.nsymbols = (int(t) for t in victim.streams.sum(axis=0))
        if not with_sync:
            victim.sync = None
        refuse = AssertionError("decoded before every part was checked")
        with mock.patch.object(HuffmanCodec, "_decode_lanes", side_effect=refuse), \
                pytest.raises(ValueError):
            huffman.decode_many(pairs)

    def test_stream_counts_that_do_not_add_up_are_refused(self):
        codec, encoded = _mid_batch()[0]
        encoded.nsymbols += 1
        with pytest.raises(ValueError, match="add up"):
            codec.decode(encoded)


class TestSelectStreams:
    """``select_streams``: a kept stream decodes to exactly its own symbols."""

    @given(shared_table_mixes(), st.data())
    def test_kept_streams_decode_to_their_own_symbols(self, mix, data):
        codec, arrays = mix
        keep = np.asarray(data.draw(st.lists(st.booleans(), min_size=len(arrays),
                                             max_size=len(arrays))), dtype=bool)
        batch = _batch([codec.encode(a) for a in arrays])
        narrowed = codec.select_streams(batch, keep)
        kept = [a for a, k in zip(arrays, keep) if k]
        if not any(a.size for a in arrays):
            assert narrowed is batch            # no symbol anywhere: nothing to cut
            return
        assert narrowed.streams[:, 1].tolist() == [a.size for a in kept]
        assert narrowed.nsymbols == sum(a.size for a in kept)
        assert len(narrowed.payload) == int(((narrowed.streams[:, 0] + 7) >> 3).sum())
        assert np.array_equal(codec.decode(narrowed),
                              np.concatenate(kept + [np.zeros(0, np.uint32)]))
        batch.sync = None                       # a stream without its lanes
        with pytest.raises(CorruptFileError, match="no sync offsets"):
            codec.select_streams(batch, keep)

    def test_sync_that_is_not_one_run_per_stream_is_refused(self):
        rng = np.random.default_rng(5)
        arrays = [rng.integers(0, 9, size=n).astype(np.uint32) for n in (300, 20, 513)]
        codec = HuffmanCodec.from_multiple(arrays)
        batch = _batch([codec.encode(a) for a in arrays])
        batch.sync = batch.sync[:-1]
        with pytest.raises(CorruptFileError, match="sync offsets"):
            codec.select_streams(batch, np.array([True, False, True]))

    @pytest.mark.parametrize("row, value", [(0, -1), (1, 10 ** 12)])
    def test_counts_are_checked_before_anything_is_sliced(self, row, value):
        rng = np.random.default_rng(6)
        arrays = [rng.integers(0, 9, size=300).astype(np.uint32) for _ in range(3)]
        codec = HuffmanCodec.from_multiple(arrays)
        batch = _batch([codec.encode(a) for a in arrays])
        batch.streams[2, row] = value           # a stream that is not kept
        batch.nsymbols = int(batch.streams[:, 1].sum())
        with pytest.raises(ValueError, match="Huffman stream"):
            codec.select_streams(batch, np.array([True, False, False]))


@pytest.mark.usefixtures("peek")
class TestSelectLanes:
    @given(table_mixes(), st.data())
    def test_kept_lanes_decode_to_their_symbols_in_one_pass(self, parts, data):
        pairs, want = [], []
        for codec, encoded, symbols in parts:
            counts = [encoded.nsymbols] if encoded.streams is None else encoded.streams[:, 1]
            lanes = [lane for stream in np.split(symbols, np.cumsum(counts)[:-1])
                     for lane in np.split(stream, np.arange(SYNC_INTERVAL, stream.size,
                                                            SYNC_INTERVAL)) if lane.size]
            keep = np.asarray(sorted(data.draw(st.sets(st.integers(0, max(len(lanes) - 1, 0)),
                                                       max_size=len(lanes)))), dtype=np.int64)
            narrowed = codec.select_lanes(encoded, keep)
            assert narrowed.nsymbols == sum(lanes[k].size for k in keep)
            assert len(narrowed.payload) <= len(encoded.payload)
            assert narrowed.lanes.shape == (keep.size, 3)    # a stream of no symbol: none
            pairs.append((codec, narrowed))
            want.append(np.concatenate([np.zeros(0, np.uint32)] + [lanes[k] for k in keep]))
        got = huffman.decode_many(pairs)
        for back, symbols in zip(got, want):
            np.testing.assert_array_equal(back, symbols)

    def test_only_the_kept_lanes_bytes_are_cut(self):
        rng = np.random.default_rng(8)
        data = rng.integers(0, 200, size=10 * SYNC_INTERVAL - 5).astype(np.uint32)
        codec = HuffmanCodec.from_data(data)
        encoded = codec.encode(data)
        bounds = np.append(encoded.sync, encoded.nbits)
        narrowed = codec.select_lanes(encoded, np.array([2, 3, 9]))
        # lanes 2-3 are one run of bytes, lane 9 (the short last one) another
        assert len(narrowed.payload) == (((bounds[4] + 7) >> 3) - (bounds[2] >> 3)
                                         + ((bounds[10] + 7) >> 3) - (bounds[9] >> 3))
        np.testing.assert_array_equal(codec.decode(narrowed),
                                      data[np.r_[2 * SYNC_INTERVAL:4 * SYNC_INTERVAL,
                                                 9 * SYNC_INTERVAL:data.size]])
        # every lane must still end exactly at its end bit
        narrowed.lanes[0, 1] += 1
        with pytest.raises(ValueError, match="truncated or corrupt"):
            codec.decode(narrowed)

    def test_checks_stay_on_the_whole_stream(self):
        rng = np.random.default_rng(9)
        # four lanes, the last one short
        data = rng.integers(0, 9, size=3 * SYNC_INTERVAL + 33 * SYNC_INTERVAL // 64
                            ).astype(np.uint32)
        codec = HuffmanCodec.from_data(data)
        with pytest.raises(ValueError, match="ascending lanes"):
            codec.select_lanes(codec.encode(data), np.array([1, 4]))
        with pytest.raises(ValueError, match="ascending lanes"):
            codec.select_lanes(codec.encode(data), np.array([2, 1]))
        encoded = codec.encode(data)
        encoded.nbits = 8 * len(encoded.payload) + 1
        with pytest.raises(ValueError, match="truncated Huffman stream"):
            codec.select_lanes(encoded, np.array([0]))
        for sync in (None, np.array([0, 5, 3, 9])):         # no lane layout: corrupt
            encoded = codec.encode(data)
            encoded.sync = sync
            with pytest.raises(CorruptFileError, match="sync offsets"):
                codec.select_lanes(encoded, np.array([0]))
