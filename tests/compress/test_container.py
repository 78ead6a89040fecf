"""The unified codec container and the codec registry."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import container as ctn
from repro.compress import registry
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.compress.temporal import TemporalDeltaCodec
from repro.errors import CorruptFileError
from repro.testing import make_smooth

ALL_CODECS = ["sz_lr", "sz_interp", "sz_1d"]


def _codec(name):
    return registry.create_codec(name, ErrorBound.relative(1e-3))


class TestStoredTables:
    @pytest.mark.parametrize("lengths", [[1, 1, 16], [1, 2, 2, 16]])
    def test_a_table_that_is_not_a_prefix_code_is_corrupt(self, lengths):
        """Over Kraft's bound by 2**-16, the least a 16-bit table can be: the
        record is corrupt."""
        symbols = np.arange(1, len(lengths) + 1, dtype=np.uint32)
        stream = HuffmanCodec.from_data(symbols).encode(symbols)
        stored = SimpleNamespace(symbols=symbols, lengths=np.asarray(lengths, dtype=np.uint8))
        record = ctn.pack_record([symbols.shape], [stream], [stored], [])
        with pytest.raises(CorruptFileError, match="Kraft"):
            ctn.parse_record(record, [symbols.shape], [symbols.size], True, "chunk 0")


class TestContainerFraming:
    def test_pack_unpack_roundtrip(self):
        payload = ctn.pack_container("demo", {"alpha": 1.5},
                                     {"body": b"abc", "side": b""})
        cont = ctn.unpack_container(payload)
        assert cont.codec == "demo"
        assert cont.meta["alpha"] == 1.5
        assert cont.sections == {"body": b"abc", "side": b""}

    def test_meta_is_reserved(self):
        with pytest.raises(ValueError):
            ctn.pack_container("demo", {}, {"meta": b"x"})

    def test_wrong_codec_rejected(self):
        payload = ctn.pack_container("demo", {}, {"body": b"abc"})
        with pytest.raises(ValueError, match="codec"):
            ctn.unpack_container(payload, expect_codec="other")

    def test_bad_magic_rejected(self):
        payload = ctn.pack_container("demo", {}, {"body": b"abc"})
        with pytest.raises(ValueError, match="magic"):
            ctn.unpack_container(b"XXXX" + payload[4:])

    @pytest.mark.parametrize("cut", [0, 3, 7, -11, -1])
    def test_truncation_rejected(self, cut):
        payload = ctn.pack_container("demo", {}, {"body": b"a" * 64})
        with pytest.raises(ValueError):
            ctn.unpack_container(payload[:cut])

    def test_trailing_bytes_rejected(self):
        payload = ctn.pack_container("demo", {}, {"body": b"abc"})
        with pytest.raises(ValueError, match="trailing"):
            ctn.unpack_container(payload + b"zz")

    def test_corrupt_meta_rejected(self):
        from repro.compress.lossless import pack_sections
        with pytest.raises(ValueError, match="meta"):
            ctn.unpack_container(pack_sections({"meta": b"{not json"}))
        with pytest.raises(ValueError, match="meta"):
            ctn.unpack_container(pack_sections({"body": b"no meta here"}))


class TestHuffmanSections:
    def test_multi_stream_roundtrip(self):
        rng = np.random.default_rng(3)
        arrays = [rng.integers(0, 50, size=n).astype(np.uint32)
                  for n in (1000, 1, 700)]
        codec = HuffmanCodec.from_multiple(arrays)
        sections = ctn.pack_huffman([codec.encode(a) for a in arrays])
        back = ctn.unpack_huffman(sections)
        assert len(back) == len(arrays)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_individual_roundtrip(self):
        rng = np.random.default_rng(4)
        arrays = [rng.integers(0, 9, size=n).astype(np.uint32) for n in (300, 17)]
        streams = [HuffmanCodec.from_data(a).encode(a) for a in arrays]
        blob = ctn.pack_huffman_individual(streams)
        back = ctn.unpack_huffman_individual(blob, [a.size for a in arrays])
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_pack_huffman_deflates_its_codes_at_any_width(self):
        """A standalone ``sz_1d`` buffer and the ``amrex_1d`` chunks keep SZ's
        zlib back-end: one deflated codes section, whatever the bits a symbol."""
        for alphabet in (2, 50):
            arrays = [np.arange(n, dtype=np.uint32) % alphabet for n in (1200, 5, 0)]
            codec = HuffmanCodec.from_multiple(arrays)
            sections = ctn.pack_huffman([codec.encode(a) for a in arrays])
            assert set(sections) == {"huff_table", "huff_payload", "huff_nbits",
                                     "huff_ncodes", "huff_sync"}
            for a, b in zip(arrays, ctn.unpack_huffman(sections)):
                np.testing.assert_array_equal(a, b)

    def test_zarray_roundtrip(self):
        arr = np.linspace(0, 1, 37).reshape(1, 37)
        np.testing.assert_array_equal(ctn.unpack_zarray(ctn.pack_zarray(arr)), arr)


def _form(record):
    """A record's codes form byte (after its CRC32): 0 deflated, 1 raw."""
    return record[4]


class TestRecordCodesForm:
    @pytest.mark.parametrize("alphabet, form", [(2, 0), (3, 0), (4, 1), (50, 1)])
    def test_codes_are_raw_from_two_bits_a_symbol(self, alphabet, form):
        """One flag, by the table's bits a symbol: 1 and 1.67 deflate, exactly
        2 (four equal symbols) and more are stored raw."""
        arrays = [np.arange(n, dtype=np.uint32) % alphabet for n in (1200, 5, 0)]
        codec = HuffmanCodec.from_multiple(arrays)
        shapes = [a.shape for a in arrays]
        record = ctn.pack_record(shapes, [codec.encode(a) for a in arrays], [codec], [])
        assert _form(record) == form
        pairs, side = ctn.parse_record(record, shapes, [a.size for a in arrays], True, "r")
        side.done()
        for a, b in zip(arrays, ctn.decode_huffman([pairs])[0]):
            np.testing.assert_array_equal(a, b)

    def test_deflate_always_deflates_wide_codes(self):
        symbols = np.arange(4000, dtype=np.uint32) % 50
        codec = HuffmanCodec.from_data(symbols)
        record = ctn.pack_record([symbols.shape], [codec.encode(symbols)], [codec], [],
                                 deflate_always=True)
        assert _form(record) == 0

    def test_codes_deflate_cannot_shrink_stay_raw(self):
        """Under the line deflate is tried, and kept only where it shrinks the
        codes: a few bytes of them are stored as they are."""
        symbols = np.asarray([0, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint32)
        codec = HuffmanCodec.from_data(symbols)
        for deflate_always in (False, True):
            record = ctn.pack_record([symbols.shape], [codec.encode(symbols)], [codec], [],
                                     deflate_always=deflate_always)
            assert _form(record) == 1
            pairs, side = ctn.parse_record(record, [symbols.shape], [8], True, "r")
            np.testing.assert_array_equal(ctn.decode_huffman([pairs])[0][0], symbols)

    def test_codes_that_inflate_past_two_bytes_a_symbol_are_refused(self):
        """A record under a valid CRC whose deflated codes expand to 64 MB is
        refused while inflating: no code is longer than 16 bits, so the codes
        of ``n`` symbols take at most ``2 n`` bytes, and no more is inflated."""
        import tracemalloc
        import zlib

        shapes, n = [(1000,)], 1000
        deflater, mib = zlib.compressobj(9), bytes(1 << 20)
        codes = b"".join(deflater.compress(mib) for _ in range(64)) + deflater.flush()
        body = struct.pack("<BIQ", 0, 1, len(codes)) + codes + zlib.compress(b"")
        record = struct.pack("<I", zlib.crc32(body, ctn.shapes_seed(shapes))) + body
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match="inflate past 2000 bytes"):
                ctn.parse_record(record, shapes, [n], True, "r")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak

    def test_an_sz_lr_side_blob_that_inflates_past_its_shapes_is_refused(self):
        """The same 64 MB bomb as an SZ_L/R record's side blob: its tables span
        at most 2 radius codes and its own arrays hold a few per cell, so the
        shapes bound the blob and no more of it is inflated."""
        import tracemalloc
        import zlib

        from repro.compress.sz_lr import _RECIPE, SZLRCompressor

        comp = SZLRCompressor(ErrorBound.absolute(1e-3), block_size=4)
        recipe, shapes = comp.recipe(1e-3), [(10, 10, 10)]
        deflater, mib = zlib.compressobj(9), bytes(1 << 20)
        blob = b"".join(deflater.compress(mib) for _ in range(64)) + deflater.flush()
        body = struct.pack("<BIQ", 1, 1, 0) + blob
        context = ctn.recipe_context(recipe, _RECIPE, "sz_lr recipe")
        record = struct.pack("<I", zlib.crc32(body, ctn.shapes_seed(shapes, context))) + body
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFileError, match="side streams inflate past"):
                comp.parse_record(record, shapes, recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak


def _raw_records():
    """A ``temporal_delta`` and an ``sz_lr`` record of codes stored raw, each
    with the decode that must refuse it once damaged."""
    from repro.compress.sz_lr import SZLRCompressor

    data = np.cumsum(np.random.default_rng(5).normal(size=3000))
    codec = TemporalDeltaCodec(ErrorBound.absolute(1e-3))
    codes = codec.quantize(data, 1e-3)
    recipe = codec.recipe(1e-3, stream="key")
    sz_lr = SZLRCompressor(ErrorBound.absolute(1e-3), block_size=4)
    cont = ctn.unpack_container(sz_lr.compress_many([data.reshape(10, 300)]).payload)

    def sz_lr_decode(record):
        return sz_lr.decompress_many(ctn.pack_container(cont.codec, cont.meta,
                                                        {"record": record}))
    return [(codec.pack(codec.candidate(codes), recipe),
             lambda r: TemporalDeltaCodec.unpack_codes_many([r], [recipe], [codes.size])),
            (cont.sections["record"], sz_lr_decode)]


RAW_RECORDS = _raw_records()


class TestRawCodesInARecord:
    """Codes stored raw sit under the record's CRC32 like every other byte of
    it: any damage to them, to their form flag, or a cut record is a
    CorruptFileError."""

    @pytest.mark.parametrize("which", range(len(RAW_RECORDS)))
    def test_the_records_store_their_codes_raw(self, which):
        record, decode = RAW_RECORDS[which]
        assert _form(record) == 1
        decode(record)

    @pytest.mark.parametrize("which", range(len(RAW_RECORDS)))
    def test_a_flipped_form_flag(self, which):
        record, decode = RAW_RECORDS[which]
        with pytest.raises(CorruptFileError, match="checksum"):
            decode(record[:4] + b"\x00" + record[5:])

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, len(RAW_RECORDS) - 1), keep=st.integers(0, 10**6))
    def test_truncated_record(self, which, keep):
        record, decode = RAW_RECORDS[which]
        with pytest.raises(CorruptFileError):
            decode(record[:keep % len(record)])

    @settings(max_examples=200, deadline=None)
    @given(which=st.integers(0, len(RAW_RECORDS) - 1), bit=st.integers(0, 10**7))
    def test_one_flipped_bit_in_the_raw_codes(self, which, bit):
        record, decode = RAW_RECORDS[which]
        (ncodes,) = struct.unpack_from("<Q", record, 9)
        at = 17 * 8 + bit % (8 * ncodes)
        damaged = bytearray(record)
        damaged[at // 8] ^= 0x80 >> (at % 8)
        with pytest.raises(CorruptFileError, match="checksum"):
            decode(bytes(damaged))


class TestCodecsThroughContainer:
    """Every codec serializes through the one shared container."""

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_roundtrip_and_bound(self, name):
        data = make_smooth((20, 18, 16), noise=0.05, seed=9)
        comp = _codec(name)
        buffer, recon = comp.compress_with_reconstruction(data)
        back = comp.decompress(buffer)
        np.testing.assert_array_equal(back, recon)
        eb = 1e-3 * (data.max() - data.min())
        assert np.max(np.abs(back - data)) <= eb * (1 + 1e-9)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_stream_is_tagged_with_codec(self, name):
        data = make_smooth((12, 12, 12), seed=5)
        buffer = _codec(name).compress(data)
        assert ctn.unpack_container(buffer.payload).codec == name

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_wrong_decompressor_rejected(self, name):
        data = make_smooth((12, 12, 12), seed=6)
        buffer = _codec(name).compress(data)
        other = "sz_lr" if name != "sz_lr" else "sz_interp"
        with pytest.raises(ValueError, match="codec"):
            _codec(other).decompress(buffer.payload)

    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("cut", [5, 40, -7])
    def test_truncated_stream_rejected(self, name, cut):
        data = make_smooth((12, 12, 12), seed=7)
        buffer = _codec(name).compress(data)
        with pytest.raises(ValueError):
            _codec(name).decompress(buffer.payload[:cut])

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_bad_magic_stream_rejected(self, name):
        data = make_smooth((12, 12, 12), seed=8)
        buffer = _codec(name).compress(data)
        with pytest.raises(ValueError):
            _codec(name).decompress(b"JUNK" + buffer.payload[4:])


class TestRegistry:
    def test_builtins_registered(self):
        for name in ALL_CODECS:
            assert registry.is_registered(name)
        # the paper's codecs plus the series' temporal delta codec, nothing else
        assert registry.available_codecs() == tuple(sorted(ALL_CODECS + ["temporal_delta"]))
        assert not registry.is_registered("zfp_like")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="sz_lr"):
            registry.resolve_codec("lz4")

    def test_a_codec_has_one_name(self):
        """``sz1d`` was a second spelling of ``sz_1d``; no stored file holds it."""
        assert not registry.is_registered("sz1d")
        with pytest.raises(ValueError, match="registered codecs") as exc:
            registry.create_codec("sz1d", 1e-3)
        assert all(name in str(exc.value) for name in registry.available_codecs())

    def test_create_filters_unknown_options(self):
        # option meant for another codec is silently dropped, not an error
        comp = registry.create_codec("sz_1d", 1e-3, anchor_stride=8, radius=64)
        assert comp.radius == 64

    def test_duplicate_registration_rejected(self):
        spec = registry.resolve_codec("sz_lr")
        with pytest.raises(ValueError):
            registry.register_codec(spec)

    def test_supports_many_capability(self):
        assert registry.resolve_codec("sz_lr").supports_many
        assert not registry.resolve_codec("sz_interp").supports_many
