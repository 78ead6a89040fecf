"""The unified codec container and the codec registry."""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import container as ctn
from repro.compress import registry
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.compress.sz1d import SZ1DCompressor
from repro.compress.temporal import TemporalDeltaCodec
from repro.errors import CorruptFileError
from repro.testing import make_smooth

ALL_CODECS = ["sz_lr", "sz_interp", "sz_1d"]


def _codec(name):
    return registry.create_codec(name, ErrorBound.relative(1e-3))


class TestStoredTables:
    @pytest.mark.parametrize("lengths", [[1, 1, 30], [1, 2, 2, 31]])
    def test_a_table_that_is_not_a_prefix_code_is_corrupt(self, lengths):
        """Over Kraft's bound by 2**-30 or less: the record is corrupt."""
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

    @pytest.mark.parametrize("alphabet, form", [(2, "huff_payload"), (3, "huff_payload"),
                                                 (4, "huff_raw_crc"), (50, "huff_raw_crc")])
    def test_codes_are_raw_from_two_bits_a_symbol(self, alphabet, form):
        """One codes section, by the table's bits a symbol: 1 and 1.67 deflate,
        exactly 2 (four equal symbols) and more are stored raw."""
        arrays = [np.arange(n, dtype=np.uint32) % alphabet for n in (1200, 5, 0)]
        codec = HuffmanCodec.from_multiple(arrays)
        sections = ctn.pack_huffman([codec.encode(a) for a in arrays])
        assert {"huff_payload", "huff_raw_crc"} & set(sections) == {form}
        for a, b in zip(arrays, ctn.unpack_huffman(sections)):
            np.testing.assert_array_equal(a, b)

    def test_zarray_roundtrip(self):
        arr = np.linspace(0, 1, 37).reshape(1, 37)
        np.testing.assert_array_equal(ctn.unpack_zarray(ctn.pack_zarray(arr)), arr)


def _raw_streams():
    """A ``temporal_delta`` and an ``sz_1d`` stream of codes stored raw, each
    with the decode that must refuse it once damaged."""
    data = np.cumsum(np.random.default_rng(5).normal(size=3000))
    key, _, _ = TemporalDeltaCodec(ErrorBound.absolute(1e-3)).encode_key(data)
    sz1d = SZ1DCompressor(ErrorBound.absolute(1e-3))
    return [(key, lambda p: TemporalDeltaCodec.unpack_codes_many([p])),
            (sz1d.compress_with_reconstruction(data)[0].payload, sz1d.decompress)]


RAW_STREAMS = _raw_streams()


class TestRawCodesSection:
    """Codes stored raw sit behind a CRC32: any damage to them, and a container
    holding both codes sections or neither, is a CorruptFileError."""

    @staticmethod
    def _damaged(payload, change):
        cont = ctn.unpack_container(payload)
        assert "huff_raw_crc" in cont.sections and "huff_payload" not in cont.sections
        change(cont.sections)
        return ctn.pack_container(cont.codec, cont.meta, cont.sections)

    @staticmethod
    def _refused(payload, decode, match=None):
        with pytest.raises(CorruptFileError, match=match):
            decode(payload)

    @pytest.mark.parametrize("which", range(len(RAW_STREAMS)))
    def test_both_sections(self, which):
        payload, decode = RAW_STREAMS[which]

        def both(sections):
            sections["huff_payload"] = zlib.compress(sections["huff_raw_crc"][4:])
        self._refused(self._damaged(payload, both), decode, "both")

    @pytest.mark.parametrize("which", range(len(RAW_STREAMS)))
    def test_neither_section(self, which):
        payload, decode = RAW_STREAMS[which]
        self._refused(self._damaged(payload, lambda s: s.pop("huff_raw_crc")), decode,
                      "neither")

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, len(RAW_STREAMS) - 1), keep=st.integers(0, 10**6))
    def test_truncated_raw_section(self, which, keep):
        payload, decode = RAW_STREAMS[which]

        def cut(sections):
            raw = sections["huff_raw_crc"]
            sections["huff_raw_crc"] = raw[:keep % len(raw)]
        self._refused(self._damaged(payload, cut), decode)

    @settings(max_examples=200, deadline=None)
    @given(which=st.integers(0, len(RAW_STREAMS) - 1), bit=st.integers(0, 10**7))
    def test_one_flipped_bit_in_the_raw_section(self, which, bit):
        payload, decode = RAW_STREAMS[which]

        def flip(sections):
            raw = bytearray(sections["huff_raw_crc"])
            at = bit % (8 * len(raw))
            raw[at // 8] ^= 0x80 >> (at % 8)
            sections["huff_raw_crc"] = bytes(raw)
        self._refused(self._damaged(payload, flip), decode, "checksum")


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
