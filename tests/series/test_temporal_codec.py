"""The temporal_delta codec: grids, key/delta streams, corrupt inputs."""

from unittest import mock

import numpy as np
import pytest

from repro.compress.container import pack_container, unpack_container
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import SYNC_INTERVAL, HuffmanCodec
from repro.compress.registry import available_codecs, create_codec
from repro.compress.temporal import MODE_DELTA, MODE_KEY, TemporalDeltaCodec, TemporalDeltaFilter
from repro.errors import CorruptFileError

EB = 1e-2


@pytest.fixture()
def codec():
    return TemporalDeltaCodec(ErrorBound.absolute(EB), offset=3.0)


def _delta(codec, data, ref_codes):
    """The series writer's delta stream: quantise, table against the
    reference's codes, pack.  Returns (payload, absolute codes)."""
    codes = codec.quantize(data, EB)
    return codec.pack(codec.candidate(codes, EB, ref_codes)), codes


def _resolve(payload, ref_codes=None):
    """The series reader's chain step: unpack, add a delta onto its
    reference's codes, reconstruct on the stream's grid."""
    ((mode, codes, meta),) = TemporalDeltaCodec.unpack_codes_many([payload])
    if mode == MODE_DELTA:
        codes = ref_codes + codes
    return TemporalDeltaCodec.grid_values(codes, meta["eb"], meta["offset"]), codes


@pytest.fixture()
def data():
    rng = np.random.default_rng(11)
    return 3.0 + np.cumsum(rng.normal(size=4096)) * 0.05


class TestRegistry:
    def test_registered(self):
        assert "temporal_delta" in available_codecs()

    def test_create_filters_options(self):
        codec = create_codec("temporal_delta", 1e-3, mode="abs", offset=2.5,
                             block_size=99)  # block_size silently dropped
        assert isinstance(codec, TemporalDeltaCodec)
        assert codec.offset == 2.5


class TestKeyStreams:
    def test_round_trip_and_bound(self, codec, data):
        payload, codes, recon = codec.encode_key(data)
        assert np.abs(recon - data).max() <= 1e-2 * (1 + 1e-12)
        values, back_codes = codec.decode_key(payload)
        assert np.array_equal(values, recon)
        assert np.array_equal(back_codes, codes)
        assert codec.unpack_codes(payload)[0] == MODE_KEY

    def test_compressor_interface(self, data):
        codec = create_codec("temporal_delta", 1e-3)
        buffer, recon = codec.compress_with_reconstruction(data.reshape(64, 64))
        assert buffer.codec == "temporal_delta"
        assert np.array_equal(codec.decompress(buffer), recon)
        assert buffer.compression_ratio > 2

    def test_constant_field(self, codec):
        payload, codes, recon = codec.encode_key(np.full(100, 3.0))
        assert np.all(codes == 0)
        values, _ = codec.decode_key(payload)
        assert np.allclose(values, 3.0)


class TestDecodePath:
    """Streams record their sync interval, so they take the lane decoder."""

    @staticmethod
    def _counted(name):
        return mock.patch.object(HuffmanCodec, name, autospec=True,
                                 side_effect=getattr(HuffmanCodec, name))

    def test_new_streams_decode_through_the_lanes(self, codec, data):
        payload, codes, _ = codec.encode_key(data)
        assert unpack_container(payload).meta["sync_interval"] == SYNC_INTERVAL
        with self._counted("_decode_lanes") as lanes, self._counted("_decode_scalar") as scalar:
            _, back = codec.decode_key(payload)
        assert lanes.call_count == 1 and scalar.call_count == 0
        assert np.array_equal(back, codes)

    def test_streams_without_the_key_are_corrupt(self, codec, data):
        """No writer omits the sync interval: a stream without it is damaged,
        refused before any decode, never read through the scalar loop."""
        payload, _, _ = codec.encode_key(data)
        container = unpack_container(payload)
        meta = {k: v for k, v in container.meta.items() if k != "sync_interval"}
        damaged = pack_container(container.codec, meta, container.sections)
        with self._counted("_decode_lanes") as lanes, self._counted("_decode_scalar") as scalar:
            with pytest.raises(CorruptFileError, match="sync_interval"):
                codec.decode_key(damaged)
        assert lanes.call_count == 0 and scalar.call_count == 0


class TestDeltaStreams:
    def test_reconstruction_identical_to_key(self, codec, data):
        """A delta stream resolved onto its reference is the key encoding of
        the same data, bit for bit."""
        _, ref_codes, _ = codec.encode_key(data)
        drifted = data + 0.03 * np.sin(np.arange(data.size) / 50.0)
        delta_payload, codes = _delta(codec, drifted, ref_codes)
        key_payload, key_codes, key_recon = codec.encode_key(drifted)
        assert np.array_equal(codes, key_codes)
        for payload in (delta_payload, key_payload):
            values, back = _resolve(payload, ref_codes)
            assert np.array_equal(values, key_recon)
            assert np.array_equal(back, key_codes)
        assert codec.unpack_codes(delta_payload)[0] == MODE_DELTA

    def test_delta_smaller_for_smooth_drift(self, codec, data):
        _, ref_codes, _ = codec.encode_key(data)
        drifted = data + 0.02
        delta_payload, _ = _delta(codec, drifted, ref_codes)
        key_payload, _, _ = codec.encode_key(drifted)
        assert len(delta_payload) < len(key_payload)

    def test_delta_standalone_refused(self, codec, data):
        _, ref_codes, _ = codec.encode_key(data)
        payload, _ = _delta(codec, data, ref_codes)
        with pytest.raises(ValueError, match="open_series"):
            codec.decode_key(payload)

    def test_mismatched_reference_sizes(self, codec, data):
        _, ref_codes, _ = codec.encode_key(data)
        with pytest.raises(ValueError, match="identical layout"):
            _delta(codec, data[:-1], ref_codes)


class TestCorruptStreams:
    def test_wrong_codec_stream(self, codec, data):
        other = create_codec("sz_lr", 1e-3)
        buffer = other.compress(data)
        with pytest.raises(ValueError):
            codec.decode_key(buffer.payload)

    def test_truncated_stream(self, codec, data):
        payload, _, _ = codec.encode_key(data)
        with pytest.raises(ValueError):
            codec.decode_key(payload[: len(payload) // 2])

    def test_garbage(self, codec):
        with pytest.raises(ValueError):
            codec.decode_key(b"not a container at all")

    @pytest.mark.parametrize("dropped", ["eb", "offset", "min_code", "n", "sync_interval",
                                         "mode", "huff_table", "huff_payload",
                                         "huff_nbits", "huff_ncodes"])
    def test_stream_missing_a_piece_names_it(self, codec, data, dropped):
        payload, _, _ = codec.encode_key(data)
        cont = unpack_container(payload)
        cont.meta.pop(dropped, None)
        cont.sections.pop(dropped, None)
        damaged = pack_container(cont.codec, cont.meta, cont.sections)
        for decode in (codec.decode_key, codec.decompress,
                       lambda p: TemporalDeltaCodec.unpack_codes_many([p])):
            with pytest.raises(CorruptFileError, match=dropped):
                decode(damaged)

    def test_unpack_codes_many_equals_one_at_a_time(self, codec, data):
        key, codes, _ = codec.encode_key(data)
        delta, _ = _delta(codec, data + 0.3, codes)
        empty, _, _ = codec.encode_key(data[:0])
        payloads = [key, delta, empty, key]
        together = TemporalDeltaCodec.unpack_codes_many(payloads)
        assert TemporalDeltaCodec.unpack_codes_many([]) == []
        for payload, (mode, got, meta) in zip(payloads, together):
            want_mode, want, want_meta = TemporalDeltaCodec.unpack_codes(payload)
            assert (mode, meta) == (want_mode, want_meta)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sync", ["lane layout", "no sync section"])
    def test_lanes_decode_to_the_same_codes_of_the_whole(self, codec, data, sync):
        key, codes, _ = codec.encode_key(data[:4000])
        delta, _ = _delta(codec, data[:4000] + 0.3, codes)
        if sync == "no sync section":           # the whole stream is decoded, then cut
            cont = unpack_container(key)
            del cont.sections["huff_sync"]
            key = pack_container(cont.codec, cont.meta, cont.sections)
        lanes = [np.array([0, 3, 4, 15]), None, np.array([15]), np.zeros(0, dtype=np.int64)]
        payloads = [key, delta, delta, key]
        narrowed = TemporalDeltaCodec.unpack_codes_many(payloads, lanes)
        for payload, keep, (mode, got, meta) in zip(payloads, lanes, narrowed):
            want_mode, want, want_meta = TemporalDeltaCodec.unpack_codes(payload)
            if keep is not None:
                want = want[TemporalDeltaCodec.lane_cells(keep, want.size)]
            assert (mode, meta) == (want_mode, want_meta)
            np.testing.assert_array_equal(got, want)
        assert narrowed[2][1].size == 4000 - 15 * SYNC_INTERVAL
        with pytest.raises(ValueError, match="ascending lanes"):
            TemporalDeltaCodec.unpack_codes_many([delta], [np.array([16])])

    def test_a_stream_whose_code_count_contradicts_its_meta_is_refused(self, codec, data):
        cont = unpack_container(codec.encode_key(data)[0])
        cont.meta["n"] += 1
        damaged = pack_container(cont.codec, cont.meta, cont.sections)
        for lanes in (None, [np.array([0])]):
            with pytest.raises(ValueError, match="codes for"):
                TemporalDeltaCodec.unpack_codes_many([damaged], lanes)


class TestFilter:
    def test_encode_decode_with_padding(self, codec, data):
        """The padding tail is neither coded nor decoded: a chunk comes back
        as its valid prefix."""
        filt = TemporalDeltaFilter(codec)
        chunk = np.concatenate([data, np.zeros(128)])
        payload = filt.encode(chunk, actual_elements=data.size)
        back = filt.decode(payload, chunk.size)
        assert back.size == data.size
        assert np.abs(back - data).max() <= 1e-2 * (1 + 1e-12)

    def test_oversized_payload_rejected(self, codec, data):
        filt = TemporalDeltaFilter(codec)
        payload = filt.encode(data, actual_elements=data.size)
        with pytest.raises(ValueError, match="hold"):
            filt.decode(payload, data.size // 2)

    def test_bad_actual_elements(self, codec, data):
        filt = TemporalDeltaFilter(codec)
        with pytest.raises(ValueError, match="out of range"):
            filt.encode(data, actual_elements=data.size + 1)
