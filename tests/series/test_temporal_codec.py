"""The temporal_delta codec: grids, key/delta records, corrupt inputs."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.compress.container import pack_container, unpack_container
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import MAX_CODE_LEN, SYNC_INTERVAL, HuffmanCodec
from repro.compress.registry import available_codecs, create_codec
from repro.compress.temporal import MODE_DELTA, MODE_KEY, TemporalDeltaCodec, TemporalDeltaFilter
from repro.errors import CorruptFileError

EB = 1e-2


@pytest.fixture()
def codec():
    return TemporalDeltaCodec(ErrorBound.absolute(EB), offset=3.0)


def _record(codec, data, ref_codes=None):
    """The series writer's record: quantise, table (against the reference's
    codes for a delta), pack under the dataset's recipe.  Returns (record,
    recipe, absolute codes)."""
    codes = codec.quantize(data, EB)
    recipe = codec.recipe(EB, stream=MODE_KEY if ref_codes is None else MODE_DELTA)
    return codec.pack(codec.candidate(codes, ref_codes), recipe), recipe, codes


def _codes(record, recipe, n, lanes=None):
    return TemporalDeltaCodec.unpack_codes_many([record], [recipe], [n], lanes)[0]


def _resolve(record, recipe, n, ref_codes=None):
    """The series reader's chain step: unpack, add a delta onto its
    reference's codes, reconstruct on the recipe's grid."""
    mode, eb, offset = TemporalDeltaCodec.grid_of(recipe)
    codes = _codes(record, recipe, n)
    if mode == MODE_DELTA:
        codes = ref_codes + codes
    return TemporalDeltaCodec.grid_values(codes, eb, offset), codes


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
        record, recipe, codes = _record(codec, data)
        recon = TemporalDeltaCodec.grid_values(codes, EB, codec.offset)
        assert np.abs(recon - data).max() <= 1e-2 * (1 + 1e-12)
        values, back_codes = _resolve(record, recipe, data.size)
        assert np.array_equal(values, recon)
        assert np.array_equal(back_codes, codes)
        assert recipe == {"codec": "temporal_delta", "stream": MODE_KEY, "abs_eb": EB,
                          "dtype": "float64", "offset": 3.0}

    def test_compressor_interface(self, data):
        codec = create_codec("temporal_delta", 1e-3)
        buffer, recon = codec.compress_with_reconstruction(data.reshape(64, 64))
        assert buffer.codec == "temporal_delta"
        assert np.array_equal(codec.decompress(buffer), recon)
        assert np.array_equal(codec.decompress(buffer.payload), recon)
        assert buffer.compression_ratio > 2
        cont = unpack_container(buffer.payload)
        assert set(cont.sections) == {"record"} and cont.meta["shapes"] == [[64, 64]]

    def test_constant_field(self, codec):
        record, recipe, codes = _record(codec, np.full(100, 3.0))
        assert np.all(codes == 0)
        values, _ = _resolve(record, recipe, 100)
        assert np.allclose(values, 3.0)


class TestDecodePath:
    """Records store their sync offsets, so they take the lane decoder."""

    @staticmethod
    def _counted(name):
        return mock.patch.object(HuffmanCodec, name, autospec=True,
                                 side_effect=getattr(HuffmanCodec, name))

    def test_records_decode_through_the_lanes(self, codec, data):
        record, recipe, codes = _record(codec, data)
        with self._counted("_decode_lanes") as lanes, self._counted("_decode_scalar") as scalar:
            back = _codes(record, recipe, data.size)
        assert lanes.call_count == 1 and scalar.call_count == 0
        assert np.array_equal(back, codes)

    def test_a_record_read_against_another_count_is_corrupt(self, codec, data):
        """The code count comes from the chunk index and seeds the checksum:
        a record read against a count it was not written for is refused
        before any decode, never read through the scalar loop."""
        record, recipe, _ = _record(codec, data)
        with self._counted("_decode_lanes") as lanes, self._counted("_decode_scalar") as scalar:
            for n in (data.size - 1, data.size + 1, 0):
                with pytest.raises(CorruptFileError, match="checksum"):
                    _codes(record, recipe, n)
        assert lanes.call_count == 0 and scalar.call_count == 0


class TestWideAlphabet:
    def test_codes_past_16_bits_decode_whole_and_by_lane(self, codec):
        """Above 65,536 distinct codes ``_limit_lengths`` widens the table past
        16 bits: the record has no lane layout, so the scalar loop decodes it
        whole and the wanted lanes are cut from it (no mock in the way)."""
        n = 70_000
        codes = np.random.default_rng(5).permutation(n).astype(np.int64)
        record, recipe, written = _record(codec, TemporalDeltaCodec.grid_values(
            codes, EB, codec.offset))
        assert np.array_equal(written, codes)
        assert int(codec.candidate(written).table.lengths.max()) > MAX_CODE_LEN
        lanes = np.asarray([0, 5, n // SYNC_INTERVAL])               # the last one short
        with TestDecodePath._counted("_decode_scalar") as scalar:
            whole = _codes(record, recipe, n)
            some = _codes(record, recipe, n, [lanes])
        assert scalar.call_count == 2
        assert np.array_equal(whole, codes)
        assert np.array_equal(some, codes[TemporalDeltaCodec.lane_cells(lanes, n)])


class TestDeltaStreams:
    def test_reconstruction_identical_to_key(self, codec, data):
        """A delta record resolved onto its reference is the key encoding of
        the same data, bit for bit."""
        _, _, ref_codes = _record(codec, data)
        drifted = data + 0.03 * np.sin(np.arange(data.size) / 50.0)
        delta, delta_recipe, codes = _record(codec, drifted, ref_codes)
        key, key_recipe, key_codes = _record(codec, drifted)
        key_recon = TemporalDeltaCodec.grid_values(key_codes, EB, codec.offset)
        assert np.array_equal(codes, key_codes)
        for record, recipe in ((delta, delta_recipe), (key, key_recipe)):
            values, back = _resolve(record, recipe, data.size, ref_codes)
            assert np.array_equal(values, key_recon)
            assert np.array_equal(back, key_codes)
        assert delta_recipe["stream"] == MODE_DELTA

    def test_delta_smaller_for_smooth_drift(self, codec, data):
        _, _, ref_codes = _record(codec, data)
        drifted = data + 0.02
        delta, _, _ = _record(codec, drifted, ref_codes)
        key, _, _ = _record(codec, drifted)
        assert len(delta) < len(key)

    def test_a_delta_dataset_is_refused_standalone(self, codec, data):
        _, _, ref_codes = _record(codec, data)
        record, recipe, _ = _record(codec, data, ref_codes)
        with pytest.raises(ValueError, match="open_series"):
            TemporalDeltaFilter(recipe).decode_blocks([record], data.size, [[(0, data.size)]],
                                                      [[0]], None, [data.size])
        buffer, _ = codec.compress_with_reconstruction(data)
        cont = unpack_container(buffer.payload)
        # a buffer can only hold a key record, whose checksum covers its
        # recipe: one relabelled delta is a damaged buffer
        relabelled = pack_container(cont.codec, dict(cont.meta, stream=MODE_DELTA),
                                    cont.sections)
        with pytest.raises(CorruptFileError, match="checksum"):
            codec.decompress(relabelled)

    def test_mismatched_reference_sizes(self, codec, data):
        _, _, ref_codes = _record(codec, data)
        with pytest.raises(ValueError, match="identical layout"):
            _record(codec, data[:-1], ref_codes)


class TestCorruptStreams:
    def test_wrong_codec_stream(self, codec, data):
        other = create_codec("sz_lr", 1e-3)
        buffer = other.compress(data)
        with pytest.raises(ValueError):
            codec.decompress(buffer.payload)

    def test_truncated_stream(self, codec, data):
        buffer, _ = codec.compress_with_reconstruction(data)
        with pytest.raises(ValueError):
            codec.decompress(buffer.payload[: len(buffer.payload) // 2])
        record, recipe, _ = _record(codec, data)
        with pytest.raises(CorruptFileError):
            _codes(record[: len(record) // 2], recipe, data.size)

    def test_garbage(self, codec):
        with pytest.raises(ValueError):
            codec.decompress(b"not a container at all")

    @pytest.mark.parametrize("dropped", ["stream", "abs_eb", "offset", "shapes", "record"])
    def test_a_buffer_missing_a_piece_names_it(self, codec, data, dropped):
        buffer, _ = codec.compress_with_reconstruction(data)
        cont = unpack_container(buffer.payload)
        assert dropped in cont.meta or dropped in cont.sections
        cont.meta.pop(dropped, None)
        cont.sections.pop(dropped, None)
        damaged = pack_container(cont.codec, cont.meta, cont.sections)
        with pytest.raises(CorruptFileError, match=dropped):
            codec.decompress(damaged)

    @pytest.mark.parametrize("change", [{"stream": MODE_DELTA}, {"abs_eb": 2 * EB},
                                        {"offset": 2.5}])
    def test_a_changed_recipe_fails_the_checksum(self, codec, data, change):
        """The grid and the mode are the dataset's, stored once outside the
        record; the record's CRC covers them all the same."""
        record, recipe, _ = _record(codec, data)
        with pytest.raises(CorruptFileError, match="checksum"):
            _codes(record, dict(recipe, **change), data.size)

    @pytest.mark.parametrize("mode", ["keyframe", 3, None])
    def test_an_unknown_mode_is_corrupt(self, mode):
        with pytest.raises(CorruptFileError, match="stream"):
            TemporalDeltaCodec.grid_of({"stream": mode, "abs_eb": EB, "offset": 0.0})

    def test_unpack_codes_many_equals_one_at_a_time(self, codec, data):
        key, key_recipe, codes = _record(codec, data)
        delta, delta_recipe, _ = _record(codec, data + 0.3, codes)
        empty, empty_recipe, _ = _record(codec, data[:0])
        batch = [(key, key_recipe, data.size), (delta, delta_recipe, data.size),
                 (empty, empty_recipe, 0), (key, key_recipe, data.size)]
        together = TemporalDeltaCodec.unpack_codes_many(*zip(*batch))
        assert TemporalDeltaCodec.unpack_codes_many([], [], []) == []
        for (record, recipe, n), got in zip(batch, together):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _codes(record, recipe, n))

    @pytest.mark.parametrize("sync", ["lane layout", "no lane layout"])
    def test_lanes_decode_to_the_same_codes_of_the_whole(self, codec, data, sync):
        n = 16 * SYNC_INTERVAL - 3 * SYNC_INTERVAL // 8       # 16 lanes, the last short
        key, key_recipe, codes = _record(codec, data[:n])
        delta, delta_recipe, _ = _record(codec, data[:n] + 0.3, codes)
        lanes = [np.array([0, 3, 4, 15]), None, np.array([15]), np.zeros(0, dtype=np.int64)]
        records, recipes = [key, delta, delta, key], [key_recipe, delta_recipe,
                                                      delta_recipe, key_recipe]
        # a stream with no lane layout (codes wider than the LUT) is decoded
        # whole, then cut
        with mock.patch.object(HuffmanCodec, "select_lanes", return_value=None) \
                if sync == "no lane layout" else contextlib.nullcontext():
            narrowed = TemporalDeltaCodec.unpack_codes_many(records, recipes, [n] * 4, lanes)
        for record, recipe, keep, got in zip(records, recipes, lanes, narrowed):
            want = _codes(record, recipe, n)
            if keep is not None:
                want = want[TemporalDeltaCodec.lane_cells(keep, want.size)]
            np.testing.assert_array_equal(got, want)
        assert narrowed[2].size == n - 15 * SYNC_INTERVAL
        with pytest.raises(ValueError, match="ascending lanes"):
            TemporalDeltaCodec.unpack_codes_many([delta], [delta_recipe], [n], [np.array([16])])


class TestFilter:
    def test_decode_blocks_of_a_key_dataset(self, codec, data):
        """A chunk record holds its valid prefix: the padding tail of the
        dataset's larger chunk size is neither coded nor decoded, and the
        blocks come back as the layout cuts them."""
        records = [_record(codec, data)[0], _record(codec, data[:1000])[0]]
        recipe = codec.recipe(EB, stream=MODE_KEY)
        layouts = [[(0, 96), (96, data.size - 96)], [(0, 1000)]]
        got = TemporalDeltaFilter(recipe).decode_blocks(
            records, data.size + 128, layouts, [[0, 1], [0]], None, [data.size, 1000])
        flat = np.concatenate([got[0][0], got[0][1]])
        assert flat.size == data.size and got[1][0].size == 1000
        assert np.abs(flat - data).max() <= 1e-2 * (1 + 1e-12)
        assert np.abs(got[1][0] - data[:1000]).max() <= 1e-2 * (1 + 1e-12)

    def test_a_record_of_another_size_is_refused(self, codec, data):
        record, recipe, _ = _record(codec, data)
        with pytest.raises(CorruptFileError, match="checksum"):
            TemporalDeltaFilter(recipe).decode_blocks(
                [record], data.size, [[(0, data.size // 2)]], [[0]], None, [data.size // 2])

    def test_a_lost_recipe_is_corrupt(self, codec, data):
        record, _, _ = _record(codec, data)
        with pytest.raises(CorruptFileError, match="recipe"):
            TemporalDeltaFilter().decode_blocks([record], data.size, [[(0, data.size)]],
                                                [[0]], None, [data.size])
