"""The temporal_delta codec: grids, key/delta records, corrupt inputs."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import huffman
from repro.compress.container import (
    pack_container,
    pack_record,
    parse_record,
    recipe_context,
    unpack_container,
)
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import MAX_CODE_LEN, SYNC_INTERVAL, HuffmanCodec
from repro.compress.registry import available_codecs, create_codec
from repro.compress.temporal import (
    MODE_DELTA,
    MODE_KEY,
    StreamCandidate,
    TemporalDeltaCodec,
    TemporalDeltaFilter,
)
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
    """Records store their sync offsets: the lane decoder is the only one."""

    @staticmethod
    def _counted(name):
        return mock.patch.object(HuffmanCodec, name, autospec=True,
                                 side_effect=getattr(HuffmanCodec, name))

    def test_records_decode_through_the_lanes(self, codec, data):
        record, recipe, codes = _record(codec, data)
        with self._counted("_decode_lanes") as lanes:
            back = _codes(record, recipe, data.size)
        assert lanes.call_count == 1
        assert np.array_equal(back, codes)

    def test_a_record_read_against_another_count_is_corrupt(self, codec, data):
        """The code count comes from the chunk index and seeds the checksum:
        a record read against a count it was not written for is refused
        before any decode."""
        record, recipe, _ = _record(codec, data)
        with self._counted("_decode_lanes") as lanes:
            for n in (data.size - 1, data.size + 1, 0):
                with pytest.raises(CorruptFileError, match="checksum"):
                    _codes(record, recipe, n)
        assert lanes.call_count == 0


#: the most distinct codes a record's table holds
CAP = 1 << MAX_CODE_LEN


def _parent_record(codes, recipe):
    """A record as the plain form writes it: every code a symbol shifted by
    the smallest, that code alone in the side blob."""
    min_code = int(codes.min()) if codes.size else 0
    shifted = (codes - min_code).astype(np.uint32)
    table = HuffmanCodec.from_data(shifted)
    return pack_record([(codes.size,)], [table.encode(shifted)], [table],
                       [np.asarray([min_code], dtype="<i8")],
                       recipe_context(recipe, ("stream", "abs_eb", "offset"),
                                      "temporal_delta recipe"))


def _best_of(runs, call):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


class TestWideAlphabet:
    """A chunk of more than 2**16 distinct codes keeps the commonest as
    symbols and escapes the rest: still one 16-bit table, still the lanes."""

    N = 70_000

    @pytest.fixture(scope="class")
    def wide(self):
        """70,000 distinct codes as a key record and as a delta record."""
        rng = np.random.default_rng(5)
        codes = rng.permutation(self.N).astype(np.int64) - 1000
        ref = rng.integers(-50, 50, size=self.N)
        codec = TemporalDeltaCodec(ErrorBound.absolute(EB), offset=3.0)
        key, delta = codec.candidate(codes), codec.candidate(codes + ref, ref)
        return codec, codes, ref, [
            (codec.pack(key, codec.recipe(EB)), codec.recipe(EB), key),
            (codec.pack(delta, codec.recipe(EB, stream=MODE_DELTA)),
             codec.recipe(EB, stream=MODE_DELTA), delta)]

    def test_codes_round_trip_whole_and_by_lane_through_the_lanes(self, wide):
        _, codes, _, records = wide
        n = self.N
        lanes = np.asarray([0, n // SYNC_INTERVAL // 2, n // SYNC_INTERVAL])  # the last short
        assert n % SYNC_INTERVAL
        for record, recipe, candidate in records:
            assert candidate.table.nsymbols == CAP
            assert int(candidate.table.lengths.max()) <= MAX_CODE_LEN
            assert candidate.side[0][1] == n - (CAP - 1)          # the rest escaped
            with TestDecodePath._counted("_decode_lanes") as passes:
                whole = _codes(record, recipe, n)
                some = _codes(record, recipe, n, [lanes])
            assert passes.call_count == 2
            assert np.array_equal(whole, codes)                 # a delta: its differences
            assert np.array_equal(some, codes[TemporalDeltaCodec.lane_cells(lanes, n)])

    def test_the_old_reader_refuses_a_wide_record(self, wide):
        """The plain reader takes the smallest code and expects the side
        blob's end: a wide record's escapes are bytes past it."""
        record, recipe, _ = wide[3][0]
        _, side = parse_record(record, [(self.N,)], [self.N], True, "temporal_delta record",
                               recipe_context(recipe, ("stream", "abs_eb", "offset"),
                                              "temporal_delta recipe"))
        side.take("<i8", 1)
        with pytest.raises(CorruptFileError, match="bytes past"):
            side.done()

    def test_a_wide_decode_costs_about_what_a_16_bit_one_does(self, wide):
        codec, _, _, records = wide
        record, recipe, _ = records[0]
        plain_codes = np.random.default_rng(6).permutation(60_000).astype(np.int64)
        plain = codec.pack(codec.candidate(plain_codes), recipe)
        wide_s = _best_of(3, lambda: _codes(record, recipe, self.N))
        plain_s = _best_of(3, lambda: _codes(plain, recipe, plain_codes.size))
        assert wide_s <= 10 * plain_s

    @given(st.sampled_from([CAP - 1, CAP, CAP + 1]), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 3]), st.integers(-2 ** 40, 2 ** 40), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_the_cap_is_where_the_form_changes(self, distinct, seed, stride, base, delta):
        rng = np.random.default_rng(seed)
        values = base + stride * np.arange(distinct, dtype=np.int64)
        # every value once, and a skewed tail: code lengths past 16 bits to clamp
        extra = values[np.minimum(rng.geometric(0.02, size=5000), distinct) - 1]
        target = rng.permutation(np.concatenate([values, extra]))
        ref = rng.integers(-9, 9, size=target.size) if delta else None
        codes = target if ref is None else target + ref
        codec = TemporalDeltaCodec(ErrorBound.absolute(EB), offset=3.0)
        recipe = codec.recipe(EB, stream=MODE_KEY if ref is None else MODE_DELTA)
        candidate = codec.candidate(codes, ref)
        record = codec.pack(candidate, recipe)
        assert np.array_equal(_codes(record, recipe, target.size), target)
        assert candidate.table.nsymbols == min(distinct, CAP)
        if distinct <= CAP:
            assert record == _parent_record(target, recipe)
        else:                           # the rarest two codes escaped, every copy
            assert candidate.side[0][1] == np.isin(target, values[-2:]).sum()

    def test_a_spread_past_32_bits_is_escaped(self, codec):
        codes = np.asarray([0, 1, 1, 2 ** 40, -(2 ** 50), 1, 0], dtype=np.int64)
        recipe = codec.recipe(EB)
        candidate = codec.candidate(codes)
        assert candidate.side[0].tolist() == [-1, 2]            # min_code, two escaped
        assert candidate.side[1].tolist() == [3, 4]
        assert np.array_equal(_codes(codec.pack(candidate, recipe), recipe, codes.size), codes)


class TestHostileWideRecords:
    """Each is packed with a valid checksum, so the decoder's own checks meet it."""

    @staticmethod
    def _wide(codec):
        codes = np.random.default_rng(7).permutation(CAP + 40).astype(np.int64)
        return codes, codec.candidate(codes)

    @staticmethod
    def _repacked(codec, candidate, side):
        recipe = codec.recipe(EB)
        return codec.pack(candidate._replace(side=side, encoded=None), recipe), recipe

    def test_a_17_bit_table_is_corrupt(self, codec):
        """What the writer made of a table past 65,536 symbols before escapes."""
        lengths = np.asarray(list(range(1, MAX_CODE_LEN + 2)) + [MAX_CODE_LEN + 1])
        with mock.patch.object(huffman, "MAX_CODE_LEN", 32):
            table = HuffmanCodec(np.arange(lengths.size), lengths)
            shifted = np.arange(lengths.size, dtype=np.uint32).repeat(3)
            candidate = StreamCandidate(shifted, table, [np.asarray([5], "<i8")], 0,
                                        table.encode(shifted))
        recipe = codec.recipe(EB)
        with pytest.raises(CorruptFileError, match="code length out of range"):
            _codes(codec.pack(candidate, recipe), recipe, shifted.size)

    @pytest.mark.parametrize("cell", [-1, CAP + 40, "repeat", "descending"])
    def test_an_escaped_cell_out_of_place_is_corrupt(self, codec, cell):
        codes, candidate = self._wide(codec)
        head, cells, values = candidate.side
        cells = cells.copy()
        if cell == "repeat":
            cells[1] = cells[0]
        elif cell == "descending":
            cells[[0, 1]] = cells[[1, 0]]
        else:
            cells[0 if cell == -1 else -1] = cell
        record, recipe = self._repacked(codec, candidate, [head, cells, values])
        for lanes in (None, [np.arange(3)]):
            with pytest.raises(CorruptFileError, match="escaped cells out of place"):
                _codes(record, recipe, codes.size, lanes)

    @pytest.mark.parametrize("change", [1, -1, "both"])
    def test_a_mismatched_escape_count_is_corrupt(self, codec, change):
        codes, candidate = self._wide(codec)
        head, cells, values = candidate.side
        if change == "both":            # a count that fits its arrays, not the codes
            side = [np.asarray([head[0], head[1] - 1], "<i8"), cells[1:], values[1:]]
        else:
            side = [np.asarray([head[0], head[1] + change], "<i8"), cells, values]
        record, recipe = self._repacked(codec, candidate, side)
        lanes = [np.asarray([int(cells[0]) // SYNC_INTERVAL])]
        for keep in (None, lanes):
            with pytest.raises(CorruptFileError):
                _codes(record, recipe, codes.size, keep)


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
                                                      [[0]], [data.size])
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

    def test_lanes_decode_to_the_same_codes_of_the_whole(self, codec, data):
        n = 16 * SYNC_INTERVAL - 3 * SYNC_INTERVAL // 8       # 16 lanes, the last short
        key, key_recipe, codes = _record(codec, data[:n])
        delta, delta_recipe, _ = _record(codec, data[:n] + 0.3, codes)
        lanes = [np.array([0, 3, 4, 15]), None, np.array([15]), np.zeros(0, dtype=np.int64)]
        records, recipes = [key, delta, delta, key], [key_recipe, delta_recipe,
                                                      delta_recipe, key_recipe]
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
            records, data.size + 128, layouts, [[0, 1], [0]], [data.size, 1000])
        flat = np.concatenate([got[0][0], got[0][1]])
        assert flat.size == data.size and got[1][0].size == 1000
        assert np.abs(flat - data).max() <= 1e-2 * (1 + 1e-12)
        assert np.abs(got[1][0] - data[:1000]).max() <= 1e-2 * (1 + 1e-12)

    def test_a_record_of_another_size_is_refused(self, codec, data):
        record, recipe, _ = _record(codec, data)
        with pytest.raises(CorruptFileError, match="checksum"):
            TemporalDeltaFilter(recipe).decode_blocks(
                [record], data.size, [[(0, data.size // 2)]], [[0]], [data.size // 2])

    def test_a_lost_recipe_is_corrupt(self, codec, data):
        record, _, _ = _record(codec, data)
        with pytest.raises(CorruptFileError, match="recipe"):
            TemporalDeltaFilter().decode_blocks([record], data.size, [[(0, data.size)]],
                                                [[0]], [data.size])
