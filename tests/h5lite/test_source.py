"""The pluggable byte-source layer: contract, coalescing, cache, specs.

Edge cases — zero-length ranges, ranges past EOF, coalescing exactly at the
gap threshold, block-cache eviction mid-batch — plus the spec grammar of
:func:`make_source` and the superblock bounds checks of
:class:`~repro.h5lite.file.H5LiteFile` now that it reads through a source.
"""

import json
import os
import struct

import numpy as np
import pytest

from repro.h5lite.file import H5LiteFile
from repro.h5lite.source import (
    DEFAULT_BLOCK_BYTES,
    DEFAULT_GAP_BYTES,
    ByteSource,
    LocalFileSource,
    RangeSource,
    SourceStats,
    coalesce_ranges,
    make_source,
    parse_source_spec,
)

PAYLOAD = bytes(range(256)) * 40          # 10240 bytes, every offset distinct


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(PAYLOAD)
    return str(path)


def _factories(data_file):
    return {
        "local": lambda: LocalFileSource(data_file),
        "range": lambda: RangeSource(LocalFileSource(data_file),
                                     block_bytes=64, cache_bytes=1024, gap=64),
        # 100-byte blocks leave a short last block (10240 % 100 == 40), and a
        # one-block budget evicts while a batch is still being assembled
        "range-evicting": lambda: RangeSource(LocalFileSource(data_file),
                                              block_bytes=100, cache_bytes=100,
                                              gap=0),
        # a RangeSource wraps any ByteSource, another RangeSource included
        "range-nested": lambda: RangeSource(
            RangeSource(LocalFileSource(data_file), block_bytes=64,
                        cache_bytes=512, gap=0),
            block_bytes=256, cache_bytes=1024, gap=128),
    }


# ----------------------------------------------------------------------
# coalesce_ranges
# ----------------------------------------------------------------------
class TestCoalesceRanges:
    def test_gap_threshold_boundary(self):
        # end of first range is 10; a 5-byte gap merges at gap=5 ...
        groups = coalesce_ranges([(0, 10), (15, 5)], gap=5)
        assert [(g[0], g[1]) for g in groups] == [(0, 20)]
        # ... and splits at gap=4: the threshold is inclusive
        groups = coalesce_ranges([(0, 10), (15, 5)], gap=4)
        assert [(g[0], g[1]) for g in groups] == [(0, 10), (15, 20)]

    def test_adjacent_merge_at_gap_zero(self):
        groups = coalesce_ranges([(0, 10), (10, 10)], gap=0)
        assert [(g[0], g[1]) for g in groups] == [(0, 20)]

    def test_overlap_merges_regardless_of_gap(self):
        groups = coalesce_ranges([(0, 10), (5, 10)], gap=0)
        assert [(g[0], g[1]) for g in groups] == [(0, 15)]

    def test_unsorted_input_members_point_into_input(self):
        groups = coalesce_ranges([(100, 10), (0, 10), (105, 10)], gap=0)
        assert [(g[0], g[1]) for g in groups] == [(0, 10), (100, 115)]
        assert groups[0][2] == [1]
        assert sorted(groups[1][2]) == [0, 2]

    def test_zero_size_ranges_never_grouped(self):
        groups = coalesce_ranges([(0, 10), (5, 0), (10, 0)], gap=0)
        assert len(groups) == 1
        assert groups[0][2] == [0]

    def test_empty(self):
        assert coalesce_ranges([], gap=0) == []


# ----------------------------------------------------------------------
# the ByteSource contract, for every implementation
# ----------------------------------------------------------------------
class TestContract:
    @pytest.fixture(params=["local", "range", "range-evicting", "range-nested"])
    def factory(self, request, data_file):
        return _factories(data_file)[request.param]

    @pytest.fixture
    def source(self, factory):
        src = factory()
        yield src
        src.close()

    def test_size(self, source):
        assert source.size() == len(PAYLOAD)

    def test_read_at_exact(self, source):
        assert bytes(source.read_at(100, 50)) == PAYLOAD[100:150]
        assert bytes(source.read_at(0, 1)) == PAYLOAD[:1]
        assert bytes(source.read_at(len(PAYLOAD) - 7, 7)) == PAYLOAD[-7:]

    def test_zero_length_range(self, source):
        assert bytes(source.read_at(50, 0)) == b""
        # a zero-size range never touches the medium
        assert source.stats.bytes_read == 0
        assert source.stats.coalesced_requests == 0
        # ... even at EOF, where offset+0 is still in bounds
        assert bytes(source.read_at(len(PAYLOAD), 0)) == b""

    def test_range_past_eof_raises(self, source):
        with pytest.raises(ValueError, match="past EOF"):
            source.read_at(len(PAYLOAD) - 10, 11)
        with pytest.raises(ValueError, match="past EOF"):
            source.read_at(len(PAYLOAD) + 1, 0)
        with pytest.raises(ValueError, match="past EOF"):
            source.read_many([(0, 10), (len(PAYLOAD), 1)])

    def test_negative_range_raises(self, source):
        with pytest.raises(ValueError, match="invalid range"):
            source.read_at(-1, 10)
        with pytest.raises(ValueError, match="invalid range"):
            source.read_at(0, -10)

    def test_read_many_input_order(self, source):
        ranges = [(200, 16), (0, 8), (200, 16), (96, 0), (32, 64)]
        out = source.read_many(ranges)
        assert [bytes(b) for b in out] == \
            [PAYLOAD[o:o + s] for o, s in ranges]

    def test_requests_counted_pre_coalescing(self, source):
        source.read_many([(0, 8), (8, 8), (16, 8)])
        assert source.stats.requests == 3
        assert 1 <= source.stats.coalesced_requests <= 3

    def test_read_at_is_a_batch_of_one(self, source):
        assert bytes(source.read_at(300, 500)) == \
            bytes(source.read_many([(300, 500)])[0]) == PAYLOAD[300:800]
        assert source.stats.requests == 2

    def test_context_manager(self, factory):
        with factory() as src:
            assert src.size() == len(PAYLOAD)
            assert bytes(src.read_at(0, 16)) == PAYLOAD[:16]
        # leaving the block closes the file underneath
        with pytest.raises(ValueError):
            src.read_at(4096, 16)


# ----------------------------------------------------------------------
# per-implementation behaviour
# ----------------------------------------------------------------------
class TestLocalFileSource:
    def test_adjacent_batch_is_one_read(self, data_file):
        with LocalFileSource(data_file) as src:
            src.read_many([(0, 100), (100, 100), (200, 100)])
            assert src.stats.requests == 3
            assert src.stats.coalesced_requests == 1
            assert src.stats.bytes_read == 300

    def test_gapped_batch_stays_split(self, data_file):
        with LocalFileSource(data_file) as src:
            src.read_many([(0, 100), (101, 100)])
            assert src.stats.coalesced_requests == 2

    def test_truncated_after_open_raises(self, data_file):
        with LocalFileSource(data_file) as src:
            os.truncate(data_file, 100)
            with pytest.raises(ValueError, match="short read"):
                src.read_at(50, 100)


class TestRangeSource:
    def test_coalesces_across_gap_boundary(self, data_file):
        # block_bytes=64: ranges in blocks 0 and 2 leave a one-block (64-byte)
        # hole.  gap=64 refetches the hole in one ranged read ...
        with RangeSource(LocalFileSource(data_file), block_bytes=64,
                         gap=64, cache_bytes=4096) as src:
            src.read_many([(0, 64), (128, 64)])
            assert src.stats.coalesced_requests == 1
            assert src.stats.bytes_read == 192
        # ... gap=63 does not: two round-trips, no hole fetched
        with RangeSource(LocalFileSource(data_file), block_bytes=64,
                         gap=63, cache_bytes=4096) as src:
            src.read_many([(0, 64), (128, 64)])
            assert src.stats.coalesced_requests == 2
            assert src.stats.bytes_read == 128

    def test_eviction_mid_batch_still_assembles(self, data_file):
        # a one-block budget over a batch spanning many blocks: blocks are
        # evicted while the batch is still being fetched, but the batch pins
        # its own copies, so assembly stays correct
        with RangeSource(LocalFileSource(data_file), block_bytes=64,
                         cache_bytes=64, gap=0) as src:
            ranges = [(i * 300, 200) for i in range(10)]
            out = src.read_many(ranges)
            assert [bytes(b) for b in out] == \
                [PAYLOAD[o:o + s] for o, s in ranges]
            assert src.stats.evictions > 0
            assert src._cached_bytes <= 64

    def test_block_cache_serves_repeats(self, data_file):
        with RangeSource(LocalFileSource(data_file), block_bytes=64,
                         cache_bytes=4096) as src:
            src.read_at(0, 256)
            fetched = src.stats.bytes_read
            assert bytes(src.read_at(64, 128)) == PAYLOAD[64:192]
            assert src.stats.bytes_read == fetched     # all from cache
            assert src.stats.cache_hits == 2

    def test_latency_and_bandwidth_accounting(self, data_file):
        with RangeSource(LocalFileSource(data_file), block_bytes=64,
                         cache_bytes=4096, latency=0.25, bandwidth=6400.0,
                         gap=0, simulate=False) as src:
            src.read_many([(0, 64), (512, 64)])        # two round-trips
            assert src.stats.wait_seconds == pytest.approx(
                2 * 0.25 + 128 / 6400.0)

    def test_clear_cache(self, data_file):
        with RangeSource(LocalFileSource(data_file), block_bytes=64,
                         cache_bytes=4096) as src:
            src.read_at(0, 256)
            fetched = src.stats.bytes_read
            src.clear_cache()
            assert bytes(src.read_at(0, 256)) == PAYLOAD[:256]
            assert src.stats.bytes_read == 2 * fetched     # nothing was left cached

    def test_bad_parameters_raise(self, data_file):
        with LocalFileSource(data_file) as base:
            with pytest.raises(ValueError, match="block_bytes"):
                RangeSource(base, block_bytes=0)
            with pytest.raises(ValueError, match="cache_bytes"):
                RangeSource(base, block_bytes=64, cache_bytes=32)
            with pytest.raises(ValueError, match="gap"):
                RangeSource(base, gap=-1)
            with pytest.raises(ValueError, match="latency"):
                RangeSource(base, latency=-1.0)
            with pytest.raises(ValueError, match="bandwidth"):
                RangeSource(base, bandwidth=0.0)


# ----------------------------------------------------------------------
# SourceStats: the one I/O ledger
# ----------------------------------------------------------------------
class TestSourceStats:
    def test_sum_counts_a_shared_source_once(self):
        a = SourceStats(requests=3, coalesced_requests=1, bytes_read=100,
                        wait_seconds=0.5)
        b = SourceStats(requests=2, coalesced_requests=2, bytes_read=40,
                        cache_hits=4, evictions=1, evicted_bytes=64)
        total = SourceStats.sum([a, b, a])
        assert total == SourceStats(requests=5, coalesced_requests=3,
                                    bytes_read=140, cache_hits=4, evictions=1,
                                    evicted_bytes=64, wait_seconds=0.5)
        assert SourceStats.sum([]) == SourceStats()

    def test_rates_are_safe_on_an_idle_source(self):
        idle = SourceStats()
        assert idle.hit_rate == 0.0
        assert idle.coalescing_factor == 0.0
        busy = SourceStats(requests=6, coalesced_requests=2, cache_hits=3,
                           cache_misses=1)
        assert busy.as_dict()["hit_rate"] == pytest.approx(0.75)
        assert busy.as_dict()["coalescing_factor"] == pytest.approx(3.0)

    def test_samples_one_row_per_counter(self, data_file):
        with RangeSource(LocalFileSource(data_file), block_bytes=64) as src:
            src.read_many([(0, 64), (64, 64), (1024, 8)])
            rows = src.stats.samples({"path": "p"})
        names = [name for name, _, _, _ in rows]
        assert names == ["repro_io_requests_total", "repro_io_reads_total",
                         "repro_io_bytes_read_total",
                         "repro_io_block_cache_hits_total",
                         "repro_io_block_cache_misses_total",
                         "repro_io_block_cache_evictions_total",
                         "repro_io_wait_seconds_total"]
        assert all(kind == "counter" and labels == {"path": "p"}
                   for _, kind, labels, _ in rows)
        values = {name: value for name, _, _, value in rows}
        assert values["repro_io_requests_total"] == 3.0
        assert values["repro_io_bytes_read_total"] == float(src.stats.bytes_read)


# ----------------------------------------------------------------------
# spec strings and make_source
# ----------------------------------------------------------------------
class TestSpecs:
    def test_parse_modifiers(self):
        opts = parse_source_spec("latency:50ms,bandwidth:100m,gap:128k,"
                                 "block:4k,cache:8m")
        assert opts == {"latency": pytest.approx(0.05),
                        "bandwidth": pytest.approx(100 * 1024 ** 2),
                        "gap": 128 * 1024, "block_bytes": 4096,
                        "cache_bytes": 8 * 1024 ** 2}

    def test_bare_range_is_every_default(self):
        assert parse_source_spec("range") == {}
        assert parse_source_spec("range,block:4k") == {"block_bytes": 4096}

    def test_duration_and_byte_units(self):
        assert parse_source_spec("latency:100us")["latency"] == \
            pytest.approx(1e-4)
        assert parse_source_spec("latency:0.5s")["latency"] == \
            pytest.approx(0.5)
        assert parse_source_spec("block:64kib")["block_bytes"] == 64 * 1024
        assert parse_source_spec("block:512")["block_bytes"] == 512

    @pytest.mark.parametrize("bad", ["latency:fast", "block:big", "", " , "])
    def test_bad_tokens_raise(self, bad):
        with pytest.raises(ValueError):
            parse_source_spec(bad)

    @pytest.mark.parametrize("spec", ["mmap", "memory", "local", "readahead:2",
                                      "http", "block:4k,mmap"])
    def test_removed_and_unknown_tokens_list_the_accepted_ones(self, data_file,
                                                               spec):
        for build in (parse_source_spec, lambda s: make_source(data_file, s)):
            with pytest.raises(ValueError, match="unknown source spec token") as exc:
                build(spec)
            message = str(exc.value)
            assert "\n" not in message
            for token in ("latency:<value>", "bandwidth:<value>", "gap:<value>",
                          "block:<value>", "cache:<value>", "'range'"):
                assert token in message

    def test_make_source_types(self, data_file):
        assert isinstance(make_source(data_file), LocalFileSource)
        src = make_source(data_file, "latency:1ms,block:4k")
        assert isinstance(src, RangeSource)
        assert isinstance(src.base, LocalFileSource)
        assert src.simulate is True            # latency wants to be felt
        assert src.block_bytes == 4096
        quiet = make_source(data_file, "range,block:4k")
        assert isinstance(quiet, RangeSource)
        assert quiet.simulate is False
        for built in (src, quiet):
            built.close()

    def test_bad_option_value_closes_the_file(self, data_file, monkeypatch):
        closed = []
        real_close = LocalFileSource.close
        monkeypatch.setattr(LocalFileSource, "close",
                            lambda self: closed.append(self.path) or real_close(self))
        with pytest.raises(ValueError, match="block_bytes"):
            make_source(data_file, "block:0")
        assert closed == [data_file]

    def test_make_source_passthrough_and_factory(self, data_file):
        with LocalFileSource(data_file) as instance:
            assert make_source(data_file, instance) is instance
        built = make_source(data_file, lambda p: RangeSource(LocalFileSource(p)))
        assert isinstance(built, RangeSource)
        built.close()
        with pytest.raises(TypeError, match="ByteSource"):
            make_source(data_file, lambda p: open(p, "rb"))


# ----------------------------------------------------------------------
# H5LiteFile on a source: superblock bounds, batched chunk reads
# ----------------------------------------------------------------------
def _write_sample(path):
    """Eight raw 512-element chunks of one dataset, back to back."""
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.normal(size=4096)).reshape(64, 64)
    with H5LiteFile(path, "w") as f:
        f.create_dataset_from_chunks(
            "x", [chunk.tobytes() for chunk in data.reshape(8, 512)], shape=data.shape,
            dtype="float64", chunk_elements=512, filter_id="none",
            actual_elements_per_chunk=[512] * 8)
    return data


def _read_sample(f):
    return np.frombuffer(b"".join(f.read_chunk_payloads("x", range(8)))).reshape(64, 64)


def _mutate_superblock(path, mutate):
    data = path.read_bytes()
    (offset,) = struct.unpack_from("<Q", data, 4)
    superblock = json.loads(data[offset:].decode("utf-8"))
    mutate(superblock)
    path.write_bytes(data[:offset] + json.dumps(superblock).encode("utf-8"))


class TestH5LiteOnSources:
    def test_superblock_offset_past_eof(self, tmp_path):
        path = tmp_path / "bad.h5z"
        _write_sample(path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 4, len(raw) + 1000)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError,
                           match="corrupt or truncated superblock"):
            H5LiteFile(path, "r")

    def test_superblock_offset_into_preamble(self, tmp_path):
        path = tmp_path / "bad.h5z"
        _write_sample(path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 4, 4)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="preamble"):
            H5LiteFile(path, "r")

    def test_file_shorter_than_preamble(self, tmp_path):
        path = tmp_path / "tiny.h5z"
        path.write_bytes(b"H5LT\x00")
        with pytest.raises(ValueError, match="truncated"):
            H5LiteFile(path, "r")

    def test_chunk_past_eof_names_dataset(self, tmp_path):
        path = tmp_path / "bad.h5z"
        _write_sample(path)
        _mutate_superblock(
            path, lambda sb: sb["datasets"][0]["chunks"].__setitem__(
                0, [10 ** 9, 4096, 512]))
        with H5LiteFile(path, "r") as f:
            with pytest.raises(ValueError, match="truncated.*'x'"):
                _read_sample(f)

    def test_write_mode_rejects_source(self, tmp_path):
        with pytest.raises(ValueError, match="read mode"):
            H5LiteFile(tmp_path / "w.h5z", "w", source="range")

    @pytest.mark.parametrize("spec", [None, "range,block:4k,gap:8k",
                                      "block:1k,cache:4k"])
    def test_round_trip_through_every_source(self, tmp_path, spec):
        path = tmp_path / "rt.h5z"
        data = _write_sample(path)
        with H5LiteFile(path, "r", source=spec) as f:
            np.testing.assert_array_equal(_read_sample(f), data)

    def test_batched_chunk_reads_coalesce(self, tmp_path):
        path = tmp_path / "b.h5z"
        _write_sample(path)                       # 8 chunks, back to back
        with H5LiteFile(path, "r") as f:
            before = f.source.stats.coalesced_requests
            payloads = f.read_chunk_payloads("x", range(8))
            assert len(payloads) == 8
            # adjacent chunk payloads collapse into one ranged read
            assert f.source.stats.coalesced_requests == before + 1

    def test_read_chunk_payloads_validates(self, tmp_path):
        path = tmp_path / "v.h5z"
        _write_sample(path)
        with H5LiteFile(path, "r") as f:
            with pytest.raises(KeyError):
                f.read_chunk_payloads("nope", [0])
            with pytest.raises(IndexError):
                f.read_chunk_payloads("x", [99])
