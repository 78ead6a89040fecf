"""The byte-budgeted LRU ChunkCache: eviction, stats, concurrency, sharing."""

import threading

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.service.cache import DEFAULT_CACHE_BYTES, ChunkCache


def _chunk(n=16, value=0.0):
    return np.full(n, value, dtype=np.float64)     # 8 * n bytes


class TestLRUSemantics:
    def test_get_put_round_trip(self):
        cache = ChunkCache(max_bytes=1 << 20)
        key = ("/f.h5z", "level_0/rho", 0)
        assert cache.get(key) is None
        chunk = _chunk()
        cache.put(key, chunk)
        assert cache.get(key) is chunk
        assert cache.current_bytes == chunk.nbytes

    def test_eviction_is_least_recently_used(self):
        cache = ChunkCache(max_bytes=3 * 128)      # room for three 16-elem chunks
        keys = [("/f", "d", i) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, _chunk(value=i))
        cache.get(keys[0])                          # refresh 0: now 1 is LRU
        cache.put(("/f", "d", 3), _chunk(value=3))
        assert cache.get(keys[1]) is None           # evicted
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None
        assert cache.stats.evictions == 1
        assert cache.stats.evicted_bytes == 128

    def test_budget_is_never_exceeded(self):
        cache = ChunkCache(max_bytes=1000)
        for i in range(50):
            cache.put(("/f", "d", i), _chunk())
            assert cache.current_bytes <= 1000
        assert len(cache) < 50
        assert cache.stats.evictions == 50 - len(cache)

    def test_oversized_entry_is_rejected_not_cached(self):
        cache = ChunkCache(max_bytes=64)
        cache.put(("/f", "d", 0), _chunk(4))        # 32 bytes: fits
        cache.put(("/f", "d", 1), _chunk(1024))     # way over budget
        assert cache.stats.rejected == 1
        assert cache.get(("/f", "d", 1)) is None
        assert cache.get(("/f", "d", 0)) is not None   # untouched by the reject

    def test_reinsert_same_key_does_not_double_count(self):
        cache = ChunkCache(max_bytes=1 << 20)
        key = ("/f", "d", 0)
        cache.put(key, _chunk())
        cache.put(key, _chunk(value=1.0))
        assert cache.current_bytes == 128
        assert len(cache) == 1
        assert cache.get(key)[0] == 1.0

    def test_clear_drops_entries_keeps_stats(self):
        cache = ChunkCache(max_bytes=1 << 20)
        cache.put(("/f", "d", 0), _chunk())
        cache.get(("/f", "d", 0))
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats.hits == 1 and cache.stats.insertions == 1

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ChunkCache(max_bytes=0)


class TestConcurrentAccounting:
    def test_hit_miss_counters_are_exact_under_concurrent_readers(self):
        cache = ChunkCache(max_bytes=1 << 22)
        nthreads, per_thread = 8, 200
        keys = [("/f", "d", i) for i in range(16)]
        for key in keys:
            cache.put(key, _chunk())
        misses_key = ("/f", "other", 0)

        def hammer():
            for i in range(per_thread):
                assert cache.get(keys[i % len(keys)]) is not None
                assert cache.get(misses_key) is None

        threads = [threading.Thread(target=hammer) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats.hits == nthreads * per_thread
        assert cache.stats.misses == nthreads * per_thread
        assert cache.stats.requests == 2 * nthreads * per_thread

    def test_concurrent_insert_and_evict_keeps_budget(self):
        cache = ChunkCache(max_bytes=4096)

        def writer(tid):
            for i in range(200):
                cache.put((f"/f{tid}", "d", i), _chunk())
                assert cache.current_bytes <= 4096

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.current_bytes <= 4096
        assert cache.stats.insertions == 6 * 200


class TestSharedCacheThroughHandles:
    def test_shared_cache_reads_byte_identical_to_private(self, service_plotfile):
        cache = ChunkCache()
        box = Box((4, 4, 4), (19, 19, 19))
        with repro.open(service_plotfile) as plain, \
                repro.open(service_plotfile, cache=cache) as cached:
            for level in (0, 1):
                for name in plain.fields:
                    a = plain.read_field(name, level=level, box=box)
                    b = cached.read_field(name, level=level, box=box)
                    assert np.array_equal(a, b)
        assert cache.stats.insertions > 0

    def test_second_handle_hits_what_the_first_decoded(self, service_plotfile):
        cache = ChunkCache()
        box = Box((0, 0, 0), (15, 15, 15))
        with repro.open(service_plotfile, cache=cache) as first:
            first.read_field("baryon_density", level=0, box=box, refill=False)
            decoded_by_first = first.stats.chunks_decoded
        assert decoded_by_first > 0
        with repro.open(service_plotfile, cache=cache) as second:
            second.read_field("baryon_density", level=0, box=box, refill=False)
            assert second.stats.chunks_decoded == 0
            assert second.stats.cache_hits > 0

    def test_full_read_uses_the_shared_cache(self, service_plotfile):
        cache = ChunkCache()
        with repro.open(service_plotfile, cache=cache) as handle:
            warm = handle.read()                    # populates nothing itself...
        with repro.open(service_plotfile, cache=cache) as handle:
            handle.read_field("baryon_density", level=0, refill=False)
            before = handle.stats.chunks_decoded
            again = handle.read()                   # ...but reuses read_field's chunks
            assert handle.stats.cache_hits > 0
        for level in range(warm.nlevels):
            a = warm[level].multifab.to_global("baryon_density", warm[level].domain)
            b = again[level].multifab.to_global("baryon_density", again[level].domain)
            assert np.array_equal(a, b)
        assert before > 0

    def test_series_steps_share_one_cache(self, service_series):
        cache = ChunkCache()
        box = Box((0, 0, 0), (3, 3, 3))
        with repro.open_series(service_series, cache=cache) as series:
            series.time_slice("baryon_density", box=box, refill=False)
        first_run = cache.stats.as_dict()
        assert first_run["insertions"] > 0
        with repro.open_series(service_series, cache=cache) as series:
            series.time_slice("baryon_density", box=box, refill=False)
            # decoded values come straight from the shared cache; only the
            # fresh handle's chain resolution may add work
            assert cache.stats.hits > first_run["hits"]

    def test_tiny_budget_still_reads_correctly(self, service_series):
        # pathological budget: constant eviction, values must stay correct
        tiny = ChunkCache(max_bytes=4096)
        box = Box((0, 0, 0), (3, 3, 3))
        with repro.open_series(service_series) as plain, \
                repro.open_series(service_series, cache=tiny) as cached:
            t1, v1 = plain.time_slice("baryon_density", box=box, refill=False)
            t2, v2 = cached.time_slice("baryon_density", box=box, refill=False)
            # the resolved-code-stream cache is a second cache of the same
            # budget (a long-lived server must not grow without limit); a
            # stream larger than the whole budget is rejected, not kept
            assert cached._codes is not tiny and cached._codes.max_bytes == 4096
            assert cached._codes.current_bytes <= 4096
            assert tiny.current_bytes <= 4096
            # a handle opened without a shared cache is budgeted too
            assert plain.cache.max_bytes == plain._codes.max_bytes == DEFAULT_CACHE_BYTES
            assert 0 < plain._codes.current_bytes <= DEFAULT_CACHE_BYTES
        assert np.array_equal(v1, v2)
        # full-step reads must also survive eviction between decode and place
        with repro.open_series(service_series, cache=tiny) as cached:
            hierarchy = cached.read(step=-1)
        assert hierarchy.nlevels >= 1
