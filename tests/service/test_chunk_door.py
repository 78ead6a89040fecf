"""The one chunk door (``PlotfileHandle._chunks``) under every consumer.

Whatever the cache budget — 1 byte (every chunk rejected), 64 KiB (constant
eviction) or the default — ``read_field``, ``read()``, ``time_slice`` and
``read_batch`` return the same arrays, look each needed chunk up once and
decode it at most once per request; a full read consults the cache without
populating it; a request whose chunks are all cached submits no decode job.
"""

import numpy as np
import pytest

import repro
import repro.core.reader as reader_mod
from repro.amr.box import Box
from repro.apps import nyx_run
from repro.service import BoxQuery, ChunkCache, QueryEngine

BUDGETS = (1, 64 << 10, None)                   # None: the default budget
FIELD = "baryon_density"
#: (field, level, box, refill): refill reads reach into the finer level, and
#: the two boxes of one field share chunks
READS = [(FIELD, 0, Box((0, 0, 0), (15, 15, 15)), True),
         (FIELD, 0, Box((8, 8, 8), (23, 23, 23)), True),
         ("temperature", 0, None, True),
         ("temperature", 1, None, False),
         (FIELD, 0, Box((2, 2, 2), (5, 5, 5)), False)]
SLICE_BOX = Box((2, 2, 2), (9, 9, 9))


def _cache(budget):
    return ChunkCache() if budget is None else ChunkCache(max_bytes=budget)


def _fabs(hierarchy):
    return [fab.data for level in hierarchy.levels for fab in level.multifab]


def _needed(handle, name, level, box, refill):
    """How many distinct chunks one read touches, by the handle's own plan."""
    needed = {}
    handle._plan_box(name, level, box, refill, None, needed)
    return sum(len(indices) for indices in needed.values())


def _lookups(cache):
    return cache.stats.hits + cache.stats.misses


class TestSameAnswersAtEveryBudget:
    @pytest.fixture(scope="class")
    def reference(self, service_plotfile, service_series):
        with repro.open(service_plotfile) as handle:
            fields = [handle.read_field(n, level=l, box=b, refill=r)
                      for n, l, b, r in READS]
            full = _fabs(handle.read())
        with repro.open_series(service_series) as series:
            times, values = series.time_slice(FIELD, box=SLICE_BOX)
            last = _fabs(series.read(step=-1))
        return fields, full, times, values, last

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_handles(self, service_plotfile, service_series, reference, budget):
        fields, full, times, values, last = reference
        with repro.open(service_plotfile, cache=_cache(budget)) as handle:
            for _ in range(2):                  # cold, then whatever stayed cached
                for want, (n, l, b, r) in zip(fields, READS):
                    assert np.array_equal(handle.read_field(n, level=l, box=b, refill=r), want)
                for want, got in zip(full, _fabs(handle.read())):
                    assert np.array_equal(got, want)
        with repro.open_series(service_series, cache=_cache(budget)) as series:
            for _ in range(2):
                got_times, got_values = series.time_slice(FIELD, box=SLICE_BOX)
                assert np.array_equal(got_times, times)
                assert np.array_equal(got_values, values)
                for want, got in zip(last, _fabs(series.read(step=-1))):
                    assert np.array_equal(got, want)
            assert series.cache.current_bytes <= series.cache.max_bytes
            assert series._codes.current_bytes <= series._codes.max_bytes

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_engine(self, service_plotfile, service_series, reference, budget):
        fields, _, times, values, _ = reference
        queries = [BoxQuery(path=service_plotfile, field=n, level=l, box=b, refill=r)
                   for n, l, b, r in READS]
        with QueryEngine(cache=_cache(budget)) as engine:
            for _ in range(2):
                for want, got in zip(fields, engine.read_batch(queries)):
                    assert np.array_equal(got, want)
                got_times, got_values = engine.time_slice(service_series, FIELD,
                                                          box=SLICE_BOX)
                assert np.array_equal(got_times, times)
                assert np.array_equal(got_values, values)


class TestOneLookupAtMostOneDecodePerRequest:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_read_field_and_read(self, service_plotfile, budget):
        cache = _cache(budget)
        with repro.open(service_plotfile, cache=cache) as handle:
            for name, level, box, refill in READS * 2:
                needed = _needed(handle, name, level, box, refill)
                assert needed > 0
                lookups, hits = _lookups(cache), cache.stats.hits
                decoded, counted = handle.stats.chunks_decoded, handle.stats.cache_hits
                handle.read_field(name, level=level, box=box, refill=refill)
                assert _lookups(cache) - lookups == needed
                assert handle.stats.cache_hits - counted == cache.stats.hits - hits
                assert handle.stats.chunks_decoded - decoded \
                    == needed - (cache.stats.hits - hits)
            total = sum(d.nchunks for d in handle._scan().datasets)
            lookups, hits = _lookups(cache), cache.stats.hits
            decoded = handle.stats.chunks_decoded
            offered = cache.stats.insertions + cache.stats.rejected
            handle.read()
            assert _lookups(cache) - lookups == total
            assert handle.stats.chunks_decoded - decoded == total - (cache.stats.hits - hits)
            # a full read consults the cache and offers it nothing
            assert cache.stats.insertions + cache.stats.rejected == offered

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_series_step_reads(self, service_series, budget):
        cache = _cache(budget)
        with repro.open_series(service_series, cache=cache) as series:
            for step in (5, 4, 5, 2):
                handle = series.open_step(step)
                needed = _needed(handle, FIELD, 0, SLICE_BOX, True)
                lookups = _lookups(cache)
                series.read_field(FIELD, box=SLICE_BOX, step=step)
                assert _lookups(cache) - lookups == needed > 0

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_engine_requests(self, service_plotfile, budget):
        cache = _cache(budget)
        with QueryEngine(cache=cache) as engine:
            handle = engine.handle(service_plotfile)
            for name, level, box, refill in READS * 2:
                needed = _needed(handle, name, level, box, refill)
                before = engine.stats()
                engine.read_field(service_plotfile, name, level=level, box=box,
                                  refill=refill)
                after = engine.stats()
                delta = {key: after[key] - before[key]
                         for key in ("cache_hits", "cache_misses", "chunks_decoded")}
                assert delta["cache_hits"] + delta["cache_misses"] == needed
                assert delta["chunks_decoded"] == delta["cache_misses"] <= needed

    def test_a_warm_one_chunk_read_is_one_hit_and_a_rejecting_cache_one_decode(
            self, service_plotfile):
        with repro.open(service_plotfile) as probe:
            slot = probe._scan().dataset(0, FIELD).slots[0]
        box = slot.block.box                    # one unit block: one chunk
        with QueryEngine() as engine:
            engine.read_field(service_plotfile, FIELD, box=box, refill=False)
            engine.read_field(service_plotfile, FIELD, box=box, refill=False)
            stats = engine.stats()
            assert (stats["cache_hits"], stats["cache_misses"]) == (1, 1)
            assert stats["chunks_decoded"] == 1
        with QueryEngine(cache_bytes=1) as engine:
            for _ in range(3):
                engine.read_field(service_plotfile, FIELD, box=box, refill=False)
            stats = engine.stats()
            assert stats["chunks_decoded"] == 3 == stats["cache_misses"]
            assert stats["cache_hits"] == 0 and stats["cache_rejected"] == 3

    def test_a_batch_looks_shared_chunks_up_once(self, service_plotfile):
        queries = [BoxQuery(path=service_plotfile, field=n, level=l, box=b, refill=r)
                   for n, l, b, r in READS]
        cache = ChunkCache()
        with QueryEngine(cache=cache) as engine:
            handle = engine.handle(service_plotfile)
            union = {}
            for name, level, box, refill in READS:
                handle._plan_box(name, level, box, refill, None, union)
            distinct = sum(len(indices) for indices in union.values())
            apart = sum(_needed(handle, *read) for read in READS)
            assert distinct < apart             # the requests do share chunks
            engine.read_batch(queries)
            assert _lookups(cache) == distinct == engine.stats()["chunks_decoded"]


class TestNoWorkForWhatIsCached:
    @pytest.fixture()
    def jobs(self, monkeypatch):
        """Every decode job built, as its chunk-index list."""
        built = []
        make = reader_mod.make_decode_job

        def recording(f, dplan, chunk_indices, plan):
            built.append(list(chunk_indices))
            return make(f, dplan, chunk_indices, plan)

        monkeypatch.setattr(reader_mod, "make_decode_job", recording)
        return built

    def test_cold_series_read_reports_no_hits_and_submits_no_job(self, service_series, jobs):
        with repro.open_series(service_series) as series:
            series.read()
            assert series.stats.cache_hits == 0
            assert series.stats.chunks_decoded > 0
        assert jobs == []                       # chains resolve in the step handle

    def test_cold_read_builds_one_job_per_dataset_and_a_warm_one_none(
            self, service_plotfile, jobs):
        with repro.open(service_plotfile) as handle:
            handle.read()
            datasets = handle._scan().datasets
            assert jobs == [list(range(d.nchunks)) for d in datasets]
            del jobs[:]
            for name in handle.fields:
                for level in handle.levels:
                    handle.read_field(name, level=level, refill=False)
            assert all(jobs) and sum(map(len, jobs)) == sum(d.nchunks for d in datasets)
            del jobs[:]
            decoded = handle.stats.chunks_decoded
            handle.read()
            handle.read_field(FIELD)
            assert jobs == [] and handle.stats.chunks_decoded == decoded

    def test_two_reads_share_one_scan_and_return_independent_hierarchies(
            self, service_plotfile, monkeypatch):
        scans = []
        scan = reader_mod.scan_plotfile
        monkeypatch.setattr(reader_mod, "scan_plotfile",
                            lambda f: scans.append(f.path) or scan(f))
        with repro.open(service_plotfile) as handle:
            first, second = handle.read(), handle.read()
            handle.read_field(FIELD)
            assert len(scans) == 1
            assert first is not second and first is not handle._scan().structure
            for a, b in zip(_fabs(first), _fabs(second)):
                assert np.array_equal(a, b) and not np.shares_memory(a, b)
            _fabs(first)[0][...] = -1.0         # the caller's to scribble on
            third = handle.read()
            for b, c in zip(_fabs(second), _fabs(third)):
                assert np.array_equal(b, c)
            # the scan's hierarchy is geometry only: no read ever touched its arrays
            assert all(fab._data is None for level in handle._scan().structure.levels
                       for fab in level.multifab)


class TestOneCacheManyFiles:
    def test_two_files_in_one_cache_never_collide(self, service_plotfile, tmp_path):
        """Same dataset names, same chunk indices, different data: the full
        ``(path, dataset, chunk)`` key keeps them apart."""
        other = str(tmp_path / "other.h5z")
        repro.write(nyx_run(coarse_shape=(32, 32, 32), nranks=4,
                            target_fine_density=0.03, seed=12).hierarchy,
                    other, error_bound=1e-3)
        cache = ChunkCache()
        for _ in range(2):                      # cold, then from the cache
            for path in (service_plotfile, other):
                with repro.open(path) as private, repro.open(path, cache=cache) as shared:
                    assert np.array_equal(shared.read_field(FIELD, refill=False),
                                          private.read_field(FIELD, refill=False))
        assert {key[0] for key in cache.keys()} == {service_plotfile, other}
        assert cache.stats.hits > 0


class TestHandlesDieByRefcount:
    """A request builds no reference cycle: what a closed, dropped handle held
    (its plan, its caches) is freed at once, not whenever the cycle collector
    next runs — ``series_stream``'s ``peak_rss_mb`` is three fresh handles
    and a full read in one process."""

    def test_plotfile_and_series_handles(self, service_plotfile, service_series):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            with repro.open(service_plotfile) as handle:
                handle.read_field(FIELD)
                handle.read()
                held = [weakref.ref(handle._scan()), weakref.ref(handle._cache)]
            del handle
            with repro.open_series(service_series) as series:
                series.time_slice(FIELD, box=SLICE_BOX)
                series.read()
                held += [weakref.ref(series.open_step(-1)._scan()),
                         weakref.ref(series.cache), weakref.ref(series._codes)]
            del series
            assert [ref() for ref in held] == [None] * len(held)
        finally:
            gc.enable()
