"""The QueryEngine: pooling, batch coalescing, time slices, stats."""

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.service import BoxQuery, ChunkCache, QueryEngine


class TestHandlePool:
    def test_handles_are_pooled_per_path(self, service_plotfile):
        with QueryEngine() as engine:
            assert engine.handle(service_plotfile) is engine.handle(service_plotfile)

    def test_series_are_pooled_per_directory(self, service_series):
        with QueryEngine() as engine:
            assert engine.series(service_series) is engine.series(service_series)

    def test_all_pooled_handles_share_the_engine_cache(self, service_plotfile,
                                                       service_series):
        with QueryEngine() as engine:
            handle = engine.handle(service_plotfile)
            series = engine.series(service_series)
            assert handle._cache is engine.cache
            assert series.cache is engine.cache

    def test_describe_dispatches_plotfile_vs_series(self, service_plotfile,
                                                    service_series):
        with QueryEngine() as engine:
            assert engine.describe(service_plotfile)["self_describing"] is True
            assert engine.describe(service_series)["nsteps"] == 6

    def test_closed_engine_refuses_requests(self, service_plotfile):
        engine = QueryEngine()
        engine.close()
        with pytest.raises(ValueError, match="closed"):
            engine.handle(service_plotfile)

    def test_step_on_plain_plotfile_raises(self, service_plotfile):
        with QueryEngine() as engine:
            with pytest.raises(ValueError, match="single plotfile"):
                engine.read_field(service_plotfile, "baryon_density", step=2)

    def test_missing_path_raises_value_error(self, tmp_path):
        with QueryEngine() as engine:
            with pytest.raises(ValueError, match="no such file"):
                engine.describe(str(tmp_path / "nope.h5z"))


class TestBatchCoalescing:
    def test_batch_matches_per_request_reads(self, service_plotfile):
        queries = [BoxQuery(path=service_plotfile, field="baryon_density",
                            level=0, box=Box((i, 0, 0), (i + 7, 7, 7)))
                   for i in range(6)]
        queries.append(BoxQuery(path=service_plotfile, field="temperature",
                                level=1, box=Box((0, 0, 0), (15, 15, 15))))
        with QueryEngine() as engine:
            batch = engine.read_batch(queries)
        with repro.open(service_plotfile) as direct:
            for q, arr in zip(queries, batch):
                assert np.array_equal(
                    arr, direct.read_field(q.field, level=q.level, box=q.box))

    def test_overlapping_requests_decode_each_chunk_once(self, service_plotfile):
        # many boxes inside one unit block: all land on the same chunk set
        queries = [BoxQuery(path=service_plotfile, field="baryon_density",
                            level=0, box=Box((i, i, i), (i + 3, i + 3, i + 3)),
                            refill=False)
                   for i in range(10)]
        with QueryEngine() as engine:
            engine.read_batch(queries)
            batched = engine.stats()["chunks_decoded"]
        # per-request lower bound: a fresh handle per request decodes the
        # same chunk over and over
        per_request = 0
        for q in queries:
            with repro.open(service_plotfile) as handle:
                handle.read_field(q.field, level=q.level, box=q.box, refill=False)
                per_request += handle.stats.chunks_decoded
        assert batched < per_request
        # and the union itself was decoded exactly once per touched chunk:
        # a second identical batch decodes nothing new
        with QueryEngine() as engine:
            engine.read_batch(queries)
            first = engine.stats()["chunks_decoded"]
            engine.read_batch(queries)
            assert engine.stats()["chunks_decoded"] == first

    def test_batch_request_counters(self, service_plotfile):
        queries = [BoxQuery(path=service_plotfile, field="baryon_density",
                            box=Box((0, 0, 0), (7, 7, 7)))] * 3
        with QueryEngine() as engine:
            engine.read_batch(queries)
            engine.read_field(service_plotfile, "temperature")
            stats = engine.stats()
            assert stats["requests"] == 4
            assert stats["batches"] == 2

    def test_each_query_resolves_its_target_once(self, service_plotfile,
                                                 service_series, monkeypatch):
        from repro.service import engine as engine_module

        probed = []
        original = engine_module.is_series_dir

        def counting(path):
            probed.append(path)
            return original(path)

        monkeypatch.setattr(engine_module, "is_series_dir", counting)
        box = Box((0, 0, 0), (7, 7, 7))
        queries = [BoxQuery(path=service_plotfile, field="baryon_density", box=box),
                   BoxQuery(path=service_series, field="baryon_density", box=box,
                            step=2)]
        with QueryEngine() as engine:
            for _ in range(2):                       # cold, then warm
                probed.clear()
                answers = engine.read_batch(queries)
                assert probed == [service_plotfile, service_series]
            probed.clear()
            engine.read_batch(queries[:1])
            assert probed == [service_plotfile]
        with repro.open(service_plotfile) as direct:
            assert np.array_equal(answers[0],
                                  direct.read_field("baryon_density", box=box))
        with repro.open_series(service_series) as series:
            assert np.array_equal(
                answers[1], series.read_field("baryon_density", box=box, step=2))

    def test_unknown_field_in_batch_returns_fill(self, service_plotfile):
        # a query for a stored field whose dataset misses this level yields
        # the fill value (read_field itself raises for unknown names)
        with QueryEngine() as engine:
            with pytest.raises(KeyError, match="unknown field"):
                engine.read_field(service_plotfile, "no_such_field")


class TestSeriesQueries:
    def test_series_step_reads_match_direct(self, service_series):
        box = Box((0, 0, 0), (7, 7, 7))
        with QueryEngine() as engine, repro.open_series(service_series) as direct:
            for step in range(6):
                served = engine.read_field(service_series, "baryon_density",
                                           box=box, step=step, refill=False)
                expected = direct.read_field("baryon_density", box=box,
                                             step=step, refill=False)
                assert np.array_equal(served, expected)

    def test_time_slice_matches_direct(self, service_series):
        box = Box((2, 2, 2), (5, 5, 5))
        with QueryEngine() as engine, repro.open_series(service_series) as direct:
            t_served, v_served = engine.time_slice(service_series,
                                                   "baryon_density", box=box,
                                                   refill=False)
            t_direct, v_direct = direct.time_slice("baryon_density", box=box,
                                                   refill=False)
        assert np.array_equal(t_served, t_direct)
        assert np.array_equal(v_served, v_direct)

    def test_time_slice_decodes_each_stream_once(self, service_series):
        box = Box((0, 0, 0), (3, 3, 3))
        with QueryEngine() as engine:
            engine.time_slice(service_series, "baryon_density", box=box,
                              refill=False)
            first = engine.stats()["chunks_decoded"]
            # the chains are warm: a second slice decodes nothing new
            engine.time_slice(service_series, "baryon_density", box=box,
                              refill=False)
            assert engine.stats()["chunks_decoded"] == first
        # the engine's slice is the series handle's: same streams, same lookups
        with repro.open_series(service_series) as direct:
            direct.time_slice("baryon_density", box=box, refill=False)
            assert first == direct.stats.chunks_decoded

    def test_time_slice_step_subset(self, service_series):
        box = Box((0, 0, 0), (3, 3, 3))
        with QueryEngine() as engine:
            times, values = engine.time_slice(service_series, "baryon_density",
                                              box=box, steps=[1, 3], refill=False)
        assert values.shape[0] == 2 and times.shape == (2,)

    def test_time_slice_counts_one_request_per_step_asked_for(self, service_series):
        box = Box((0, 0, 0), (3, 3, 3))
        with QueryEngine() as engine:
            engine.time_slice(service_series, "baryon_density", box=box, refill=False)
            assert engine.stats()["requests"] == 6
            engine.time_slice(service_series, "baryon_density", box=box,
                              steps=[1, -1, 1], refill=False)
            assert engine.stats()["requests"] == 9
            with pytest.raises(IndexError, match="out of range"):
                engine.time_slice(service_series, "baryon_density", box=box, steps=[6])
            assert engine.stats()["requests"] == 9          # a refused slice is no request

    def test_engine_reaches_chunks_only_through_the_handles(self):
        """The count above is the caller's step list, and every chunk comes
        through a handle's read methods: the engine names neither the series'
        index arithmetic nor a cache lookup of its own."""
        import inspect

        from repro.service import engine as engine_module

        source = inspect.getsource(engine_module)
        for private in ("_step_index", "_decode_chunks", "_decode_missing",
                        "cache.get(", "_codes"):
            assert private not in source, private


class TestConcurrentDecodes:
    def test_threads_decoding_one_pooled_handle_read_correctly(
            self, service_plotfile):
        # many threads pull *different* fields/chunks through one pooled
        # handle at once — chunk payload reads on the shared file must not
        # interleave (H5LiteFile serialises seek+read)
        import threading

        with repro.open(service_plotfile) as direct:
            expected = {name: direct.read_field(name, level=0, refill=False)
                        for name in direct.fields}
        failures = []
        with QueryEngine() as engine:
            def worker(name):
                try:
                    arr = engine.read_field(service_plotfile, name, level=0,
                                            refill=False)
                    if not np.array_equal(arr, expected[name]):
                        failures.append(name)
                except Exception as exc:  # noqa: BLE001
                    failures.append((name, repr(exc)))

            threads = [threading.Thread(target=worker, args=(name,))
                       for name in expected for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []


class TestEngineStats:
    def test_stats_snapshot_shape(self, service_plotfile):
        with QueryEngine(cache=ChunkCache(max_bytes=1 << 20)) as engine:
            engine.read_field(service_plotfile, "baryon_density",
                              box=Box((0, 0, 0), (7, 7, 7)), refill=False)
            stats = engine.stats()
        assert stats["plotfiles_open"] == 1
        assert stats["cache_max_bytes"] == 1 << 20
        assert stats["chunks_decoded"] > 0
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
