"""The one block door (``PlotfileHandle._blocks``) under every consumer.

The unit block is the unit of decode and of cache, the chunk payload only of
I/O.  Whatever the cache budget — 1 byte (every block rejected), 64 KiB
(constant eviction) or the default — ``read_field``, ``read()``, ``time_slice``
and ``read_batch`` return the same arrays, look each needed block up once and
decode it at most once per request; a box inside one unit block entropy-decodes
that block's stream, not its chunk's; a full read consults the cache without
populating it; a request whose blocks are all cached submits no decode job; and
every answer equals the parent's chunk door (``ParentChunkDoor`` in
tests/conftest.py, whole chunks decoded one at a time) element for element.
"""

import numpy as np
import pytest

import repro
import repro.core.reader as reader_mod
from repro.amr.box import Box
from repro.apps import nyx_run
from repro.compress.huffman import HuffmanCodec
from repro.compress.temporal import MODE_DELTA, TemporalDeltaCodec
from repro.parallel.backend import SharedMemoryBackend
from repro.service import BoxQuery, ChunkCache, QueryEngine

BUDGETS = (1, 64 << 10, None)                   # None: the default budget
FIELD = "baryon_density"
#: (field, level, box, refill): refill reads reach into the finer level, and
#: the two boxes of one field share blocks
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
    """How many distinct unit blocks one read meets, by the handle's own plan."""
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
                decoded, counted = handle.stats.blocks_decoded, handle.stats.cache_hits
                chunks = handle.stats.chunks_decoded
                handle.read_field(name, level=level, box=box, refill=refill)
                assert _lookups(cache) - lookups == needed
                assert handle.stats.cache_hits - counted == cache.stats.hits - hits
                misses = needed - (cache.stats.hits - hits)
                assert handle.stats.blocks_decoded - decoded == misses
                # (a payload is entropy-decoded in part: never more payloads than blocks)
                assert bool(misses) <= handle.stats.chunks_decoded - chunks <= misses
            total = sum(d.layout.nblocks for d in handle._scan().datasets)
            lookups, hits = _lookups(cache), cache.stats.hits
            decoded = handle.stats.blocks_decoded
            offered = cache.stats.insertions + cache.stats.rejected
            handle.read()
            assert _lookups(cache) - lookups == total
            assert handle.stats.blocks_decoded - decoded == total - (cache.stats.hits - hits)
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
                before, blocks = engine.stats(), handle.stats.blocks_decoded
                engine.read_field(service_plotfile, name, level=level, box=box,
                                  refill=refill)
                after = engine.stats()
                delta = {key: after[key] - before[key]
                         for key in ("cache_hits", "cache_misses", "chunks_decoded")}
                assert delta["cache_hits"] + delta["cache_misses"] == needed
                assert handle.stats.blocks_decoded - blocks == delta["cache_misses"] <= needed
                assert delta["chunks_decoded"] <= delta["cache_misses"]
            registry = engine.metrics_snapshot(include_global=False)
            (sample,) = registry["repro_blocks_decoded_total"]["samples"]
            assert sample["value"] == handle.stats.blocks_decoded > 0

    def test_a_warm_one_block_read_is_one_hit_and_a_rejecting_cache_one_decode(
            self, service_plotfile):
        with repro.open(service_plotfile) as probe:
            box = probe._scan().dataset(0, FIELD).layout.box(0)     # one unit block
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

    def test_a_batch_looks_shared_blocks_up_once(self, service_plotfile):
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
            assert distinct < apart             # the requests do share blocks
            engine.read_batch(queries)
            assert _lookups(cache) == distinct == handle.stats.blocks_decoded
            # one job per dataset: each payload entropy-decoded once for the batch
            assert engine.stats()["chunks_decoded"] == sum(
                len(d.pieces_of(sorted(slots))) for d, slots in union.items())


class TestABlockReadDoesNotDecodeItsChunk:
    @pytest.fixture()
    def passes(self, monkeypatch):
        """The symbol count of every entropy pass."""
        seen = []
        decode = HuffmanCodec.decode
        monkeypatch.setattr(HuffmanCodec, "decode",
                            lambda self, enc: seen.append(enc.nsymbols) or decode(self, enc))
        return seen

    def test_a_box_inside_one_block_decodes_one_block_per_level_it_touches(
            self, service_plotfile, passes):
        with repro.open(service_plotfile) as handle:
            plan = handle._scan()
            coarse = plan.dataset(0, FIELD)
            # an uncovered 16^3 unit block of a chunk that holds more than it
            index, block = next(
                (i, coarse.layout.box(i)) for i in range(coarse.layout.nblocks)
                if coarse.layout.shapes[i] == (16, 16, 16)
                and not plan.layouts[0].covered.intersects(coarse.layout.box(i)))
            chunk = coarse.layout.chunk_of[index]
            chunk_cells = sum(size for _, size in coarse.chunk_layout(chunk))
            assert chunk_cells > coarse.layout.sizes[index] == 4096
            inside = Box(tuple(l + 3 for l in block.lo), tuple(h - 5 for h in block.hi))
            got = handle.read_field(FIELD, box=inside)
            assert passes == [4096]
            assert (handle.stats.chunks_decoded, handle.stats.blocks_decoded) == (1, 1)
            assert handle._cache.keys() == [(handle.path, coarse.name, index)]
            # two cells across the edge of a refined region: a block of each level
            del passes[:]
            domain = plan.header.levels[0].domain()
            for lo in np.ndindex(*(n - 1 for n in domain.shape)):
                edge, needed = Box(lo, (lo[0] + 1, lo[1], lo[2])), {}
                handle._plan_box(FIELD, 0, edge, True, None, needed)
                if sorted((d.level, len(slots)) for d, slots in needed.items()) \
                        == [(0, 1), (1, 1)] and not any(
                            (handle.path, d.name, i) in handle._cache.keys()
                            for d, slots in needed.items() for i in slots):
                    break
            both = handle.read_field(FIELD, box=edge)
            assert sorted(passes) == sorted(d.layout.sizes[i] for d, slots in needed.items()
                                            for i in slots)
            assert handle.stats.blocks_decoded == 3
        with repro.open(service_plotfile) as whole:
            dense = whole.read_field(FIELD)
        assert np.array_equal(got, dense[inside.slices(origin=domain.lo)])
        assert np.array_equal(both, dense[edge.slices(origin=domain.lo)])

    @pytest.mark.parametrize("backend", [None, "shm"], indirect=True)
    def test_cached_blocks_own_their_memory_and_the_budget_counts_them(
            self, service_plotfile, service_series, backend):
        cache = ChunkCache()
        with repro.open(service_plotfile, backend=backend, cache=cache) as handle, \
                repro.open_series(service_series, cache=cache) as series:
            for n, l, b, r in READS:
                handle.read_field(n, level=l, box=b, refill=r)
            series.time_slice(FIELD, box=SLICE_BOX)
            entries = dict(cache._entries)
            assert len(entries) > 10
            assert all(block.base is None and block.flags.owndata
                       for block in entries.values())
            assert cache.current_bytes == sum(block.nbytes for block in entries.values())
            sizes = {block.size for block in entries.values()}
            assert max(sizes) <= 16 ** 3          # unit blocks, not chunks


def _flavour(name, hierarchy, path):
    """One way of writing ``hierarchy`` that the staged reader reads back."""
    from repro.baselines.nocomp import NoCompressionWriter
    from repro.core import AMRICConfig

    if name == "nocomp":                        # raw: one uncompressed chunk per rank
        NoCompressionWriter().write_plotfile(hierarchy, path)
    elif name == "no_sle":                      # one Huffman table per unit block
        repro.write(hierarchy, path, config=AMRICConfig(error_bound=1e-3, use_sle=False))
    else:                                       # sz_lr under unit SLE, and the codecs
        repro.write(hierarchy, path, compressor=name, error_bound=1e-3)   # that decode whole


def _series_step_chunk_door(base, series, step):
    """``ParentChunkDoor`` for one step of a series: a chunk is its chain of
    streams read and decoded one at a time, newest first, and folded."""

    class Door(base):
        def chunks(self, dplan, indices):
            out = {}
            for index in indices:
                at, pending = step, []
                while True:
                    f = series.open_step(at)._file
                    info = f.datasets[dplan.name]
                    mode, eb, offset = TemporalDeltaCodec.grid_of(info.attrs["codec"])
                    (codes,) = TemporalDeltaCodec.unpack_codes_many(
                        [f.read_chunk_payloads(dplan.name, [index])[0]], [info.attrs["codec"]],
                        [info.chunks[index].actual_elements])
                    if mode != MODE_DELTA:
                        break
                    pending.append(codes)
                    at = series.index.steps[at].dataset(dplan.name).ref
                for deltas in reversed(pending):
                    codes = codes + deltas
                values = np.zeros(dplan.chunk_elements)
                values[:codes.size] = TemporalDeltaCodec.grid_values(codes, eb, offset)
                out[index] = values
            return out

    return Door(series.open_step(step))


class TestEveryAnswerEqualsTheParentChunkDoor:
    FLAVOURS = ("sz_lr", "no_sle", "sz_interp", "sz_1d", "nocomp")

    @pytest.fixture(scope="class")
    def hierarchy(self):
        return nyx_run(coarse_shape=(32, 32, 32), nranks=4, target_fine_density=0.03,
                       seed=11).hierarchy

    @pytest.mark.parametrize("flavour", FLAVOURS)
    def test_plotfile(self, hierarchy, tmp_path, parent_chunk_door, flavour):
        path = str(tmp_path / "plt.h5z")
        _flavour(flavour, hierarchy, path)
        queries = [BoxQuery(path=path, field=n, level=l, box=b, refill=r)
                   for n, l, b, r in READS]
        cache = ChunkCache()
        with repro.open(path) as ref_handle, repro.open(path, cache=cache) as handle, \
                QueryEngine(cache_bytes=64 << 10) as engine:
            ref = parent_chunk_door(ref_handle)
            want = [ref.read_field(n, l, b, r) for n, l, b, r in READS]
            for _ in range(2):                  # cold, then from cached blocks
                for (n, l, b, r), array in zip(READS, want):
                    assert np.array_equal(handle.read_field(n, level=l, box=b, refill=r), array)
            for got, array in zip(engine.read_batch(queries), want):
                assert np.array_equal(got, array)
            full = _fabs(ref.read())
            with SharedMemoryBackend(max_workers=2) as pool:
                for backend in (None, pool):
                    # over the warm cache: the full read reuses the box reads' blocks
                    with repro.open(path, backend=backend, cache=cache) as again:
                        for got, array in zip(_fabs(again.read()), full, strict=True):
                            assert np.array_equal(got, array)

    def test_series(self, service_series, parent_chunk_door):
        with repro.open_series(service_series) as ref_series, \
                repro.open_series(service_series) as series:
            steps = range(series.nsteps)
            doors = [_series_step_chunk_door(parent_chunk_door, ref_series, step)
                     for step in steps]
            for step in (5, 2, 4):
                for n, l, b, r in READS:
                    assert np.array_equal(
                        series.read_field(n, level=l, box=b, step=step, refill=r),
                        doors[step].read_field(n, l, b, r))
            _, values = series.time_slice(FIELD, box=SLICE_BOX)
            assert np.array_equal(values, np.stack(
                [door.read_field(FIELD, 0, SLICE_BOX) for door in doors]))
            for got, array in zip(_fabs(series.read(step=-1)), _fabs(doors[-1].read()),
                                  strict=True):
                assert np.array_equal(got, array)

    def test_amrex_1d_box_major_files_are_still_refused_at_the_scan(self, hierarchy, tmp_path):
        path = str(tmp_path / "amrex.h5z")
        repro.write(hierarchy, path, method="amrex_1d", error_bound=1e-2)
        with repro.open(path) as handle:
            for read in (handle.read, lambda: handle.read_field(FIELD)):
                with pytest.raises(ValueError, match="box-major"):
                    read()


def _with_payload(src_path, dst_path, dsname, chunk, payload_of):
    """A copy of a plotfile whose chunk ``chunk`` of ``dsname`` stores
    ``payload_of(file, payload)`` instead; its chunk table is otherwise kept."""
    from repro.h5lite.file import H5LiteFile

    with H5LiteFile(src_path, "r") as src, H5LiteFile(dst_path, "w") as dst:
        dst.attrs.update(src.attrs)
        dst.header = src.header
        for name, info in src.datasets.items():
            payloads = src.read_chunk_payloads(name, range(info.nchunks))
            if name == dsname:
                payloads[chunk] = payload_of(src, payloads[chunk])
            dst.create_dataset_from_chunks(
                name, payloads, shape=info.shape, dtype=info.dtype,
                chunk_elements=info.chunk_elements, filter_id=info.filter_id,
                actual_elements_per_chunk=[c.actual_elements for c in info.chunks],
                attrs=info.attrs)
    return dst_path


@pytest.fixture(scope="module")
def raw_service_plotfile(tmp_path_factory):
    """``service_plotfile``'s hierarchy written raw (``nocomp``)."""
    hierarchy = nyx_run(coarse_shape=(32, 32, 32), nranks=4, target_fine_density=0.03,
                        seed=11).hierarchy
    path = str(tmp_path_factory.mktemp("raw") / "raw.h5z")
    repro.write(hierarchy, path, method="nocomp")
    return path


class TestAPayloadOfAnotherDatasetIsRefused:
    """Chunk payloads swapped between two datasets of a real plotfile (same
    field, the other level — so codec, bound and field all match): nothing
    used to compare what a payload holds with what the dataset lays out, and a
    4,096-cell chunk read as a larger one came back as silent zeros.  A raw
    (``nocomp``) chunk must decode to exactly its blocks' cells."""

    @staticmethod
    def _refused_only_there(path, good_path, level, chunk):
        with repro.open(good_path) as good, repro.open(path) as handle:
            dplan = handle._scan().dataset(level, FIELD)
            first = dplan.layout.box(dplan.layout.rank_runs[chunk].start)
            for read in (lambda: handle.read_field(FIELD, level=level, box=first, refill=False),
                         handle.read):
                with pytest.raises(ValueError,
                                   match=rf"level_{level}/{FIELD}, chunks \[{chunk}") as exc:
                    read()
                assert "blocks" in str(exc.value)
            # every other dataset and chunk of the file still reads
            assert np.array_equal(handle.read_field("temperature", level=level),
                                  good.read_field("temperature", level=level))
            for index, at in enumerate(dplan.layout.chunk_of):
                if at != chunk:
                    box = dplan.layout.box(index)
                    assert np.array_equal(
                        handle.read_field(FIELD, level=level, box=box, refill=False),
                        good.read_field(FIELD, level=level, box=box, refill=False))

    @pytest.mark.parametrize("flavour", ["sz_lr", "nocomp"])
    @pytest.mark.parametrize("into, other", [("level_0", "level_1"), ("level_1", "level_0")])
    def test_both_directions(self, service_plotfile, raw_service_plotfile, tmp_path,
                             flavour, into, other):
        good = raw_service_plotfile if flavour == "nocomp" else service_plotfile
        swapped = _with_payload(good, str(tmp_path / "swapped.h5z"), f"{into}/{FIELD}", 0,
                                lambda f, _: f.read_chunk_payloads(f"{other}/{FIELD}", [0])[0])
        self._refused_only_there(swapped, good, int(into[-1]), 0)

    @pytest.mark.parametrize("change", ["8 bytes short", "8 bytes long"])
    def test_a_raw_payload_of_another_length(self, raw_service_plotfile, tmp_path, change):
        """Stored bytes are raw bytes: one element fewer or more is damage."""
        with repro.open(raw_service_plotfile) as handle:
            assert handle.dataset_info(f"level_1/{FIELD}").nchunks > 1
        damaged = _with_payload(
            raw_service_plotfile, str(tmp_path / "damaged.h5z"), f"level_1/{FIELD}", 0,
            lambda _, raw: raw[:-8] if change == "8 bytes short" else raw + raw[:8])
        self._refused_only_there(damaged, raw_service_plotfile, 1, 0)


class TestNoWorkForWhatIsCached:
    @pytest.fixture()
    def jobs(self, monkeypatch):
        """Every decode job built, as the list of chunk payloads it fetches."""
        built = []
        make = reader_mod.make_decode_job

        def recording(f, dplan, wanted, *kept):
            built.append(list(wanted))
            return make(f, dplan, wanted, *kept)

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
            assert first is not second
            for a, b in zip(_fabs(first), _fabs(second)):
                assert np.array_equal(a, b) and not np.shares_memory(a, b)
            _fabs(first)[0][...] = -1.0         # the caller's to scribble on
            third = handle.read()
            for b, c in zip(_fabs(second), _fabs(third)):
                assert np.array_equal(b, c)


class TestOneCacheManyFiles:
    def test_two_files_in_one_cache_never_collide(self, service_plotfile, tmp_path):
        """Same dataset names, same slot indices, different data: the full
        ``(path, dataset, slot)`` key keeps them apart."""
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
