"""Cross-source read identity and progressive (max_level) reads.

Reads through a coalescing :class:`RangeSource` are element-wise identical to
the default :class:`LocalFileSource`, across codecs, for plotfiles and series,
with the shm backend included.
Plus the progressive-read semantics of ``max_level`` and the I/O counters
that :class:`~repro.core.reader.ReadStats` now carries.
"""

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.analysis.reporting import io_stats_rows
from repro.h5lite.source import LocalFileSource, RangeSource
from repro.parallel import shm
from repro.service.engine import BoxQuery, QueryEngine

SPATIAL_CODECS = ("sz_lr", "sz_interp", "sz_1d")

#: RangeSource specs read against the default (None = LocalFileSource):
#: every option at its default, coalescing across gaps, and a budget small
#: enough to evict mid-read
SOURCES = ("range", "block:4k,gap:8k", "block:1k,cache:8k,gap:0")

BACKENDS = ("serial",) + (("shm",) if shm.HAVE_SHARED_MEMORY else ())


def _to_globals(hierarchy):
    return {(lvl, name): hierarchy[lvl].multifab.to_global(name, hierarchy[lvl].domain)
            for lvl in range(hierarchy.nlevels)
            for name in hierarchy.component_names}


@pytest.fixture(scope="module", params=SPATIAL_CODECS)
def codec_plotfile(request, nyx_hierarchy, tmp_path_factory):
    path = tmp_path_factory.mktemp("src") / f"plt_{request.param}.h5z"
    repro.write(nyx_hierarchy, str(path), compressor=request.param,
                error_bound=1e-3)
    return str(path)


@pytest.fixture(scope="module")
def baseline(codec_plotfile):
    with repro.open(codec_plotfile) as handle:
        return _to_globals(handle.read())


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    from repro.apps.nyx import NyxSimulation

    sim = NyxSimulation(coarse_shape=(24, 24, 24), nranks=2,
                        target_fine_density=0.03, max_grid_size=12, seed=42,
                        drift_rate=0.05)
    path = str(tmp_path_factory.mktemp("src_series") / "run")
    repro.write_series(list(sim.run(4)), path, keyframe_interval=2,
                       error_bound=1e-3)
    return path


class TestPlotfileIdentity:
    @pytest.mark.parametrize("source", SOURCES)
    def test_full_read_identical_across_sources(self, codec_plotfile,
                                                baseline, source):
        with repro.open(codec_plotfile, source=source) as handle:
            got = _to_globals(handle.read())
        assert set(got) == set(baseline)
        for key, expected in baseline.items():
            np.testing.assert_array_equal(got[key], expected, err_msg=str(key))

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_backends_identical_over_range_source(self, codec_plotfile,
                                                  baseline, backend):
        with repro.open(codec_plotfile, backend=backend,
                        source="block:4k,gap:8k") as handle:
            got = _to_globals(handle.read())
        for key, expected in baseline.items():
            np.testing.assert_array_equal(got[key], expected, err_msg=str(key))

    def test_box_read_identical_over_range_source(self, codec_plotfile):
        box = Box((4, 4, 4), (24, 24, 24))
        with repro.open(codec_plotfile) as handle:
            expected = handle.read_field("baryon_density", level=0, box=box)
        with repro.open(codec_plotfile,
                        source="block:2k,cache:64k") as handle:
            got = handle.read_field("baryon_density", level=0, box=box)
        np.testing.assert_array_equal(got, expected)

    def test_source_instance_is_used_as_is(self, codec_plotfile, baseline):
        source = RangeSource(LocalFileSource(codec_plotfile), block_bytes=4096)
        with repro.open(codec_plotfile, source=source) as handle:
            got = _to_globals(handle.read())
            assert handle.source_stats is source.stats
        for key, expected in baseline.items():
            np.testing.assert_array_equal(got[key], expected, err_msg=str(key))


@pytest.mark.parametrize("spec", ["mmap", "memory", "local", "readahead:2"])
def test_open_refuses_removed_source_tokens(spec):
    # a spec string holds RangeSource modifiers only; the error names them,
    # and comes before any byte of the (here: not a plotfile) file is read
    with pytest.raises(ValueError, match=r"unknown source spec token.*"
                                         r"latency:<value>.*'range'"):
        repro.open(__file__, source=spec)


class TestSeriesIdentity:
    @pytest.mark.parametrize("source", SOURCES)
    def test_reads_identical_across_sources(self, series_dir, source):
        with repro.open_series(series_dir) as series:
            expected_field = series.read_field("baryon_density", step=3)
            times, expected_slice = series.time_slice(
                "baryon_density", box=Box((0, 0, 0), (8, 8, 8)))
        with repro.open_series(series_dir, source=source) as series:
            np.testing.assert_array_equal(
                series.read_field("baryon_density", step=3), expected_field)
            got_times, got_slice = series.time_slice(
                "baryon_density", box=Box((0, 0, 0), (8, 8, 8)))
            np.testing.assert_array_equal(got_times, times)
            np.testing.assert_array_equal(got_slice, expected_slice)

    def test_rejects_single_source_instance(self, series_dir):
        with LocalFileSource(__file__) as source:
            with pytest.raises(ValueError, match="one file per step"):
                repro.open_series(series_dir, source=source)

    def test_factory_opens_every_step(self, series_dir):
        built = []

        def factory(path):
            src = LocalFileSource(path)
            built.append(path)
            return src

        with repro.open_series(series_dir, source=factory) as series:
            series.read_field("baryon_density", step=0)
            series.read_field("baryon_density", step=3)
        assert len(built) >= 2                  # step 3 chains back to a key


class TestProgressiveReads:
    @pytest.fixture(scope="class")
    def plotfile(self, nyx_hierarchy, tmp_path_factory):
        path = tmp_path_factory.mktemp("prog") / "plt.h5z"
        repro.write(nyx_hierarchy, str(path), error_bound=1e-3)
        return str(path)

    def test_max_level_zero_matches_refill_off(self, plotfile):
        with repro.open(plotfile) as handle:
            capped = handle.read_field("baryon_density", level=0, max_level=0)
            no_refill = handle.read_field("baryon_density", level=0,
                                          refill=False)
            full = handle.read_field("baryon_density", level=0)
        np.testing.assert_array_equal(capped, no_refill)
        # the cap must matter: the hierarchy has refined regions, so the
        # full-resolution read differs where refill recursed
        assert not np.array_equal(capped, full)

    def test_max_level_at_finest_is_full_resolution(self, plotfile):
        with repro.open(plotfile) as handle:
            nlevels = len(handle.header.levels)
            capped = handle.read_field("baryon_density", level=0,
                                       max_level=nlevels - 1)
            full = handle.read_field("baryon_density", level=0)
        np.testing.assert_array_equal(capped, full)

    def test_level_above_cap_raises(self, plotfile):
        with repro.open(plotfile) as handle:
            with pytest.raises(ValueError, match="finer than max_level"):
                handle.read_field("baryon_density", level=1, max_level=0)

    def test_coarse_probe_fetches_fewer_bytes(self, plotfile):
        with repro.open(plotfile, source="block:1k,cache:64k") as handle:
            handle.read_field("baryon_density", level=0, max_level=0)
            coarse_bytes = handle.source_stats.bytes_read
        with repro.open(plotfile, source="block:1k,cache:64k") as handle:
            handle.read_field("baryon_density", level=0)
            full_bytes = handle.source_stats.bytes_read
        assert coarse_bytes < full_bytes


class TestIOStats:
    def test_superblock_read_is_charged(self, codec_plotfile):
        with repro.open(codec_plotfile) as handle:
            assert handle.source_stats.bytes_read > 0   # preamble + superblock
            assert handle.source_stats.requests >= 2
            assert handle.source_stats.coalesced_requests >= 1

    def test_full_read_counters(self, codec_plotfile):
        with repro.open(codec_plotfile) as handle:
            handle.read()
            stats = handle.source_stats
            assert stats.requests >= stats.coalesced_requests >= 1
            assert stats.bytes_read > 0
            rows = io_stats_rows(handle)
            # each counter is printed once
            assert len({r["metric"] for r in rows}) == len(rows)
            rows = {r["metric"]: r["value"] for r in rows}
            assert rows["source_bytes_read"] == stats.bytes_read
            assert rows["source_requests"] == stats.requests
            assert rows["chunks_decoded"] == handle.stats.chunks_decoded > 0
            assert not {"bytes_read", "requests", "coalesced_requests"} & set(rows)

    def test_range_source_rows_carry_cache_counters(self, codec_plotfile):
        with repro.open(codec_plotfile,
                        source="block:4k,cache:64k") as handle:
            assert isinstance(handle.source_stats.hit_rate, float)
            handle.read()
            rows = {r["metric"]: r["value"] for r in io_stats_rows(handle)}
            assert rows["source_cache_hits"] >= 0
            assert rows["source_coalescing_factor"] >= 1.0

    def test_series_accumulates_step_io(self, series_dir):
        with repro.open_series(series_dir, source="range") as series:
            assert series.source_stats.bytes_read == 0      # no step opened yet
            series.open_step(3)
            opened = series.source_stats.bytes_read
            assert opened > 0                               # the superblock loads
            series.read_field("baryon_density", step=3)
            total = series.source_stats
            assert total.bytes_read > opened
            assert total.requests >= total.coalesced_requests
            # the ledger is the opened steps' own sources, added up
            assert len(series._handles) >= 2                # step 3 chains back to a key
            assert total.bytes_read == sum(
                h.source_stats.bytes_read for h in series._handles.values())
            rows = {r["metric"]: r["value"] for r in io_stats_rows(series)}
            assert rows["source_bytes_read"] == total.bytes_read

    def test_engine_surfaces_io_totals(self, codec_plotfile):
        with QueryEngine(source="range") as engine:
            expected = engine.read_field(codec_plotfile, "baryon_density")
            with repro.open(codec_plotfile) as handle:
                np.testing.assert_array_equal(
                    expected, handle.read_field("baryon_density"))
            stats = engine.stats()
            assert stats["io_bytes_read"] > 0
            assert stats["io_requests"] >= stats["io_coalesced_requests"]

    def test_engine_honours_max_level(self, codec_plotfile):
        with QueryEngine() as engine:
            capped = engine.read_field(codec_plotfile, "baryon_density",
                                       level=0, max_level=0)
        with repro.open(codec_plotfile) as handle:
            np.testing.assert_array_equal(
                capped, handle.read_field("baryon_density", level=0,
                                          refill=False))

    def test_boxquery_max_level_round_trips(self):
        query = BoxQuery(path="p", field="f", level=0, max_level=1)
        assert BoxQuery.from_json(query.to_json()) == query
        assert BoxQuery.from_json({"path": "p", "field": "f"}).max_level is None
