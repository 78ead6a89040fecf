"""Service-layer timing: batched warm-cache reads vs cold per-request reads.

``make bench`` runs this file into ``BENCH_service.json``: one timed run of
the pre-service access pattern (every request opens its own handle and
decodes its own chunks), one timed run of the same requests answered as a
batch by a :class:`~repro.service.engine.QueryEngine` over a warm shared
chunk cache, plus the headline assertions the serving layer exists for — the
batched warm path must be at least 3x faster on the nyx preset, and
server-mediated results must be element-wise identical to direct
``repro.open`` reads on every execution backend.

The request mix models many analysis clients probing overlapping regions of
one dump: 24 box reads sweeping the coarse domain with heavy chunk overlap.
"""

import time

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

import repro
from repro.amr.box import Box
from repro.parallel.backend import SharedMemoryBackend
from repro.service import BoxQuery, QueryEngine, ReproClient, ReproServer

NREQUESTS = 24
FIELDS = ("baryon_density", "temperature")


@pytest.fixture(scope="module")
def plotfile(tmp_path_factory, midsize_hierarchy):
    path = tmp_path_factory.mktemp("service") / "nyx.h5z"
    repro.write(midsize_hierarchy, str(path), error_bound=1e-3)
    return str(path)


@pytest.fixture(scope="module")
def queries(plotfile):
    """Overlapping probe boxes over the coarse level, two fields."""
    out = []
    for i in range(NREQUESTS):
        lo = ((3 * i) % 16, (5 * i) % 16, (7 * i) % 16)
        box = Box(lo, tuple(l + 15 for l in lo))
        out.append(BoxQuery(path=plotfile, field=FIELDS[i % len(FIELDS)],
                            level=0, box=box))
    return out


def _cold_per_request(queries):
    """Today's baseline: per-request handle, private cache, no sharing."""
    out = []
    for q in queries:
        with repro.open(q.path) as handle:
            out.append(handle.read_field(q.field, level=q.level, box=q.box))
    return out


def test_service_cold_per_request(benchmark, queries):
    """Timed: every request decodes its own chunks from scratch."""
    results = benchmark.pedantic(_cold_per_request, args=(queries,),
                                 rounds=3, iterations=1)
    assert len(results) == NREQUESTS


def test_service_warm_batched(benchmark, queries):
    """Timed: the same requests as one batch over a warm shared cache."""
    with QueryEngine() as engine:
        engine.read_batch(queries)                      # warm the cache
        results = benchmark.pedantic(engine.read_batch, args=(queries,),
                                     rounds=3, iterations=1)
        assert len(results) == NREQUESTS


def test_service_warm_single_box_read(benchmark, plotfile):
    """Timed: one 16^3 level-0 box read over a warm cache — no decode, so hit
    selection against the plan's box index and the copy loop are the read."""
    box = Box((4, 4, 4), (19, 19, 19))
    with QueryEngine() as engine:
        expected = engine.read_field(plotfile, FIELDS[0], box=box)  # warm
        plan = engine.handle(plotfile)._scan()
        benchmark.extra_info["slots"] = plan.dataset(0, FIELDS[0]).layout.nblocks
        benchmark.extra_info["fine_boxes"] = plan.header.levels[1].nboxes
        result = benchmark.pedantic(engine.read_field, args=(plotfile, FIELDS[0]),
                                    kwargs={"box": box}, rounds=25, iterations=20)
        assert np.array_equal(result, expected)


def _cold_read(benchmark, plotfile, whole_level):
    """One level-0 read with nothing cached (the handle open and scanned)."""
    with repro.open(plotfile) as handle:
        plan = handle._scan()
        layout = plan.dataset(0, FIELDS[0]).layout
        block = next(layout.box(i) for i in range(layout.nblocks)
                     if layout.shapes[i] == (16, 16, 16)
                     and not plan.layouts[0].covered.intersects(layout.box(i)))
        benchmark.extra_info["blocks"] = layout.nblocks if whole_level else 1
        result = benchmark.pedantic(
            handle.read_field, args=(FIELDS[0],),
            kwargs={"box": None if whole_level else block, "refill": False},
            setup=handle._cache.clear, rounds=15, iterations=1)
        assert result.shape == (plan.header.levels[0].domain().shape if whole_level
                                else (16, 16, 16))


def test_service_cold_unit_block_read(benchmark, plotfile):
    """Timed: one uncovered 16^3 unit block, cold — its chunk's payload is
    fetched and parsed, its own Huffman stream decoded, it alone reconstructed."""
    _cold_read(benchmark, plotfile, whole_level=False)


def test_service_cold_level_read(benchmark, plotfile):
    """Timed: every unit block of the same field and level, cold (the gate's
    yardstick: a block read must not cost a chunk, let alone the level)."""
    _cold_read(benchmark, plotfile, whole_level=True)


def test_service_warm_speedup_at_least_3x(queries):
    """The acceptance bar: batched warm-cache reads >= 3x over cold reads."""
    cold_t = min(_timed(_cold_per_request, queries) for _ in range(3))
    with QueryEngine() as engine:
        warm_results = engine.read_batch(queries)       # warm the cache
        warm_t = min(_timed(engine.read_batch, queries) for _ in range(3))
    speedup = cold_t / warm_t
    assert speedup >= 3.0, \
        f"warm batched reads only {speedup:.2f}x faster than cold"
    # same requests, same answers
    for a, b in zip(_cold_per_request(queries), warm_results):
        assert np.array_equal(a, b)


def _timed(fn, arg):
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start


def test_server_identical_to_direct_reads_across_backends(plotfile, queries):
    """Server-mediated results == direct repro.open reads, element-wise,
    with the direct side decoded inline and on a shared-memory pool."""
    with ReproServer(port=0) as server:
        with ReproClient(port=server.port) as client:
            served = client.read_batch(queries)
            with repro.open(plotfile) as direct:
                for q, arr in zip(queries, served):
                    assert np.array_equal(
                        arr, direct.read_field(q.field, level=q.level, box=q.box))
            with SharedMemoryBackend(max_workers=2) as pool:
                for backend in (None, pool):
                    with repro.open(plotfile, backend=backend) as handle:
                        hierarchy = handle.read()
                    for level in range(hierarchy.nlevels):
                        domain = hierarchy[level].domain
                        for name in FIELDS:
                            dense = hierarchy[level].multifab.to_global(name, domain)
                            assert np.array_equal(
                                dense, client.read_field(plotfile, name, level=level))
