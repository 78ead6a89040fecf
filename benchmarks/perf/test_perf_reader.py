"""Read-path timing on the nyx_1 preset: staged full reads and random access.

``make bench`` runs this file separately into ``BENCH_reader.json`` so the
read-side numbers are tracked per PR next to the writer's
(``BENCH_writer.json``): the serial staged decode, the shm-pooled decode,
and single-field box-bounded random access (which must only pay for the
intersecting chunks).
"""

import pytest

pytest.importorskip("pytest_benchmark")

import repro
from repro.parallel.backend import SharedMemoryBackend

POOL_WORKERS = 4


@pytest.fixture(scope="module")
def plotfile(midsize_hierarchy, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("perf_reader") / "plt.h5z")
    repro.write(midsize_hierarchy, path, compressor="sz_lr", error_bound=1e-3)
    return path


def test_reader_full_serial(benchmark, plotfile, stamp_backend):
    stamp_backend("serial", 1)

    def full_read():
        with repro.open(plotfile) as handle:
            return handle.read()

    hierarchy = benchmark.pedantic(full_read, rounds=3, iterations=1)
    assert hierarchy.nlevels >= 1


def test_reader_full_shm_backend(benchmark, plotfile, stamp_backend):
    """The zero-copy read path: decode jobs ship payload bytes to a
    persistent process pool through shared memory and the chunk arrays come
    back as views over shared buffers (the ``bench_check`` speedup gate
    compares this against the serial case)."""
    stamp_backend("shm", POOL_WORKERS)
    with SharedMemoryBackend(max_workers=POOL_WORKERS) as backend:
        def full_read():
            with repro.open(plotfile, backend=backend) as handle:
                return handle.read()

        # warmup_rounds: time the persistent pool's steady state, not its spawn
        hierarchy = benchmark.pedantic(full_read, rounds=3, iterations=1,
                                       warmup_rounds=1)
    assert hierarchy.nlevels >= 1


def test_reader_single_field_random_access(benchmark, plotfile, midsize_hierarchy):
    """Box-bounded read of one field: decodes only the intersecting chunks."""
    box = midsize_hierarchy[0].boxarray.boxes[0]

    def window_read():
        # a fresh handle per round: the chunk cache must not hide decode cost
        with repro.open(plotfile) as handle:
            data = handle.read_field("baryon_density", level=0, box=box,
                                     refill=False)
            return data, handle.stats.chunks_decoded

    data, chunks_decoded = benchmark.pedantic(window_read, rounds=3, iterations=1)
    assert data.shape == box.shape
    with repro.open(plotfile) as handle:
        total = handle.dataset_info("level_0/baryon_density").nchunks
    assert chunks_decoded <= total


def test_reader_scan_only(benchmark, plotfile):
    """Plan reconstruction without any decoding (the scan stage alone)."""
    from repro.core.reader import scan_plotfile
    from repro.h5lite.file import H5LiteFile

    def scan():
        with H5LiteFile(plotfile, "r") as f:
            return scan_plotfile(f)

    plan = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert plan.datasets
