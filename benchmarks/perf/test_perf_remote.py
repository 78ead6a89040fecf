"""Remote-read timing: coalescing and progressive reads over a slow source.

``make bench`` runs this file into ``BENCH_remote.json``.  Every read goes
through a :class:`~repro.h5lite.source.RangeSource` that simulates a
high-latency ranged-read medium (50 ms per round-trip, 10 MB/s), so the
numbers reflect round-trips saved rather than local decode speed:

* ``test_remote_read_full`` — a full-resolution ``handle.read()`` of the
  whole plotfile, stamping the pre/post-coalescing request counts and bytes
  fetched into ``extra_info`` (``tools/bench_check.py`` asserts the
  coalescing factor stays >= 3x);
* ``test_remote_probe_coarse`` — the time-to-first-array probe: a
  ``max_level=0`` box read that shows a coarse preview without touching any
  fine chunk (the gate asserts it fetches <= 25% of the bytes and <= 50% of
  the wall time of the full read);
* ``test_remote_probe_uncapped`` — the same probe without the cap, for the
  progressive-refinement delta in the recorded JSON.
"""

import pytest

pytest.importorskip("pytest_benchmark")

import repro
from repro.amr.box import Box
from repro.apps import nyx_run

#: 50 ms per round-trip + 10 MB/s, 4 KiB blocks: S3-ish ranged reads
REMOTE_SPEC = "latency:50ms,bandwidth:10m,block:4k,gap:64k,cache:32m"

#: many ranks -> many chunks per dataset, so coalescing has work to do
NRANKS = 16


@pytest.fixture(scope="module")
def remote_hierarchy():
    return nyx_run(coarse_shape=(48, 48, 48), nranks=NRANKS, max_grid_size=12,
                   target_fine_density=0.05, seed=77).hierarchy


@pytest.fixture(scope="module")
def plotfile(remote_hierarchy, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("perf_remote") / "plt.h5z")
    repro.write(remote_hierarchy, path, compressor="sz_lr", error_bound=1e-3)
    return path


@pytest.fixture(scope="module")
def probe_box(remote_hierarchy):
    """A coarse-level box straddling the first refined region's edge, so an
    uncapped read would recurse into fine chunks (the cap must matter)."""
    fine = remote_hierarchy[1].boxarray.boxes[0]
    ratio = remote_hierarchy.ref_ratios[0]
    return Box(tuple(max(0, v // ratio - 4) for v in fine.lo),
               tuple(v // ratio + 4 for v in fine.hi))


def _stamp_io(benchmark, stats) -> None:
    benchmark.extra_info["io_requests"] = stats.requests
    benchmark.extra_info["io_coalesced_requests"] = stats.coalesced_requests
    benchmark.extra_info["io_bytes_read"] = stats.bytes_read


def test_remote_read_full(benchmark, plotfile):
    """Full-resolution load of the whole plotfile over the slow source."""

    def full_read():
        # a fresh handle (and source) per round: every round pays the
        # superblock and every chunk fetch, like a cold client would
        with repro.open(plotfile, source=REMOTE_SPEC) as handle:
            hierarchy = handle.read()
            return hierarchy, handle.source_stats

    hierarchy, stats = benchmark.pedantic(full_read, rounds=3, iterations=1)
    _stamp_io(benchmark, stats)
    assert hierarchy.nlevels == 2
    # the gate's floor is 3x; a 16-rank plotfile coalesces far better
    assert stats.requests / max(stats.coalesced_requests, 1) >= 3.0


def test_remote_probe_coarse(benchmark, plotfile, probe_box):
    """Progressive probe: coarse preview of a region, no fine chunks."""

    def probe():
        with repro.open(plotfile, source=REMOTE_SPEC) as handle:
            data = handle.read_field("baryon_density", level=0, box=probe_box,
                                     max_level=0)
            return data, handle.source_stats

    data, stats = benchmark.pedantic(probe, rounds=3, iterations=1)
    _stamp_io(benchmark, stats)
    assert data.shape == probe_box.shape


def test_remote_probe_uncapped(benchmark, plotfile, probe_box):
    """The same probe at full resolution (refill recurses into fine chunks)."""

    def probe():
        with repro.open(plotfile, source=REMOTE_SPEC) as handle:
            data = handle.read_field("baryon_density", level=0, box=probe_box)
            return data, handle.source_stats

    data, stats = benchmark.pedantic(probe, rounds=3, iterations=1)
    _stamp_io(benchmark, stats)
    assert data.shape == probe_box.shape


def test_probe_cap_fetches_less(plotfile, probe_box):
    """Not a timing: the cap must cut both round-trips and bytes."""
    spec = "block:4k,gap:64k,cache:32m"          # same shape, no sleeping
    with repro.open(plotfile, source=spec) as handle:
        handle.read_field("baryon_density", level=0, box=probe_box,
                          max_level=0)
        capped = (handle.source_stats.coalesced_requests, handle.source_stats.bytes_read)
    with repro.open(plotfile, source=spec) as handle:
        handle.read_field("baryon_density", level=0, box=probe_box)
        uncapped = (handle.source_stats.coalesced_requests, handle.source_stats.bytes_read)
    assert capped[0] < uncapped[0]
    assert capped[1] < uncapped[1]
