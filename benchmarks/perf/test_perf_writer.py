"""End-to-end writer timing on the nyx_1 and warpx_1 presets: serial and
pooled paths.

``make bench`` runs this file separately into ``BENCH_writer.json`` so the
write-path numbers (staged serial pipeline, the shared-memory process
pool) are tracked per PR next to the entropy-stage
numbers in ``BENCH_entropy.json``.  The shm-vs-serial pair also feeds the
speedup gate in ``tools/bench_check.py``.  warpx_1 is the smooth preset,
where most regions stay under regression's floor and are never fitted
(DESIGN.md §1); nyx_1 is the one where nearly every region is.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from repro.apps.driver import build_run
from repro.core import AMRICConfig, AMRICWriter
from repro.parallel.backend import SharedMemoryBackend

POOL_WORKERS = 4


def _time_serial_write(benchmark, hierarchy, compressor, stamp_backend):
    stamp_backend("serial", 1)
    writer = AMRICWriter(AMRICConfig(compressor=compressor, error_bound=1e-3))
    report = benchmark.pedantic(writer.write_plotfile, args=(hierarchy,),
                                rounds=3, iterations=1)
    assert report.compression_ratio > 1.0
    assert report.total_cells > 0


@pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
def test_writer_plotfile_nyx1(benchmark, midsize_hierarchy, compressor,
                              stamp_backend):
    _time_serial_write(benchmark, midsize_hierarchy, compressor, stamp_backend)


@pytest.mark.parametrize("compressor", ["sz_lr"])
def test_writer_plotfile_warpx1(benchmark, compressor, stamp_backend):
    _time_serial_write(benchmark, build_run("warpx_1").hierarchy, compressor, stamp_backend)


@pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
def test_writer_plotfile_nyx1_shm_backend(benchmark, midsize_hierarchy,
                                          compressor, stamp_backend):
    """The zero-copy write path: encode jobs cross to a persistent process
    pool as shared-memory descriptors (the ``bench_check`` speedup gate
    compares this against the serial case)."""
    stamp_backend("shm", POOL_WORKERS)
    with SharedMemoryBackend(max_workers=POOL_WORKERS) as backend:
        writer = AMRICWriter(AMRICConfig(compressor=compressor, error_bound=1e-3),
                             backend=backend)
        # warmup_rounds: time the persistent pool's steady state, not its spawn
        report = benchmark.pedantic(writer.write_plotfile, args=(midsize_hierarchy,),
                                    rounds=3, iterations=1, warmup_rounds=1)
    assert report.backend == "shm"
    assert report.compression_ratio > 1.0


def test_writer_stage_split_nyx1(benchmark, midsize_hierarchy):
    """Plan+pack only (no encode): how much of the write is not compression."""
    from repro.core.stages import pack_dataset, plan_write

    cfg = AMRICConfig(error_bound=1e-3)

    def plan_and_pack():
        plan = plan_write(midsize_hierarchy, cfg)
        return [pack_dataset(midsize_hierarchy[d.level], d) for d in plan.datasets]

    packed = benchmark.pedantic(plan_and_pack, rounds=3, iterations=1)
    assert len(packed) > 0
