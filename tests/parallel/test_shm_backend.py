"""The shared-memory execution backend: wire format, lifecycle, identity.

The identity tests are the acceptance bar for the shm backend: byte-identical
plotfiles and element-wise identical reads against the serial backend, for
every registered spatial codec.  The lifecycle tests pin the pool semantics —
persistent executor across ``map`` calls, idempotent ``close``, in-band worker
errors that leave the pool usable — and that no ``/dev/shm`` segment of this
run outlives the call that created it.
"""

from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np
import pytest

import repro
from repro.core import AMRICConfig, AMRICWriter
from repro.parallel import shm
from repro.parallel.backend import SerialBackend, SharedMemoryBackend

pytestmark = pytest.mark.skipif(
    not shm.HAVE_SHARED_MEMORY,
    reason="multiprocessing.shared_memory unavailable")

WORKERS = 2
SPATIAL_CODECS = ["sz_lr", "sz_interp", "sz_1d"]


# ----------------------------------------------------------------------
# module-level work functions and payloads (process pools import them)
# ----------------------------------------------------------------------
@dataclass
class ArrayJob:
    data: np.ndarray
    scale: float
    #: bulk fields the shm backend ships as shared-memory descriptors
    _shm_fields: ClassVar[Tuple[str, ...]] = ("data",)


@dataclass
class ArrayResult:
    data: np.ndarray
    total: float
    _shm_fields: ClassVar[Tuple[str, ...]] = ("data",)


def scale_job(job: ArrayJob) -> ArrayResult:
    out = job.data * job.scale
    return ArrayResult(data=out, total=float(out.sum()))


def failing_job(job: ArrayJob) -> ArrayResult:
    if job.scale < 0:
        raise ValueError("negative scale")
    return scale_job(job)


def make_jobs(n: int = 6, size: int = 16384):
    """Jobs whose payloads (128 KiB) are comfortably above the shm floor."""
    rng = np.random.default_rng(7)
    return [ArrayJob(data=rng.standard_normal(size), scale=float(i + 1))
            for i in range(n)]


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_bulk_payloads_become_descriptors(self):
        jobs = make_jobs(3)
        assert shm.batch_bulk_nbytes(jobs) >= 3 * 16384 * 8
        wire_items, segment = shm.pack_batch(jobs)
        try:
            assert segment is not None
            assert segment.name.startswith(shm.segment_prefix())
            assert len(wire_items) == len(jobs)
            for wire in wire_items:
                assert isinstance(wire.data, shm.ShmArrayRef)
                assert wire.data.segment == segment.name
        finally:
            segment.close()
            segment.unlink()

    def test_plain_items_pickle_through_without_a_segment(self):
        wire_items, segment = shm.pack_batch([1, 2, 3])
        assert segment is None
        assert wire_items == [1, 2, 3]

    def test_descriptors_round_trip_values(self):
        jobs = make_jobs(2)
        expected = [scale_job(j) for j in jobs]
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            results = backend.map(scale_job, jobs)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.data, want.data)
            assert got.total == want.total


# ----------------------------------------------------------------------
# backend lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_pool_persists_across_maps(self):
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            backend.map(scale_job, make_jobs(2))
            executor = backend._executor
            assert executor is not None
            backend.map(scale_job, make_jobs(2))
            assert backend._executor is executor      # same pool, no respawn

    def test_close_is_idempotent_and_backend_reusable(self):
        backend = SharedMemoryBackend(max_workers=WORKERS)
        assert backend.map(scale_job, make_jobs(1))[0].total == \
            pytest.approx(scale_job(make_jobs(1)[0]).total)
        backend.close()
        backend.close()
        # a closed backend rebuilds its pool lazily
        assert len(backend.map(scale_job, make_jobs(2))) == 2
        backend.close()

    def test_empty_batch(self):
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            assert backend.map(scale_job, []) == []

    def test_no_segments_leak_after_map_and_close(self):
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            results = backend.map(scale_job, make_jobs(4))
            assert len(results) == 4
            # result segments are unlinked on adoption, the batch segment when
            # the map returns — nothing should be left in the namespace even
            # while the result views are still alive
            assert shm.live_segments() == []
        assert shm.live_segments() == []

    def test_worker_error_propagates_and_pool_survives(self):
        jobs = make_jobs(4)
        jobs[2] = ArrayJob(data=jobs[2].data, scale=-1.0)
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            with pytest.raises(ValueError, match="negative scale"):
                backend.map(failing_job, jobs)
            # the error travelled in-band: no stranded sibling segments, and
            # the pool is still usable for the next batch
            assert shm.live_segments() == []
            results = backend.map(scale_job, make_jobs(3))
            assert len(results) == 3
        assert shm.live_segments() == []

    def test_parallel_width_reports_pool_size(self):
        assert SharedMemoryBackend(max_workers=3).parallel_width() == 3
        assert SerialBackend().parallel_width() == 1


# ----------------------------------------------------------------------
# identity against serial (the acceptance bar)
# ----------------------------------------------------------------------
class TestIdentity:
    @pytest.mark.parametrize("compressor", SPATIAL_CODECS)
    def test_plotfile_bytes_identical_to_serial(self, nyx_hierarchy,
                                                compressor, tmp_path):
        cfg = AMRICConfig(compressor=compressor, error_bound=1e-3)
        serial_path = str(tmp_path / "serial.h5z")
        shm_path = str(tmp_path / "shm.h5z")
        serial = AMRICWriter(cfg).write_plotfile(nyx_hierarchy, serial_path)
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            pooled = AMRICWriter(cfg, backend=backend).write_plotfile(
                nyx_hierarchy, shm_path)
        assert serial.backend == "serial" and pooled.backend == "shm"
        with open(serial_path, "rb") as a, open(shm_path, "rb") as b:
            assert a.read() == b.read()
        assert serial.records == pooled.records
        assert serial.rank_workloads == pooled.rank_workloads
        assert shm.live_segments() == []

    def test_full_read_identical_to_serial(self, nyx_hierarchy, tmp_path):
        path = str(tmp_path / "plt.h5z")
        repro.write(nyx_hierarchy, path, compressor="sz_lr", error_bound=1e-3)
        with repro.open(path) as handle:
            serial = handle.read()
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            with repro.open(path, backend=backend) as handle:
                pooled = handle.read()
        for level in range(serial.nlevels):
            for name in serial.component_names:
                np.testing.assert_array_equal(
                    serial[level].multifab.to_global(name, serial[level].domain),
                    pooled[level].multifab.to_global(name, pooled[level].domain))
        assert shm.live_segments() == []

    def test_series_bytes_identical_to_serial(self, tmp_path):
        """Temporal encode jobs ride the same descriptor path: every step
        file of a delta-compressed series must hash identically."""
        from repro.apps.nyx import NyxSimulation
        from repro import write_series

        def steps():
            sim = NyxSimulation(coarse_shape=(24, 24, 24), nranks=2,
                                target_fine_density=0.03, max_grid_size=12,
                                seed=42, drift_rate=0.05, growth_rate=0.02,
                                regrid_interval=3)
            return list(sim.run(4))

        serial_dir = tmp_path / "serial"
        shm_dir = tmp_path / "shm"
        write_series(steps(), str(serial_dir), keyframe_interval=3,
                     error_bound=1e-3)
        with SharedMemoryBackend(max_workers=WORKERS) as backend:
            write_series(steps(), str(shm_dir), keyframe_interval=3,
                         error_bound=1e-3, backend=backend)
        step_files = sorted(p.name for p in serial_dir.iterdir()
                            if p.suffix == ".h5z")
        assert step_files
        for name in step_files:
            assert (serial_dir / name).read_bytes() == \
                (shm_dir / name).read_bytes(), name
        assert shm.live_segments() == []

    def test_box_reads_identical_to_inline(self, nyx_hierarchy, tmp_path):
        """A handle opened on a pool decodes its box reads there, and answers
        them element-wise identically to the inline default."""
        path = str(tmp_path / "plt.h5z")
        repro.write(nyx_hierarchy, path, compressor="sz_interp",
                    error_bound=1e-3)
        name = nyx_hierarchy.component_names[0]
        requests = [(name, 0, box, True, 0.0, None)
                    for box in nyx_hierarchy[0].boxarray.boxes[:3]]
        with repro.open(path) as handle:
            inline = handle._read_boxes(requests)
        with SharedMemoryBackend(max_workers=WORKERS) as backend, \
                repro.open(path, backend=backend) as handle:
            pooled = handle._read_boxes(requests)
            assert backend._executor is not None
        for a, b in zip(inline, pooled, strict=True):
            np.testing.assert_array_equal(a, b)
        assert shm.live_segments() == []
