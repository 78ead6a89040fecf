"""Execution backends, who owns them, byte apportionment and the workload tally."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core import AMRICWriter
from repro.parallel import RankWorkload, SimComm
from repro.parallel.backend import (
    SerialBackend,
    SharedMemoryBackend,
    WorkloadTally,
    _tuned_chunksize,
    apportion,
    as_backend,
)
from repro.series import SeriesWriter


def _square(x):
    return x * x


def _die(_):
    import os

    os._exit(1)


class TestBackends:
    def test_serial_preserves_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_matches_serial(self):
        with SharedMemoryBackend(max_workers=2) as backend:
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty_batch(self):
        assert SerialBackend().map(_square, []) == []

    def test_close_is_idempotent(self):
        with SerialBackend() as backend:
            backend.close()
            backend.close()
            assert backend.map(_square, [5]) == [25]

    def test_as_backend_takes_none_or_an_instance(self):
        assert isinstance(as_backend(None), SerialBackend)
        backend = SharedMemoryBackend(2)
        assert as_backend(backend) is backend
        for name in ("serial", "shm", "quantum", 2):
            with pytest.raises(TypeError, match="ExecutionBackend instance"):
                as_backend(name)

    def test_pool_width_below_one_rejected_at_construction(self):
        for workers in (0, -2):
            with pytest.raises(ValueError, match="max_workers must be >= 1"):
                SharedMemoryBackend(workers)

    def test_simcomm_run_jobs_counts_barrier(self):
        comm = SimComm(4)
        out = comm.run_jobs(SerialBackend(), _square, [1, 2, 3])
        assert out == [1, 4, 9]
        assert comm.counters.barriers == 1

    def test_tuned_chunksize_batches_ipc(self):
        # ~4 waves across the pool, never below one item per round-trip
        assert _tuned_chunksize(100, 4) == 6
        assert _tuned_chunksize(3, 4) == 1
        assert _tuned_chunksize(0, 4) == 1
        assert _tuned_chunksize(64, 1) == 16

    def test_process_map_uses_tuned_chunksize(self, monkeypatch):
        seen = {}
        backend = SharedMemoryBackend(max_workers=2)

        class FakeExecutor:
            def map(self, fn, items, chunksize=None):
                seen["chunksize"] = chunksize
                return map(fn, items)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(backend, "_ensure_executor", lambda: FakeExecutor())
        assert backend.map(_square, list(range(40))) == [x * x for x in range(40)]
        assert seen["chunksize"] == _tuned_chunksize(40, 2)

    def test_broken_pool_is_torn_down_and_rebuilt(self):
        from concurrent.futures.process import BrokenProcessPool

        backend = SharedMemoryBackend(max_workers=1)
        with pytest.raises(BrokenProcessPool):
            backend.map(_die, [1, 2])
        # the failed map must not leave the dead executor behind
        assert backend._executor is None
        assert backend.map(_square, [3]) == [9]
        backend.close()

    def test_parallel_width(self):
        assert SerialBackend().parallel_width() == 1
        assert SharedMemoryBackend(max_workers=5).parallel_width() == 5


class CountingBackend(SerialBackend):
    """A caller's backend that counts what the library does with it."""

    def __init__(self):
        self.maps = self.closes = 0

    def map(self, fn, items):
        self.maps += 1
        return super().map(fn, items)

    def close(self):
        self.closes += 1


class TestOwnership:
    """The library runs its jobs on the caller's backend and never closes it;
    a backend is passed, never named."""

    def test_write_uses_it_and_leaves_it_open(self, nyx_hierarchy, tmp_path):
        backend = CountingBackend()
        repro.write(nyx_hierarchy, str(tmp_path / "plt.h5z"), error_bound=1e-3,
                    backend=backend)
        assert backend.maps == nyx_hierarchy.nlevels and backend.closes == 0

    def test_open_read_uses_it_and_leaves_it_open(self, nyx_hierarchy, tmp_path):
        path = str(tmp_path / "plt.h5z")
        repro.write(nyx_hierarchy, path, error_bound=1e-3)
        backend = CountingBackend()
        with repro.open(path, backend=backend) as handle:
            handle.read()
            handle.read()
        assert backend.maps == 2 and backend.closes == 0

    def test_write_series_uses_it_and_leaves_it_open(self, tmp_path):
        from repro.apps.nyx import NyxSimulation

        sim = NyxSimulation(coarse_shape=(16, 16, 16), nranks=2, target_fine_density=0.03,
                            max_grid_size=8, seed=7)
        backend = CountingBackend()
        reports = repro.write_series(sim.run(3), str(tmp_path / "run"),
                                     error_bound=1e-3, backend=backend)
        assert len(reports) == 3
        assert backend.maps == 3 and backend.closes == 0

    @pytest.mark.parametrize("name", ["shm", "serial"])
    def test_a_name_is_a_type_error_and_leaves_no_file(self, nyx_hierarchy, tmp_path,
                                                       name):
        path, directory = str(tmp_path / "plt.h5z"), str(tmp_path / "run")
        for call in (lambda: repro.write(nyx_hierarchy, path, backend=name),
                     lambda: repro.write(nyx_hierarchy, path, method="nocomp",
                                         backend=name),
                     lambda: AMRICWriter(backend=name),
                     lambda: repro.write_series([nyx_hierarchy], directory,
                                                backend=name),
                     lambda: SeriesWriter(directory, backend=name)):
            with pytest.raises(TypeError, match="ExecutionBackend instance"):
                call()
        assert os.listdir(tmp_path) == []
        repro.write(nyx_hierarchy, path, error_bound=1e-3)
        with pytest.raises(TypeError, match="ExecutionBackend instance"):
            repro.open(path, backend=name)


class TestApportion:
    def test_conserves_simple(self):
        shares = apportion(10, [1, 1, 1])
        assert sum(shares) == 10
        assert shares == [4, 3, 3]      # tie broken toward the lower index

    def test_rounding_case_that_broke_round(self):
        # independent round() gives 3 × round(33.5) = 3 × 34 = 102 ≠ 100
        shares = apportion(100, [1, 1, 1])
        assert sum(shares) == 100

    def test_zero_weights_split_evenly(self):
        assert sum(apportion(7, [0, 0])) == 7

    def test_proportionality(self):
        shares = apportion(1000, [3, 1])
        assert shares == [750, 250]

    def test_errors(self):
        with pytest.raises(ValueError):
            apportion(-1, [1])
        with pytest.raises(ValueError):
            apportion(5, [])
        with pytest.raises(ValueError):
            apportion(5, [1, -2])

    @given(total=st.integers(0, 10 ** 9),
           weights=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=32))
    def test_conservation_property(self, total, weights):
        shares = apportion(total, weights)
        assert sum(shares) == total
        assert all(s >= 0 for s in shares)
        # no share exceeds its ceiling quota
        wsum = sum(weights) or len(weights)
        w = weights if sum(weights) else [1] * len(weights)
        for share, weight in zip(shares, w):
            assert share <= total * weight / wsum + 1


class TestWorkloadTally:
    def test_conserves_compressed_bytes(self):
        tally = WorkloadTally(4)
        tally.add_dataset(ranks=[0, 2, 3], per_rank_elements=[100, 50, 49],
                          chunk_elements=100, compressed_bytes=1001)
        tally.add_dataset(ranks=[1, 2], per_rank_elements=[10, 30],
                          chunk_elements=30, compressed_bytes=333)
        assert tally.total_compressed == 1001 + 333
        workloads = tally.workloads()
        assert sum(w.compressed_bytes for w in workloads) == 1001 + 333
        assert workloads[0].raw_bytes == 100 * 8
        assert workloads[1].compressor_launches == 1
        assert all(isinstance(w, RankWorkload) for w in workloads)

    def test_padding_accounting(self):
        tally = WorkloadTally(2)
        tally.add_dataset(ranks=[0, 1], per_rank_elements=[100, 60],
                          chunk_elements=100, compressed_bytes=10,
                          count_padding=True)
        workloads = tally.workloads()
        assert workloads[0].padded_bytes == 0
        assert workloads[1].padded_bytes == 40 * 8

    def test_idle_rank_reports_zero_chunks(self):
        # regression: workloads() used to clamp chunks_written to >= 1, so a
        # rank that wrote nothing was billed for one write in the I/O model
        tally = WorkloadTally(3)
        tally.add_dataset(ranks=[0, 2], per_rank_elements=[10, 20],
                          chunk_elements=20, compressed_bytes=100)
        workloads = tally.workloads()
        assert workloads[1].chunks_written == 0
        assert workloads[1].raw_bytes == 0
        assert workloads[0].chunks_written == 1
        assert workloads[2].chunks_written == 1

    def test_a_rank_writes_each_of_its_chunks(self):
        tally = WorkloadTally(3)
        tally.add_dataset(ranks=[0, 1], per_rank_elements=[2048, 1025],
                          chunk_elements=1024, compressed_bytes=300)
        tally.add_dataset(ranks=[1], per_rank_elements=[10], chunk_elements=1024,
                          compressed_bytes=80, launches_per_chunk=0)     # a raw write
        workloads = tally.workloads()
        assert [w.chunks_written for w in workloads] == [2, 3, 0]
        assert [w.compressor_launches for w in workloads] == [2, 2, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadTally(0)
        with pytest.raises(ValueError):
            WorkloadTally(2).add_dataset(ranks=[0], per_rank_elements=[1, 2],
                                         chunk_elements=2, compressed_bytes=1)
