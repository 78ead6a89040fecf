"""Tests for the simulated MPI communicator, file-system model and I/O cost model."""

import pytest

from repro.parallel import IOCostModel, ParallelFileSystem, RankWorkload, SimComm


class TestSimComm:
    def test_size_and_ranks(self):
        comm = SimComm(8)
        assert comm.size == 8

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimComm(0)

    def test_allreduce_max_and_counters(self):
        comm = SimComm(4)
        assert comm.allreduce([3, 9, 1, 5]) == 9
        assert comm.allreduce([3, 9, 1, 5], op=sum) == 18
        assert comm.counters.reductions == 2

    def test_allreduce_length_check(self):
        with pytest.raises(ValueError):
            SimComm(3).allreduce([1, 2])

    def test_collective_write_counter(self):
        comm = SimComm(2)
        comm.record_collective_write(3)
        assert comm.counters.collective_writes == 3
        assert comm.counters.barriers == 0


class TestFilesystem:
    def test_bandwidth_scaling_and_saturation(self):
        fs = ParallelFileSystem(per_node_bandwidth=1e9, peak_bandwidth=4e9)
        assert fs.aggregate_bandwidth(1) == 1e9
        assert fs.aggregate_bandwidth(4) == 4e9
        assert fs.aggregate_bandwidth(100) == 4e9

    def test_write_seconds(self):
        fs = ParallelFileSystem(per_node_bandwidth=1e9, peak_bandwidth=1e9,
                                write_latency=0.01)
        assert fs.write_seconds(1e9, nodes=1, nwrites=0) == pytest.approx(1.0)
        assert fs.write_seconds(0, nodes=1, nwrites=10) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelFileSystem(per_node_bandwidth=0)
        fs = ParallelFileSystem()
        with pytest.raises(ValueError):
            fs.aggregate_bandwidth(0)
        with pytest.raises(ValueError):
            fs.write_seconds(-1, 1)


class TestIOCostModel:
    def make_workloads(self, nranks=64, raw=8 * 2**20, ratio=10.0, launches=1):
        return [RankWorkload(raw_bytes=raw, compressed_bytes=int(raw / ratio),
                             compressor_launches=launches) for _ in range(nranks)]

    def test_nodes_for(self):
        model = IOCostModel(ranks_per_node=32)
        assert model.nodes_for(32) == 1
        assert model.nodes_for(33) == 2
        with pytest.raises(ValueError):
            model.nodes_for(0)

    def test_nocomp_vs_compressed_write(self):
        """Compression reduces write time when the data is large and compressible."""
        model = IOCostModel()
        raw = 512 * 2**20
        nocomp = model.evaluate(
            [RankWorkload(raw, raw, 0) for _ in range(64)], compression_enabled=False)
        comp = model.evaluate(
            [RankWorkload(raw, raw // 100, 1) for _ in range(64)], compression_enabled=True)
        assert comp.total_seconds < nocomp.total_seconds

    def test_many_launches_dominate(self):
        """The AMReX small-chunk penalty: thousands of launches swamp everything."""
        model = IOCostModel()
        few = model.evaluate(self.make_workloads(launches=6))
        many = model.evaluate(self.make_workloads(launches=6 * 2048))
        assert many.compression_seconds > few.compression_seconds * 50
        assert many.total_seconds > few.total_seconds

    def test_padding_increases_time(self):
        model = IOCostModel()
        base = self.make_workloads()
        padded = [RankWorkload(w.raw_bytes, w.compressed_bytes, w.compressor_launches,
                               padded_bytes=w.raw_bytes) for w in base]
        assert model.evaluate(padded).total_seconds > model.evaluate(base).total_seconds

    def test_breakdown_fields(self):
        model = IOCostModel()
        bd = model.evaluate(self.make_workloads())
        assert bd.total_seconds == pytest.approx(bd.prep_seconds + bd.io_seconds)
        assert bd.io_seconds == pytest.approx(bd.compression_seconds + bd.write_seconds)

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            IOCostModel().evaluate([])

    def test_negative_workload_rejected(self):
        with pytest.raises(ValueError):
            RankWorkload(-1, 0, 0)
