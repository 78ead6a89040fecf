"""The staged writer pipeline (plan/pack/encode/commit) and backend equivalence."""

import os

import numpy as np
import pytest

import repro
from repro.core import AMRICConfig, AMRICWriter
from repro.core.stages import (
    FilterSpec,
    encode_job,
    make_encode_job,
    pack_dataset,
    plan_write,
)
from repro.parallel import SimComm
from repro.parallel.backend import SharedMemoryBackend


class TestPlanStage:
    def test_plan_structure(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3)
        plan = plan_write(nyx_hierarchy, cfg)
        assert len(plan.levels) == nyx_hierarchy.nlevels
        assert plan.total_cells == nyx_hierarchy.num_cells
        assert plan.removed_cells == nyx_hierarchy.covered_cells(0)
        # one dataset per level per field
        assert len(plan.datasets) == nyx_hierarchy.nlevels * nyx_hierarchy.ncomp
        for dplan in plan.datasets:
            assert dplan.chunk_elements == max(dplan.per_rank_elements)
            for spec in dplan.rank_specs:
                assert spec.valid_elements == sum(b.size for b in spec.blocks)
                assert spec.actual_elements == spec.valid_elements  # modify_filter on

    def test_plan_naive_filter_pads(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3, modify_filter=False)
        plan = plan_write(nyx_hierarchy, cfg)
        for dplan in plan.datasets:
            for spec in dplan.rank_specs:
                assert spec.actual_elements == dplan.chunk_elements

    def test_plan_charges_allreduce_per_dataset(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3)
        comm = SimComm(max(lvl.multifab.distribution.nranks
                           for lvl in nyx_hierarchy.levels))
        plan = plan_write(nyx_hierarchy, cfg, comm)
        assert comm.counters.reductions == len(plan.datasets)


class TestPackEncodeStages:
    def test_pack_fills_chunks_and_pads(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3)
        plan = plan_write(nyx_hierarchy, cfg)
        dplan = plan.datasets[0]
        packed = pack_dataset(nyx_hierarchy[dplan.level], dplan)
        assert packed.data.size == dplan.total_elements
        ce = dplan.chunk_elements
        for i, spec in enumerate(dplan.rank_specs):
            chunk = packed.data[i * ce:(i + 1) * ce]
            assert np.all(chunk[spec.valid_elements:] == 0.0)   # padding tail
            flat = np.concatenate([d.reshape(-1) for d in packed.originals[i]])
            np.testing.assert_array_equal(chunk[:spec.valid_elements], flat)

    def test_encode_job_is_pure(self, nyx_hierarchy):
        """The same job encodes to the same bytes every time (no hidden state)."""
        cfg = AMRICConfig(error_bound=1e-3)
        plan = plan_write(nyx_hierarchy, cfg)
        dplan = plan.datasets[0]
        packed = pack_dataset(nyx_hierarchy[dplan.level], dplan)
        job = make_encode_job(packed, FilterSpec.from_config(cfg))
        first = encode_job(job)
        second = encode_job(job)
        assert first.payloads == second.payloads
        assert first.filter_calls == len(dplan.rank_specs)


class TestBackendEquivalence:
    """Serial and pooled backends must agree to the byte."""

    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_shm_backend_byte_identical(self, nyx_hierarchy, compressor, tmp_path):
        cfg = AMRICConfig(compressor=compressor, error_bound=1e-3)
        serial_path = str(tmp_path / "serial.h5z")
        pooled_path = str(tmp_path / "pooled.h5z")
        serial = AMRICWriter(cfg).write_plotfile(nyx_hierarchy, serial_path)
        with SharedMemoryBackend(max_workers=2) as backend:
            pooled = AMRICWriter(cfg, backend=backend).write_plotfile(
                nyx_hierarchy, pooled_path)
        assert serial.backend == "serial" and pooled.backend == "shm"
        with open(serial_path, "rb") as a, open(pooled_path, "rb") as b:
            assert a.read() == b.read()
        # identical reports, field by field
        assert serial.records == pooled.records
        assert serial.rank_workloads == pooled.rank_workloads
        assert serial.collectives == pooled.collectives

    def test_config_backend_string(self, nyx_hierarchy):
        serial = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        # writer-owned pools are released by close() / the context manager
        with AMRICWriter(AMRICConfig(error_bound=1e-3, backend="shm",
                                     backend_workers=2)) as writer:
            pooled = writer.write_plotfile(nyx_hierarchy)
        assert serial.records == pooled.records

    def test_mismatched_comm_rejected(self, nyx_hierarchy):
        nranks = max(lvl.multifab.distribution.nranks
                     for lvl in nyx_hierarchy.levels)
        writer = AMRICWriter(AMRICConfig(error_bound=1e-3),
                             comm=SimComm(nranks + 3))
        with pytest.raises(ValueError, match="ranks"):
            writer.write_plotfile(nyx_hierarchy)

    def test_parallel_file_reads_back(self, nyx_hierarchy, tmp_path):
        cfg = AMRICConfig(error_bound=1e-3, backend="shm", backend_workers=2)
        path = str(tmp_path / "plt.h5z")
        with AMRICWriter(cfg) as writer:
            writer.write_plotfile(nyx_hierarchy, path)
        with repro.open(path, backend="shm") as handle:
            back = handle.read()
        for name in nyx_hierarchy.component_names:
            vrange = nyx_hierarchy[1].multifab.value_range(name)
            orig = nyx_hierarchy[1].multifab.to_global(name, nyx_hierarchy[1].domain)
            rec = back[1].multifab.to_global(name, back[1].domain)
            mask = nyx_hierarchy[1].boxarray.coverage_mask(nyx_hierarchy[1].domain)
            assert np.max(np.abs(orig[mask] - rec[mask])) <= \
                1e-3 * max(vrange, 1e-30) * (1 + 1e-6)


class TestReportAccounting:
    def test_compressed_bytes_conserved_per_rank(self, nyx_hierarchy):
        """The largest-remainder split must conserve the total exactly."""
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        assert sum(w.compressed_bytes for w in report.rank_workloads) == \
            report.compressed_bytes

    def test_collective_counters(self, nyx_hierarchy, tmp_path):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(
            nyx_hierarchy, str(tmp_path / "plt.h5z"))
        assert report.collectives["collective_writes"] == report.ndatasets
        assert report.collectives["reductions"] == report.ndatasets
        # one encode barrier per level that holds data
        assert report.collectives["barriers"] == nyx_hierarchy.nlevels
        assert os.path.exists(report.path)

    def test_psnr_weighted_and_worst(self, nyx_hierarchy):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        weighted = report.psnr
        worst = report.worst_psnr
        assert set(weighted) == set(nyx_hierarchy.component_names)
        for name, recs in ((n, [r for r in report.records if r.field == n])
                           for n in weighted):
            # the weighted aggregate matches pooling the squared errors by hand
            n = sum(r.n_elements for r in recs)
            mse = sum(r.sq_error for r in recs) / n
            vrange = max(r.value_max for r in recs) - min(r.value_min for r in recs)
            expected = 20 * np.log10(vrange) - 10 * np.log10(mse)
            assert weighted[name] == pytest.approx(expected)
            assert worst[name] == min(r.psnr for r in recs)
            # pooling can only improve on (or match) the worst level
            assert weighted[name] >= worst[name] - 1e-9

    def test_record_requires_error_terms(self):
        """The pooled PSNR needs every record's accumulation terms."""
        from repro.core.pipeline import LevelFieldRecord

        with pytest.raises(TypeError, match="sq_error"):
            LevelFieldRecord(level=0, field="f", raw_bytes=800,
                             compressed_bytes=100, psnr=1.0, max_error=0.5,
                             filter_calls=1, nblocks=1)

    def test_records_carry_error_terms(self, nyx_hierarchy):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        for rec in report.records:
            assert rec.n_elements == rec.raw_bytes // 8
            assert rec.value_max >= rec.value_min
            assert rec.mse >= 0.0
