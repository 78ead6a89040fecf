"""Integration tests for the AMRIC writer/reader and the baseline writers."""

import os

import numpy as np
import pytest

import repro
from repro.amr.upsample import covered_mask
from repro.baselines import AMReXOriginalWriter, NoCompressionWriter, tac_compress
from repro.core import AMRICConfig, AMRICWriter


class TestAMRICWriter:
    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_write_report_structure(self, nyx_hierarchy, compressor, tmp_path):
        writer = AMRICWriter(AMRICConfig(compressor=compressor, error_bound=1e-3))
        report = writer.write_plotfile(nyx_hierarchy, str(tmp_path / "plt.h5z"))
        assert report.compression_ratio > 2
        assert report.removed_cells == nyx_hierarchy.covered_cells(0)
        assert report.total_cells == nyx_hierarchy.num_cells
        # one dataset per level per field
        assert report.ndatasets == nyx_hierarchy.nlevels * nyx_hierarchy.ncomp
        assert set(r.field for r in report.records) == set(nyx_hierarchy.component_names)
        assert os.path.getsize(report.path) < report.raw_bytes
        assert np.isfinite(report.mean_psnr)
        assert report.method.startswith("amric")

    def test_in_memory_write_matches_file_write(self, nyx_hierarchy):
        writer = AMRICWriter(AMRICConfig(error_bound=1e-3))
        in_memory = writer.write_plotfile(nyx_hierarchy, None)
        assert in_memory.path is None
        assert in_memory.compression_ratio > 2
        assert in_memory.total_filter_calls > 0

    def test_error_bound_respected_end_to_end(self, nyx_hierarchy, tmp_path):
        cfg = AMRICConfig(compressor="sz_lr", error_bound=1e-3)
        writer = AMRICWriter(cfg)
        path = str(tmp_path / "plt.h5z")
        report = writer.write_plotfile(nyx_hierarchy, path)
        with repro.open(path) as handle:
            back = handle.read()
        for name in nyx_hierarchy.component_names:
            vrange = nyx_hierarchy[1].multifab.value_range(name)
            orig = nyx_hierarchy[1].multifab.to_global(name, nyx_hierarchy[1].domain)
            rec = back[1].multifab.to_global(name, back[1].domain)
            # restrict to cells covered by fine boxes (fill value elsewhere)
            mask = nyx_hierarchy[1].boxarray.coverage_mask(nyx_hierarchy[1].domain)
            err = np.max(np.abs(orig[mask] - rec[mask]))
            assert err <= 1e-3 * max(vrange, 1e-30) * (1 + 1e-6)

    def test_reader_fills_covered_coarse_regions(self, nyx_hierarchy, tmp_path):
        cfg = AMRICConfig(error_bound=1e-3)
        path = str(tmp_path / "plt.h5z")
        AMRICWriter(cfg).write_plotfile(nyx_hierarchy, path)
        with repro.open(path) as handle:
            back = handle.read()
        mask = covered_mask(nyx_hierarchy, 0)
        rec = back[0].multifab.to_global("baryon_density", back[0].domain)
        orig = nyx_hierarchy[0].multifab.to_global("baryon_density", nyx_hierarchy[0].domain)
        # covered coarse cells are refilled with something close to the original
        # coarse values (they were averaged down from the reconstructed fine level)
        rel_err = np.abs(rec[mask] - orig[mask]) / orig[mask].max()
        assert np.median(rel_err) < 0.2

    def test_per_rank_workloads_consistent(self, nyx_hierarchy):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        total_raw = sum(w.raw_bytes for w in report.rank_workloads)
        assert total_raw == report.raw_bytes
        assert sum(w.compressor_launches for w in report.rank_workloads) == \
            report.total_filter_calls

    def test_smaller_error_bound_lower_cr_higher_psnr(self, nyx_hierarchy):
        loose = AMRICWriter(AMRICConfig(error_bound=1e-2)).write_plotfile(nyx_hierarchy)
        tight = AMRICWriter(AMRICConfig(error_bound=1e-4)).write_plotfile(nyx_hierarchy)
        assert loose.compression_ratio > tight.compression_ratio
        assert tight.mean_psnr > loose.mean_psnr

    def test_redundancy_removal_improves_ratio(self, nyx_hierarchy):
        on = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        off = AMRICWriter(AMRICConfig(error_bound=1e-3, remove_redundancy=False)) \
            .write_plotfile(nyx_hierarchy)
        # removal processes strictly less data (the covered coarse cells) and
        # must not inflate the stored size; the byte saving itself scales with
        # the covered fraction, which is small for this 2-level test hierarchy
        assert on.removed_cells > 0 and off.removed_cells == 0
        assert on.raw_bytes < off.raw_bytes
        assert on.compressed_bytes <= off.compressed_bytes * 1.05

    def test_writer_overrides_kwargs(self, nyx_hierarchy):
        writer = AMRICWriter(error_bound=1e-2, compressor="sz_interp")
        assert writer.config.compressor == "sz_interp"
        report = writer.write_plotfile(nyx_hierarchy)
        assert report.error_bound == 1e-2


class TestBaselineWriters:
    def test_nocomp_report(self, nyx_hierarchy, tmp_path):
        report = NoCompressionWriter().write_plotfile(nyx_hierarchy, str(tmp_path / "n.h5z"))
        assert report.compression_ratio == pytest.approx(1.0)
        assert report.mean_psnr == float("inf")
        assert report.raw_bytes == nyx_hierarchy.nbytes
        assert os.path.getsize(report.path) >= report.raw_bytes

    def test_amrex_writer_report(self, nyx_hierarchy, tmp_path):
        writer = AMReXOriginalWriter(error_bound=1e-2)
        report = writer.write_plotfile(nyx_hierarchy, str(tmp_path / "a.h5z"))
        assert report.compression_ratio > 1.5
        assert report.raw_bytes == nyx_hierarchy.nbytes   # no redundancy removal
        assert np.isfinite(report.mean_psnr)
        # the small chunk size forces many compressor launches
        expected_calls = int(np.ceil(nyx_hierarchy.nbytes / 8 / 1024))
        assert sum(w.compressor_launches for w in report.rank_workloads) >= expected_calls * 0.9

    @pytest.mark.parametrize("make_writer", [
        NoCompressionWriter, lambda: AMReXOriginalWriter(error_bound=1e-2)],
        ids=["nocomp", "amrex_1d"])
    def test_baseline_records_carry_error_terms(self, nyx_hierarchy, make_writer):
        report = make_writer().write_plotfile(nyx_hierarchy)
        for rec in report.records:
            assert rec.n_elements == rec.raw_bytes // 8 > 0
            assert rec.value_max >= rec.value_min
            assert rec.sq_error >= 0.0
        # the pooled PSNR is built from those terms and never undercuts the
        # worst level
        for name, pooled in report.psnr.items():
            worst = min(r.psnr for r in report.records if r.field == name)
            assert pooled >= worst - 1e-9

    def test_amrex_chunk_validation(self):
        with pytest.raises(ValueError):
            AMReXOriginalWriter(chunk_elements=1)

    def test_amric_beats_amrex_on_ratio_and_quality(self, nyx_hierarchy):
        """The Table 2 / Table 3 headline, on the scaled-down Nyx run."""
        amric = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        amrex = AMReXOriginalWriter(error_bound=1e-2).write_plotfile(nyx_hierarchy)
        assert amric.compression_ratio > amrex.compression_ratio
        assert amric.mean_psnr > amrex.mean_psnr
        # and far fewer compressor launches
        assert amric.total_filter_calls * 10 < \
            sum(w.compressor_launches for w in amrex.rank_workloads)


class TestOfflineBaselines:
    def test_tac_stats(self, nyx_hierarchy):
        stats = tac_compress(nyx_hierarchy, "baryon_density", 1e-3, partition_size=16)
        assert stats.method == "tac"
        assert stats.compression_ratio > 1.5
        assert stats.extra["partitions"] >= 1

    def test_amric_beats_tac_rate_distortion(self, nyx_hierarchy):
        """Figure 16's headline: AMRIC > TAC at matched error bound."""
        eb = 1e-3
        tac = tac_compress(nyx_hierarchy, "baryon_density", eb, partition_size=16)
        amric = AMRICWriter(AMRICConfig(error_bound=eb)).write_plotfile(nyx_hierarchy)
        amric_density = [r for r in amric.records if r.field == "baryon_density"]
        amric_cr = sum(r.raw_bytes for r in amric_density) / \
            max(sum(r.compressed_bytes for r in amric_density), 1)
        assert amric_cr > tac.compression_ratio
