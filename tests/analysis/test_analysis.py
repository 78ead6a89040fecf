"""Tests for the analysis helpers (rate-distortion, error slices, reporting)."""

import numpy as np
import pytest

from repro.analysis.error_slices import (
    compare_error_slices,
    error_slice,
)
from repro.analysis.rate_distortion import (
    RateDistortionPoint,
    curve,
    dominates,
    rate_distortion_sweep,
)
from repro.analysis.reporting import ComparisonRecord, comparison_record, format_table
from repro.compress import SZLRCompressor


class TestRateDistortion:
    def _method(self, data, cls=SZLRCompressor):
        def fn(eb):
            comp = cls(eb)
            buf, recon = comp.compress_with_reconstruction(data)
            return buf.compressed_nbytes, data, recon
        return fn

    def test_sweep_produces_points(self):
        rng = np.random.default_rng(0)
        data = np.cumsum(np.cumsum(rng.normal(size=(16, 16, 16)), axis=0), axis=1)
        points = rate_distortion_sweep({"sz_lr": self._method(data)},
                                       error_bounds=[1e-2, 1e-3])
        assert len(points) == 2
        assert all(isinstance(p, RateDistortionPoint) for p in points)
        tight = [p for p in points if p.error_bound == 1e-3][0]
        loose = [p for p in points if p.error_bound == 1e-2][0]
        assert tight.psnr > loose.psnr
        assert tight.compression_ratio < loose.compression_ratio

    def test_curve_and_dominates(self):
        points = [
            RateDistortionPoint("good", 1e-2, 100.0, 80.0),
            RateDistortionPoint("good", 1e-3, 30.0, 95.0),
            RateDistortionPoint("bad", 1e-2, 90.0, 70.0),
            RateDistortionPoint("bad", 1e-3, 25.0, 88.0),
        ]
        ratios, psnrs = curve(points, "good")
        assert list(ratios) == [30.0, 100.0]
        assert dominates(points, "good", "bad")
        assert not dominates(points, "bad", "good")
        with pytest.raises(KeyError):
            curve(points, "missing")

    def test_point_as_row(self):
        p = RateDistortionPoint("m", 1e-3, 12.0, 60.0)
        row = p.as_row()
        assert row["method"] == "m" and row["psnr"] == 60.0


class TestErrorSlices:
    def test_error_slice_extraction(self):
        orig = np.zeros((8, 8, 8))
        recon = orig.copy()
        recon[4, 2, 3] = 0.5
        sl = error_slice(orig, recon, axis=0, index=4)
        assert sl.shape == (8, 8)
        assert sl[2, 3] == pytest.approx(0.5)
        assert error_slice(orig, recon, axis=0, index=0).max() == 0.0

    def test_error_slice_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_slice(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_compare_error_slices(self):
        rng = np.random.default_rng(1)
        orig = rng.normal(size=(10, 10, 10))
        good = orig + 1e-4 * rng.normal(size=orig.shape)
        bad = orig + 1e-2 * rng.normal(size=orig.shape)
        cmp = compare_error_slices(orig, good, bad)
        assert cmp.mean_error_b > cmp.mean_error_a
        assert cmp.p99_error_b > cmp.p99_error_a


class TestReporting:
    def test_format_table(self):
        rows = [{"method": "amric", "cr": 15.2, "psnr": 66.1},
                {"method": "amrex", "cr": 8.8, "psnr": 52.5}]
        text = format_table(rows, title="Table 2")
        assert "Table 2" in text
        assert "amric" in text and "8.80" in text
        assert format_table([]) == "(no rows)"

    def test_comparison_record(self):
        rec = comparison_record("table2/nyx_1", "cr_amric_szlr", 15.0, 12.1, "scaled run")
        assert isinstance(rec, ComparisonRecord)
        assert rec.ratio == pytest.approx(12.1 / 15.0)
        row = rec.as_row()
        assert row["experiment"] == "table2/nyx_1"
