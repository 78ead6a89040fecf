"""Tests for compression quality metrics."""

import numpy as np
import pytest

from repro.compress.metrics import (
    CompressionStats,
    max_abs_error,
    mse,
    nrmse,
    psnr,
)


class TestPointwiseMetrics:
    def test_identical_arrays(self):
        a = np.linspace(0, 1, 100)
        assert mse(a, a) == 0.0
        assert max_abs_error(a, a) == 0.0
        assert psnr(a, a) == float("inf")
        assert nrmse(a, a) == 0.0

    def test_mse_known_value(self):
        a = np.zeros(4)
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert mse(a, b) == pytest.approx(1.0)

    def test_max_abs_error(self):
        a = np.zeros(3)
        b = np.array([0.1, -0.5, 0.2])
        assert max_abs_error(a, b) == pytest.approx(0.5)

    def test_psnr_matches_paper_formula(self):
        rng = np.random.default_rng(0)
        orig = rng.uniform(0, 10, size=1000)
        recon = orig + rng.uniform(-0.01, 0.01, size=1000)
        r = orig.max() - orig.min()
        expected = 20 * np.log10(r) - 10 * np.log10(np.mean((orig - recon) ** 2))
        assert psnr(orig, recon) == pytest.approx(expected)

    def test_psnr_increases_with_accuracy(self):
        rng = np.random.default_rng(1)
        orig = rng.normal(size=500)
        noisy = orig + 0.1 * rng.normal(size=500)
        cleaner = orig + 0.01 * rng.normal(size=500)
        assert psnr(orig, cleaner) > psnr(orig, noisy)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(0), np.zeros(0))

    def test_constant_field_psnr_finite(self):
        orig = np.full(100, 5.0)
        recon = orig + 0.001
        assert np.isfinite(psnr(orig, recon))


class TestRatioMetrics:
    def test_compression_ratio(self):
        def ratio(original_nbytes, compressed_nbytes):
            return CompressionStats("m", 1e-3, original_nbytes, compressed_nbytes, 0.0, 0.0,
                                    0.0).compression_ratio
        assert ratio(1000, 100) == pytest.approx(10.0)
        assert ratio(100, 0) == float("inf")


class TestCompressionStats:
    def test_measure(self):
        rng = np.random.default_rng(2)
        orig = rng.normal(size=(10, 10))
        recon = orig + 1e-4
        stats = CompressionStats.measure("sz_lr", 1e-3, orig, recon, 200, chunk_size=64)
        assert stats.compression_ratio == pytest.approx(orig.nbytes / 200)
        assert stats.max_error == pytest.approx(1e-4)
        assert stats.extra["chunk_size"] == 64
        assert stats.method == "sz_lr" and stats.psnr > 0
