"""Compression quality metrics (PSNR, NRMSE, ratio, bitrate).

PSNR follows the paper's definition (footnote 2):

``PSNR = 20·log10(R) − 10·log10( Σ e_i² / N )``

where ``R`` is the value range of the *original* data and ``e_i`` the
point-wise absolute errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "mse",
    "nrmse",
    "psnr",
    "psnr_from_mse",
    "max_abs_error",
    "compression_ratio",
    "bitrate",
    "CompressionStats",
]


def _check(original: np.ndarray, reconstructed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError(
            f"shape mismatch: original {original.shape} vs reconstructed {reconstructed.shape}")
    if original.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    return original, reconstructed


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error."""
    original, reconstructed = _check(original, reconstructed)
    return float(np.mean((original - reconstructed) ** 2))


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Maximum point-wise absolute error (what the error bound constrains)."""
    original, reconstructed = _check(original, reconstructed)
    return float(np.max(np.abs(original - reconstructed)))


def value_range(original: np.ndarray) -> float:
    original = np.asarray(original, dtype=np.float64)
    r = float(original.max() - original.min())
    return r


def nrmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root-mean-square error normalised by the value range."""
    r = value_range(original)
    if r == 0:
        r = 1.0
    return float(np.sqrt(mse(original, reconstructed)) / r)


def psnr_from_mse(mse: float, vrange: float) -> float:
    """PSNR in dB of a mean squared error over a value range (footnote 2):
    inf when there is no error; a constant field (``vrange`` 0) is referenced
    to 1.  Every PSNR the package reports goes through here."""
    if mse == 0:
        return float("inf")
    if vrange == 0:
        vrange = 1.0
    return float(20.0 * np.log10(vrange) - 10.0 * np.log10(mse))


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (paper definition, footnote 2)."""
    original, reconstructed = _check(original, reconstructed)
    return psnr_from_mse(mse(original, reconstructed), value_range(original))


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """original size / compressed size."""
    if compressed_nbytes <= 0:
        return float("inf")
    return original_nbytes / compressed_nbytes


def bitrate(original_nelements: int, compressed_nbytes: int) -> float:
    """Bits per element of the compressed representation."""
    if original_nelements <= 0:
        raise ValueError("need at least one element")
    return 8.0 * compressed_nbytes / original_nelements


@dataclass
class CompressionStats:
    """A single (method, dataset, error bound) measurement record."""

    method: str
    error_bound: float
    original_nbytes: int
    compressed_nbytes: int
    psnr: float
    max_error: float
    nrmse: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.original_nbytes, self.compressed_nbytes)

    @property
    def bitrate(self) -> float:
        return 64.0 * self.compressed_nbytes / max(self.original_nbytes, 1)

    @staticmethod
    def measure(method: str, error_bound: float, original: np.ndarray,
                reconstructed: np.ndarray, compressed_nbytes: int,
                **extra: float) -> "CompressionStats":
        """Build a record from an original/reconstruction pair."""
        return CompressionStats(
            method=method,
            error_bound=float(error_bound),
            original_nbytes=int(np.asarray(original).nbytes),
            compressed_nbytes=int(compressed_nbytes),
            psnr=psnr(original, reconstructed),
            max_error=max_abs_error(original, reconstructed),
            nrmse=nrmse(original, reconstructed),
            extra=dict(extra),
        )

    def as_row(self) -> Dict[str, float | str]:
        """Flat dict for table reporting."""
        row: Dict[str, float | str] = {
            "method": self.method,
            "error_bound": self.error_bound,
            "compression_ratio": self.compression_ratio,
            "psnr": self.psnr,
            "max_error": self.max_error,
            "nrmse": self.nrmse,
        }
        row.update(self.extra)
        return row
