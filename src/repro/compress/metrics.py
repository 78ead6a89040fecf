"""Compression quality metrics (PSNR, NRMSE, ratio).

PSNR follows the paper's definition (footnote 2):

``PSNR = 20·log10(R) − 10·log10( Σ e_i² / N )``

where ``R`` is the value range of the *original* data and ``e_i`` the
point-wise absolute errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

__all__ = [
    "mse",
    "nrmse",
    "psnr",
    "psnr_from_mse",
    "max_abs_error",
    "CompressionStats",
    "ErrorTally",
]


def _tally(original: np.ndarray, reconstructed: np.ndarray) -> "ErrorTally":
    original, reconstructed = (np.asarray(a, dtype=np.float64) for a in (original, reconstructed))
    if original.shape != reconstructed.shape:
        raise ValueError(
            f"shape mismatch: original {original.shape} vs reconstructed {reconstructed.shape}")
    if original.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    return ErrorTally.of(original, reconstructed)


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error."""
    tally = _tally(original, reconstructed)
    return tally.sq_error / tally.n_elements


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Maximum point-wise absolute error (what the error bound constrains)."""
    return _tally(original, reconstructed).max_error


def nrmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root-mean-square error normalised by the value range."""
    return _tally(original, reconstructed).nrmse


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
    return _tally(original, reconstructed).psnr


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
        """original size / compressed size (inf when nothing is stored)."""
        return self.original_nbytes / self.compressed_nbytes if self.compressed_nbytes > 0 \
            else float("inf")

    @staticmethod
    def measure(method: str, error_bound: float, original: np.ndarray,
                reconstructed: np.ndarray, compressed_nbytes: int,
                **extra: float) -> "CompressionStats":
        """Build a record from an original/reconstruction pair (measured once)."""
        tally = _tally(original, reconstructed)
        return CompressionStats(
            method=method, error_bound=float(error_bound),
            original_nbytes=int(np.asarray(original).nbytes),
            compressed_nbytes=int(compressed_nbytes), psnr=tally.psnr,
            max_error=tally.max_error, nrmse=tally.nrmse, extra=dict(extra))


@dataclass(frozen=True)
class ErrorTally:
    """Σ(x−x̂)², max|x−x̂|, min x, max x and n of arrays against their
    reconstructions: :meth:`of` measures one, its squares summed by one
    ``np.sum``; ``sum(tallies, ErrorTally())`` adds them up array by array."""

    sq_error: float = 0.0
    max_error: float = 0.0
    value_min: float = math.inf
    value_max: float = -math.inf
    n_elements: int = 0

    @classmethod
    def of(cls, original: np.ndarray, reconstruction: np.ndarray) -> "ErrorTally":
        diff = np.asarray(original - reconstruction)   # (an empty array measures as no array)
        return cls.of_error(original, np.abs(diff, out=diff))

    @classmethod
    def of_error(cls, original: np.ndarray, error: np.ndarray) -> "ErrorTally":
        """:meth:`of`, given ``|x − x̂|`` (overwritten by its squares: |d|² is d² bit for bit)."""
        worst = float(error.max(initial=0.0))
        return cls(float(np.sum(np.square(error, out=error))), worst, float(original.min(
            initial=math.inf)), float(original.max(initial=-math.inf)), int(original.size))

    def __add__(self, other: "ErrorTally") -> "ErrorTally":
        return ErrorTally(self.sq_error + other.sq_error, max(self.max_error, other.max_error),
                          min(self.value_min, other.value_min),
                          max(self.value_max, other.value_max), self.n_elements + other.n_elements)

    @property
    def psnr(self) -> float:
        return psnr_from_mse(self.sq_error / max(self.n_elements, 1),
                             self.value_max - self.value_min)

    @property
    def nrmse(self) -> float:
        return float(np.sqrt(self.sq_error / self.n_elements)
                     / ((self.value_max - self.value_min) or 1.0))
