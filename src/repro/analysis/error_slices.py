"""Absolute-error slices (the data behind Figures 6, 9, 10 and 15).

The paper visualises one 2D slice of |original − reconstructed| to show where
each method concentrates its error (block boundaries, level boundaries).  The
helpers here extract those slices and summarise them so benchmarks can assert
on them without plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["error_slice", "ErrorSliceComparison", "compare_error_slices"]


def error_slice(original: np.ndarray, reconstructed: np.ndarray, axis: int = 0,
                index: int | None = None) -> np.ndarray:
    """|original − reconstructed| on one slice perpendicular to ``axis``."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError("shape mismatch")
    if index is None:
        index = original.shape[axis] // 2
    err = np.abs(original - reconstructed)
    return np.take(err, index, axis=axis)


@dataclass
class ErrorSliceComparison:
    """Summary statistics of two methods' error fields."""

    mean_error_a: float
    mean_error_b: float
    p99_error_a: float
    p99_error_b: float


def compare_error_slices(original: np.ndarray, recon_a: np.ndarray,
                         recon_b: np.ndarray) -> ErrorSliceComparison:
    """Compare the full-field error statistics of two reconstructions."""
    err_a = np.abs(np.asarray(original) - np.asarray(recon_a))
    err_b = np.abs(np.asarray(original) - np.asarray(recon_b))
    return ErrorSliceComparison(
        mean_error_a=float(err_a.mean()), mean_error_b=float(err_b.mean()),
        p99_error_a=float(np.percentile(err_a, 99)),
        p99_error_b=float(np.percentile(err_b, 99)))
