"""Per-block linear-regression prediction (the "R" of SZ_L/R).

SZ 2.x fits a first-order polynomial ``f(i, j, k) = b0 + b1*i + b2*j + b3*k``
to every block (default 6×6×6) by least squares, quantises the coefficients,
and quantises the residuals against the error bound.  Because the design
matrix only depends on the block shape, the fit for *all* blocks of a batch is
a single matrix multiplication — the whole predictor is vectorised over
blocks.

The residuals are computed against the prediction built from the *quantised*
coefficients, so the reconstruction error is governed purely by the residual
quantiser and the user's error bound holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = ["RegressionModel", "fit_blocks", "predict_blocks", "quantize_coefficients"]


@dataclass
class RegressionModel:
    """Quantised regression coefficients for a batch of equal-shaped blocks."""

    coefficients: np.ndarray     #: float64 (nblocks, ndim + 1) — already quantised
    block_shape: Tuple[int, ...]


def _centred_coordinates(extent: int) -> np.ndarray:
    """Cell coordinates along one block axis, centred on the block.

    The one definition of the plane's abscissae: the fit, the encoder's
    prediction and the decoder's per-cell tables all call it, so they cannot
    drift apart.
    """
    return np.arange(extent, dtype=np.float64) - (extent - 1) / 2.0


def _design_matrix(block_shape: Tuple[int, ...]) -> np.ndarray:
    """Design matrix [1, i, j, k, ...] for one block, centred coordinates."""
    coords = np.meshgrid(*[_centred_coordinates(s) for s in block_shape], indexing="ij")
    columns = [np.ones(int(np.prod(block_shape)))]
    columns.extend(c.ravel() for c in coords)
    return np.stack(columns, axis=1)  # (npoints, ndim+1)


@lru_cache(maxsize=64)
def _fit_matrix(block_shape: Tuple[int, ...]) -> np.ndarray:
    """Pseudo-inverse of the design matrix, ``(ndim+1, npoints)``.

    A pure function of the block shape, memoised (a plotfile has a few dozen
    distinct shapes) and handed out read-only because every caller shares it.
    """
    pinv = np.linalg.pinv(_design_matrix(block_shape))
    pinv.setflags(write=False)
    return pinv


def fit_blocks(blocks: np.ndarray) -> np.ndarray:
    """Least-squares plane fit for every block: one matrix product.

    A fixed-order ``einsum`` rather than a BLAS ``@``, whose rounding depends
    on how many blocks share the call: a block's coefficients must not depend
    on which other blocks (chunks, datasets) the encoder batched it with.

    Parameters
    ----------
    blocks:
        Array of shape ``(nblocks,) + block_shape``.

    Returns
    -------
    coefficients of shape ``(nblocks, ndim + 1)`` (unquantised).
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    flat = blocks.reshape(blocks.shape[0], -1)               # (nblocks, npoints)
    return np.einsum("ij,kj->ik", flat, _fit_matrix(tuple(blocks.shape[1:])))


def quantize_coefficients(coefficients: np.ndarray, eb: float,
                          block_shape: Tuple[int, ...]) -> np.ndarray:
    """Quantise regression coefficients the way SZ does.

    The intercept is quantised with precision ``eb/2``; each slope with
    ``eb / (2 * extent)`` so that the accumulated prediction error from
    coefficient rounding stays within a fraction of the bound.  Coefficients
    are then representable exactly in float32 multiples of the step, which is
    what gets stored.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    steps = np.empty(coefficients.shape[1], dtype=np.float64)
    steps[0] = eb / 2.0
    for axis, extent in enumerate(block_shape):
        steps[axis + 1] = eb / (2.0 * max(extent, 1))
    quantised = np.rint(coefficients / steps) * steps
    # Coefficients are persisted as float32; round-trip through float32 here so
    # the encoder's prediction matches the decoder's bit-for-bit.
    return quantised.astype(np.float32).astype(np.float64)


def predict_blocks(model: RegressionModel) -> np.ndarray:
    """Evaluate the fitted planes: returns array of shape (nblocks,) + block_shape.

    Summed term by term in a fixed order — ``((b0 + b1*i) + b2*j) + b3*k`` —
    and not as a BLAS product, whose rounding depends on how many blocks share
    the call: the decoder must reproduce the encoder's prediction bit for bit
    however either of them batches blocks.
    """
    out = model.coefficients[:, 0]
    for axis, extent in enumerate(model.block_shape):
        term = model.coefficients[:, axis + 1, None] * _centred_coordinates(extent)
        out = out[..., None] + term.reshape((-1,) + (1,) * axis + (extent,))
    return out


def fit_and_predict(blocks: np.ndarray, eb: float) -> Tuple[RegressionModel, np.ndarray]:
    """Fit, quantise coefficients and return predictions in one call."""
    blocks = np.asarray(blocks, dtype=np.float64)
    coeffs = fit_blocks(blocks)
    quantised = quantize_coefficients(coeffs, eb, blocks.shape[1:])
    model = RegressionModel(coefficients=quantised, block_shape=blocks.shape[1:])
    return model, predict_blocks(model)
