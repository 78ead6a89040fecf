"""Error-bounded linear quantisation (the SZ quantiser).

Prediction errors are mapped to integer codes ``round(err / (2*eb))``; the
decoder recovers ``code * 2*eb``, guaranteeing ``|err - recovered| <= eb``.
Codes outside the quantisation radius are "unpredictable" and stored verbatim
(SZ stores them as truncated floats; here they are kept as float64 so the
bound is exact).

Codes are shifted by ``radius`` before entropy coding so they are non-negative
(the layout Huffman expects), with 0 reserved for the unpredictable marker —
the same convention SZ uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedBlock", "quantize", "dequantize", "DEFAULT_RADIUS"]

#: Default quantisation radius (SZ uses a 2^16-entry quantisation interval table).
DEFAULT_RADIUS = 32768


@dataclass
class QuantizedBlock:
    """Result of quantising a batch of prediction errors."""

    codes: np.ndarray            #: uint32 codes, 0 = unpredictable, else code + radius
    outliers: np.ndarray         #: float64 values of unpredictable errors (in scan order)
    radius: int
    eb: float

    @property
    def num_outliers(self) -> int:
        return int(self.outliers.size)


def quantize(errors: np.ndarray, eb: float, radius: int = DEFAULT_RADIUS) -> QuantizedBlock:
    """Quantise prediction errors with absolute bound ``eb``.

    Parameters
    ----------
    errors:
        Prediction errors (any shape, float).
    eb:
        Absolute error bound (> 0).
    radius:
        Quantisation radius; codes with ``|code| >= radius`` are outliers.
    """
    if eb <= 0:
        raise ValueError("absolute error bound must be positive")
    if radius < 2:
        raise ValueError("radius must be >= 2")
    errors = np.asarray(errors, dtype=np.float64)
    raw = np.rint(errors / (2.0 * eb)).astype(np.int64)
    outlier_mask = np.abs(raw) >= radius
    # also guard against quantisation that would still violate the bound
    recon = raw * (2.0 * eb)
    bad = np.abs(recon - errors) > eb * (1 + 1e-12)
    outlier_mask |= bad
    codes = np.where(outlier_mask, 0, raw + radius).astype(np.uint32)
    outliers = errors[outlier_mask].astype(np.float64)
    return QuantizedBlock(codes=codes.reshape(errors.shape), outliers=outliers,
                          radius=int(radius), eb=float(eb))


def dequantize(block: QuantizedBlock) -> np.ndarray:
    """Recover prediction errors from a :class:`QuantizedBlock` (exactly bounded)."""
    codes = block.codes.astype(np.int64)
    errors = (codes - block.radius) * (2.0 * block.eb)
    outlier_mask = codes == 0
    if block.outliers.size:
        errors[outlier_mask] = block.outliers
    else:
        errors[outlier_mask] = 0.0
    return errors
