"""SZ_Interp: global multi-level interpolation compression (SZ3-style).

The interpolation compressor predicts the whole dataset level by level:

1. anchor points on a coarse lattice (stride ``anchor_stride``, a power of
   two) are stored verbatim;
2. for each level (stride ``s`` from the anchor stride down to 2, halving each
   time) and each axis in turn, the points halfway between known lattice
   points are predicted by cubic (where four neighbours exist) or linear
   interpolation of already-*reconstructed* values, and the prediction errors
   are quantised against the error bound;
3. the quantisation codes of all levels are Huffman-encoded and deflated.

Prediction always uses reconstructed values, so compression and decompression
walk the identical recursion and the error bound holds exactly.  Because
interpolation is a *global* operation, this compressor is sensitive to how
AMRIC arranges the truncated unit blocks (linear stacking versus the clustered
cube of §3.1) — which is precisely the effect Figure 5 of the paper measures.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.base import Compressor, DEFAULT_RADIUS
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.errors import CorruptFileError

__all__ = ["SZInterpCompressor"]


def _level_plan(shape: Tuple[int, ...], anchor_stride: int) -> List[Tuple[int, int]]:
    """The (stride, axis) passes, coarse to fine, shared by encoder and decoder."""
    plan: List[Tuple[int, int]] = []
    s = anchor_stride
    while s >= 2:
        for axis in range(len(shape)):
            plan.append((s, axis))
        s //= 2
    return plan


class SZInterpCompressor(Compressor):
    """SZ with multi-level spline/linear interpolation prediction (``SZ_Interp``)."""

    name = "sz_interp"

    def __init__(self, error_bound: ErrorBound | float, anchor_stride: int = 16,
                 mode: str = "rel", radius: int = DEFAULT_RADIUS,
                 cubic: bool = True):
        super().__init__(error_bound, mode)
        if anchor_stride < 2 or (anchor_stride & (anchor_stride - 1)) != 0:
            raise ValueError("anchor_stride must be a power of two >= 2")
        self.anchor_stride = int(anchor_stride)
        self.radius = int(radius)
        if not 2 <= self.radius <= DEFAULT_RADIUS:
            raise ValueError(f"radius must be in [2, {DEFAULT_RADIUS}], got {radius!r}")
        self.cubic = bool(cubic)

    # ------------------------------------------------------------------
    # the shared interpolation sweep
    # ------------------------------------------------------------------
    def _sweep(self, shape: Tuple[int, ...], recon: np.ndarray, abs_eb: float,
               data: np.ndarray | None, codes_in: np.ndarray | None,
               outliers_in: np.ndarray | None):
        """Run the interpolation recursion.

        Encoding mode (``data`` given): emits codes/outliers and fills ``recon``.
        Decoding mode (``codes_in`` given): consumes codes/outliers and fills
        ``recon``.  Both modes perform the identical prediction arithmetic.
        """
        ndim = len(shape)
        radius = self.radius
        encoding = data is not None
        codes_out: List[np.ndarray] = []
        outliers_out: List[np.ndarray] = []
        code_pos = 0
        outlier_pos = 0

        # lattice step per axis (known points); starts at the anchor stride
        steps = [self.anchor_stride] * ndim

        for s, axis in _level_plan(shape, self.anchor_stride):
            n = shape[axis]
            h = s // 2
            t_idx = np.arange(h, n, s)
            if t_idx.size == 0:
                steps[axis] = h if h >= 1 else 1
                continue
            max_known = ((n - 1) // s) * s

            sel_other = [slice(None, None, steps[d]) for d in range(ndim)]

            def take(indices: np.ndarray) -> np.ndarray:
                sel = list(sel_other)
                sel[axis] = indices
                return recon[tuple(sel)]

            has_r1 = (t_idx + h) <= max_known
            r1_idx = np.where(has_r1, t_idx + h, t_idx - h)
            l1 = take(t_idx - h)
            r1 = take(r1_idx)

            bshape = [1] * ndim
            bshape[axis] = t_idx.size
            has_r1_b = has_r1.reshape(bshape)

            pred = np.where(has_r1_b, 0.5 * (l1 + r1), l1)
            if self.cubic:
                has_cubic = (t_idx - 3 * h >= 0) & (t_idx + 3 * h <= max_known) & has_r1
                if has_cubic.any():
                    l2 = take(np.where(has_cubic, t_idx - 3 * h, t_idx - h))
                    r2 = take(np.where(has_cubic, np.minimum(t_idx + 3 * h, max_known), r1_idx))
                    pred_cubic = (-l2 + 9.0 * l1 + 9.0 * r1 - r2) / 16.0
                    pred = np.where(has_cubic.reshape(bshape), pred_cubic, pred)

            sel_target = list(sel_other)
            sel_target[axis] = t_idx

            if encoding:
                truth = data[tuple(sel_target)]
                err = truth - pred
                raw = np.rint(err / (2.0 * abs_eb)).astype(np.int64)
                recon_err = raw * (2.0 * abs_eb)
                outlier = (np.abs(raw) >= radius) | \
                    (np.abs(recon_err - err) > abs_eb * (1 + 1e-12))
                codes = np.where(outlier, 0, raw + radius).astype(np.uint32)
                codes_out.append(codes.ravel())
                outliers_out.append(err[outlier].astype(np.float64))
                recon[tuple(sel_target)] = pred + np.where(outlier, err, recon_err)
            else:
                count = int(np.prod(pred.shape))
                codes = codes_in[code_pos:code_pos + count].reshape(pred.shape).astype(np.int64)
                code_pos += count
                err = (codes - radius) * (2.0 * abs_eb)
                outlier = codes == 0
                n_out = int(outlier.sum())
                if n_out:
                    err[outlier] = outliers_in[outlier_pos:outlier_pos + n_out]
                    outlier_pos += n_out
                else:
                    err[outlier] = 0.0
                recon[tuple(sel_target)] = pred + err

            steps[axis] = h

        if encoding:
            codes_cat = (np.concatenate(codes_out) if codes_out
                         else np.zeros(0, dtype=np.uint32))
            outliers_cat = (np.concatenate(outliers_out) if outliers_out
                            else np.zeros(0, dtype=np.float64))
            return codes_cat, outliers_cat
        return None

    # ------------------------------------------------------------------
    # the record (DESIGN.md §5)
    # ------------------------------------------------------------------
    def recipe(self, abs_eb: float, dtype: str = "float64") -> dict:
        """Everything a record is decoded under besides its shape."""
        return {"codec": self.name, "abs_eb": float(abs_eb), "radius": self.radius,
                "anchor_stride": self.anchor_stride, "cubic": self.cubic,
                "dtype": str(dtype)}

    def _anchor_sel(self, shape: Tuple[int, ...]) -> Tuple[slice, ...]:
        return tuple(slice(None, None, self.anchor_stride) for _ in shape)

    def encode_record(self, data: np.ndarray, context: bytes = b"") -> Tuple[bytes, np.ndarray]:
        """``(record, reconstruction)``: the codes, then the outlier count, the
        anchors and the outliers (the code count and anchor lattice follow
        from the shape; the checksum also covers ``context``)."""
        data = self._as_input(data)
        abs_eb = self.resolve_eb(data)
        self._check_magnitude(data, abs_eb)
        shape = tuple(int(s) for s in data.shape)
        recon = np.zeros(shape, dtype=np.float64)
        anchors = np.ascontiguousarray(data[self._anchor_sel(shape)])
        recon[self._anchor_sel(shape)] = anchors
        codes, outliers = self._sweep(shape, recon, abs_eb, data, None, None)
        codec = HuffmanCodec.from_data(codes)
        # interpolation codes run coarse level to fine, and deflate still
        # finds ~10% in them at any width (DESIGN.md §4): never stored raw
        record = ctn.pack_record([shape], [codec.encode(codes)], [codec], [
            np.asarray([outliers.size], dtype="<i8"), anchors.astype("<f8"),
            outliers.astype("<f8")], context, deflate_always=True)
        return record, recon

    def parse_record(self, record: bytes, shape: Tuple[int, ...], context: bytes = b""):
        """``(shape, Huffman pairs, outlier count, anchors, outliers)`` of a
        record, checked under this compressor's stride and radius
        (:class:`CorruptFileError`) short of the entropy pass."""
        shape = tuple(int(s) for s in shape)
        nanchors = math.prod(len(range(0, n, self.anchor_stride)) for n in shape)
        # a table spans at most 2 radius codes; then a count, and an anchor or an outlier a cell
        pairs, reader = ctn.parse_record(
            record, [shape], [math.prod(shape) - nanchors], True, "sz_interp record", context,
            (2 * self.radius, 8 + 8 * math.prod(shape)))
        (noutliers,) = reader.take("<i8", 1).tolist()
        anchors = reader.take("<f8", nanchors).copy()
        outliers = reader.take("<f8", noutliers).copy()
        reader.done()
        return shape, pairs, noutliers, anchors, outliers

    def decode_parsed(self, parsed) -> np.ndarray:
        """The float64 array of a :meth:`parse_record` result (left unchanged)."""
        shape, pairs, noutliers, anchors, outliers = parsed
        (codes,) = ctn.decode_huffman([ctn.pairs_of(pairs)])[0]
        if int(np.count_nonzero(codes == 0)) != noutliers:
            raise CorruptFileError("sz_interp record: outlier count disagrees with the codes")
        recon = np.zeros(shape, dtype=np.float64)
        recon[self._anchor_sel(shape)] = anchors.reshape(recon[self._anchor_sel(shape)].shape)
        self._sweep(shape, recon, self.error_bound.resolve(), None, codes, outliers)
        return recon
