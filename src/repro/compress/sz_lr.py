"""SZ_L/R: block-based Lorenzo / linear-regression compression.

This is the reproduction of SZ 2.x's default pipeline, the compressor AMRIC
optimises:

1. the input is truncated into blocks (6×6×6 by default — §3.2 of the paper);
   edge blocks keep their natural (smaller) size exactly like SZ, which is the
   source of the "residue block" problem the adaptive-block-size optimisation
   addresses;
2. every block is predicted either by the Lorenzo predictor (dual-quantisation
   form, see :mod:`repro.compress.lorenzo`) or by a first-order regression
   plane (:mod:`repro.compress.regression`), whichever is estimated to encode
   smaller;
3. the per-block quantisation codes are Huffman-encoded — with a **single
   shared table** per call (this is exactly what the paper's unit SLE relies
   on when AMRIC hands SZ a list of unit blocks) — and deflated with zlib.

Public entry points
-------------------
``compress`` / ``compress_with_reconstruction`` / ``decompress``
    single-array API (the :class:`~repro.compress.base.Compressor` interface);
``compress_many`` / ``decompress_many``
    multi-array API used by AMRIC's pre-processing: each array (a "unit
    block") is predicted independently, while the lossless encoding is either
    shared (``shared_encoding=True`` → unit SLE) or per-array
    (``shared_encoding=False`` → the costly per-block-tree alternative).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.base import CompressedBuffer, Compressor
from repro.compress.errorbound import ErrorBound
from repro.compress import huffman
from repro.compress.huffman import HuffmanCodec
from repro.compress.quantizer import DEFAULT_RADIUS
from repro.compress import regression

__all__ = ["SZLRCompressor"]

_LORENZO = 0
_REGRESSION = 1


# ----------------------------------------------------------------------
# region / block partition of an array without padding (SZ semantics)
# ----------------------------------------------------------------------
def _region_slices(shape: Tuple[int, ...], block_size: Tuple[int, ...]):
    """Yield the (up to 2^ndim) corner regions of an array.

    Each region is uniform in block shape: along every axis it is either the
    "full blocks" part (a multiple of the block size) or the remainder part
    (shorter than one block).  Iteration order is deterministic, which the
    decoder relies on.
    """
    per_axis: List[List[Tuple[int, int]]] = []
    for n, b in zip(shape, block_size):
        full = (n // b) * b
        segments: List[Tuple[int, int]] = []
        if full > 0:
            segments.append((0, full))
        if n - full > 0:
            segments.append((full, n))
        per_axis.append(segments)
    for combo in itertools.product(*per_axis):
        yield tuple(slice(s, e) for s, e in combo)


def _region_block_shape(region_shape: Tuple[int, ...],
                        block_size: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(min(b, s) for b, s in zip(block_size, region_shape))


def _split_region_into_blocks(region: np.ndarray,
                              block_shape: Tuple[int, ...]) -> np.ndarray:
    """Reshape a region whose extents are multiples of ``block_shape`` into
    an array of shape ``(nblocks,) + block_shape``."""
    grid = tuple(s // b for s, b in zip(region.shape, block_shape))
    interleaved = tuple(v for pair in zip(grid, block_shape) for v in pair)
    reshaped = region.reshape(interleaved)
    ndim = region.ndim
    grid_axes = tuple(range(0, 2 * ndim, 2))
    block_axes = tuple(range(1, 2 * ndim, 2))
    return np.ascontiguousarray(reshaped.transpose(grid_axes + block_axes)
                                .reshape((-1,) + block_shape))


def _merge_blocks_into_region(blocks: np.ndarray, region_shape: Tuple[int, ...],
                              block_shape: Tuple[int, ...]) -> np.ndarray:
    grid = tuple(s // b for s, b in zip(region_shape, block_shape))
    ndim = len(region_shape)
    stacked = blocks.reshape(grid + block_shape)
    order: List[int] = []
    for i in range(ndim):
        order.extend([i, ndim + i])
    return np.ascontiguousarray(stacked.transpose(order).reshape(region_shape))


def _blockwise_lorenzo(q_blocks: np.ndarray) -> np.ndarray:
    """Lorenzo difference applied independently within each block of a batch."""
    out = q_blocks.astype(np.int64, copy=True)
    for axis in range(1, out.ndim):
        prepend_shape = list(out.shape)
        prepend_shape[axis] = 1
        out = np.diff(out, axis=axis, prepend=np.zeros(prepend_shape, dtype=np.int64))
    return out


def _blockwise_lorenzo_inverse(deltas: np.ndarray) -> np.ndarray:
    out = deltas.astype(np.int64, copy=True)
    for axis in range(1, out.ndim):
        out = np.cumsum(out, axis=axis)
    return out


def _estimated_bits(values: np.ndarray, axis: Tuple[int, ...]) -> np.ndarray:
    """Cheap per-block size estimate for signed residual values."""
    return np.sum(2.0 * np.log2(1.0 + np.abs(values)) + 1.0, axis=axis)


# ----------------------------------------------------------------------
# intermediate encoding of one array
# ----------------------------------------------------------------------
@dataclass
class _EncodedArray:
    """Everything produced by predicting/quantising one array (pre-Huffman)."""

    shape: Tuple[int, ...]
    codes: np.ndarray                 # uint32, one per cell, concatenated region/block order
    selection: np.ndarray             # uint8 per block (0 = Lorenzo, 1 = regression)
    anchors: np.ndarray               # int64, one per Lorenzo block
    lorenzo_outliers: np.ndarray      # int64
    regression_outliers: np.ndarray   # float64
    regression_coeffs: np.ndarray     # float64 (n_regression_blocks, ndim + 1)
    reconstruction: np.ndarray

    @property
    def metadata_nbytes(self) -> int:
        """Bytes of per-array side information (outside the Huffman stream)."""
        return (self.selection.size // 8 + 1 + self.anchors.size * 8
                + self.lorenzo_outliers.size * 8 + self.regression_outliers.size * 8
                + self.regression_coeffs.size * 4)


class SZLRCompressor(Compressor):
    """SZ with Lorenzo + linear-regression block predictors (``SZ_L/R``)."""

    name = "sz_lr"

    def __init__(self, error_bound: ErrorBound | float, block_size: int | Sequence[int] = 6,
                 mode: str = "rel", radius: int = DEFAULT_RADIUS,
                 lossless_level: int = 6):
        super().__init__(error_bound, mode)
        self._block_size_spec = block_size
        self.radius = int(radius)
        if self.radius < 2:
            raise ValueError("radius must be >= 2")
        self.lossless_level = int(lossless_level)
        #: the shared Huffman table used by the most recent compress_many call
        self.last_shared_codec: HuffmanCodec | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _block_size_for(self, ndim: int) -> Tuple[int, ...]:
        bs = self._block_size_spec
        if np.isscalar(bs):
            return (int(bs),) * ndim
        bs = tuple(int(b) for b in bs)  # type: ignore[arg-type]
        if len(bs) != ndim:
            raise ValueError(f"block_size {bs} does not match array dimension {ndim}")
        return bs

    @property
    def block_size(self) -> int | Sequence[int]:
        return self._block_size_spec

    # ------------------------------------------------------------------
    # core per-array encoder
    # ------------------------------------------------------------------
    def _encode_array(self, data: np.ndarray, abs_eb: float) -> _EncodedArray:
        """Predict and quantise one array.

        The array is cut into corner regions (full-block part / remainder part
        per axis).  Each region independently chooses between

        * the Lorenzo predictor applied across the *whole region* (dual
          quantisation; prediction freely crosses SZ-block boundaries, exactly
          like the original SZ scan), or
        * the per-SZ-block regression predictor.

        Prediction never crosses region boundaries, and never crosses the
        boundary of the array itself — which is what makes the unit-SLE
        behaviour of AMRIC (prediction confined to unit blocks) fall out of
        the ``compress_many`` API, and what makes thin remainder regions
        ("residue blocks", Fig. 8 of the paper) predict poorly.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        ndim = data.ndim
        block_size = self._block_size_for(ndim)
        radius = self.radius

        codes_parts: List[np.ndarray] = []
        selection_parts: List[np.ndarray] = []
        anchors_parts: List[np.ndarray] = []
        lor_outlier_parts: List[np.ndarray] = []
        reg_outlier_parts: List[np.ndarray] = []
        reg_coeff_parts: List[np.ndarray] = []
        reconstruction = np.empty_like(data)

        for region_sl in _region_slices(data.shape, block_size):
            region = data[region_sl]
            block_shape = _region_block_shape(region.shape, block_size)
            blocks = _split_region_into_blocks(region, block_shape)
            block_axes = tuple(range(1, blocks.ndim))

            # --- Lorenzo path: dual quantisation across the region ----------
            q = np.rint(region / (2.0 * abs_eb)).astype(np.int64)
            deltas = q.copy()
            for axis in range(ndim):
                prepend_shape = list(deltas.shape)
                prepend_shape[axis] = 1
                deltas = np.diff(deltas, axis=axis,
                                 prepend=np.zeros(prepend_shape, dtype=np.int64))
            corner = (0,) * ndim
            anchor = np.int64(deltas[corner])
            deltas[corner] = 0
            recon_lorenzo = q * (2.0 * abs_eb)
            lorenzo_bits = float(np.sum(2.0 * np.log2(1.0 + np.abs(deltas)) + 1.0)) + 64.0

            # --- Regression path: per SZ-block plane fit --------------------
            model, preds = regression.fit_and_predict(blocks, abs_eb)
            residuals = blocks - preds
            reg_raw = np.rint(residuals / (2.0 * abs_eb)).astype(np.int64)
            reg_recon_err = reg_raw * (2.0 * abs_eb)
            reg_outlier_mask = (np.abs(reg_raw) >= radius) | \
                (np.abs(reg_recon_err - residuals) > abs_eb * (1 + 1e-12))
            recon_regression = preds + np.where(reg_outlier_mask, residuals, reg_recon_err)
            regression_bits = float(
                np.sum(2.0 * np.log2(1.0 + np.abs(np.where(reg_outlier_mask, 0, reg_raw))) + 1.0)
                + 64.0 * reg_outlier_mask.sum()
                + 32.0 * (ndim + 1) * blocks.shape[0])

            # --- per-region choice -------------------------------------------
            use_regression = bool(regression_bits < lorenzo_bits)
            selection_parts.append(np.asarray([use_regression], dtype=np.uint8))

            if use_regression:
                codes = np.where(reg_outlier_mask, 0, reg_raw + radius).astype(np.uint32)
                codes_parts.append(codes.reshape(codes.shape[0], -1).ravel())
                reg_outlier_parts.append(residuals[reg_outlier_mask])
                reg_coeff_parts.append(model.coefficients)
                reconstruction[region_sl] = _merge_blocks_into_region(
                    recon_regression, region.shape, block_shape)
            else:
                lor_outlier_mask = np.abs(deltas) >= radius
                codes = np.where(lor_outlier_mask, 0, deltas + radius).astype(np.uint32)
                codes_parts.append(codes.ravel())
                anchors_parts.append(np.asarray([anchor], dtype=np.int64))
                lor_outlier_parts.append(deltas[lor_outlier_mask])
                reconstruction[region_sl] = recon_lorenzo

        return _EncodedArray(
            shape=tuple(int(s) for s in data.shape),
            codes=np.concatenate(codes_parts) if codes_parts else np.zeros(0, np.uint32),
            selection=np.concatenate(selection_parts) if selection_parts else np.zeros(0, np.uint8),
            anchors=np.concatenate(anchors_parts) if anchors_parts else np.zeros(0, np.int64),
            lorenzo_outliers=np.concatenate(lor_outlier_parts) if lor_outlier_parts else np.zeros(0, np.int64),
            regression_outliers=np.concatenate(reg_outlier_parts) if reg_outlier_parts else np.zeros(0, np.float64),
            regression_coeffs=(np.concatenate(reg_coeff_parts) if reg_coeff_parts
                               else np.zeros((0, ndim + 1), np.float64)),
            reconstruction=reconstruction,
        )

    def _decode_array(self, shape: Tuple[int, ...], abs_eb: float, codes: np.ndarray,
                      selection: np.ndarray, anchors: np.ndarray,
                      lorenzo_outliers: np.ndarray, regression_outliers: np.ndarray,
                      regression_coeffs: np.ndarray) -> np.ndarray:
        ndim = len(shape)
        block_size = self._block_size_for(ndim)
        radius = self.radius
        out = np.empty(shape, dtype=np.float64)

        code_pos = 0
        region_index = 0
        anchor_pos = 0
        lor_out_pos = 0
        reg_out_pos = 0
        coeff_pos = 0

        for region_sl in _region_slices(shape, block_size):
            region_shape = tuple(s.stop - s.start for s in region_sl)
            block_shape = _region_block_shape(region_shape, block_size)
            block_volume = int(np.prod(block_shape))
            region_volume = int(np.prod(region_shape))
            nblocks = region_volume // block_volume

            region_codes = codes[code_pos:code_pos + region_volume].astype(np.int64)
            code_pos += region_volume

            use_regression = bool(selection[region_index])
            region_index += 1

            if use_regression:
                reg_codes = region_codes.reshape((nblocks,) + block_shape)
                coeffs = regression_coeffs[coeff_pos:coeff_pos + nblocks]
                coeff_pos += nblocks
                model = regression.RegressionModel(coefficients=coeffs, block_shape=block_shape)
                preds = regression.predict_blocks(model)
                errors = (reg_codes - radius) * (2.0 * abs_eb)
                outlier_mask = reg_codes == 0
                n_out = int(outlier_mask.sum())
                if n_out:
                    errors[outlier_mask] = regression_outliers[reg_out_pos:reg_out_pos + n_out]
                    reg_out_pos += n_out
                else:
                    errors[outlier_mask] = 0.0
                out[region_sl] = _merge_blocks_into_region(
                    preds + errors, region_shape, block_shape)
            else:
                deltas = region_codes.reshape(region_shape) - radius
                outlier_mask = region_codes.reshape(region_shape) == 0
                n_out = int(outlier_mask.sum())
                if n_out:
                    deltas[outlier_mask] = lorenzo_outliers[lor_out_pos:lor_out_pos + n_out]
                    lor_out_pos += n_out
                else:
                    deltas[outlier_mask] = 0
                deltas[(0,) * ndim] = anchors[anchor_pos]
                anchor_pos += 1
                q = deltas
                for axis in range(ndim):
                    q = np.cumsum(q, axis=axis)
                out[region_sl] = q * (2.0 * abs_eb)

        return out

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def _serialize(self, encoded: Sequence[_EncodedArray], abs_eb: float,
                   shared_encoding: bool, dtype: str,
                   codec: HuffmanCodec | None = None) -> Tuple[bytes, HuffmanCodec | None]:
        meta = {
            "abs_eb": abs_eb,
            "radius": self.radius,
            "block_size": list(self._block_size_for(len(encoded[0].shape))),
            "shared": bool(shared_encoding),
            "dtype": dtype,
            "shapes": [list(e.shape) for e in encoded],
            "sync_interval": huffman.SYNC_INTERVAL,
        }
        sections: dict = {}

        if shared_encoding:
            # reuse a caller-provided codec (one SLE table across chunks) when
            # it covers this chunk's symbols; otherwise build one from scratch.
            # encode() itself detects missing symbols (KeyError), so coverage
            # costs no extra lookup pass on the hot path.
            streams = None
            if codec is not None:
                try:
                    streams = [codec.encode(e.codes) for e in encoded]
                except KeyError:
                    streams = None
            if streams is None:
                codec = HuffmanCodec.from_multiple([e.codes for e in encoded])
                streams = [codec.encode(e.codes) for e in encoded]
            sections.update(ctn.pack_huffman(streams, self.lossless_level))
        else:
            # one table + payload per array (the costly non-SLE alternative)
            codec = None
            streams = [HuffmanCodec.from_data(e.codes).encode(e.codes) for e in encoded]
            sections["huff_individual"] = ctn.pack_huffman_individual(
                streams, self.lossless_level)

        sections["selection"] = ctn.pack_zbytes(
            np.packbits(np.concatenate([e.selection for e in encoded])).tobytes(),
            self.lossless_level)
        sections["anchors"] = ctn.pack_zarray(
            np.concatenate([e.anchors for e in encoded]), self.lossless_level)
        sections["lorenzo_outliers"] = ctn.pack_zarray(
            np.concatenate([e.lorenzo_outliers for e in encoded]), self.lossless_level)
        sections["regression_outliers"] = ctn.pack_zarray(
            np.concatenate([e.regression_outliers for e in encoded]), self.lossless_level)
        coeffs = np.concatenate([e.regression_coeffs for e in encoded], axis=0) \
            if encoded else np.zeros((0, 1))
        sections["regression_coeffs"] = ctn.pack_zarray(
            coeffs.astype(np.float32), self.lossless_level)
        # per-array counts so the decoder can split the concatenated side arrays
        counts = np.asarray(
            [[e.selection.size, e.anchors.size, e.lorenzo_outliers.size,
              e.regression_outliers.size, e.regression_coeffs.shape[0], e.codes.size]
             for e in encoded], dtype=np.int64)
        sections["counts"] = counts.tobytes()
        return ctn.pack_container(self.name, meta, sections), codec

    def _deserialize(self, payload: bytes):
        cont = ctn.unpack_container(payload, expect_codec=self.name)
        meta, sections = cont.meta, cont.sections
        counts = np.frombuffer(sections["counts"], dtype=np.int64).reshape(-1, 6)

        selection_all = np.unpackbits(
            np.frombuffer(ctn.unpack_zbytes(sections["selection"]), dtype=np.uint8),
            count=int(counts[:, 0].sum())).astype(np.uint8)
        anchors_all = ctn.unpack_zarray(sections["anchors"]).astype(np.int64)
        lor_out_all = ctn.unpack_zarray(sections["lorenzo_outliers"]).astype(np.int64)
        reg_out_all = ctn.unpack_zarray(sections["regression_outliers"]).astype(np.float64)
        coeffs_all = ctn.unpack_zarray(sections["regression_coeffs"]).astype(np.float64)

        # decode Huffman streams back to per-array code arrays
        interval = int(meta.get("sync_interval", 0))
        if meta["shared"]:
            codes_per_array = ctn.unpack_huffman(sections, sync_interval=interval)
        else:
            codes_per_array = ctn.unpack_huffman_individual(
                sections["huff_individual"], counts[:, 5].tolist(), interval)

        return meta, counts, codes_per_array, selection_all, anchors_all, \
            lor_out_all, reg_out_all, coeffs_all

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compress_with_reconstruction(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        buffer, recons = self.compress_many_with_reconstruction([data])
        return buffer, recons[0]

    def compress_many(self, arrays: Sequence[np.ndarray], shared_encoding: bool = True,
                      value_range: float | None = None,
                      codec: HuffmanCodec | None = None) -> CompressedBuffer:
        buffer, _ = self.compress_many_with_reconstruction(
            arrays, shared_encoding=shared_encoding, value_range=value_range, codec=codec)
        return buffer

    def compress_many_with_reconstruction(
            self, arrays: Sequence[np.ndarray], shared_encoding: bool = True,
            value_range: float | None = None,
            codec: HuffmanCodec | None = None) -> Tuple[CompressedBuffer, List[np.ndarray]]:
        """Compress several arrays into one buffer (AMRIC unit-block API).

        ``codec`` optionally supplies a pre-built shared Huffman table (SLE
        across *chunks*); it is used only when it covers every symbol of this
        call, and the table actually used is exposed as
        :attr:`last_shared_codec` so callers can carry it to the next chunk.
        """
        if not len(arrays):
            raise ValueError("need at least one array")
        input_dtype = str(np.asarray(arrays[0]).dtype)
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        if value_range is None:
            gmin = min(float(a.min()) for a in arrays)
            gmax = max(float(a.max()) for a in arrays)
            value_range = gmax - gmin
        abs_eb = self.error_bound.resolve(value_range=value_range)
        encoded = [self._encode_array(a, abs_eb) for a in arrays]
        payload, used_codec = self._serialize(encoded, abs_eb, shared_encoding,
                                              input_dtype, codec=codec)
        self.last_shared_codec = used_codec
        original_nbytes = sum(
            a.size * np.dtype(input_dtype).itemsize for a in arrays)
        buffer = CompressedBuffer(
            payload=payload,
            original_shape=arrays[0].shape if len(arrays) == 1 else (original_nbytes // 8,),
            original_dtype=input_dtype,
            original_nbytes=original_nbytes,
            codec=self.name,
            meta={"abs_eb": abs_eb, "narrays": len(arrays),
                  "shared_encoding": bool(shared_encoding),
                  "shapes": [a.shape for a in arrays]},
        )
        return buffer, [e.reconstruction for e in encoded]

    def decompress(self, buffer: CompressedBuffer | bytes) -> np.ndarray:
        arrays = self.decompress_many(buffer)
        if len(arrays) != 1:
            raise ValueError("buffer holds multiple arrays; use decompress_many")
        return arrays[0]

    def decompress_many(self, buffer: CompressedBuffer | bytes) -> List[np.ndarray]:
        payload = self._payload_of(buffer)
        meta, counts, codes_per_array, selection_all, anchors_all, lor_out_all, \
            reg_out_all, coeffs_all = self._deserialize(payload)
        abs_eb = float(meta["abs_eb"])
        shapes = [tuple(s) for s in meta["shapes"]]

        out: List[np.ndarray] = []
        sel_pos = anc_pos = lor_pos = reg_pos = coeff_pos = 0
        for i, shape in enumerate(shapes):
            n_sel, n_anc, n_lor, n_reg, n_coeff, _ = (int(c) for c in counts[i])
            selection = selection_all[sel_pos:sel_pos + n_sel]
            anchors = anchors_all[anc_pos:anc_pos + n_anc]
            lor_outliers = lor_out_all[lor_pos:lor_pos + n_lor]
            reg_outliers = reg_out_all[reg_pos:reg_pos + n_reg]
            coeffs = coeffs_all[coeff_pos:coeff_pos + n_coeff]
            sel_pos += n_sel
            anc_pos += n_anc
            lor_pos += n_lor
            reg_pos += n_reg
            coeff_pos += n_coeff
            out.append(self._decode_array(shape, abs_eb, codes_per_array[i], selection,
                                          anchors, lor_outliers, reg_outliers, coeffs))
        dtype = np.dtype(meta["dtype"])
        return [a.astype(dtype) if dtype != np.float64 else a for a in out]
