"""A ZFP-flavoured transform codec (background comparator only).

ZFP compresses fixed 4×4×4 blocks with an orthogonal block transform followed
by embedded coefficient coding.  The paper only mentions ZFP as background
(§2.2); its evaluation uses SZ.  This module provides a small transform-based
codec so the "prediction-based versus transform-based" comparison in the
examples/analysis layer has a real second family to point at:

* fixed 4×4×4 blocks, separable orthonormal DCT-II transform;
* uniform scalar quantisation of the coefficients with a step chosen so the
  *spatial-domain* maximum error provably stays below the requested bound;
* Huffman + zlib entropy stage shared with the SZ implementations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.base import CompressedBuffer, Compressor
from repro.compress.blocks import partition_blocks, reassemble_blocks
from repro.compress.errorbound import ErrorBound
from repro.compress import huffman
from repro.compress.huffman import HuffmanCodec
from repro.compress.quantizer import DEFAULT_RADIUS

__all__ = ["ZFPLikeCompressor"]


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n."""
    k = np.arange(n).reshape(-1, 1)
    i = np.arange(n).reshape(1, -1)
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat[0, :] *= np.sqrt(1.0 / n)
    mat[1:, :] *= np.sqrt(2.0 / n)
    return mat


class ZFPLikeCompressor(Compressor):
    """Fixed-block orthogonal-transform codec with a guaranteed error bound."""

    name = "zfp_like"

    def __init__(self, error_bound: ErrorBound | float, block_size: int = 4,
                 mode: str = "rel", radius: int = DEFAULT_RADIUS,
                 lossless_level: int = 6):
        super().__init__(error_bound, mode)
        self.block_size = int(block_size)
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.radius = int(radius)
        self.lossless_level = int(lossless_level)

    # ------------------------------------------------------------------
    def _basis(self, ndim: int) -> Tuple[np.ndarray, float]:
        """The separable inverse-transform operator's L1 column bound.

        If coefficient ``c_k`` has error ``|δ_k| <= step/2``, the spatial error
        at any point is at most ``gamma * step / 2`` where ``gamma`` is the
        maximum over points of the L1 norm of the inverse-basis row.
        """
        mat = _dct_matrix(self.block_size)
        # inverse transform = mat.T applied along each axis; per-axis row L1 norm
        per_axis = np.abs(mat.T).sum(axis=1).max()
        gamma = float(per_axis ** ndim)
        return mat, gamma

    def _forward(self, blocks: np.ndarray, mat: np.ndarray) -> np.ndarray:
        out = blocks
        ndim = blocks.ndim - 1
        for axis in range(1, ndim + 1):
            out = np.moveaxis(np.tensordot(out, mat, axes=([axis], [1])), -1, axis)
        return out

    def _inverse(self, coeffs: np.ndarray, mat: np.ndarray) -> np.ndarray:
        out = coeffs
        ndim = coeffs.ndim - 1
        for axis in range(1, ndim + 1):
            out = np.moveaxis(np.tensordot(out, mat.T, axes=([axis], [1])), -1, axis)
        return out

    # ------------------------------------------------------------------
    def compress_with_reconstruction(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        input_dtype = str(np.asarray(data).dtype)
        original_nbytes = int(np.asarray(data).nbytes)
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        abs_eb = self.resolve_eb(data)
        mat, gamma = self._basis(data.ndim)
        step = 2.0 * abs_eb / gamma

        part = partition_blocks(data, self.block_size, pad_mode="edge")
        coeffs = self._forward(part.blocks.astype(np.float64), mat)
        raw = np.rint(coeffs / step).astype(np.int64)
        # keep every coefficient representable: clip to the radius and absorb the
        # clipped remainder as an exactly-stored outlier coefficient
        outlier_mask = np.abs(raw) >= self.radius
        codes = np.where(outlier_mask, 0, raw + self.radius).astype(np.uint32)
        outliers = coeffs[outlier_mask].astype(np.float64)
        dequant = np.where(outlier_mask, coeffs, raw * step)
        recon_blocks = self._inverse(dequant, mat)
        recon = reassemble_blocks(part, recon_blocks)

        codec = HuffmanCodec.from_data(codes.ravel())
        stream = codec.encode(codes.ravel())
        meta = {
            "abs_eb": abs_eb,
            "step": step,
            "radius": self.radius,
            "block_size": self.block_size,
            "shape": list(data.shape),
            "dtype": input_dtype,
            "sync_interval": huffman.SYNC_INTERVAL,
        }
        sections = ctn.pack_huffman([stream], self.lossless_level)
        sections["outliers"] = ctn.pack_zarray(outliers, self.lossless_level)
        payload = ctn.pack_container(self.name, meta, sections)
        buffer = CompressedBuffer(
            payload=payload,
            original_shape=tuple(int(s) for s in data.shape),
            original_dtype=input_dtype,
            original_nbytes=original_nbytes,
            codec=self.name,
            meta={"abs_eb": abs_eb},
        )
        return buffer, recon

    def decompress(self, buffer: CompressedBuffer | bytes) -> np.ndarray:
        cont = ctn.unpack_container(self._payload_of(buffer), expect_codec=self.name)
        meta, sections = cont.meta, cont.sections
        step = float(meta["step"])
        radius = int(meta["radius"])
        block_size = int(meta["block_size"])
        shape = tuple(meta["shape"])

        codes = ctn.unpack_huffman(
            sections, sync_interval=int(meta.get("sync_interval", 0)))[0].astype(np.int64)
        outliers = ctn.unpack_zarray(sections["outliers"])

        mat, _ = self._basis(len(shape))
        dummy = np.zeros(shape, dtype=np.float64)
        part = partition_blocks(dummy, block_size, pad_mode="edge")
        coeffs = (codes.reshape(part.blocks.shape) - radius) * step
        outlier_mask = codes.reshape(part.blocks.shape) == 0
        if outliers.size:
            coeffs[outlier_mask] = outliers
        else:
            coeffs[outlier_mask] = 0.0
        recon_blocks = self._inverse(coeffs, mat)
        recon = reassemble_blocks(part, recon_blocks)
        dtype = np.dtype(meta["dtype"])
        return recon.astype(dtype) if dtype != np.float64 else recon
