"""SZ 1D: the codec behind AMReX's original in situ compression.

AMReX's HDF5 plotfile compression hands the filter a *linearised* buffer (all
spatial structure lost) and the filter compresses it with SZ in 1D.  The codec
here mirrors that: a 1D Lorenzo predictor (dual-quantisation form), one
Huffman table per call, and a zlib back-end
(:func:`~repro.compress.container.pack_huffman`).
The small-chunk behaviour the paper criticises (one compressor launch per
1024-element HDF5 chunk) is imposed by the filter layer, not by this codec — see
:mod:`repro.h5lite.filters` and :mod:`repro.baselines.amrex_1d`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.base import CompressedBuffer, Compressor, DEFAULT_RADIUS
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.errors import required

__all__ = ["SZ1DCompressor"]

_RECORD = "sz_1d meta"


class SZ1DCompressor(Compressor):
    """1D Lorenzo (first-difference) error-bounded compressor."""

    name = "sz_1d"

    def __init__(self, error_bound: ErrorBound | float, mode: str = "rel",
                 radius: int = DEFAULT_RADIUS):
        super().__init__(error_bound, mode)
        self.radius = int(radius)

    # ------------------------------------------------------------------
    def compress_with_reconstruction(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        input_dtype = str(np.asarray(data).dtype)
        original_nbytes = int(np.asarray(data).nbytes)
        data = self._as_input(data)
        original_shape = tuple(int(s) for s in data.shape)
        flat = data.reshape(-1)
        abs_eb = self.resolve_eb(flat)
        self._check_magnitude(flat, abs_eb)

        q = np.rint(flat / (2.0 * abs_eb)).astype(np.int64)
        deltas = np.diff(q, prepend=np.int64(0))
        anchor = int(deltas[0])
        deltas = deltas.copy()
        deltas[0] = 0
        outlier_mask = np.abs(deltas) >= self.radius
        codes = np.where(outlier_mask, 0, deltas + self.radius).astype(np.uint32)
        outliers = deltas[outlier_mask].astype(np.int64)
        recon = (q * (2.0 * abs_eb)).reshape(original_shape)

        codec = HuffmanCodec.from_data(codes)
        stream = codec.encode(codes)
        meta = {
            "abs_eb": abs_eb,
            "radius": self.radius,
            "shape": list(original_shape),
            "dtype": input_dtype,
            "anchor": anchor,
        }
        sections = ctn.pack_huffman([stream])
        sections["outliers"] = ctn.pack_zarray(outliers)
        payload = ctn.pack_container(self.name, meta, sections)
        buffer = CompressedBuffer(
            payload=payload,
            original_shape=original_shape,
            original_dtype=input_dtype,
            original_nbytes=original_nbytes,
            codec=self.name,
            meta={"abs_eb": abs_eb},
        )
        return buffer, recon

    def decompress(self, buffer: CompressedBuffer | bytes) -> np.ndarray:
        cont = ctn.unpack_container(self._payload_of(buffer), expect_codec=self.name)
        meta, sections = cont.meta, cont.sections
        abs_eb = required(meta, "abs_eb", _RECORD, float)
        radius = required(meta, "radius", _RECORD, int)
        shape = required(meta, "shape", _RECORD, list)
        dtype = np.dtype(required(meta, "dtype", _RECORD, str))
        anchor = required(meta, "anchor", _RECORD, int)

        codes = ctn.unpack_huffman(sections)[0].astype(np.int64)
        outliers = ctn.unpack_zarray(
            required(sections, "outliers", "sz_1d sections")).astype(np.int64)

        deltas = codes - radius
        outlier_mask = codes == 0
        if outliers.size:
            deltas[outlier_mask] = outliers
        else:
            deltas[outlier_mask] = 0
        deltas[0] = anchor
        q = np.cumsum(deltas)
        recon = (q * (2.0 * abs_eb)).reshape(tuple(shape))
        return recon.astype(dtype) if dtype != np.float64 else recon

    # ------------------------------------------------------------------
    def compress_chunked(self, data: np.ndarray, chunk_elements: int
                         ) -> Tuple[List[CompressedBuffer], np.ndarray]:
        """Compress a linearised buffer chunk by chunk (AMReX's small-chunk mode).

        Each chunk is an independent compression (its own Huffman table and
        value range), exactly the behaviour of one HDF5 filter invocation per
        chunk.  Returns the per-chunk buffers and the full reconstruction.
        """
        if chunk_elements < 2:
            raise ValueError("chunk_elements must be >= 2")
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        buffers: List[CompressedBuffer] = []
        recon = np.empty_like(flat)
        for start in range(0, flat.size, chunk_elements):
            chunk = flat[start:start + chunk_elements]
            buf, rec = self.compress_with_reconstruction(chunk)
            buffers.append(buf)
            recon[start:start + chunk.size] = rec
        return buffers, recon.reshape(np.asarray(data).shape)
