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

import math
from typing import List, Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.base import Compressor, DEFAULT_RADIUS, is_float, stored_dtype
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.errors import CorruptFileError, required

__all__ = ["SZ1DCompressor"]

_RECORD = "sz_1d meta"


class SZ1DCompressor(Compressor):
    """1D Lorenzo (first-difference) error-bounded compressor.

    Its record is a section container (:func:`~repro.compress.container.pack_container`)
    whose meta names the bound, radius, shape, dtype and anchor it decodes
    under — the bytes an ``amrex_1d`` chunk stores.  It carries no checksum,
    so ``context`` is not covered.
    """

    name = "sz_1d"

    def __init__(self, error_bound: ErrorBound | float, mode: str = "rel",
                 radius: int = DEFAULT_RADIUS):
        super().__init__(error_bound, mode)
        self.radius = int(radius)
        if not 2 <= self.radius <= DEFAULT_RADIUS:
            raise ValueError(f"radius must be in [2, {DEFAULT_RADIUS}], got {radius!r}")

    # ------------------------------------------------------------------
    def encode_record(self, data: np.ndarray, context: bytes = b"") -> Tuple[bytes, np.ndarray]:
        input_dtype = stored_dtype(data)
        data = self._as_input(data)
        flat = data.reshape(-1)
        abs_eb = self.grid_eb(self.resolve_eb(flat), [flat], [input_dtype])
        self._check_magnitude(flat, abs_eb)

        q = np.rint(flat / (2.0 * abs_eb)).astype(np.int64)
        deltas = np.diff(q, prepend=np.int64(0))
        anchor = int(deltas[0])
        deltas[0] = 0
        outlier_mask = np.abs(deltas) >= self.radius
        codes = np.where(outlier_mask, 0, deltas + self.radius).astype(np.uint32)
        meta = {"abs_eb": abs_eb, "radius": self.radius, "shape": list(data.shape),
                "dtype": input_dtype, "anchor": anchor}
        sections = ctn.pack_huffman([HuffmanCodec.from_data(codes).encode(codes)])
        sections["outliers"] = ctn.pack_zarray(deltas[outlier_mask].astype(np.int64))
        return ctn.pack_container(self.name, meta, sections), \
            (q * (2.0 * abs_eb)).reshape(data.shape)

    def parse_record(self, record: bytes, shape: Tuple[int, ...], context: bytes = b""):
        """``(shape, meta, Huffman pairs, outliers)`` of a record, short of the
        entropy pass; :meth:`decode_parsed` checks the meta against them."""
        cont = ctn.unpack_container(record, expect_codec=self.name)
        return (tuple(shape), cont.meta, ctn.parse_huffman(cont.sections),
                ctn.unpack_zarray(required(cont.sections, "outliers", "sz_1d sections")))

    def decode_parsed(self, parsed) -> np.ndarray:
        """Invert :meth:`encode_record` (float64): a record whose meta cannot
        describe its shape's codes is a :class:`CorruptFileError`."""
        shape, meta, pairs, outliers = parsed
        abs_eb = required(meta, "abs_eb", _RECORD, float)
        radius = required(meta, "radius", _RECORD, int)
        stored = required(meta, "shape", _RECORD, list)
        dtype = required(meta, "dtype", _RECORD, str)
        anchor = required(meta, "anchor", _RECORD, int)
        codes = ctn.decode_huffman([ctn.pairs_of(pairs)])[0][0].astype(np.int64)
        outlier_mask = codes == 0
        if not (np.isfinite(abs_eb) and abs_eb > 0 and 2 <= radius <= DEFAULT_RADIUS
                and -2 ** 63 <= anchor < 2 ** 63 and is_float(dtype)
                and stored == list(shape) and 0 < math.prod(shape) == codes.size
                and outliers.size == np.count_nonzero(outlier_mask)):
            raise CorruptFileError(f"{_RECORD}: does not describe {codes.size} codes of "
                                   f"shape {tuple(shape)} (abs_eb {abs_eb}, radius {radius}, "
                                   f"dtype {dtype!r}, anchor {anchor}, shape {stored})")
        deltas = codes - radius
        deltas[outlier_mask] = outliers
        deltas[0] = anchor
        return (np.cumsum(deltas) * (2.0 * abs_eb)).reshape(shape)

    # ------------------------------------------------------------------
    def compress_chunked(self, data: np.ndarray, chunk_elements: int
                         ) -> Tuple[List[bytes], np.ndarray]:
        """Compress a linearised buffer chunk by chunk (AMReX's small-chunk mode).

        Each chunk is an independent record (its own Huffman table and value
        range), exactly the behaviour of one HDF5 filter invocation per chunk.
        Returns the per-chunk records and the full reconstruction.
        """
        if chunk_elements < 2:
            raise ValueError("chunk_elements must be >= 2")
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        records: List[bytes] = []
        recon = np.empty_like(flat)
        for start in range(0, flat.size, chunk_elements):
            record, recon[start:start + chunk_elements] = \
                self.encode_record(flat[start:start + chunk_elements])
            records.append(record)
        return records, recon.reshape(np.asarray(data).shape)
