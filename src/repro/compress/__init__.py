"""SZ-family error-bounded lossy compression substrate.

The paper builds on the SZ compressor in two flavours:

* ``SZ_L/R`` — block-based prediction (Lorenzo and per-block linear
  regression), error-bounded linear quantisation, Huffman coding and a
  lossless back-end (:class:`~repro.compress.sz_lr.SZLRCompressor`);
* ``SZ_Interp`` — global multi-level interpolation prediction
  (:class:`~repro.compress.sz_interp.SZInterpCompressor`).

plus the 1D codec AMReX's original in situ compression uses
(:class:`~repro.compress.sz1d.SZ1DCompressor`).

All compressors guarantee ``|x - x̂| <= eb`` for every element (absolute error
bound) and support value-range-relative bounds.  A codec is its record: one
serialisation, parsed and decoded against the array shapes under the codec's
recipe (:class:`~repro.compress.base.Compressor` names the methods), which the
AMRIC filter and the series writer store bare, and which ``Compressor`` wraps,
once for every codec, into the standalone buffer — recipe, shapes, record:

``compress(array) -> CompressedBuffer``
``decompress(buffer) -> array``
``compress_with_reconstruction(array) -> (CompressedBuffer, array)``

The last form returns the decompressed output without paying the Huffman
decode cost (the encoder already knows the reconstruction) and is what the
analysis/benchmark layer uses for PSNR at scale.

The codec registry (:mod:`repro.compress.registry`) resolves codecs by name
and builds a record's decoder from its recipe; :mod:`repro.compress.container`
holds the section container and the chunk record (SZ_L/R, SZ_Interp and
``temporal_delta``).
"""

from repro.compress.errorbound import ErrorBound
from repro.compress.metrics import (
    CompressionStats,
    max_abs_error,
    mse,
    nrmse,
    psnr,
)
from repro.compress.sz_lr import SZLRCompressor
from repro.compress.sz_interp import SZInterpCompressor
from repro.compress.sz1d import SZ1DCompressor
from repro.compress.base import CompressedBuffer, Compressor
from repro.compress.registry import (
    CodecSpec,
    available_codecs,
    create_codec,
    register_codec,
    resolve_codec,
)

__all__ = [
    "CodecSpec",
    "available_codecs",
    "create_codec",
    "register_codec",
    "resolve_codec",
    "ErrorBound",
    "CompressedBuffer",
    "Compressor",
    "SZLRCompressor",
    "SZInterpCompressor",
    "SZ1DCompressor",
    "CompressionStats",
    "psnr",
    "mse",
    "nrmse",
    "max_abs_error",
]
