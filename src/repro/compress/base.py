"""Common compressor interface and the compressed-buffer container."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from repro.compress.errorbound import ErrorBound

__all__ = ["CompressedBuffer", "Compressor", "DEFAULT_RADIUS"]

#: Default quantisation radius of the SZ-family codecs (SZ's 2^16-entry
#: interval table): a prediction error quantises to ``round(err / (2*eb))``,
#: stored shifted by the radius so codes are non-negative, with code 0
#: reserved for an unpredictable value (``|code| >= radius``) kept verbatim.
DEFAULT_RADIUS = 32768


@dataclass
class CompressedBuffer:
    """The result of compressing one array.

    Attributes
    ----------
    payload:
        The self-contained compressed byte stream (whatever the compressor's
        ``decompress`` expects).
    original_shape / original_dtype:
        Shape and dtype of the input array.
    original_nbytes:
        Size of the uncompressed input in bytes.
    codec:
        Name of the compressor that produced the buffer.
    meta:
        Codec-specific metadata useful for reporting (never needed to decode —
        everything required for decoding lives inside ``payload``).
    """

    payload: bytes
    original_shape: Tuple[int, ...]
    original_dtype: str
    original_nbytes: int
    codec: str
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def compressed_nbytes(self) -> int:
        return len(self.payload)

    @property
    def compression_ratio(self) -> float:
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes

    @property
    def bitrate(self) -> float:
        """Bits per element of the original array."""
        nelems = int(np.prod(self.original_shape)) if self.original_shape else 1
        if nelems == 0:
            return 0.0
        return 8.0 * self.compressed_nbytes / nelems


class Compressor(abc.ABC):
    """Abstract error-bounded lossy compressor."""

    name: str = "base"

    def __init__(self, error_bound: ErrorBound | float, mode: str = "rel"):
        self.error_bound = ErrorBound.coerce(error_bound, mode)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def compress_with_reconstruction(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        """Compress ``data`` and return the buffer plus the decoded reconstruction.

        The reconstruction must be byte-identical to what :meth:`decompress`
        would return; implementations produce it as a by-product of encoding so
        analyses can measure distortion without paying the decode cost.
        """

    @abc.abstractmethod
    def decompress(self, buffer: CompressedBuffer | bytes) -> np.ndarray:
        """Decode a buffer produced by this compressor."""

    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedBuffer:
        """Compress ``data`` (drops the reconstruction)."""
        buffer, _ = self.compress_with_reconstruction(data)
        return buffer

    def _as_input(self, data: np.ndarray) -> np.ndarray:
        """``data`` as float64; no error bound covers an empty array or NaN/Inf."""
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        if not np.isfinite(data).all():
            raise ValueError(f"{self.name} cannot compress non-finite values (NaN or Inf)")
        return data

    def _check_magnitude(self, data: np.ndarray, abs_eb: float) -> None:
        """Refuse ``data`` whose codes ``rint(x / (2·eb))`` would not fit int64:
        the cast would wrap and the reconstruction silently miss the bound."""
        largest = float(max(data.max(), -data.min()))      # |x| max, without |x|'s copy
        if largest / (2.0 * abs_eb) >= 2.0 ** 62:
            raise ValueError(f"{self.name} cannot quantise magnitude {largest:.6g} at error "
                             f"bound {abs_eb:.6g}: |x| / (2·eb) must stay below 2**62")

    # -- records: one array, decoded against a shape under a recipe --------
    def recipe(self, abs_eb: float, dtype: str = "float64") -> dict:
        """What :meth:`decode_record` needs besides the shape (stored once per
        dataset by the AMRIC filter); a codec with a lean record adds to it."""
        return {"codec": self.name, "abs_eb": float(abs_eb), "dtype": str(dtype)}

    def encode_record(self, data: np.ndarray, context: bytes = b"") -> Tuple[bytes, np.ndarray]:
        """``(record, reconstruction)`` of one array; by default the record is
        the standalone payload (``context``: what a checksummed record covers)."""
        buffer, recon = self.compress_with_reconstruction(data)
        return buffer.payload, recon

    def decode_record(self, record: bytes, shape: Tuple[int, ...],
                      context: bytes = b"") -> np.ndarray:
        return self.decompress(record).reshape(shape)

    def resolve_eb(self, data: np.ndarray, value_range: float | None = None) -> float:
        """Absolute error bound for this input."""
        return self.error_bound.resolve(data, value_range=value_range)

    @staticmethod
    def _payload_of(buffer: "CompressedBuffer | bytes") -> bytes:
        return buffer.payload if isinstance(buffer, CompressedBuffer) else buffer

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(error_bound={self.error_bound})"
