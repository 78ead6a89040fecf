"""The ``temporal_delta`` codec: quantised values, delta-coded across timesteps.

The spatial SZ-family codecs predict each value from its *spatial*
neighbours; in an in situ series the strongest predictor of a cell is the
same cell one plotfile earlier.  This codec exploits that:

* every value is snapped onto a **fixed absolute quantisation grid**
  ``offset + code * 2*eb`` (so ``|x - x̂| <= eb`` per element, the usual SZ
  guarantee).  Because the grid is fixed for a whole series, the code of a
  cell at step *t* is a plain integer whose temporal difference is small for
  smoothly-evolving fields;
* a **key** stream entropy-codes the absolute codes and is fully
  self-contained;
* a **delta** stream entropy-codes ``codes_t - codes_ref`` against a
  reference stream (the previous dump of the same chunk) and can only be
  decoded with that reference's codes at hand.

Both stream kinds decode to *exactly* ``offset + codes * 2*eb`` — the
reconstruction of a delta chunk is element-wise identical to the key
encoding of the same data, which is what lets a delta-compressed series
verify against keyframe-only writes bit for bit.

Streams travel in the unified codec container
(:mod:`repro.compress.container`): a JSON ``meta`` section (mode, grid,
element count) plus the shared Huffman sections every codec uses.  The codec
registers in the codec registry as ``temporal_delta``; the series subsystem
(:mod:`repro.series`) owns the rolling references and keyframe cadence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import CompressedBuffer, Compressor
from repro.compress.container import (
    decode_huffman,
    pack_container,
    pack_huffman,
    parse_huffman,
    required,
    unpack_container,
)
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import SYNC_INTERVAL, HuffmanCodec

__all__ = [
    "MODE_KEY",
    "MODE_DELTA",
    "TemporalDeltaCodec",
    "TemporalDeltaFilter",
    "stream_mode",
]

MODE_KEY = "key"
MODE_DELTA = "delta"

#: shifted codes must fit the uint32 alphabet Huffman expects
_MAX_CODE_SPREAD = np.iinfo(np.uint32).max


class TemporalDeltaCodec(Compressor):
    """Fixed-grid value quantisation with key/delta entropy-coded streams.

    Parameters
    ----------
    error_bound:
        The per-element bound.  ``mode="abs"`` fixes the quantisation grid
        spacing at ``2 * error_bound`` (what the series writer uses — the
        grid must not move between steps); ``mode="rel"`` resolves the bound
        against each input's value range (standalone registry use).
    offset:
        Origin of the quantisation grid.  The series writer passes the
        field's minimum at the first step so codes stay small and
        non-negative.
    """

    name = "temporal_delta"

    def __init__(self, error_bound: ErrorBound | float, mode: str = "rel",
                 offset: float = 0.0, lossless_level: int = 6):
        super().__init__(error_bound, mode)
        self.offset = float(offset)
        self.lossless_level = int(lossless_level)

    # ------------------------------------------------------------------
    # the fixed quantisation grid
    # ------------------------------------------------------------------
    def _grid_eb(self, data: Optional[np.ndarray] = None) -> float:
        if self.error_bound.mode == "abs" or data is None:
            eb = self.error_bound.resolve(value_range=1.0)
        else:
            eb = self.error_bound.resolve(data)
        if eb <= 0:
            raise ValueError("temporal_delta needs a positive error bound")
        return eb

    def quantize(self, data: np.ndarray, eb: Optional[float] = None) -> np.ndarray:
        """Snap values onto the grid: ``code = rint((x - offset) / (2*eb))``."""
        eb = self._grid_eb(np.asarray(data)) if eb is None else float(eb)
        x = np.asarray(data, dtype=np.float64).reshape(-1)
        return np.rint((x - self.offset) / (2.0 * eb)).astype(np.int64)

    @staticmethod
    def grid_values(codes: np.ndarray, eb: float, offset: float) -> np.ndarray:
        """The one reconstruction stencil: ``offset + codes * 2*eb``.

        Every consumer (codec decode, chunk filter, series chain resolution)
        must reconstruct through this function so the delta==keyframe
        bit-identity guarantee cannot silently diverge between layers.
        """
        return float(offset) + np.asarray(codes, dtype=np.int64) * (2.0 * float(eb))

    def dequantize(self, codes: np.ndarray, eb: float,
                   offset: Optional[float] = None) -> np.ndarray:
        """The exact reconstruction of a code stream (mode-independent)."""
        origin = self.offset if offset is None else float(offset)
        return self.grid_values(codes, eb, origin)

    # ------------------------------------------------------------------
    # stream framing (key and delta share it; only the payload codes differ)
    # ------------------------------------------------------------------
    def _pack_codes(self, codes: np.ndarray, mode: str, eb: float, n: int,
                    shape: Optional[Tuple[int, ...]] = None) -> bytes:
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        if codes.size:
            min_code = int(codes.min())
            spread = int(codes.max()) - min_code
            if spread > _MAX_CODE_SPREAD:
                raise ValueError(
                    f"temporal_delta code spread {spread} exceeds the entropy "
                    "coder's alphabet; the error bound is too tight for this data")
            shifted = (codes - min_code).astype(np.uint32)
        else:
            min_code = 0
            shifted = np.zeros(0, dtype=np.uint32)
        stream = HuffmanCodec.from_data(shifted).encode(shifted)
        meta: Dict[str, object] = {
            "mode": mode,
            "eb": float(eb),
            "offset": self.offset,
            "n": int(n),
            "min_code": min_code,
            "sync_interval": SYNC_INTERVAL,
        }
        if shape is not None:
            meta["shape"] = [int(s) for s in shape]
        return pack_container(self.name, meta,
                              pack_huffman([stream], self.lossless_level))

    @staticmethod
    def unpack_codes(payload: bytes) -> Tuple[str, np.ndarray, Dict[str, object]]:
        """Parse one stream back into (mode, int64 codes, meta).

        For a key stream the codes are the absolute grid codes; for a delta
        stream they are the code *differences* against the reference stream
        (adding the reference's absolute codes is the caller's job — see
        :meth:`decode_with_reference`).
        """
        return TemporalDeltaCodec.unpack_codes_many([payload])[0]

    @staticmethod
    def unpack_codes_many(payloads: Sequence[bytes]
                          ) -> List[Tuple[str, np.ndarray, Dict[str, object]]]:
        """:meth:`unpack_codes` of several streams, entropy-decoded in one pass.

        Every stream is parsed (container, mode, grid) before any is decoded;
        the series reader hands a decode group's chains here, a bounded
        number of streams at a time.
        """
        parsed = []
        for payload in payloads:
            container = unpack_container(payload, expect_codec=TemporalDeltaCodec.name)
            meta = container.meta
            mode = str(meta.get("mode", ""))
            if mode not in (MODE_KEY, MODE_DELTA):
                raise ValueError(f"corrupt temporal_delta stream: unknown mode {mode!r}")
            required(meta, "eb", "temporal_delta meta")
            # a stream written before the key existed takes the scalar decode loop
            parsed.append((mode, meta, parse_huffman(
                container.sections, sync_interval=int(meta.get("sync_interval", 0)))))
        out = []
        for (mode, meta, _), (shifted,) in zip(
                parsed, decode_huffman([pairs for _, _, pairs in parsed])):
            codes = shifted.astype(np.int64) + int(meta.get("min_code", 0))
            n = int(meta.get("n", codes.size))
            if codes.size != n:
                raise ValueError(
                    f"corrupt temporal_delta stream: {codes.size} codes for {n} elements")
            out.append((mode, codes, meta))
        return out

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_key(self, data: np.ndarray,
                   eb: Optional[float] = None) -> Tuple[bytes, np.ndarray, np.ndarray]:
        """Self-contained stream: returns (payload, codes, reconstruction)."""
        data = np.asarray(data)
        eb = self._grid_eb(data) if eb is None else float(eb)
        codes = self.quantize(data, eb)
        payload = self._pack_codes(codes, MODE_KEY, eb, codes.size,
                                   shape=data.shape)
        return payload, codes, self.dequantize(codes, eb)

    def encode_delta(self, data: np.ndarray, ref_codes: np.ndarray,
                     eb: Optional[float] = None) -> Tuple[bytes, np.ndarray, np.ndarray]:
        """Delta stream against ``ref_codes``: returns (payload, codes, reconstruction).

        The returned ``codes`` are the *absolute* codes of ``data`` (what the
        next step deltas against); only their difference to the reference is
        entropy-coded.  The reconstruction is identical to what
        :meth:`encode_key` would produce for the same data.
        """
        eb = self._grid_eb(np.asarray(data)) if eb is None else float(eb)
        codes = self.quantize(data, eb)
        ref = np.asarray(ref_codes, dtype=np.int64).reshape(-1)
        if ref.size != codes.size:
            raise ValueError(
                f"reference stream has {ref.size} codes, data has {codes.size}; "
                "delta encoding needs an identical layout")
        payload = self._pack_codes(codes - ref, MODE_DELTA, eb, codes.size)
        return payload, codes, self.dequantize(codes, eb)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode_key(self, payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
        """Decode a key stream to (values, codes); delta streams raise."""
        mode, codes, meta = self.unpack_codes(payload)
        if mode != MODE_KEY:
            raise ValueError(
                "temporal_delta stream is a delta against an earlier step and "
                "cannot be decoded standalone; open the series "
                "(repro.open_series) so the reference chain can be resolved")
        # the grid travels inside the stream — decode must not depend on how
        # this codec instance happens to be configured
        return self.dequantize(codes, float(meta["eb"]),
                               offset=float(meta.get("offset", 0.0))), codes

    def decode_with_reference(self, payload: bytes,
                              ref_codes: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Decode either stream kind to (values, absolute codes)."""
        mode, codes, meta = self.unpack_codes(payload)
        if mode == MODE_DELTA:
            if ref_codes is None:
                raise ValueError(
                    "delta stream needs its reference codes; none were supplied")
            ref = np.asarray(ref_codes, dtype=np.int64).reshape(-1)
            if ref.size != codes.size:
                raise ValueError(
                    f"reference stream has {ref.size} codes, delta stream has "
                    f"{codes.size}; the series layout is inconsistent")
            codes = codes + ref
        return self.dequantize(codes, float(meta["eb"]),
                               offset=float(meta.get("offset", 0.0))), codes

    # ------------------------------------------------------------------
    # the generic Compressor surface (standalone/registry use: key mode)
    # ------------------------------------------------------------------
    def compress_with_reconstruction(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        data = np.asarray(data, dtype=np.float64)
        payload, _, recon = self.encode_key(data)
        buffer = CompressedBuffer(
            payload=payload, original_shape=data.shape,
            original_dtype=str(data.dtype), original_nbytes=data.nbytes,
            codec=self.name, meta={"mode": MODE_KEY})
        return buffer, recon.reshape(data.shape)

    def decompress(self, buffer: CompressedBuffer | bytes) -> np.ndarray:
        payload = self._payload_of(buffer)
        mode, codes, meta = self.unpack_codes(payload)
        if mode != MODE_KEY:
            raise ValueError(
                "temporal_delta stream is a delta against an earlier step and "
                "cannot be decoded standalone; open the series "
                "(repro.open_series) so the reference chain can be resolved")
        values = self.dequantize(codes, float(meta["eb"]),
                                 offset=float(meta.get("offset", 0.0)))
        if isinstance(buffer, CompressedBuffer):
            return values.reshape(buffer.original_shape)
        shape = meta.get("shape")
        if shape is not None:
            return values.reshape([int(s) for s in shape])
        return values


def stream_mode(payload: bytes) -> str:
    """Peek a stream's kind ("key" or "delta") without decoding its codes."""
    container = unpack_container(payload, expect_codec=TemporalDeltaCodec.name)
    mode = str(container.meta.get("mode", ""))
    if mode not in (MODE_KEY, MODE_DELTA):
        raise ValueError(f"corrupt temporal_delta stream: unknown mode {mode!r}")
    return mode


# ----------------------------------------------------------------------
# the chunk filter (what the plotfile's filter_id names)
# ----------------------------------------------------------------------
from repro.h5lite.filters import Filter  # noqa: E402  (no cycle: h5lite only uses compress.base)


class TemporalDeltaFilter(Filter):
    """Chunk filter for temporal streams: valid prefix coded, tail re-padded.

    ``decode`` is what the staged reader uses for *key* chunks — they are
    self-contained like every other filter's payloads.  Delta chunks raise a
    :class:`ValueError` pointing at :func:`repro.open_series`, which resolves
    the reference chain through the series handle instead.
    """

    filter_id = "temporal_delta"

    def __init__(self, codec: Optional[TemporalDeltaCodec] = None):
        super().__init__()
        self.codec = codec or TemporalDeltaCodec(ErrorBound.relative(1e-3))

    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        chunk = np.asarray(chunk, dtype=np.float64).reshape(-1)
        n = chunk.size if actual_elements is None else int(actual_elements)
        if not 0 < n <= chunk.size:
            raise ValueError(
                f"actual_elements {n} out of range for chunk of {chunk.size}")
        payload, _, _ = self.codec.encode_key(chunk[:n])
        self._account(chunk, n, payload)
        return payload

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        values, _ = self.codec.decode_key(payload)
        if values.size > chunk_elements:
            raise ValueError(
                f"temporal_delta chunk holds {values.size} elements but the "
                f"dataset's chunks hold {chunk_elements}")
        out = np.zeros(chunk_elements, dtype=np.float64)
        out[:values.size] = values
        return out
