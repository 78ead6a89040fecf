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
element count) plus the sectioned Huffman streams ``sz_1d`` uses too, whose
codes are stored raw behind a CRC32 at 2 bits a symbol and more — every
stream of a simulation series — and deflated only below that.  The codec
registers in the codec registry as ``temporal_delta``; the series subsystem
(:mod:`repro.series`) owns the rolling references and keyframe cadence.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import CompressedBuffer, Compressor
from repro.compress.container import (
    decode_huffman,
    huffman_framing_nbytes,
    pack_container,
    pack_huffman,
    parse_huffman,
    unpack_container,
)
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import SYNC_INTERVAL, HuffmanCodec
from repro.errors import CorruptFileError, required

__all__ = [
    "MODE_KEY",
    "MODE_DELTA",
    "StreamCandidate",
    "TemporalDeltaCodec",
    "TemporalDeltaFilter",
]

MODE_KEY = "key"
MODE_DELTA = "delta"

#: shifted codes must fit the uint32 alphabet Huffman expects
_MAX_CODE_SPREAD = np.iinfo(np.uint32).max

#: a stream's code-independent bytes (178; not the ~150 B meta, nor the sync offsets)
_FRAMING_BYTES = huffman_framing_nbytes()

_RECORD = "temporal_delta meta"


class StreamCandidate(NamedTuple):
    """One chunk's codes under one mode: tabled and sized, not yet entropy-coded."""

    shifted: np.ndarray           #: ``codes - min_code`` as uint32
    table: HuffmanCodec           #: built from ``shifted``
    meta: Dict[str, object]       #: the stream's ``meta`` section
    nbytes: int                   #: framing + table + the Huffman payload, undeflated


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
                 offset: float = 0.0):
        super().__init__(error_bound, mode)
        self.offset = float(offset)

    # ------------------------------------------------------------------
    # the fixed quantisation grid
    # ------------------------------------------------------------------
    def _grid_eb(self, data: np.ndarray) -> float:
        bound = self.error_bound
        eb = bound.resolve(value_range=1.0) if bound.mode == "abs" else bound.resolve(data)
        if eb <= 0:
            raise ValueError("temporal_delta needs a positive error bound")
        return eb

    def quantize(self, data: np.ndarray, eb: Optional[float] = None) -> np.ndarray:
        """Snap values onto the grid: ``code = rint((x - offset) / (2*eb))``."""
        eb = self._grid_eb(np.asarray(data)) if eb is None else float(eb)
        x = np.asarray(data, dtype=np.float64).reshape(-1)
        if not np.isfinite(x).all():
            raise ValueError("temporal_delta cannot quantise non-finite values (NaN or Inf)")
        return np.rint((x - self.offset) / (2.0 * eb)).astype(np.int64)

    @staticmethod
    def grid_values(codes: np.ndarray, eb: float, offset: float) -> np.ndarray:
        """The one reconstruction stencil: ``offset + codes * 2*eb``.

        Every consumer (codec decode, chunk filter, series chain resolution)
        must reconstruct through this function so the delta==keyframe
        bit-identity guarantee cannot silently diverge between layers.
        """
        return float(offset) + np.asarray(codes, dtype=np.int64) * (2.0 * float(eb))

    # ------------------------------------------------------------------
    # stream framing (key and delta share it; only the payload codes differ)
    # ------------------------------------------------------------------
    def candidate(self, codes: np.ndarray, eb: float,
                  ref_codes: Optional[np.ndarray] = None,
                  shape: Optional[Tuple[int, ...]] = None) -> StreamCandidate:
        """Table a chunk's absolute ``codes`` as a key stream — or, given the
        reference's codes, as a delta stream — without entropy-coding them."""
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        n, mode = codes.size, MODE_KEY
        if ref_codes is not None:
            ref = np.asarray(ref_codes, dtype=np.int64).reshape(-1)
            if ref.size != n:
                raise ValueError(
                    f"reference stream has {ref.size} codes, data has {n}; "
                    "delta encoding needs an identical layout")
            mode, codes = MODE_DELTA, codes - ref
        min_code = int(codes.min()) if n else 0
        if n and int(codes.max()) - min_code > _MAX_CODE_SPREAD:
            raise ValueError(
                f"temporal_delta code spread {int(codes.max()) - min_code} exceeds the "
                "entropy coder's alphabet; the error bound is too tight for this data")
        shifted = (codes - min_code).astype(np.uint32)
        table = HuffmanCodec.from_data(shifted)
        meta: Dict[str, object] = {"mode": mode, "eb": float(eb), "offset": self.offset, "n": n,
                                   "min_code": min_code}
        if shape is not None:
            meta["shape"] = [int(s) for s in shape]
        return StreamCandidate(shifted, table, meta, _FRAMING_BYTES + table.table_nbytes
                               + (table.data_bits + 7) // 8)

    def pack(self, candidate: StreamCandidate) -> bytes:
        """Entropy-code and frame a candidate (its codes raw or deflated, by
        their bits a symbol): the committed stream."""
        stream = candidate.table.encode(candidate.shifted)
        return pack_container(self.name, candidate.meta, pack_huffman([stream]))

    @staticmethod
    def unpack_codes(payload: bytes) -> Tuple[str, np.ndarray, Dict[str, object]]:
        """Parse one stream back into (mode, int64 codes, meta).

        For a key stream the codes are the absolute grid codes; for a delta
        stream they are the code *differences* against the reference stream
        (adding the reference's absolute codes is the caller's job — the
        series reader's chain walk).  Every key :meth:`candidate` writes but
        ``shape`` is required: a meta that lost one is a
        :class:`~repro.errors.CorruptFileError` naming it.
        """
        return TemporalDeltaCodec.unpack_codes_many([payload])[0]

    @staticmethod
    def lane_cells(lanes: np.ndarray, n: int) -> np.ndarray:
        """The positions of the codes of decoder ``lanes`` (ascending) in an
        ``n``-code stream: ``SYNC_INTERVAL`` each, the last lane the rest."""
        cells = (np.asarray(lanes, dtype=np.int64)[:, None] * SYNC_INTERVAL
                 + np.arange(SYNC_INTERVAL)).ravel()
        return cells[cells < n]

    @staticmethod
    def unpack_codes_many(payloads: Sequence[bytes],
                          lanes: Optional[Sequence[Optional[np.ndarray]]] = None,
                          ) -> List[Tuple[str, np.ndarray, Dict[str, object]]]:
        """:meth:`unpack_codes` of several streams, entropy-decoded in one pass.

        Every stream is parsed (container, mode, grid) before any is decoded;
        the series reader hands a decode group's chains here, a bounded
        number of streams at a time.  ``lanes`` names, per stream, the decoder
        lanes to decode (:meth:`lane_cells`; ``None``: all of them): that
        stream's codes are then those lanes' codes back to back, and only
        their bytes are entropy-decoded (:meth:`HuffmanCodec.select_lanes`).
        """
        parsed = []
        for payload, keep in zip(payloads, lanes or [None] * len(payloads)):
            container = unpack_container(payload, expect_codec=TemporalDeltaCodec.name)
            meta = container.meta
            mode = required(meta, "mode", _RECORD, str)
            if mode not in (MODE_KEY, MODE_DELTA):
                raise CorruptFileError(f"corrupt temporal_delta stream: unknown mode {mode!r}")
            for key in ("eb", "offset"):
                required(meta, key, _RECORD, float)
            for key in ("n", "min_code"):
                required(meta, key, _RECORD, int)
            pairs = parse_huffman(container.sections)
            (codec, encoded), cut = pairs[0], None
            if encoded.nsymbols != meta["n"]:
                raise ValueError(f"corrupt temporal_delta stream: {encoded.nsymbols} "
                                 f"codes for {meta['n']} elements")
            if keep is not None:
                narrowed = codec.select_lanes(encoded, keep)
                if narrowed is None:            # no lane layout: decoded whole, then cut
                    cut = TemporalDeltaCodec.lane_cells(keep, encoded.nsymbols)
                else:
                    pairs = [(codec, narrowed)]
            parsed.append((mode, meta, pairs, cut))
        out = []
        for (mode, meta, _, cut), (shifted,) in zip(
                parsed, decode_huffman([pairs for _, _, pairs, _ in parsed])):
            if cut is not None:
                shifted = shifted[cut]
            out.append((mode, shifted.astype(np.int64) + meta["min_code"], meta))
        return out

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_key(self, data: np.ndarray,
                   eb: Optional[float] = None) -> Tuple[bytes, np.ndarray, np.ndarray]:
        """Self-contained stream: returns (payload, codes, reconstruction).

        The series writer's quantise → :meth:`candidate` → :meth:`pack` for
        one array; a delta stream is the same three calls with the
        reference's codes passed to :meth:`candidate`.
        """
        eb = self._grid_eb(np.asarray(data)) if eb is None else float(eb)
        codes = self.quantize(data, eb)
        payload = self.pack(self.candidate(codes, eb, shape=np.shape(data)))
        return payload, codes, self.grid_values(codes, eb, self.offset)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _values(self, codes: np.ndarray, meta: Dict[str, object]) -> np.ndarray:
        # the grid travels inside the stream, not in this instance's configuration
        return self.grid_values(codes, meta["eb"], meta["offset"])

    def _decode_standalone(self, payload: bytes):
        mode, codes, meta = self.unpack_codes(payload)
        if mode != MODE_KEY:
            raise ValueError(
                "temporal_delta stream is a delta against an earlier step and "
                "cannot be decoded standalone; open the series "
                "(repro.open_series) so the reference chain can be resolved")
        return self._values(codes, meta), codes, meta

    def decode_key(self, payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
        """Decode a key stream to (values, codes); delta streams raise."""
        return self._decode_standalone(payload)[:2]

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
        values, _, meta = self._decode_standalone(self._payload_of(buffer))
        if isinstance(buffer, CompressedBuffer):
            return values.reshape(buffer.original_shape)
        shape = meta.get("shape")
        return values if shape is None else values.reshape([int(s) for s in shape])


# ----------------------------------------------------------------------
# the chunk filter (what the plotfile's filter_id names)
# ----------------------------------------------------------------------
from repro.h5lite.filters import Filter  # noqa: E402  (no cycle: h5lite only uses compress.base)


class TemporalDeltaFilter(Filter):
    """Chunk filter for temporal streams: a chunk's valid prefix was coded
    (the series writer encodes through :func:`~repro.series.writer.temporal_encode_job`),
    and decodes back without the chunk's padding tail.

    ``decode`` is what the staged reader uses for *key* chunks — they are
    self-contained like every other filter's payloads.  Delta chunks raise a
    :class:`ValueError` pointing at :func:`repro.open_series`, which resolves
    the reference chain through the series handle instead.
    """

    filter_id = "temporal_delta"
    #: decodes every key stream: the grid travels inside the stream, not in the codec
    codec = TemporalDeltaCodec(ErrorBound.relative(1e-3))

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        values, _ = self.codec.decode_key(payload)
        if values.size > chunk_elements:
            raise ValueError(
                f"temporal_delta chunk holds {values.size} elements but the "
                f"dataset's chunks hold {chunk_elements}")
        return values
