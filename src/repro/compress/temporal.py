"""The ``temporal_delta`` codec: quantised values, delta-coded across timesteps.

In an in situ series the strongest predictor of a cell is the same cell one
plotfile earlier.  Every value is snapped onto a **fixed absolute grid**
``offset + code * 2*eb`` (``|x - x̂| <= eb`` per element); the grid is fixed
for a whole series, so a cell's code moves little between steps of a smooth
field.  A **key** stream entropy-codes the absolute codes and stands alone; a
**delta** stream entropy-codes ``codes_t - codes_ref`` against the previous
dump of the same chunk and decodes only with that reference's codes at hand.
Both decode to *exactly* ``offset + codes * 2*eb``, so a delta-compressed
series verifies against keyframe-only writes bit for bit.

Each chunk is a chunk record (:func:`~repro.compress.container.pack_record`):
its codes, one Huffman table and the chunk's smallest code.  A table holds at
most 2**16 symbols (its codes fit the 16-bit lane decoder), so a chunk of
more distinct codes — or of codes spread past 32 bits — keeps its commonest
codes as symbols and *escapes* the rest: symbol 0 marks an escaped cell, and
the side blob lists each one's cell index and int64 code after the smallest
code, so a lane read resolves only its own lanes' escapes (DESIGN.md §6).
Every other chunk's record is the plain one.  The grid
(``abs_eb``, ``offset``) and the key/delta mode (``stream``) are the
dataset's recipe (:meth:`TemporalDeltaCodec.recipe`, its ``codec``
attribute), which every record's checksum covers; the code count is the
chunk index's.  The series subsystem (:mod:`repro.series`) owns the rolling
references and keyframe cadence.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor
from repro.compress.container import (
    decode_huffman,
    pack_record,
    pairs_of,
    parse_record,
    recipe_context,
    record_estimate,
)
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import MAX_CODE_LEN, SYNC_INTERVAL, HuffmanCodec, HuffmanEncoded
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

#: distinct codes a record's table holds: a chunk of more escapes its rarest
_MAX_SYMBOLS = 1 << MAX_CODE_LEN

#: symbols are uint32: a chunk whose codes spread wider escapes too, and an
#: escaping chunk keeps codes within ``_NEAR`` of its commonest
_MAX_SPREAD = np.iinfo(np.uint32).max
_NEAR = _MAX_SPREAD // 2

#: the recipe values a record decodes under (its checksum covers them)
_RECIPE = ("stream", "abs_eb", "offset")
_WHAT = "temporal_delta recipe"

_NEEDS_SERIES = ("temporal_delta stream is a delta against an earlier step and "
                 "cannot be decoded standalone; open the series "
                 "(repro.open_series) so the reference chain can be resolved")


class StreamCandidate(NamedTuple):
    """One chunk's codes under one mode: tabled and sized, entropy-coded only
    where a record would deflate them (their size is then the deflated one)."""

    shifted: np.ndarray           #: ``codes - min_code`` as uint32 (0 at an escaped cell)
    table: HuffmanCodec           #: built from ``shifted``
    side: List[np.ndarray]        #: the record's side arrays: ``min_code``, then any escapes
    nbytes: int                   #: its record's size less the header (``record_estimate``)
    encoded: Optional[HuffmanEncoded]          #: the codes, where sizing entropy-coded them


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
    def quantize(self, data: np.ndarray, eb: float) -> np.ndarray:
        """Snap values onto the grid: ``code = rint((x - offset) / (2*eb))``."""
        eb = float(eb)
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

    def recipe(self, abs_eb: float, dtype: str = "float64", stream: str = MODE_KEY) -> dict:
        """What a dataset's records decode under — the grid, and whether they
        are key or delta streams — stored once per dataset."""
        return dict(super().recipe(abs_eb, dtype), stream=stream, offset=self.offset)

    @staticmethod
    def grid_of(recipe) -> Tuple[str, float, float]:
        """``(mode, abs_eb, offset)`` of a stored recipe (the mode is its
        ``stream``); a recipe that lost one, or names no mode of this codec,
        is a :class:`CorruptFileError`."""
        mode = required(recipe, "stream", _WHAT, str)
        if mode not in (MODE_KEY, MODE_DELTA):
            raise CorruptFileError(f"{_WHAT}: unknown stream mode {mode!r}")
        return mode, required(recipe, "abs_eb", _WHAT, float), \
            required(recipe, "offset", _WHAT, float)

    # ------------------------------------------------------------------
    # the record (key and delta share it; only the codes and the recipe differ)
    # ------------------------------------------------------------------
    def candidate(self, codes: np.ndarray,
                  ref_codes: Optional[np.ndarray] = None) -> StreamCandidate:
        """Table a chunk's absolute ``codes`` as a key stream — or, given the
        reference's codes, as a delta stream — and size its record."""
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        n = codes.size
        if ref_codes is not None:
            ref = np.asarray(ref_codes, dtype=np.int64).reshape(-1)
            if ref.size != n:
                raise ValueError(
                    f"reference stream has {ref.size} codes, data has {n}; "
                    "delta encoding needs an identical layout")
            codes = codes - ref
        min_code = int(codes.min()) if n else 0
        side = [np.asarray([min_code], dtype="<i8")]
        if n and int(codes.max()) - min_code >= _MAX_SYMBOLS:
            values, where, counts = np.unique(codes, return_inverse=True, return_counts=True)
            if values.size > _MAX_SYMBOLS or int(values[-1]) - min_code > _MAX_SPREAD:
                # the commonest codes (ties: the smaller) near the commonest
                # stay symbols, code - min_code >= 1; the others are escaped
                top, rank = int(values[np.argmax(counts)]), np.lexsort((values, -counts))
                rank = rank[(values[rank] >= top - _NEAR) & (values[rank] <= top + _NEAR)]
                escaped = np.ones(values.size, dtype=bool)
                escaped[rank[:_MAX_SYMBOLS - 1]] = False
                min_code = int(values[~escaped][0]) - 1
                cells = np.flatnonzero(escaped[where])
                side = [np.asarray([min_code, cells.size], dtype="<i8"),
                        cells.astype("<i8"), codes[cells].astype("<i8")]
                codes = codes.copy()
                codes[cells] = min_code
        shifted = (codes - min_code).astype(np.uint32)
        table = HuffmanCodec.from_data(shifted)
        return StreamCandidate(shifted, table, side, *record_estimate(table, shifted, side))

    @staticmethod
    def pack(candidate: StreamCandidate, recipe: dict, context: bytes = b"") -> bytes:
        """Entropy-code a candidate into its record under the dataset's
        ``recipe`` (the checksum also covers ``context``): the committed stream."""
        n, encoded = candidate.shifted.size, candidate.encoded
        return pack_record([(n,)], [candidate.table.encode(candidate.shifted)
                                    if encoded is None else encoded],
                           [candidate.table], candidate.side,
                           recipe_context(recipe, _RECIPE, _WHAT) + context)

    @staticmethod
    def _parse(record: bytes, recipe: dict, n: int, context: bytes = b""):
        """``(Huffman pairs, smallest code, escapes)`` of an ``n``-code record,
        checked; ``escapes`` is ``(cells, codes)``, ascending cells, or ``None``."""
        what = "temporal_delta record"
        pairs, side = parse_record(record, [(n,)], [n], True, what,
                                   recipe_context(recipe, _RECIPE, _WHAT) + context)
        (min_code,) = side.take("<i8", 1).tolist()
        escapes = None
        if side.more():
            (count,) = side.take("<i8", 1).tolist()
            escapes = side.take("<i8", count), side.take("<i8", count)
            cells = escapes[0]
            if count < 1 or int(cells[0]) < 0 or int(cells[-1]) >= n \
                    or bool((cells[1:] <= cells[:-1]).any()):
                raise CorruptFileError(f"{what}: escaped cells out of place")
        side.done()
        return pairs, min_code, escapes

    @staticmethod
    def _codes(shifted: np.ndarray, min_code: int, escapes, keep: Optional[np.ndarray],
               n: int) -> np.ndarray:
        """The int64 codes of the decoded ``shifted`` symbols of an ``n``-code
        record's lanes ``keep`` (``None``: all), its escapes resolved: an
        escaped cell must hold symbol 0, and only those may."""
        codes = shifted.astype(np.int64) + min_code
        if escapes is not None:
            escaped, values = escapes
            if keep is not None:            # the decoded lanes' escapes, placed in them
                cells = TemporalDeltaCodec.lane_cells(keep, n)
                hit = np.isin(escaped, cells)
                escaped, values = np.searchsorted(cells, escaped[hit]), values[hit]
            if not np.array_equal(np.flatnonzero(shifted == 0), escaped):
                raise CorruptFileError("temporal_delta record: escape symbols and "
                                       "escaped cells disagree")
            codes[escaped] = values
        return codes

    @staticmethod
    def lane_cells(lanes: np.ndarray, n: int) -> np.ndarray:
        """The positions of the codes of decoder ``lanes`` (ascending) in an
        ``n``-code stream: ``SYNC_INTERVAL`` each, the last lane the rest."""
        cells = (np.asarray(lanes, dtype=np.int64)[:, None] * SYNC_INTERVAL
                 + np.arange(SYNC_INTERVAL)).ravel()
        return cells[cells < n]

    @staticmethod
    def unpack_codes_many(records: Sequence[bytes], recipes: Sequence[dict],
                          counts: Sequence[int],
                          lanes: Optional[Sequence[Optional[np.ndarray]]] = None,
                          ) -> List[np.ndarray]:
        """The int64 codes of several records, entropy-decoded in one pass.

        Record ``i`` holds ``counts[i]`` codes (its chunk index entry) and
        decodes under ``recipes[i]``: for a key stream the codes are the
        absolute grid codes, for a delta stream the *differences* against the
        reference stream (adding the reference's codes is the caller's job —
        the series reader's chain walk).  Every record is parsed and checked
        before any is decoded; the series reader hands a decode group's chains
        here, a bounded number of records at a time.  ``lanes`` names, per
        record, the decoder lanes to decode (:meth:`lane_cells`; ``None``: all
        of them): that record's codes are then those lanes' codes back to
        back, and only their bytes are entropy-decoded
        (:meth:`HuffmanCodec.select_lanes`).
        """
        parsed = []
        for record, recipe, n, keep in zip(records, recipes, counts,
                                           lanes or [None] * len(records), strict=True):
            pairs, min_code, escapes = TemporalDeltaCodec._parse(record, recipe, n)
            if keep is not None:
                ((codec, encoded),) = pairs
                pairs = [(codec, codec.select_lanes(encoded, keep))]
            parsed.append((pairs, min_code, escapes, keep, n))
        return [TemporalDeltaCodec._codes(shifted, *rest)
                for (_, *rest), (shifted,) in zip(
                    parsed, decode_huffman([pairs for pairs, *_ in parsed]))]

    # ------------------------------------------------------------------
    # the single-array record (standalone/registry use: key mode)
    # ------------------------------------------------------------------
    def encode_record(self, data: np.ndarray, context: bytes = b"") -> Tuple[bytes, np.ndarray]:
        """``(record, reconstruction)``: ``data`` as a key stream (the
        checksum also covers ``context``)."""
        data = self._as_input(data)
        eb = self.resolve_eb(data)
        codes = self.quantize(data, eb)
        return (self.pack(self.candidate(codes), self.recipe(eb), context),
                self.grid_values(codes, eb, self.offset).reshape(data.shape))

    def parse_record(self, record: bytes, shape: Tuple[int, ...], context: bytes = b""):
        """``(shape, Huffman pairs, smallest code, escapes)`` of a record, checked
        short of the entropy pass; the escapes are copied out of the side blob."""
        pairs, min_code, escapes = self._parse(record, self.recipe(self.error_bound.resolve()),
                                               math.prod(shape), context)
        return (tuple(shape), pairs, min_code,
                escapes and tuple(array.copy() for array in escapes))

    def decode_parsed(self, parsed) -> np.ndarray:
        """Invert :meth:`encode_record` on this decoder's grid."""
        shape, pairs, min_code, escapes = parsed
        (shifted,) = decode_huffman([pairs_of(pairs)])[0]
        return self.grid_values(self._codes(shifted, min_code, escapes, None, math.prod(shape)),
                                self.error_bound.resolve(), self.offset).reshape(shape)


# ----------------------------------------------------------------------
# the chunk filter (what the plotfile's filter_id names)
# ----------------------------------------------------------------------
# (no cycle: h5lite only uses compress.base)
from repro.h5lite.filters import Filter, cut_blocks  # noqa: E402


class TemporalDeltaFilter(Filter):
    """Chunk filter of a series step's datasets, under the dataset's recipe:
    a key dataset of a step opened on its own (:func:`repro.open`) decodes in
    one entropy pass per decode job; a delta dataset raises a
    :class:`ValueError` pointing at :func:`repro.open_series`, which resolves
    the reference chain.  (The series writer encodes through
    :func:`~repro.series.writer.temporal_encode_job`.)"""

    filter_id = "temporal_delta"

    def __init__(self, recipe: Optional[dict] = None):
        self.recipe = dict(recipe or {})

    def decode_blocks(self, payloads, chunk_elements, layouts, wanted, stored=None):
        """Every block of each chunk: its record decoded whole (a chunk record
        holds exactly the ``stored`` codes its chunk index names)."""
        mode, eb, offset = TemporalDeltaCodec.grid_of(self.recipe)
        if mode != MODE_KEY:
            raise ValueError(_NEEDS_SERIES)
        codes = TemporalDeltaCodec.unpack_codes_many(payloads, [self.recipe] * len(payloads),
                                                     stored)
        return [dict(enumerate(cut_blocks(TemporalDeltaCodec.grid_values(c, eb, offset),
                                          layout, n)))
                for c, layout, n in zip(codes, layouts, stored)]
