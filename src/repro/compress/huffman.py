"""Canonical Huffman coding of quantisation codes (vectorized engine).

SZ encodes its quantisation codes with a custom Huffman coder; the paper's
Shared Lossless Encoding (SLE) optimisation is entirely about *how many*
Huffman tables are built (one shared table versus one per small block), so the
codec here exposes exactly that choice:

* :func:`encode` / :func:`decode` — one table for one code stream;
* :class:`HuffmanCodec` — reusable table (shared across blocks for SLE, or
  one per block: the expensive alternative SLE avoids).

Both directions are fully vectorized (DESIGN.md §2):

* **encode** gathers ``code << 6 | length`` per symbol from a dense
  ``symbol - lo`` table, shifts each code into the 64-bit window that starts
  at its 32-bit word, sums each word's windows with ``np.add.reduceat`` and
  folds the low halves into the next word: integers only, temporaries
  O(symbols).  It also records *sync offsets* — the bit position of every
  ``SYNC_INTERVAL``-th (64th) symbol — which make the decoder parallel.
  They are stored (:func:`sync_residuals`) as each lane's bit length less
  the stream's mean lane length, zigzag bytes with rare ``<u2`` escapes: a
  stream's first offset (0) and its last lane (implied by its bit count)
  are not stored, so about one byte per 64 symbols before deflate.
  One call per stream: batching streams as decode does buys nothing here
  (DESIGN.md §2).  Code lengths come from a two-queue merge of sorted counts.
* **decode** splits the payload at the sync offsets into independent lanes
  ``(start bit, end bit, symbol count)`` and advances all lanes in lockstep:
  peek the next ``K`` bits of every lane, look all of them up in a flat
  canonical table ``LUT[next_k_bits] -> (symbol, code_len)``, emit, advance.
  A pass runs at most ``SYNC_INTERVAL`` steps, however many lanes it holds.
  A pass of at most ``_PER_BIT_BYTES`` (32 KiB) first builds the LUT slot of
  every bit position (<= ~1 MiB), so a step is four numpy calls; a larger
  one peeks through a sliding 24-bit byte window (10-13 calls a step), as
  building that index costs it more than the calls save (DESIGN.md §2).  A
  :class:`HuffmanEncoded` may hold several byte-aligned streams of one table
  back to back (a container's SLE streams), and a batch of them — each with
  its own table (:func:`decode_many`: the containers of a decode job) — is a
  :class:`HuffmanEncoded` too; all their lanes run in the same pass, each
  lane gathering from its table's slice of the LUTs laid back to back, so the
  ``SYNC_INTERVAL`` Python-level steps are paid once per decode job, not once
  per container or stream.  Code lengths are limited to ``MAX_CODE_LEN`` (16)
  by the Kraft repair in :func:`_limit_lengths`, which keeps a table's LUT at
  most 2**16 entries; an alphabet of more than 2**16 symbols has no such
  table and is refused, so every table has a lane layout.

There is one decoder.  A stream without well-formed sync offsets, or a table
with a code longer than ``MAX_CODE_LEN``, is a
:class:`~repro.errors.CorruptFileError`, as are truncated streams and bit
patterns that match no code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CorruptFileError

__all__ = ["HuffmanCodec", "encode", "decode", "decode_many", "HuffmanEncoded",
           "MAX_CODE_LEN", "SYNC_INTERVAL", "sync_residuals", "sync_offsets"]

#: the code-length limit of every table — keeps the decode LUT at 2**16 entries
MAX_CODE_LEN = 16

#: symbols per decoder lane; encode records one sync offset per interval.  A
#: format constant (plotfile format v3): the stored offsets imply it
SYNC_INTERVAL = 64

#: a lane pass whose payloads join to at most this many bytes peeks through a
#: per-bit LUT index (4 numpy calls a step); larger ones through the byte window.
#: With 64-step passes the index pays for itself up to about 31 KiB (DESIGN.md §2)
_PER_BIT_BYTES = 1 << 15

#: alphabet spans (max - min) below this, any 16-bit quantiser's, get a dense encode table
_DENSE_SPAN = 1 << 16


@dataclass
class HuffmanEncoded:
    """A Huffman-encoded code stream plus everything needed to decode it."""

    payload: bytes               #: packed bitstream
    nbits: int                   #: number of valid bits in the payload
    nsymbols: int                #: number of encoded symbols
    table_symbols: np.ndarray    #: the distinct symbol values (uint32)
    table_lengths: np.ndarray    #: canonical code length per distinct symbol (uint8)
    #: bit offset of every SYNC_INTERVAL-th symbol: the decoder's lanes.
    #: Required to decode; only a hand-built stream lacks it
    sync: Optional[np.ndarray] = None
    #: set when ``payload`` is several byte-aligned streams of this one table
    #: back to back: one ``(nbits, nsymbols)`` row per stream.  ``nbits`` and
    #: ``nsymbols`` are then the totals and ``sync`` the streams' offsets
    #: (each relative to its own stream) concatenated
    streams: Optional[np.ndarray] = None
    #: set on a *batch* (built by :func:`decode_many`): the ``(codec, encoded)``
    #: pairs one decode pass covers, each pair under its own table.  ``nbits``
    #: and ``nsymbols`` are then the totals and the other fields unused
    parts: Optional[Sequence[Tuple["HuffmanCodec", "HuffmanEncoded"]]] = None
    #: set on a stream narrowed to some of its lanes (built by
    #: :meth:`HuffmanCodec.select_lanes`): one ``(start bit, end bit, symbols)``
    #: row per lane, addressing ``payload``.  ``nbits`` and ``nsymbols`` are
    #: then the lanes' totals and ``sync`` and ``streams`` unused
    lanes: Optional[np.ndarray] = None


def _limit_lengths(lengths: np.ndarray, max_len: int = MAX_CODE_LEN) -> np.ndarray:
    """Clamp code lengths to ``max_len`` while keeping Kraft's inequality valid.

    A simple heuristic (sufficient here because quantisation codes rarely need
    more than ~20 bits): clamp, then repair by extending the shortest codes.
    An alphabet of more than ``2**max_len`` symbols has no such code: a
    :class:`ValueError` (the codecs bound theirs, DESIGN.md §2).
    """
    if lengths.size > 1 << max_len:
        raise ValueError(f"{lengths.size} distinct symbols: a Huffman table holds "
                         f"at most 2**{max_len}")
    lengths = lengths.copy()
    if lengths.size == 0 or lengths.max() <= max_len:
        return lengths
    lengths = np.minimum(lengths, max_len)
    # repair Kraft sum
    kraft = np.sum(2.0 ** (-lengths))
    order = np.argsort(lengths)
    i = 0
    while kraft > 1.0 + 1e-12 and i < lengths.size:
        idx = order[i]
        if lengths[idx] < max_len:
            kraft -= 2.0 ** (-lengths[idx])
            lengths[idx] += 1
            kraft += 2.0 ** (-lengths[idx])
        else:
            i += 1
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values given code lengths (symbols sorted by (len, idx))."""
    n = lengths.size
    codes = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return codes
    order = np.lexsort((np.arange(n), lengths))
    sorted_lengths = lengths[order].astype(np.int64)
    # canonical identity: code_i * 2^-len_i == sum_{j<i} 2^-len_j; with all
    # lengths <= base the sums are exact integers in units of 2^-base
    base = int(sorted_lengths[-1])
    contrib = np.int64(1) << (base - sorted_lengths)
    prefix = np.concatenate(([0], np.cumsum(contrib[:-1])))
    codes[order] = (prefix >> (base - sorted_lengths)).astype(np.uint64)
    return codes


def _lane_layout(streams: Tuple[np.ndarray, ...], sync: Optional[np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decoder lanes ``(start bit, end bit, symbol count)`` of byte-aligned streams.

    ``streams`` is :meth:`HuffmanCodec._streams`' ``(byte offset, bytes, bits,
    symbols)`` per stream and ``sync`` the streams' sync offsets concatenated.
    A lane runs from its sync offset to the next one (the last lane of a
    stream to the stream's end) and holds ``SYNC_INTERVAL`` symbols (the last
    lane the remainder).  Sync offsets that are missing or not well formed —
    wrong lane count, a stream whose first offset is not 0, offsets that
    decrease or pass the stream's end — are a :class:`CorruptFileError`.
    """
    offsets, _, nbits, counts = streams
    if sync is None:
        raise CorruptFileError("invalid Huffman stream (no sync offsets)")
    sync = np.asarray(sync, dtype=np.int64).ravel()
    live = np.flatnonzero(counts)
    nbits, counts, base = nbits[live], counts[live], 8 * offsets[live]
    per_stream = (counts + SYNC_INTERVAL - 1) // SYNC_INTERVAL
    last = np.cumsum(per_stream) - 1
    if sync.size != last[-1] + 1:
        raise CorruptFileError(f"invalid Huffman stream ({sync.size} sync offsets "
                               f"for {last[-1] + 1} lanes)")
    start = sync + np.repeat(base, per_stream)
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[last] = base + nbits
    count = np.full(start.size, SYNC_INTERVAL, dtype=np.int64)
    count[last] = counts - (per_stream - 1) * SYNC_INTERVAL
    if sync[last - per_stream + 1].any() or bool((start > end).any()):
        raise CorruptFileError("invalid Huffman stream (malformed sync offsets)")
    return start, end, count


class HuffmanCodec:
    """A reusable canonical Huffman table built from symbol frequencies."""

    def __init__(self, symbols: np.ndarray, lengths: np.ndarray):
        self.symbols = np.asarray(symbols, dtype=np.uint32)
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        if self.symbols.shape != self.lengths.shape:
            raise ValueError("symbols and lengths must align")
        if self.lengths.size:
            # reject corrupt tables loudly: a code past MAX_CODE_LEN has no
            # LUT slot, and a Kraft-violating table is not a prefix code at all
            if int(self.lengths.max()) > MAX_CODE_LEN or int(self.lengths.min()) < 1:
                raise ValueError("invalid Huffman table (code length out of range)")
            # exact, in integer units of 2**-top
            top = int(self.lengths.max())
            if sum(n << (top - length) for length, n in
                   enumerate(np.bincount(self.lengths).tolist())) > 1 << top:
                raise ValueError("invalid Huffman table (Kraft inequality violated)")
        self.data_bits: Optional[int] = None   #: :meth:`from_data`: sum(count x length) of its data
        # built on first use, like the encode table and the LUT: a table that
        # only sizes a candidate (the series writer's losing mode) never needs them
        self._codes: Optional[np.ndarray] = None
        self._dec: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._enc: Optional[Tuple[int, Optional[np.ndarray], np.ndarray]] = None
        self._lut: Optional[Tuple[int, np.ndarray]] = None

    @property
    def codes(self) -> np.ndarray:
        """The canonical code of each symbol (uint64), built on first use."""
        if self._codes is None:
            self._codes = _canonical_codes(self.lengths.astype(np.int64))
        return self._codes

    def _canonical(self) -> Tuple[np.ndarray, np.ndarray]:
        """The decode rows, built on first use: code lengths (int64) and
        symbols in canonical order, so a decoded rank indexes both."""
        if self._dec is None:
            order = np.lexsort((np.arange(self.symbols.size), self.lengths))
            self._dec = (self.lengths[order].astype(np.int64), self.symbols[order])
        return self._dec

    # ------------------------------------------------------------------
    @staticmethod
    def from_data(data: np.ndarray) -> "HuffmanCodec":
        """Build a codec from the codes that will be encoded."""
        data = np.asarray(data).ravel()
        if data.size == 0:
            codec = HuffmanCodec(np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.uint8))
            codec.data_bits = 0
            return codec
        symbols, counts = _histogram(data)
        lengths = _limit_lengths(_huffman_code_lengths_from_counts(counts))
        codec = HuffmanCodec(symbols.astype(np.uint32), lengths.astype(np.uint8))
        codec.data_bits = int(counts @ lengths)
        return codec

    @staticmethod
    def from_multiple(datasets: Iterable[np.ndarray]) -> "HuffmanCodec":
        """Build one shared codec from several code streams (the SLE table)."""
        arrays = [np.zeros(0, dtype=np.uint32)] + [np.asarray(d).ravel() for d in datasets]
        return HuffmanCodec.from_data(np.concatenate(arrays))

    # ------------------------------------------------------------------
    @property
    def nsymbols(self) -> int:
        return int(self.symbols.size)

    def expected_bits(self, data: np.ndarray) -> int:
        """Exact number of payload bits needed to encode ``data`` with this table."""
        return int((self._entries(np.asarray(data).ravel()) & 63).sum())

    def covers(self, data: np.ndarray) -> bool:
        """Whether every symbol of ``data`` is present in this table."""
        return bool(self._lookup(np.asarray(data).ravel()).all())

    def _lookup(self, data: np.ndarray) -> np.ndarray:
        """``code << 6 | length`` of each symbol of ``data``; 0 = not in the table.

        Spans below ``_DENSE_SPAN``: one gather from a dense ``symbol - lo``
        table built on first use (out-of-range symbols clip onto a zero slot at
        either end); wider alphabets search the sorted symbols.
        """
        if self._enc is None:
            order = np.argsort(self.symbols, kind="stable")
            symbols = self.symbols[order].astype(np.int64)
            entries = (self.codes[order].astype(np.int64) << 6) | self.lengths[order]
            lo, hi = (int(symbols[0]), int(symbols[-1])) if symbols.size else (0, -1)
            if hi - lo < _DENSE_SPAN:
                dense = np.zeros(hi - lo + 3, dtype=np.int64)
                dense[symbols - (lo - 1)] = entries
                symbols, entries = None, dense
            self._enc = (lo - 1, symbols, entries)
        base, symbols, entries = self._enc
        data = data.astype(np.int64, copy=False, casting="same_kind")   # floats: TypeError
        if symbols is None:
            return entries.take(data - base, mode="clip")
        pos = np.minimum(np.searchsorted(symbols, data), symbols.size - 1)
        return np.where(symbols[pos] == data, entries[pos], 0)

    def _entries(self, data: np.ndarray) -> np.ndarray:
        """:meth:`_lookup` for symbols that must all be in the table."""
        entries = self._lookup(data)
        if not entries.all():
            missing = np.unique(data[entries == 0])[:5]
            raise KeyError(f"symbols not in Huffman table: {missing}")
        return entries

    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> HuffmanEncoded:
        """Encode ``data`` (flattened) into a packed bitstream.

        Each code (at most 16 bits) is shifted into the 64-bit window starting
        at the 32-bit word of its first bit; a word's windows are summed (disjoint
        fields: ADD is OR) and each low half is folded into the next word.
        """
        data = np.asarray(data).ravel()
        if data.size == 0:
            return HuffmanEncoded(b"", 0, 0, self.symbols, self.lengths,
                                  sync=np.zeros(0, dtype=np.int64))
        entries = self._entries(data)
        lengths = entries & 63
        ends = np.cumsum(lengths)
        total_bits = int(ends[-1])
        starts = ends - lengths
        word = starts >> 5
        # a code ends before bit 64 of its window, so the next one starts in the
        # same word or the one after: the k-th run of equal ``word`` is word k
        runs = np.concatenate(([0], np.flatnonzero(word[1:] != word[:-1]) + 1))
        shift = (64 - (starts & 31) - lengths).view(np.uint64)              # 1..63
        windows = np.add.reduceat((entries >> 6).view(np.uint64) << shift, runs)
        packed = np.zeros(runs.size + 1, dtype=np.uint64)
        packed[:-1] = windows >> np.uint64(32)
        packed[1:] += windows & np.uint64(0xFFFFFFFF)
        payload = packed.astype(">u4").tobytes()[:(total_bits + 7) // 8]
        sync = starts[::SYNC_INTERVAL].copy()       # a view would keep ``starts`` alive
        return HuffmanEncoded(payload, total_bits, int(data.size),
                              self.symbols, self.lengths, sync=sync)

    # ------------------------------------------------------------------
    def _lut_into(self, lut: np.ndarray) -> None:
        """Fill ``lut`` (zeros, ``2 ** k`` slots, ``k`` the longest code) with
        the flat canonical decode table ``LUT[next_k_bits] -> index << 5 | length``.

        ``index`` is the symbol's canonical rank (into :meth:`_canonical`'s), so
        one uint32 gather per step yields both the symbol and the advance.
        Canonical codes occupy a contiguous prefix of the k-bit code space, so
        the table is one ``np.repeat``; unassigned slots stay 0 (length 0),
        which the decoder reports as an invalid stream.
        """
        lengths = self._canonical()[0]
        k = int(lengths.max())
        reps = np.int64(1) << (k - lengths)
        entries = (np.arange(reps.size, dtype=np.uint32) << np.uint32(5)) \
            | lengths.astype(np.uint32)
        lut[:int(reps.sum())] = np.repeat(entries, reps)

    def _build_lut(self) -> Tuple[int, np.ndarray]:
        """``(k, LUT)`` of this table alone, built once per codec."""
        if self._lut is None:
            k = int(self.lengths.max())
            lut = np.zeros(1 << k, dtype=np.uint32)
            self._lut_into(lut)
            self._lut = (k, lut)
        return self._lut

    def _streams(self, encoded: HuffmanEncoded) -> Optional[Tuple[np.ndarray, ...]]:
        """Per-stream ``(byte offset, bytes, bits, symbols)`` of a one-table ``encoded``.

        ``None`` when it holds no symbol.  Every code is at least one bit
        long, so once the counts pass here everything sized from them is
        bounded by the bytes present.
        """
        rows = np.asarray([[encoded.nbits, encoded.nsymbols]] if encoded.streams is None
                          else encoded.streams, dtype=np.int64).reshape(-1, 2)
        if rows.size and int(rows.min()) < 0:
            raise CorruptFileError("invalid Huffman stream (negative bit or symbol count)")
        nbits, counts = rows[:, 0], rows[:, 1]
        if int(counts.sum()) != encoded.nsymbols:
            raise CorruptFileError("invalid Huffman stream (stream counts do not add up)")
        if not counts.any():
            return None
        nbytes = (nbits + 7) >> 3
        size = len(encoded.payload)
        if int(nbits.max()) > 8 * size or int(nbytes.sum()) > size \
                or bool((counts > nbits).any()):
            raise CorruptFileError("truncated Huffman stream")
        if self.lengths.size == 0:
            raise CorruptFileError("invalid Huffman stream (empty table)")
        return np.cumsum(nbytes) - nbytes, nbytes, nbits, counts

    def select_streams(self, encoded: HuffmanEncoded, keep: np.ndarray) -> HuffmanEncoded:
        """The multi-stream ``encoded`` narrowed to the streams ``keep`` (one
        bool per stream) marks: their bytes back to back, their rows, their
        sync runs.  Streams are byte-aligned and a sync run is relative to its
        stream, so each decodes to the symbols it has in the whole; the counts
        and the sync offsets are checked before anything is sliced.
        """
        checked = self._streams(encoded)
        if checked is None:
            return encoded                      # no symbol anywhere: nothing to cut
        lanes = (checked[3] + SYNC_INTERVAL - 1) // SYNC_INTERVAL
        if encoded.sync is None or np.size(encoded.sync) != int(lanes.sum()):
            raise CorruptFileError("invalid Huffman stream (no sync offsets, or not one a lane)")
        offsets, nbytes, nbits, counts = (column[keep] for column in checked)
        payload = b"".join(encoded.payload[o:o + b]
                           for o, b in zip(offsets.tolist(), nbytes.tolist()))
        sync = np.asarray(encoded.sync).ravel()[np.repeat(keep, lanes)]
        return HuffmanEncoded(payload, int(nbits.sum()), int(counts.sum()),
                              encoded.table_symbols, encoded.table_lengths, sync=sync,
                              streams=np.stack([nbits, counts], axis=1))

    def select_lanes(self, encoded: HuffmanEncoded, keep: np.ndarray) -> HuffmanEncoded:
        """The one-table ``encoded`` narrowed to the decoder lanes ``keep``
        (ascending lane numbers over its streams' lanes, ``SYNC_INTERVAL``
        symbols each): the bytes of each run of kept lanes back to back, each
        lane's bits re-based onto them.  A lane decodes on its own from its
        sync offset, so each yields the symbols it has in the whole, and only
        the kept lanes' bytes enter the pass.  The counts are checked against
        the bytes and the sync offsets for well-formedness on the whole
        stream first (:class:`CorruptFileError`).  A stream of no symbol has
        no lane.
        """
        checked = self._streams(encoded)
        layout = (np.zeros(0, dtype=np.int64),) * 3 if checked is None \
            else _lane_layout(checked, encoded.sync)
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size and (int(keep[0]) < 0 or int(keep[-1]) >= layout[0].size
                          or bool((keep[1:] <= keep[:-1]).any())):
            raise ValueError(f"lanes {keep.tolist()} are not ascending lanes of a "
                             f"stream of {layout[0].size}")
        start, end, count = (column[keep] for column in layout)
        lo, hi = start >> 3, (end + 7) >> 3
        # consecutive lanes share their boundary byte: one cut per run of them
        first = np.flatnonzero(np.concatenate(([True], lo[1:] >= hi[:-1]))[:keep.size])
        runs = np.diff(np.append(first, keep.size))
        cut_lo, cut_hi = lo[first], hi[first + runs - 1]
        payload = b"".join(encoded.payload[a:b]
                           for a, b in zip(cut_lo.tolist(), cut_hi.tolist()))
        size = cut_hi - cut_lo
        shift = np.repeat(8 * (cut_lo - (np.cumsum(size) - size)), runs)     # old - new bit
        start, end = start - shift, end - shift
        return HuffmanEncoded(payload, int((end - start).sum()), int(count.sum()),
                              encoded.table_symbols, encoded.table_lengths,
                              lanes=np.stack([start, end, count], axis=1))

    def decode(self, encoded: HuffmanEncoded) -> np.ndarray:
        """Decode a bitstream produced by :meth:`encode`: the multi-lane LUT
        pass over its sync offsets (a stream without them is corrupt).

        A multi-stream ``encoded`` (``encoded.streams`` set) decodes to the
        concatenation of its streams' symbols; a batch (``encoded.parts`` set)
        to the concatenation of its parts', each part under its own table and
        all their lanes in one pass.  A stream narrowed by :meth:`select_lanes`
        decodes to its lanes' symbols.  Every part's counts and lanes are
        checked against its bytes before anything is decoded, and one damaged
        part fails the call.
        """
        parts = [(self, encoded)] if encoded.parts is None else list(encoded.parts)
        tables, payloads, lanes, places = [], [], [], []
        first_bit = 0           # of the next payload, all back to back
        total = 0               # symbols so far: where the next part's go in the result
        for codec, part in parts:
            streams = codec._streams(part)
            if streams is None:
                continue
            start, end, count = _lane_layout(streams, part.sync) if part.lanes is None \
                else np.asarray(part.lanes, dtype=np.int64).T
            lanes.append((start + first_bit, end + first_bit, count,
                          np.full(count.size, len(tables), dtype=np.int64)))
            places.append(slice(total, total + int(streams[3].sum())))
            total = places[-1].stop
            tables.append(codec)
            payloads.append(part.payload)
            first_bit += 8 * len(part.payload)
        symbols = np.empty(total, dtype=np.uint32)
        if tables:
            ranks = HuffmanCodec._decode_lanes(
                tables, payloads, *(np.concatenate(column) for column in zip(*lanes)))
            for where, codec, rank in zip(places, tables, ranks):
                # (a rank read from the LUT is in range; "clip" only spares take's buffer)
                np.take(codec._canonical()[1], rank, out=symbols[where], mode="clip")
        return symbols

    @staticmethod
    def _decode_lanes(tables: Sequence["HuffmanCodec"], payloads: Sequence[bytes],
                      start: np.ndarray, end: np.ndarray, count: np.ndarray,
                      table: np.ndarray) -> List[np.ndarray]:
        """Lock-step LUT decode of lanes ``(start bit, end bit, symbol count, table)``.

        Bit positions address ``payloads`` back to back; ``table`` indexes
        ``tables`` and rises with the lane.  Returns, per table, the canonical
        rank of every symbol of its lanes, in lane order.  Lanes are visited
        longest first, so the lanes still active at step ``t`` are a prefix
        and each step is a handful of whole-array operations whatever the
        number of streams — or tables — the lanes came from.  Several tables
        gather from their LUTs back to back: a lane then carries its table's
        LUT base and width, and the LUT is as large as the tables' own
        (nothing is padded to the widest).  A small pass takes each step's
        slots from a per-bit index instead (module docstring).
        """
        # sliding 24-bit windows: window[j] holds bits 8j..8j+23 of the payloads.
        # A lane advances at most MAX_CODE_LEN bits per step, so one that runs
        # off its end stays within 2*SYNC_INTERVAL zero bytes past the last
        # payload (zero bits that match no code stall it; either way the end
        # check fails — as it does for a lane that ran into the next payload)
        sizes = [len(payload) for payload in payloads]
        nbytes = sum(sizes)
        padded = np.zeros(nbytes + 2 * SYNC_INTERVAL + 4, dtype=np.uint8)
        np.concatenate([np.frombuffer(payload, dtype=np.uint8) for payload in payloads],
                       out=padded[:nbytes])
        window = padded[:-2].astype(np.int32)
        window <<= 8
        window |= padded[1:-1]
        window <<= 8
        window |= padded[2:]

        nlanes = count.size
        order = np.argsort(-count, kind="stable")
        # lanes with more than t symbols, for every step t
        active = nlanes - np.cumsum(np.bincount(count, minlength=SYNC_INTERVAL))
        pos = start[order]
        width = np.asarray([int(codec.lengths.max()) for codec in tables])
        bases = np.cumsum(1 << width) - (1 << width)
        if len(tables) == 1:
            lut = tables[0]._build_lut()[1]
        else:
            # the job's tables are parsed for this pass and dropped after it:
            # their LUTs go straight into the joined one, no copy kept per codec
            lut = np.zeros(int((1 << width).sum()), dtype=np.uint32)
            for codec, base, k in zip(tables, bases.tolist(), width.tolist()):
                codec._lut_into(lut[base:base + (1 << k)])
        out = np.empty((SYNC_INTERVAL, nlanes), dtype=np.uint32)
        # lanes still decoding at step t (non-increasing: the non-zero counts lead)
        running = [m for m in active[:SYNC_INTERVAL].tolist() if m]
        if nbytes <= _PER_BIT_BYTES:
            # index[8j + b]: the LUT slot a code starting at bit 8j + b reads, under
            # the table whose payload holds byte j (the zero tail: the last one's).
            # A lane peeks in another table's bytes only once past its own end
            index = np.empty((window.size, 8), dtype=np.int32)
            lo = (np.cumsum(sizes) - sizes).tolist()
            for a, b, k, base in zip(lo, lo[1:] + [window.size], width.tolist(),
                                     bases.tolist()):
                for bit in range(8):
                    np.right_shift(window[a:b], 24 - k - bit, out=index[a:b, bit])
                index[a:b] &= (1 << k) - 1
                index[a:b] += base
            index = index.reshape(-1)
            for t, m in enumerate(running):
                p, entry = pos[:m], out[t, :m]
                lut.take(index.take(p), out=entry, mode="clip")
                p += entry & 31                     # length 0 (no such code) stalls
            del index
        else:
            if len(tables) == 1:
                window_shift, mask, lut_base = 24 - int(width[0]), (1 << int(width[0])) - 1, None
            else:
                window_shift, mask, lut_base = (
                    per_table[table[order]] for per_table in (24 - width, (1 << width) - 1, bases))
            for t, m in enumerate(running):
                p = pos[:m]
                peek = window[p >> 3]               # int32; the int64 shift widens it
                if lut_base is None:
                    peek = peek >> (window_shift - (p & 7))
                    peek &= mask
                else:
                    peek = peek >> (window_shift[:m] - (p & 7))
                    peek &= mask[:m]
                    peek += lut_base[:m]
                entry = lut[peek]
                out[t, :m] = entry
                p += entry & 31                     # length 0 (no such code) stalls
        del window, lut
        # back to lane order and down to each lane's own symbols, a table at a
        # time (its lanes are consecutive): the transposed copy is then one
        # container's worth, not the job's, which keeps the pass's high-water low
        inverse = np.argsort(order)
        steps = np.arange(SYNC_INTERVAL)
        bounds = np.searchsorted(table, np.arange(len(tables) + 1)).tolist()
        ranks = [out.T[inverse[a:b]][steps < count[a:b, None]]
                 for a, b in zip(bounds, bounds[1:])]
        del out
        # every assigned LUT slot carries a length, so is non-zero
        if not all(entries.all() for entries in ranks):
            raise CorruptFileError("invalid Huffman stream (unassigned code)")
        if not np.array_equal(pos, end[order]):
            raise CorruptFileError("truncated or corrupt Huffman stream")
        for entries in ranks:
            entries >>= 5
        return ranks


def _histogram(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of non-empty ``data`` (ascending, its dtype) and
    their counts: a ``bincount`` of ``data - min`` when the span is at most the
    data's length (and fits its dtype), else ``np.unique``'s sort."""
    lo, hi = data.min(), data.max()
    if data.dtype.kind in "iu" and int(hi) - int(lo) <= min(data.size, np.iinfo(data.dtype).max):
        counts = np.bincount((data - lo).astype(np.intp, copy=False))
        present = np.flatnonzero(counts)
        return present.astype(data.dtype) + lo, counts[present]
    return np.unique(data, return_counts=True)


def _huffman_code_lengths_from_counts(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths for symbols with the given positive counts.

    Two-queue merge: leaves stably sorted by count, merged nodes in a FIFO
    (they are created in non-decreasing weight), so the two lightest nodes are
    at the queue heads.  Ties go to the leaf, and among leaves to the lower
    index — the order a ``(count, node id)`` heap pops in, so the lengths are
    that heap's.  Parents have higher ids: one downward pass gives the depths.
    """
    n = counts.size
    if n < 2:
        return np.ones(n, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    weight = counts[order].tolist()         # leaves, then merged nodes as created
    parent = [0] * (2 * n - 1)
    leaf, merged = 0, n                     # heads of the two queues
    for new in range(n, 2 * n - 1):         # new == len(weight): no merged node there yet
        if leaf < n and (merged == new or weight[leaf] <= weight[merged]):
            a, leaf = leaf, leaf + 1
        else:
            a, merged = merged, merged + 1
        if leaf < n and (merged == new or weight[leaf] <= weight[merged]):
            b, leaf = leaf, leaf + 1
        else:
            b, merged = merged, merged + 1
        parent[a] = parent[b] = new
        weight.append(weight[a] + weight[b])
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = depth[:n]
    return lengths


# ----------------------------------------------------------------------
# stored sync offsets: lane-length residuals (DESIGN.md §5)
# ----------------------------------------------------------------------
def _lane_bits(nbits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per stream, the bits a full lane is expected to span: the stream's
    mean, ``(SYNC_INTERVAL * nbits + n // 2) // n`` (0 for an empty one)."""
    return (SYNC_INTERVAL * nbits + counts // 2) // np.maximum(counts, 1)


def sync_residuals(streams: Sequence[HuffmanEncoded]) -> List[np.ndarray]:
    """The streams' sync offsets as stored: ``[u8 residuals, <u2 escapes]``.

    Per stream, every lane but the last (its end is the stream's bit count)
    stores its bit length less :func:`_lane_bits`, zigzagged (``2r`` or
    ``-2r - 1``); a value of 255 or more is the byte 255 and goes to the
    escapes in order.  The first offset is always 0 and is not stored either,
    so a stream of at most ``SYNC_INTERVAL`` symbols stores nothing.  A lane
    spans at most ``SYNC_INTERVAL * MAX_CODE_LEN`` bits, so an escape fits 16 bits.
    """
    nbits = np.asarray([s.nbits for s in streams], dtype=np.int64)
    counts = np.asarray([s.nsymbols for s in streams], dtype=np.int64)
    syncs = [np.zeros(0, dtype=np.int64) if s.sync is None
             else np.asarray(s.sync, dtype=np.int64).ravel() for s in streams]
    lanes = np.asarray([sync.size for sync in syncs], dtype=np.int64)
    if not np.array_equal(lanes, -(-counts // SYNC_INTERVAL)):
        raise ValueError(f"a stream lacks its sync offsets (one per {SYNC_INTERVAL} symbols)")
    # one diff over all the offsets end to end; a stream's last lane's is dropped
    offsets = np.concatenate([np.zeros(0, dtype=np.int64)] + syncs)
    inner = np.ones(offsets.size, dtype=bool)
    inner[np.cumsum(lanes)[lanes > 0] - 1] = False
    residual = (np.diff(offsets, append=np.int64(0))
                - np.repeat(_lane_bits(nbits, counts), lanes))[inner]
    zigzag = (residual << 1) ^ (residual >> 63)
    return [np.minimum(zigzag, 255).astype("u1"), zigzag[zigzag >= 255].astype("<u2")]


def sync_offsets(residuals: np.ndarray, escapes: np.ndarray, nbits: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Invert :func:`sync_residuals`: the streams' sync offsets concatenated.

    ``residuals`` holds ``max(lanes - 1, 0)`` bytes per stream of ``counts``
    symbols in ``nbits`` bits, and ``escapes`` one value per byte 255.  Each
    value must be one the encoder writes: an escape below 255, a lane of
    fewer bits than its symbols, or lanes that leave the last one fewer bits
    than its symbols are a :class:`~repro.errors.CorruptFileError`.
    """
    nbits = np.asarray(nbits, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    lanes = -(-counts // SYNC_INTERVAL)
    stored = np.maximum(lanes - 1, 0)
    zigzag = np.asarray(residuals).astype(np.int64)
    escaped = zigzag == 255
    if zigzag.size != int(stored.sum()) or int(escaped.sum()) != np.size(escapes):
        raise CorruptFileError(f"{zigzag.size} sync residuals and {np.size(escapes)} "
                               f"escapes do not fit {int(lanes.sum())} lanes")
    zigzag[escaped] = escapes
    if np.size(escapes) and int(np.min(escapes)) < 255:
        raise CorruptFileError("a sync escape holds a value its residual byte could")
    # each full lane holds SYNC_INTERVAL codes of at least one bit
    length = ((zigzag >> 1) ^ -(zigzag & 1)) + np.repeat(_lane_bits(nbits, counts), stored)
    if (length < SYNC_INTERVAL).any():
        raise CorruptFileError("a sync offset before the end of its lane's codes")
    # per stream: 0, then the running sum of its stored lane lengths
    live = lanes > 0
    first, last = (np.cumsum(lanes) - lanes)[live], (np.cumsum(lanes) - 1)[live]
    inner = np.ones(int(lanes.sum()), dtype=bool)
    inner[first] = False
    steps = np.zeros(inner.size, dtype=np.int64)
    steps[inner] = length
    offsets = np.cumsum(steps)
    offsets -= np.repeat(offsets[first], lanes[live])
    if (nbits[live] - offsets[last] < counts[live] - stored[live] * SYNC_INTERVAL).any():
        raise CorruptFileError("sync offsets past the end of their stream's codes")
    return offsets


# ----------------------------------------------------------------------
# convenience one-shot API
# ----------------------------------------------------------------------
def encode(data: np.ndarray) -> HuffmanEncoded:
    """Build a table from ``data`` and encode it."""
    codec = HuffmanCodec.from_data(data)
    return codec.encode(data)


def decode(encoded: HuffmanEncoded) -> np.ndarray:
    """Decode using the table carried inside ``encoded``."""
    codec = HuffmanCodec(encoded.table_symbols, encoded.table_lengths)
    return codec.decode(encoded)


def decode_many(pairs: Sequence[Tuple[HuffmanCodec, HuffmanEncoded]]) -> List[np.ndarray]:
    """The symbols of each ``(codec, encoded)`` pair, all pairs in one lane pass.

    This is how a decode job shares the pass's ``SYNC_INTERVAL`` Python-level
    steps between its containers: the pairs travel to :meth:`HuffmanCodec.decode`
    as one batch, each keeping its own table.
    """
    if not pairs:
        return []
    first = pairs[0][1]
    batch = HuffmanEncoded(b"", sum(e.nbits for _, e in pairs),
                           sum(e.nsymbols for _, e in pairs),
                           first.table_symbols, first.table_lengths, parts=pairs)
    flat = pairs[0][0].decode(batch)
    if len(pairs) == 1:
        return [flat]
    # copies, not views of ``flat``: whoever works through the pairs one by one
    # (a job's chunks) can let go of each pair's symbols when done with them
    return [piece.copy() for piece in
            np.split(flat, np.cumsum([e.nsymbols for _, e in pairs])[:-1])]
