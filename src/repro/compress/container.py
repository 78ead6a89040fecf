"""The codec container: the one serializer of every compressed stream.

* :func:`pack_container` / :func:`unpack_container` — the versioned,
  magic-tagged section container (named byte sections with uint64 length
  framing, :mod:`repro.compress.lossless`), its ``meta`` naming the codec so
  a stream handed to the wrong decompressor is refused;
* :func:`pack_huffman` / :func:`parse_huffman` / :func:`unpack_huffman` — the
  shared-table Huffman sections of an ``sz_1d`` record (what the ``amrex_1d``
  baseline's chunks store), and :func:`decode_huffman`, one entropy pass over
  the ``(codec, encoded)`` pairs of however many records a decode job holds;
* :func:`pack_zarray` / :func:`unpack_zarray` and :func:`pack_zbytes` /
  :func:`unpack_zbytes` — deflated side-array sections;
* :func:`pack_record` / :func:`parse_record` — the chunk record (SZ_L/R,
  SZ_Interp and ``temporal_delta``): a CRC32, the codes' form, the array
  count, the codes (raw or deflated) and one deflated side blob, with nothing
  the array shapes or the codec recipe imply.  A standalone buffer
  (:meth:`~repro.compress.base.Compressor.standalone`) wraps it in a
  container whose meta is the recipe and the shapes; the AMRIC filter and the
  series writer store it bare.  :func:`pack_huffman_individual` /
  :func:`unpack_huffman_individual` are the per-array-table (non-SLE) streams
  alone in that form.

Stored bytes that fail to parse raise :class:`~repro.errors.CorruptFileError`.
"""

from __future__ import annotations

import copy
import json
import struct
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compress import huffman
from repro.compress.huffman import HuffmanCodec, HuffmanEncoded
from repro.compress.lossless import (
    pack_array,
    pack_arrays,
    pack_sections,
    unpack_array,
    unpack_arrays,
    unpack_sections,
    zlib_compress,
    zlib_decompress,
)
from repro.errors import CorruptFileError, required
from repro.obs.metrics import get_registry

__all__ = [
    "CodecContainer",
    "pack_container",
    "unpack_container",
    "pack_huffman",
    "parse_huffman",
    "unpack_huffman",
    "pack_huffman_individual",
    "unpack_huffman_individual",
    "decode_huffman",
    "HuffmanPair",
    "pack_zarray",
    "unpack_zarray",
    "pack_zbytes",
    "unpack_zbytes",
    "recipe_context",
    "shapes_seed",
    "SideReader",
    "pack_record",
    "parse_record",
    "pairs_of",
]


@dataclass
class CodecContainer:
    """A parsed codec stream: who wrote it, its metadata, its raw sections."""

    codec: str
    meta: Dict[str, object]
    sections: Dict[str, bytes] = field(default_factory=dict)


#: one table and what it decodes: the unit :func:`decode_huffman` batches
HuffmanPair = Tuple[HuffmanCodec, HuffmanEncoded]


def pack_container(codec: str, meta: Dict[str, object],
                   sections: Dict[str, bytes]) -> bytes:
    """Frame one codec's stream: JSON meta (tagged with the codec name) + sections."""
    if "meta" in sections:
        raise ValueError("'meta' is a reserved section name")
    tagged = dict(meta)
    tagged["codec"] = codec
    out: Dict[str, bytes] = {"meta": json.dumps(tagged).encode("utf-8")}
    out.update(sections)
    return pack_sections(out)


def unpack_container(payload: bytes, expect_codec: Optional[str] = None) -> CodecContainer:
    """Invert :func:`pack_container`, validating magic, version and codec name.

    Raises :class:`ValueError` on a bad magic, an unsupported version or a
    truncated buffer, and :class:`CorruptFileError` on a missing/corrupt meta
    section or (when ``expect_codec`` is given) a stream written by a
    different codec.
    """
    sections = unpack_sections(payload)
    if "meta" not in sections:
        raise CorruptFileError("codec container has no 'meta' section")
    try:
        meta = json.loads(bytes(sections.pop("meta")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(f"corrupt codec container meta: {exc}") from exc
    codec = str(meta.get("codec", "")) if isinstance(meta, dict) else ""
    if not isinstance(meta, dict) or expect_codec is not None and codec != expect_codec:
        raise CorruptFileError(
            f"stream was written by codec {codec!r}, not {expect_codec!r}")
    return CodecContainer(codec=codec, meta=meta, sections=sections)


# ----------------------------------------------------------------------
# Huffman stream sections (one shared table, any number of streams)
# ----------------------------------------------------------------------
def pack_huffman(streams: Sequence[HuffmanEncoded]) -> Dict[str, bytes]:
    """Sections for Huffman streams sharing one canonical table.

    All streams must carry the same table (true for the shared-encoding/SLE
    path and trivially for a single stream).  Emits ``huff_table``, the
    deflated concatenated codes (``huff_payload``, as SZ's zlib back-end
    does), ``huff_nbits`` / ``huff_ncodes`` (int64 per stream) and
    ``huff_sync`` (the deflated :func:`~repro.compress.huffman.sync_residuals`,
    the parallel-decode acceleration structure).
    """
    if not streams:
        raise ValueError("need at least one Huffman stream")
    s0 = streams[0]
    nbits = np.asarray([s.nbits for s in streams], dtype=np.int64)
    ncodes = np.asarray([s.nsymbols for s in streams], dtype=np.int64)
    return {"huff_table": pack_arrays(s0.table_symbols, s0.table_lengths),
            "huff_payload": zlib_compress(b"".join(s.payload for s in streams)),
            "huff_nbits": nbits.tobytes(), "huff_ncodes": ncodes.tobytes(),
            "huff_sync": zlib_compress(b"".join(
                a.tobytes() for a in huffman.sync_residuals(streams)))}


def parse_huffman(sections: Dict[str, bytes]) -> List[HuffmanPair]:
    """The shared-table Huffman sections as one ``(codec, multi-stream encoded)`` pair.

    Everything :func:`unpack_huffman` does short of the entropy decode: the
    per-stream counts, read first, bound both inflates (two bytes a symbol,
    three a sync lane); the codes' bytes are checked against them before the
    sync offsets are sized from them.  Damage is a :class:`CorruptFileError`.
    """
    nbits, ncodes, table, codes, sync = (
        required(sections, name, "Huffman sections") for name in
        ("huff_nbits", "huff_ncodes", "huff_table", "huff_payload", "huff_sync"))
    nbits = np.frombuffer(nbits, dtype=np.int64)
    ncodes = np.frombuffer(ncodes, dtype=np.int64)
    if nbits.size != ncodes.size or nbits.size == 0 or (ncodes < 0).any() \
            or (nbits < ncodes).any():
        raise CorruptFileError("Huffman sections: bit/symbol count mismatch")
    symbols, lengths = unpack_arrays(table)
    payload = _inflate(codes, 2 * sum(ncodes.tolist()), "Huffman sections", "codes")
    if int(((nbits + 7) >> 3).sum()) != len(payload):
        raise CorruptFileError(f"Huffman sections: {len(payload)} bytes of codes do not "
                               "hold the streams' bit and symbol counts")
    lanes = sum(-(-n // huffman.SYNC_INTERVAL) for n in ncodes.tolist())
    side = SideReader(_inflate(sync, 3 * lanes, "Huffman sections", "sync"),
                      "Huffman section 'huff_sync'")
    sync = _take_sync(side, nbits, ncodes)
    side.done()
    batch = HuffmanEncoded(payload, int(nbits.sum()), int(ncodes.sum()), symbols, lengths,
                           sync=sync, streams=np.stack([nbits, ncodes], axis=1))
    return [(HuffmanCodec(symbols, lengths), batch)]


def decode_huffman(containers: Sequence[Sequence[HuffmanPair]]) -> List[List[np.ndarray]]:
    """Per container, one code array per stream — every pair in one lane pass.

    ``containers`` holds what :func:`parse_huffman` / :func:`parse_record`
    returned for each container or record of a decode job; the pass's cost is
    shared by all of them (DESIGN.md §2).
    """
    decoded = iter(huffman.decode_many([pair for pairs in containers for pair in pairs]))
    out: List[List[np.ndarray]] = []
    for pairs in containers:
        arrays: List[np.ndarray] = []
        for (_, encoded), symbols in zip(pairs, decoded):
            arrays.extend([symbols] if encoded.streams is None else
                          np.split(symbols, np.cumsum(encoded.streams[:, 1])[:-1]))
        out.append(arrays)
    return out


def unpack_huffman(sections: Dict[str, bytes]) -> List[np.ndarray]:
    """Decode the shared-table Huffman sections back to per-stream code arrays."""
    return decode_huffman([parse_huffman(sections)])[0]


# ----------------------------------------------------------------------
# deflated side-array sections
# ----------------------------------------------------------------------
def pack_zarray(array: np.ndarray) -> bytes:
    """A numpy array as one deflated section."""
    return zlib_compress(pack_array(array))


def unpack_zarray(section: bytes) -> np.ndarray:
    return unpack_array(zlib_decompress(section))


def pack_zbytes(payload: bytes) -> bytes:
    """Raw bytes as one deflated section."""
    return zlib_compress(payload)


def unpack_zbytes(section: bytes) -> bytes:
    return zlib_decompress(section)


# ----------------------------------------------------------------------
# the chunk record (DESIGN.md §5, "Format v2 chunk record" and "Format v4")
# ----------------------------------------------------------------------
#: crc32 of everything after it, codes form, arrays held, bytes of the stored codes
_RECORD = struct.Struct("<IBIQ")

#: the record-parse leaf of the process registry: records parsed, and their seconds
_PARSED = get_registry().counter("repro_record_parse_total")
_PARSE_SECONDS = get_registry().counter("repro_record_parse_seconds_total")

#: the codes form: deflated, or stored as they are (the CRC32 covers them)
_DEFLATED, _RAW = 0, 1

#: bits a symbol from which a record stores its codes raw: above it deflate finds
#: next to nothing in a simulation's Huffman codes (DESIGN.md §4)
_RAW_BITS = 2


def recipe_context(recipe: Mapping[str, Any], keys: Sequence[str], what: str) -> bytes:
    """The recipe values a record decodes under, as its checksum covers them:
    a recipe changed or damaged in the superblock fails the record's CRC."""
    return json.dumps([required(recipe, key, what) for key in keys]).encode("utf-8")


def shapes_seed(shapes: Sequence[Sequence[int]], context: bytes = b"") -> int:
    """The seed of a record's CRC32: the array shapes it decodes against and
    the caller's ``context``, so a record read where others belong fails."""
    return zlib.crc32(context, zlib.crc32(np.asarray(shapes, dtype="<i8").tobytes()))


class SideReader:
    """Typed arrays taken in turn from an inflated side blob; running short or
    leaving bytes over is a :class:`CorruptFileError`."""

    def __init__(self, raw: bytes, what: str):
        self._raw, self._at, self.what = raw, 0, what

    def take(self, dtype, count: int) -> np.ndarray:
        dtype, count = np.dtype(dtype), int(count)
        if count < 0 or self._at + count * dtype.itemsize > len(self._raw):
            raise CorruptFileError(f"{self.what}: side streams end before {count} {dtype}")
        self._at += count * dtype.itemsize
        return np.frombuffer(self._raw, dtype, count, self._at - count * dtype.itemsize)

    def more(self) -> bool:
        return self._at < len(self._raw)

    def done(self) -> None:
        if self._at != len(self._raw):
            raise CorruptFileError(f"{self.what}: bytes past its side streams")


def _take_sync(side: SideReader, nbits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The streams' sync offsets (concatenated) from their stored residuals
    and escapes (:func:`~repro.compress.huffman.sync_residuals`)."""
    lanes = -(-counts // huffman.SYNC_INTERVAL)
    residuals = side.take("u1", np.maximum(lanes - 1, 0).sum())
    escapes = side.take("<u2", np.count_nonzero(residuals == 255))
    try:
        return huffman.sync_offsets(residuals, escapes, nbits, counts)
    except CorruptFileError as exc:
        raise CorruptFileError(f"{side.what}: {exc}") from exc


def _table_arrays(tables: Sequence[HuffmanCodec]) -> List[np.ndarray]:
    """Tables as stored: a row ``(lo, span, length of symbol 0)`` each, then
    their code lengths over ``[lo, lo + span)`` (0: absent).  Codes cluster
    around the radius and 0 marks an outlier, so spans stay short."""
    rows, dense = [], [np.zeros(0, "u1")]
    for table in tables:
        symbols, lengths = table.symbols.astype(np.int64), table.lengths
        if (symbols[1:] <= symbols[:-1]).any():
            raise ValueError("a stored Huffman table lists its symbols in ascending order")
        zero = int(lengths[0]) if symbols.size and not symbols[0] else 0
        symbols, lengths = symbols[bool(zero):], lengths[bool(zero):]
        lo = int(symbols[0]) if symbols.size else 1
        rows.append((lo, int(symbols[-1]) - lo + 1 if symbols.size else 0, zero))
        dense.append(np.zeros(rows[-1][1], "u1"))
        dense[-1][symbols - lo] = lengths
    return [np.asarray(rows, dtype="<i8").reshape(-1, 3), np.concatenate(dense)]


def _take_tables(side: SideReader, ntables: int) -> List[HuffmanCodec]:
    """Invert :func:`_table_arrays`: symbols ascending, as ``from_data`` builds them."""
    rows = side.take("<i8", 3 * ntables).reshape(-1, 3).astype(np.int64)
    lo, span, zero = rows.T
    if (lo < 1).any() or (span < 0).any() or (lo + span > 1 << 32).any() \
            or (zero < 0).any() or (zero > 255).any():
        raise CorruptFileError(f"{side.what}: a Huffman table row out of range")
    dense, tables = side.take("u1", span.sum()), []
    for start, (first, count, zero_length) in zip((np.cumsum(span) - span).tolist(),
                                                  rows.tolist()):
        present = np.flatnonzero(dense[start:start + count])
        symbols = np.concatenate(([0] if zero_length else [], present + first))
        lengths = np.concatenate(([zero_length] if zero_length else [],
                                  dense[start + present]))
        try:
            tables.append(HuffmanCodec(symbols.astype(np.uint32), lengths.astype(np.uint8)))
        except ValueError as exc:
            raise CorruptFileError(f"{side.what}: {exc}") from exc
    return tables


def _side_blob(nbits: Sequence[int], tables: Sequence[HuffmanCodec],
               sync: Sequence[np.ndarray], side: Sequence[np.ndarray]) -> bytes:
    """A record's side blob, undeflated: bit counts, tables, sync residuals, codec arrays."""
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (
        np.asarray(nbits, dtype="<i8"), *_table_arrays(tables), *sync, *side))


def _raw(nbits: int, nsymbols: int) -> bool:
    """The one raw-codes rule: codes spending ``_RAW_BITS`` bits a symbol or more."""
    return nbits >= _RAW_BITS * nsymbols


def _stored_codes(codes: bytes, raw: bool) -> Tuple[int, bytes]:
    """A record's codes form and bytes: ``raw``, else deflated where that shrinks them."""
    if not raw:
        deflated = zlib_compress(codes)
        if len(deflated) < len(codes):
            return _DEFLATED, deflated
    return _RAW, codes


def record_estimate(table: HuffmanCodec, symbols: np.ndarray, side: Sequence[np.ndarray]
                    ) -> Tuple[int, Optional[HuffmanEncoded]]:
    """A one-stream record of ``symbols`` under ``table``: its size less the
    header, and the encode where sizing took one.  Codes stored raw (from
    ``_RAW_BITS`` bits a symbol) are sized from the table alone, short of the
    sync residuals only the encode has; codes a record would deflate are
    encoded and sized as stored, exactly."""
    if _raw(table.data_bits, symbols.size):
        stream, codes, sync = None, (table.data_bits + 7) // 8, []
    else:
        stream = table.encode(symbols)
        codes = len(_stored_codes(stream.payload, False)[1])
        sync = huffman.sync_residuals([stream])
    return codes + len(zlib_compress(_side_blob([table.data_bits], [table], sync, side))), stream


def pack_record(shapes: Sequence[Sequence[int]], streams: Sequence[HuffmanEncoded],
                tables: Sequence[HuffmanCodec], side: Sequence[np.ndarray],
                context: bytes = b"", deflate_always: bool = False) -> bytes:
    """One chunk record: ``crc32 | form | arrays | codes length | codes | side blob``.

    ``streams`` holds one byte-aligned Huffman stream per array, their codes
    stored together: raw when they spend at least ``_RAW_BITS`` bits a
    symbol, else deflated where that shrinks them (``form`` says which;
    ``deflate_always``: deflate tried at any width, for a codec whose codes
    deflate at any width).  The side blob deflates each stream's bit count,
    the ``tables`` (one shared, or one per stream), the sync residuals and
    then the codec's ``side`` arrays (typed little-endian by the caller):
    nothing the shapes and the codec recipe imply.  The CRC is seeded by
    :func:`shapes_seed`.
    """
    blob = _side_blob([s.nbits for s in streams], tables, huffman.sync_residuals(streams), side)
    form, codes = _stored_codes(b"".join(s.payload for s in streams), not deflate_always and _raw(
        sum(s.nbits for s in streams), sum(s.nsymbols for s in streams)))
    body = struct.pack("<BIQ", form, len(streams), len(codes)) + codes + zlib_compress(blob)
    return struct.pack("<I", zlib.crc32(body, shapes_seed(shapes, context))) + body


def _inflate(data: bytes, limit: Optional[int], what: str, name: str) -> bytes:
    """``data`` inflated, stopping one byte past ``limit`` (None: unbounded):
    a stream that reaches it, is damaged or ends early is :class:`CorruptFileError`."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(data, 0 if limit is None else min(limit + 1, sys.maxsize))
    except zlib.error as exc:
        raise CorruptFileError(f"{what}: corrupt deflate stream: {exc}") from exc
    if not inflater.eof or limit is not None and len(out) > limit:
        raise CorruptFileError(f"{what}: {name} inflate past {limit} bytes, or end early")
    return out


def parse_record(record: bytes, shapes: Sequence[Sequence[int]], nsymbols: Sequence[int],
                 shared: bool, what: str, context: bytes = b"",
                 bound: Optional[Tuple[int, int]] = None,
                 ) -> Tuple[List[HuffmanPair], SideReader]:
    """Invert :func:`pack_record` short of the entropy decode: the Huffman
    pairs (one multi-stream pair under a shared table, else one per stream)
    and the side blob, positioned at the codec's own arrays.

    ``nsymbols`` (per array) comes from the shapes and the recipe.  The array
    count, then the checksum, then every length is checked before anything is
    sized from it: any failure is :class:`CorruptFileError`.  No code is over
    16 bits, so the codes inflate to at most two bytes a symbol; ``bound``,
    the widest table span and the most bytes of the codec's own arrays a legal
    record holds, bounds the side blob's inflate (None: unbounded).  Each
    parse counts into the ``repro_record_parse_*`` leaf of the process registry.
    """
    start = time.perf_counter()
    if len(record) < _RECORD.size:
        raise CorruptFileError(f"{what}: {len(record)} bytes, shorter than a record header")
    crc, form, narrays, ncodes = _RECORD.unpack_from(record)
    if narrays != len(shapes):
        raise CorruptFileError(f"{what} holds {narrays} blocks, its place {len(shapes)}")
    if zlib.crc32(memoryview(record)[4:], shapes_seed(shapes, context)) != crc:
        raise CorruptFileError(f"{what}: checksum mismatch (damaged, or read where "
                               "it was not written)")
    if form not in (_DEFLATED, _RAW) or ncodes > len(record) - _RECORD.size:
        raise CorruptFileError(f"{what}: codes of form {form}, {ncodes} bytes, in a "
                               f"{len(record)}-byte record")
    nsymbols = np.asarray(nsymbols, dtype=np.int64)
    ntables = 1 if shared else narrays
    lanes = int((-(-nsymbols // huffman.SYNC_INTERVAL)).sum())
    payload = bytes(record[_RECORD.size:_RECORD.size + ncodes])
    if form == _DEFLATED:
        payload = _inflate(payload, 2 * int(nsymbols.sum()), what, "codes")
    # bit counts, table rows and spans, a residual byte and an escape a lane, codec arrays
    side = SideReader(_inflate(record[_RECORD.size + ncodes:], None if bound is None else
                               8 * narrays + ntables * (24 + bound[0]) + 3 * lanes + bound[1],
                               what, "side streams"), what)
    nbits = side.take("<i8", narrays).astype(np.int64)
    if (nbits < nsymbols).any():
        raise CorruptFileError(f"{what}: fewer code bits than symbols")
    tables = _take_tables(side, ntables)
    nbytes = (nbits + 7) >> 3
    if int(nbytes.sum()) != len(payload):
        raise CorruptFileError(f"{what}: {len(payload)} bytes of codes, its streams "
                               f"hold {int(nbytes.sum())}")
    sync = _take_sync(side, nbits, nsymbols)
    _PARSED.inc()
    _PARSE_SECONDS.inc(time.perf_counter() - start)
    if shared:
        return [(tables[0], HuffmanEncoded(
            payload, int(nbits.sum()), int(nsymbols.sum()), tables[0].symbols,
            tables[0].lengths, sync=sync, streams=np.stack([nbits, nsymbols], axis=1)))], side
    starts = (np.cumsum(nbytes) - nbytes).tolist()
    syncs = np.split(sync, np.cumsum(-(-nsymbols // huffman.SYNC_INTERVAL))[:-1])
    return [(table, HuffmanEncoded(payload[start:start + size], bits, count, table.symbols,
                                   table.lengths, sync=sync))
            for table, start, size, bits, count, sync in zip(
                tables, starts, nbytes.tolist(), nbits.tolist(), nsymbols.tolist(), syncs)], side


def pairs_of(pairs: Sequence[HuffmanPair]) -> List[HuffmanPair]:
    """A parsed record's pairs for one pass: each codec a shallow copy, so the
    decode tables a pass builds on first use go with it and a kept record
    never pins them."""
    return [(copy.copy(codec), encoded) for codec, encoded in pairs]


def pack_huffman_individual(streams: Sequence[HuffmanEncoded]) -> bytes:
    """One table per stream (the costly non-SLE alternative, the cost unit SLE
    removes): the streams alone as a record of 1D arrays."""
    return pack_record([(s.nsymbols,) for s in streams], streams,
                       [HuffmanCodec(s.table_symbols, s.table_lengths) for s in streams], [])


def unpack_huffman_individual(section: bytes, ncodes: Sequence[int]) -> List[np.ndarray]:
    """Invert :func:`pack_huffman_individual` (``ncodes``: symbols per stream)."""
    pairs, side = parse_record(section, [(n,) for n in ncodes], ncodes, False,
                               "per-array Huffman streams")
    side.done()
    return decode_huffman([pairs])[0]
