"""The unified codec container: one serializer for every compressed stream.

Before this module each codec (``sz_lr``, ``sz_interp``, ``sz1d``) hand-rolled
the same serialisation: a JSON ``meta`` section, Huffman table/payload/sync
sections, zlib-deflated side arrays, all framed through
:func:`repro.compress.lossless.pack_sections`.  A copy of that code per codec
meant one place per codec to keep in sync whenever the framing evolved.  This
module is the single implementation:

* :func:`pack_container` / :func:`unpack_container` — the versioned,
  magic-tagged section container (named byte sections with uint64 length
  framing, inherited unchanged from :mod:`repro.compress.lossless` so streams
  written before this refactor still deserialize);
* :func:`pack_huffman` / :func:`unpack_huffman` — the shared-table Huffman
  stream sections (table, deflated payload, per-stream bit counts, packed
  sync offsets) used by every codec's entropy stage;
* :func:`pack_huffman_individual` / :func:`unpack_huffman_individual` — the
  per-array-table alternative (``shared_encoding=False``, the costly non-SLE
  path the paper compares against);
* :func:`parse_huffman` / :func:`parse_huffman_individual` +
  :func:`decode_huffman` — the two halves of the unpack functions: sections
  to ``(codec, encoded)`` pairs, then one entropy pass over the pairs of
  however many containers a decode job holds;
* :func:`pack_zarray` / :func:`unpack_zarray` and :func:`pack_zbytes` /
  :func:`unpack_zbytes` — deflated side-array sections.

Every container carries its codec name inside ``meta`` so a stream handed to
the wrong decompressor is rejected with :class:`ValueError` instead of being
misinterpreted.
"""

from __future__ import annotations

import json
import struct
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

__all__ = [
    "CodecContainer",
    "pack_container",
    "unpack_container",
    "pack_huffman",
    "huffman_framing_nbytes",
    "parse_huffman",
    "unpack_huffman",
    "pack_huffman_individual",
    "parse_huffman_individual",
    "unpack_huffman_individual",
    "decode_huffman",
    "HuffmanPair",
    "required",
    "pack_zarray",
    "unpack_zarray",
    "pack_zbytes",
    "unpack_zbytes",
]


@dataclass
class CodecContainer:
    """A parsed codec stream: who wrote it, its metadata, its raw sections."""

    codec: str
    meta: Dict[str, object]
    sections: Dict[str, bytes] = field(default_factory=dict)


#: one table and what it decodes: the unit :func:`decode_huffman` batches
HuffmanPair = Tuple[HuffmanCodec, HuffmanEncoded]


def required(mapping: Mapping[str, Any], key: str, what: str) -> Any:
    """``mapping[key]``, or the :class:`ValueError` naming what ``what`` lacks.

    Every parser of stored bytes reads its sections and meta keys through
    this, so a stream that lost one fails like any other damaged stream.
    """
    try:
        return mapping[key]
    except KeyError:
        raise ValueError(f"{what}: missing {key!r}") from None


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

    Raises :class:`ValueError` on a bad magic, an unsupported version, a
    truncated buffer, a missing/corrupt meta section, or (when
    ``expect_codec`` is given) a stream written by a different codec.
    """
    sections = unpack_sections(payload)
    if "meta" not in sections:
        raise ValueError("codec container has no 'meta' section")
    try:
        meta = json.loads(bytes(sections.pop("meta")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt codec container meta: {exc}") from exc
    codec = str(meta.get("codec", ""))
    if expect_codec is not None and codec != expect_codec:
        raise ValueError(
            f"stream was written by codec {codec!r}, not {expect_codec!r}")
    return CodecContainer(codec=codec, meta=meta, sections=sections)


# ----------------------------------------------------------------------
# Huffman stream sections (one shared table, any number of streams)
# ----------------------------------------------------------------------
def pack_huffman(streams: Sequence[HuffmanEncoded], lossless_level: int = 6) -> Dict[str, bytes]:
    """Sections for Huffman streams sharing one canonical table.

    All streams must carry the same table (true for the shared-encoding/SLE
    path and trivially for a single stream).  Emits ``huff_table``,
    ``huff_payload`` (deflated concatenation), ``huff_nbits`` /
    ``huff_ncodes`` (int64 per stream) and ``huff_sync`` (packed sync
    offsets, the parallel-decode acceleration structure).
    """
    if not streams:
        raise ValueError("need at least one Huffman stream")
    s0 = streams[0]
    return {
        "huff_table": pack_arrays(s0.table_symbols, s0.table_lengths),
        "huff_payload": zlib_compress(b"".join(s.payload for s in streams),
                                      lossless_level),
        "huff_nbits": np.asarray([s.nbits for s in streams], dtype=np.int64).tobytes(),
        "huff_ncodes": np.asarray([s.nsymbols for s in streams], dtype=np.int64).tobytes(),
        "huff_sync": huffman.pack_sync([s.sync for s in streams]),
    }


def huffman_framing_nbytes() -> int:
    """Bytes of a one-stream Huffman container that its codes do not move (headers, counts,
    array framing): an empty stream's, less its meta and its deflated payload and sync."""
    sections = pack_huffman([HuffmanEncoded(b"", 0, 0, np.zeros(0, dtype=np.uint32),
                                            np.zeros(0, dtype=np.uint8))])
    return (len(pack_container("", {}, sections)) - len(json.dumps({"codec": ""}))
            - len(sections["huff_payload"]) - len(sections["huff_sync"]))


def parse_huffman(sections: Dict[str, bytes], *, sync_interval: int = 0) -> List[HuffmanPair]:
    """The shared-table Huffman sections as one ``(codec, multi-stream encoded)`` pair.

    Everything :func:`unpack_huffman` does short of the entropy decode: the
    table, the inflated payload, the per-stream counts and the sync offsets (a
    sync section that does not fit the counts leaves the pair on the scalar
    path).  The codec checks the counts against the bytes present (negative
    counts, a short payload, more symbols than bits) when the pair is decoded.
    """
    nbits, ncodes, table, payload = (
        required(sections, name, "Huffman sections")
        for name in ("huff_nbits", "huff_ncodes", "huff_table", "huff_payload"))
    nbits = np.frombuffer(nbits, dtype=np.int64)
    ncodes = np.frombuffer(ncodes, dtype=np.int64)
    if nbits.size != ncodes.size or nbits.size == 0:
        raise ValueError("Huffman bit/symbol count mismatch")
    symbols, lengths = unpack_arrays(table)
    payload = zlib_decompress(payload)
    syncs = huffman.unpack_sync_for(sections.get("huff_sync"), int(sync_interval),
                                    ncodes.tolist())
    sync = None if any(s is None for s in syncs) else np.concatenate(syncs)
    batch = HuffmanEncoded(payload, int(nbits.sum()), int(ncodes.sum()), symbols, lengths,
                           sync=sync, streams=np.stack([nbits, ncodes], axis=1))
    return [(HuffmanCodec(symbols, lengths), batch)]


def decode_huffman(containers: Sequence[Sequence[HuffmanPair]]) -> List[List[np.ndarray]]:
    """Per container, one code array per stream — every pair in one lane pass.

    ``containers`` holds what :func:`parse_huffman` /
    :func:`parse_huffman_individual` returned for each container of a decode
    job; the pass's cost is shared by all of them (DESIGN.md §2).
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


def unpack_huffman(sections: Dict[str, bytes], *,
                   sync_interval: int = 0) -> List[np.ndarray]:
    """Decode the shared-table Huffman sections back to per-stream code arrays."""
    return decode_huffman([parse_huffman(sections, sync_interval=sync_interval)])[0]


def pack_huffman_individual(streams: Sequence[HuffmanEncoded],
                            lossless_level: int = 6) -> bytes:
    """One table + payload per stream, length-framed and deflated together.

    This is the non-shared-encoding alternative (each array pays for its own
    Huffman table — the cost unit SLE removes).
    """
    blobs: List[bytes] = []
    for stream in streams:
        blob = pack_sections({
            "symbols": pack_array(stream.table_symbols),
            "lengths": pack_array(stream.table_lengths),
            "payload": stream.payload,
            "nbits": struct.pack("<q", stream.nbits),
            "sync": huffman.pack_sync([stream.sync]),
        })
        blobs.append(blob)
    framed = b"".join(struct.pack("<Q", len(b)) + b for b in blobs)
    return zlib_compress(framed, lossless_level)


def parse_huffman_individual(section: bytes, ncodes: Sequence[int],
                             sync_interval: int = 0) -> List[HuffmanPair]:
    """The per-array-table section as one ``(codec, encoded)`` pair per stream."""
    framed = zlib_decompress(section)
    pairs: List[HuffmanPair] = []
    offset = 0
    for n in ncodes:
        if offset + 8 > len(framed):
            raise ValueError("truncated per-array Huffman section")
        (blob_len,) = struct.unpack_from("<Q", framed, offset)
        offset += 8
        blob = unpack_sections(framed[offset:offset + blob_len])
        offset += blob_len
        symbols, lengths, payload, raw_nbits = (
            required(blob, name, "per-array Huffman stream")
            for name in ("symbols", "lengths", "payload", "nbits"))
        symbols, lengths = unpack_array(symbols), unpack_array(lengths)
        if len(raw_nbits) != 8:
            raise ValueError("per-array Huffman stream: 'nbits' is not one int64")
        (nbits,) = struct.unpack("<q", raw_nbits)
        sync = huffman.unpack_sync_for(blob.get("sync"), int(sync_interval),
                                       [int(n)])[0]
        pairs.append((HuffmanCodec(symbols, lengths),
                      HuffmanEncoded(payload, nbits, int(n), symbols, lengths, sync=sync)))
    return pairs


def unpack_huffman_individual(section: bytes, ncodes: Sequence[int],
                              sync_interval: int = 0) -> List[np.ndarray]:
    """Invert :func:`pack_huffman_individual` (``ncodes``: symbols per stream)."""
    return decode_huffman([parse_huffman_individual(section, ncodes, sync_interval)])[0]


# ----------------------------------------------------------------------
# deflated side-array sections
# ----------------------------------------------------------------------
def pack_zarray(array: np.ndarray, lossless_level: int = 6) -> bytes:
    """A numpy array as one deflated section."""
    return zlib_compress(pack_array(array), lossless_level)


def unpack_zarray(section: bytes) -> np.ndarray:
    return unpack_array(zlib_decompress(section))


def pack_zbytes(payload: bytes, lossless_level: int = 6) -> bytes:
    """Raw bytes as one deflated section."""
    return zlib_compress(payload, lossless_level)


def unpack_zbytes(section: bytes) -> bytes:
    return zlib_decompress(section)
