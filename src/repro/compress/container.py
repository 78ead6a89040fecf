"""The unified codec container: one serializer for every compressed stream.

Before this module each codec (``sz_lr``, ``sz_interp``, ``sz1d``,
``zfp_like``) hand-rolled the same serialisation: a JSON ``meta`` section,
Huffman table/payload/sync sections, zlib-deflated side arrays, all framed
through :func:`repro.compress.lossless.pack_sections`.  Four copies of that
code meant four places to keep in sync whenever the framing evolved (the sync
offsets of PR 1 touched all four).  This module is the single implementation:

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
from typing import Dict, List, Optional, Sequence

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
    "unpack_huffman",
    "pack_huffman_individual",
    "unpack_huffman_individual",
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


def unpack_huffman(sections: Dict[str, bytes], *,
                   sync_interval: int = 0) -> List[np.ndarray]:
    """Decode the shared-table Huffman sections back to per-stream code arrays.

    The streams share one table, so the concatenated payload goes to the codec
    once, as one multi-stream :class:`HuffmanEncoded`: all of the container's
    lanes decode in a single pass and the flat result is split per stream.
    The codec checks the counts against the bytes present (negative counts, a
    short payload, more symbols than bits) before sizing anything from them.
    """
    for name in ("huff_nbits", "huff_ncodes"):
        if name not in sections:
            raise ValueError(f"Huffman sections carry no {name!r}")
    nbits = np.frombuffer(sections["huff_nbits"], dtype=np.int64)
    ncodes = np.frombuffer(sections["huff_ncodes"], dtype=np.int64)
    if nbits.size != ncodes.size or nbits.size == 0:
        raise ValueError("Huffman bit/symbol count mismatch")
    symbols, lengths = unpack_arrays(sections["huff_table"])
    codec = HuffmanCodec(symbols, lengths)
    payload = zlib_decompress(sections["huff_payload"])
    syncs = huffman.unpack_sync_for(sections.get("huff_sync"), int(sync_interval),
                                    ncodes.tolist())
    sync = None if any(s is None for s in syncs) else np.concatenate(syncs)
    batch = HuffmanEncoded(payload, int(nbits.sum()), int(ncodes.sum()), symbols, lengths,
                           sync=sync, streams=np.stack([nbits, ncodes], axis=1))
    return np.split(codec.decode(batch), np.cumsum(ncodes)[:-1])


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


def unpack_huffman_individual(section: bytes, ncodes: Sequence[int],
                              sync_interval: int = 0) -> List[np.ndarray]:
    """Invert :func:`pack_huffman_individual` (``ncodes``: symbols per stream)."""
    framed = zlib_decompress(section)
    out: List[np.ndarray] = []
    offset = 0
    for n in ncodes:
        (blob_len,) = struct.unpack_from("<Q", framed, offset)
        offset += 8
        blob = unpack_sections(framed[offset:offset + blob_len])
        offset += blob_len
        symbols = unpack_array(blob["symbols"])
        lengths = unpack_array(blob["lengths"])
        (nbits,) = struct.unpack("<q", blob["nbits"])
        sync = huffman.unpack_sync_for(blob.get("sync"), int(sync_interval),
                                       [int(n)])[0]
        stream = HuffmanEncoded(blob["payload"], nbits, int(n),
                                symbols, lengths, sync=sync)
        out.append(HuffmanCodec(symbols, lengths).decode(stream))
    return out


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
