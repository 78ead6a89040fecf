"""Lossless back-end and byte-stream framing helpers.

SZ finishes with a lossless pass (zstd in the C code; zlib here) over the
Huffman payload, and every compressed buffer needs a small self-describing
container so the decompressor can find its sections.  The framing is a simple
length-prefixed section list — intentionally minimal, but versioned so files
written by one version of the library are rejected cleanly by another.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import CorruptFileError

__all__ = [
    "zlib_compress",
    "zlib_decompress",
    "pack_sections",
    "unpack_sections",
    "pack_array",
    "unpack_array",
    "pack_arrays",
    "unpack_arrays",
]

_MAGIC = b"RPRZ"
_VERSION = 1


def zlib_compress(payload: bytes) -> bytes:
    """Deflate ``payload`` at level 6 (the SZ lossless stage)."""
    return zlib.compress(payload, 6)


def zlib_decompress(payload: bytes) -> bytes:
    """Inflate ``payload``; a damaged stream is a :class:`CorruptFileError`."""
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise CorruptFileError(f"corrupt deflate stream: {exc}") from exc


def pack_sections(sections: Dict[str, bytes]) -> bytes:
    """Serialise named byte sections into one framed buffer."""
    parts: List[bytes] = [_MAGIC, struct.pack("<HH", _VERSION, len(sections))]
    for name, payload in sections.items():
        name_b = name.encode("utf-8")
        if len(name_b) > 255:
            raise ValueError(f"section name too long: {name!r}")
        parts.append(struct.pack("<B", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_sections(buffer: bytes) -> Dict[str, bytes]:
    """Invert :func:`pack_sections`.

    Raises :class:`ValueError` on a bad magic, an unsupported version, a
    truncated buffer (any section header or payload running past the end) and
    trailing garbage, so corrupt streams fail loudly instead of decoding into
    nonsense.
    """
    if len(buffer) < 8:
        raise ValueError("truncated compressed buffer (no header)")
    if buffer[:4] != _MAGIC:
        raise ValueError("not a repro compressed buffer (bad magic)")
    version, count = struct.unpack_from("<HH", buffer, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    out: Dict[str, bytes] = {}
    offset = 8
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<B", buffer, offset)
            offset += 1
            name = bytes(buffer[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (size,) = struct.unpack_from("<Q", buffer, offset)
            offset += 8
            if offset + size > len(buffer):
                raise ValueError("truncated compressed buffer (section payload cut short)")
            out[name] = buffer[offset:offset + size]
            offset += size
    except struct.error as exc:
        raise ValueError(f"truncated compressed buffer: {exc}") from exc
    if offset != len(buffer):
        raise ValueError("trailing bytes in compressed buffer")
    return out


def pack_array(array: np.ndarray) -> bytes:
    """Serialise a small numpy array (dtype + shape + raw bytes)."""
    array = np.ascontiguousarray(array)
    dtype_b = array.dtype.str.encode("ascii")
    header = struct.pack("<B", len(dtype_b)) + dtype_b
    header += struct.pack("<B", array.ndim)
    header += struct.pack(f"<{array.ndim}q", *array.shape) if array.ndim else b""
    return header + array.tobytes()


def pack_arrays(*arrays: np.ndarray) -> bytes:
    """Serialise several arrays into one length-prefixed blob."""
    parts: List[bytes] = [struct.pack("<H", len(arrays))]
    for array in arrays:
        blob = pack_array(array)
        parts.append(struct.pack("<Q", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_arrays(payload: bytes) -> List[np.ndarray]:
    """Invert :func:`pack_arrays`."""
    (count,) = struct.unpack_from("<H", payload, 0)
    offset = 2
    out: List[np.ndarray] = []
    for _ in range(count):
        (size,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        out.append(unpack_array(payload[offset:offset + size]))
        offset += size
    return out


def unpack_array(payload: bytes) -> np.ndarray:
    """Invert :func:`pack_array`."""
    (dtype_len,) = struct.unpack_from("<B", payload, 0)
    offset = 1
    dtype = np.dtype(bytes(payload[offset:offset + dtype_len]).decode("ascii"))
    offset += dtype_len
    (ndim,) = struct.unpack_from("<B", payload, offset)
    offset += 1
    shape: Tuple[int, ...] = ()
    if ndim:
        shape = struct.unpack_from(f"<{ndim}q", payload, offset)
        offset += 8 * ndim
    flat = np.frombuffer(payload, dtype=dtype, offset=offset)
    return flat.reshape(shape).copy()
