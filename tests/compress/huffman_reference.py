"""A reference Huffman decoder for the tests: the exact scalar loop.

It reads one bit per Python step against the canonical code ranges of each
length, so it shares no lane, LUT or peek logic with
:meth:`repro.compress.huffman.HuffmanCodec.decode`; the lane decoder is held
to it bit for bit.  Too slow for anything but test-sized streams.
"""

from typing import Dict

import numpy as np

from repro.compress.huffman import HuffmanCodec, _canonical_codes
from repro.errors import CorruptFileError


def decode_scalar(codec: HuffmanCodec, payload: bytes, nbits: int, n: int) -> np.ndarray:
    """The ``n`` symbols of one stream of ``nbits`` bits, one code at a time."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)
    lengths, symbols = codec._canonical()
    codes = _canonical_codes(lengths)           # canonical order: its own order
    max_len = int(lengths.max())
    first_code: Dict[int, int] = {}
    first_index: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for length in np.unique(lengths):
        sel = lengths == length
        first_code[int(length)] = int(codes[sel][0])
        first_index[int(length)] = int(np.nonzero(sel)[0][0])
        counts[int(length)] = int(sel.sum())

    out = np.empty(n, dtype=np.uint32)
    bit_list = bits.tolist()
    pos = code = length = produced = 0
    while produced < n:
        if pos >= nbits:
            raise CorruptFileError("truncated Huffman stream")
        code = (code << 1) | bit_list[pos]
        pos += 1
        length += 1
        fc = first_code.get(length)
        if fc is not None and fc <= code < fc + counts[length]:
            out[produced] = symbols[first_index[length] + (code - fc)]
            produced += 1
            code = length = 0
        elif length > max_len:
            raise CorruptFileError("invalid Huffman stream (code length overflow)")
    if pos != nbits:
        raise CorruptFileError("truncated or corrupt Huffman stream")
    return out
