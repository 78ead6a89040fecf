"""Compression filters for chunked datasets (the H5Z layer).

:class:`SZChunkFilter` is the classic behaviour AMReX's compression relies
on: every chunk buffer handed to the filter is compressed in full, *including
any padding* needed to fill the last (or an oversized) chunk.  The filter has
no idea how much of the chunk is real data.  The paper's §3.3 modification —
the writer passes the actual number of valid elements — is
:class:`repro.core.filter_mod.AMRICLevelFilter`.

Filters keep per-call statistics (`FilterStats`) so the I/O cost model can count
compressor launches and padded bytes — the two quantities that drive the
paper's Figures 17/18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor

__all__ = [
    "FilterStats",
    "cut_blocks",
    "Filter",
    "NoCompressionFilter",
    "SZChunkFilter",
]


def cut_blocks(chunk: np.ndarray, layout: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
    """The blocks of one decoded (flat) chunk, as views of it; ``layout`` is
    their ``(element offset, size)`` in stored order."""
    if layout and sum(layout[-1]) > chunk.size:
        raise ValueError(f"decoded chunk holds {chunk.size} elements, its blocks "
                         f"run to {sum(layout[-1])}")
    return [chunk[offset:offset + size] for offset, size in layout]


@dataclass
class FilterStats:
    """Cumulative statistics across filter invocations."""

    calls: int = 0
    input_elements: int = 0
    padded_elements: int = 0
    output_bytes: int = 0

    def reset(self) -> None:
        self.calls = 0
        self.input_elements = 0
        self.padded_elements = 0
        self.output_bytes = 0


class Filter:
    """Base chunk filter: bytes-in / bytes-out, one call per chunk."""

    filter_id = "identity"

    def __init__(self) -> None:
        self.stats = FilterStats()

    # -- interface -----------------------------------------------------
    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        """Compress one chunk (a 1D float array of the dataset's chunk size)."""
        raise NotImplementedError

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        """Invert :meth:`encode`, returning a 1D array of ``chunk_elements``."""
        raise NotImplementedError

    def decode_blocks(self, payloads: Sequence[bytes], chunk_elements: int,
                      layouts: Sequence[Sequence[Tuple[int, int]]],
                      wanted: Sequence[Sequence[int]]) -> List[Dict[int, np.ndarray]]:
        """Per payload, decoded blocks by ordinal — what a decode job calls, once.

        ``layouts[i]`` places every block of payload ``i`` in its chunk
        (:func:`cut_blocks`); ``wanted[i]`` lists the ordinals asked for
        (ascending).  The default decodes each chunk whole and answers with
        all its blocks; a filter that can decode a block without its chunk
        overrides this and answers with the wanted ones (which must not depend
        on what else was asked for).
        """
        return [dict(enumerate(cut_blocks(self.decode(payload, chunk_elements), layout)))
                for payload, layout in zip(payloads, layouts)]

    def _account(self, chunk: np.ndarray, actual_elements: Optional[int], out: bytes) -> None:
        self.stats.calls += 1
        self.stats.input_elements += int(chunk.size)
        if actual_elements is not None:
            self.stats.padded_elements += int(chunk.size) - int(actual_elements)
        self.stats.output_bytes += len(out)


class NoCompressionFilter(Filter):
    """Pass-through (used by the no-compression writer); still counts calls."""

    filter_id = "none"

    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        out = np.asarray(chunk, dtype=np.float64).tobytes()
        self._account(chunk, actual_elements, out)
        return out

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        out = np.frombuffer(payload, dtype=np.float64)
        if out.size != chunk_elements:
            raise ValueError("corrupt chunk: element count mismatch")
        return out.copy()


class SZChunkFilter(Filter):
    """Classic compression filter: compresses the chunk buffer as handed over.

    ``actual_elements`` is ignored — padding (if any) is compressed along with
    the data, exactly like a filter that has no side channel for the real
    size.  This is the AMReX-original behaviour.
    """

    filter_id = "sz_classic"

    def __init__(self, compressor: Compressor):
        super().__init__()
        self.compressor = compressor

    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        chunk = np.asarray(chunk, dtype=np.float64).reshape(-1)
        buffer = self.compressor.compress(chunk)
        out = buffer.payload
        self._account(chunk, actual_elements if actual_elements is not None else chunk.size, out)
        return out

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        out = np.asarray(self.compressor.decompress(payload), dtype=np.float64).reshape(-1)
        if out.size != chunk_elements:
            raise ValueError(
                f"decompressed chunk has {out.size} elements, expected {chunk_elements}")
        return out
