"""Compression filters for chunked datasets (the H5Z layer).

A :class:`Filter` turns one chunk buffer into bytes and back; the file names
it by ``filter_id``.  This module holds the base class and the pass-through
:class:`NoCompressionFilter`.  The filters that compress live with their
writers: AMReX's classic one, which compresses every chunk in full *including
any padding*, is :class:`repro.baselines.amrex_1d.ClassicSZFilter`, and the
paper's §3.3 modification — the writer passes the actual number of valid
elements — is :class:`repro.core.filter_mod.AMRICLevelFilter`.

Filters keep no counters: a writer counts launches as the payloads it got
back, and padded bytes and chunk writes per rank through
:class:`repro.parallel.backend.WorkloadTally`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "cut_blocks",
    "Filter",
    "NoCompressionFilter",
]


def cut_blocks(chunk: np.ndarray, layout: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
    """The blocks of one decoded (flat) chunk, as views of it; ``layout`` is
    their ``(element offset, size)`` in stored order."""
    if layout and sum(layout[-1]) > chunk.size:
        raise ValueError(f"decoded chunk holds {chunk.size} elements, its blocks "
                         f"run to {sum(layout[-1])}")
    return [chunk[offset:offset + size] for offset, size in layout]


class Filter:
    """Base chunk filter: bytes-in / bytes-out, one call per chunk."""

    filter_id = "identity"

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


class NoCompressionFilter(Filter):
    """Pass-through (used by the no-compression writer)."""

    filter_id = "none"

    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        return np.asarray(chunk, dtype=np.float64).tobytes()

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        out = np.frombuffer(payload, dtype=np.float64)
        if out.size != chunk_elements:
            raise ValueError("corrupt chunk: element count mismatch")
        return out.copy()
