"""Compression filters for chunked datasets (the H5Z layer).

A :class:`Filter` is the decode side of a dataset's chunks: the file names it
by ``filter_id`` and a reader dispatches on that name, then parses and decodes.
Each writer encodes through its own filter or codec, with the arguments its
chunks need.  This module holds the base class and the pass-through
:class:`NoCompressionFilter`.  The filters that compress live with their
writers: AMReX's classic one, which compresses every chunk in full *including
any padding*, is :class:`repro.baselines.amrex_1d.ClassicSZFilter`, and the
paper's §3.3 modification — the writer tells the filter what each rank
actually holds — is :class:`repro.core.filter_mod.AMRICLevelFilter`.

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


def cut_blocks(chunk: np.ndarray, layout: Sequence[Tuple[int, int]],
               stored: Optional[int] = None) -> List[np.ndarray]:
    """The blocks of one decoded (flat) chunk, as views of it; ``layout`` is
    their ``(element offset, size)`` in stored order.  The chunk must hold
    exactly the ``stored`` elements its record names (default: up to its last
    block's end; a chunk coded with its padding records the padded size): an
    element more or less means a damaged payload."""
    if layout:
        end = sum(layout[-1])
        if chunk.size != (end if stored is None else stored) or chunk.size < end:
            raise ValueError(f"decoded chunk holds {chunk.size} elements, its blocks "
                             f"run to {end} and its record names {stored or end}")
    return [chunk[offset:offset + size] for offset, size in layout]


class Filter:
    """Base chunk filter: the decode side of the chunks its ``filter_id`` names."""

    filter_id = "identity"

    # -- interface -----------------------------------------------------
    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        """One chunk's payload as a 1D array of what it stores — its valid
        elements, or all ``chunk_elements`` for a filter that encodes the
        padding."""
        raise NotImplementedError

    def parse(self, payload: bytes, plan: Optional[object] = None) -> object:
        """A chunk's payload checked short of its decode (against its ``plan``
        where it is not self-describing): what :meth:`decode_blocks` takes and
        a box-reading handle keeps.  With nothing to parse, the payload itself
        (then nothing is kept)."""
        return payload

    def decode_blocks(self, payloads: Sequence[object], chunk_elements: int,
                      layouts: Sequence[Sequence[Tuple[int, int]]],
                      wanted: Sequence[Sequence[int]],
                      stored: Optional[Sequence[int]] = None) -> List[Dict[int, np.ndarray]]:
        """Per parsed payload (:meth:`parse`), decoded blocks by ordinal —
        what a decode job calls, once.

        ``layouts[i]`` places every block of payload ``i`` in its chunk
        (:func:`cut_blocks`); ``wanted[i]`` lists the ordinals asked for
        (ascending); ``stored[i]`` is the element count chunk ``i``'s record
        names (default: up to its last block), which its decode must hold
        exactly.  The default
        decodes each chunk whole and answers with all its blocks; a filter
        that can decode a block without its chunk overrides this and answers
        with the wanted ones (which must not depend on what else was asked for).
        """
        stored = stored or [None] * len(payloads)
        return [dict(enumerate(cut_blocks(self.decode(payload, chunk_elements), layout, n)))
                for payload, layout, n in zip(payloads, layouts, stored)]


class NoCompressionFilter(Filter):
    """Pass-through (used by the no-compression writer, which hands it each
    rank's cells without the padding tail, so stored bytes equal raw bytes)."""

    filter_id = "none"

    def encode(self, chunk: np.ndarray) -> bytes:
        return np.asarray(chunk, dtype=np.float64).tobytes()

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        return np.frombuffer(payload, dtype=np.float64).copy()
