"""Unit-block encoding strategies for SZ_L/R (§3.2 Solution 1 and its rivals).

Given the list of 3D unit blocks a pre-processed AMR level produces, there are
three ways to push them through SZ_L/R:

* **LM (linear merging)** — the original approach: merge the unit blocks into
  one long array (stacking along the last axis) and compress it as a single
  buffer.  Prediction then crosses the seams between blocks that are not
  neighbours in the original dataset, which hurts accuracy (Figure 6 right).
* **unit SLE** — AMRIC: predict and quantise every unit block *separately*
  but encode all of their quantisation codes with one shared Huffman table
  (Figure 6 left).
* **individual** — predict each block separately *and* give each its own
  Huffman table: best prediction but large encoding overhead (the dilemma SLE
  resolves).

Each strategy returns the standalone buffer plus per-block reconstructions so
rate–distortion and error-slice comparisons (Figures 6, 7 and 9) can be
produced without decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.compress.base import CompressedBuffer
from repro.compress.sz_lr import SZLRCompressor

__all__ = ["EncodedBlocks", "compress_blocks_sle", "compress_blocks_lm",
           "compress_blocks_individual", "STRATEGIES"]


@dataclass
class EncodedBlocks:
    """Result of compressing a list of unit blocks with one strategy."""

    strategy: str
    buffer: CompressedBuffer
    reconstructions: List[np.ndarray]

    @property
    def compressed_nbytes(self) -> int:
        return self.buffer.compressed_nbytes

    @property
    def original_nbytes(self) -> int:
        return int(sum(r.nbytes for r in self.reconstructions))

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / max(self.compressed_nbytes, 1)


def _value_range(blocks: Sequence[np.ndarray]) -> float:
    gmin = min(float(b.min()) for b in blocks)
    gmax = max(float(b.max()) for b in blocks)
    return gmax - gmin


def _standalone(compressor: SZLRCompressor, arrays: Sequence[np.ndarray], shared: bool,
                value_range: float) -> Tuple[CompressedBuffer, List[np.ndarray]]:
    """The standalone buffer of one chunk of ``arrays`` and their reconstructions."""
    ((record, recons, recipe, _),) = compressor.compress_many_with_reconstruction(
        [arrays], shared_encoding=shared, value_range=value_range)
    return compressor.standalone(record, recipe, [r.shape for r in recons]), list(recons)


def compress_blocks_sle(blocks: Sequence[np.ndarray], compressor: SZLRCompressor,
                        value_range: float | None = None) -> EncodedBlocks:
    """Unit SLE: per-block prediction, one shared Huffman table."""
    if not blocks:
        raise ValueError("need at least one block")
    value_range = value_range if value_range is not None else _value_range(blocks)
    return EncodedBlocks("sle", *_standalone(compressor, blocks, True, value_range))


def compress_blocks_individual(blocks: Sequence[np.ndarray], compressor: SZLRCompressor,
                               value_range: float | None = None) -> EncodedBlocks:
    """Per-block prediction and per-block Huffman tables (no sharing)."""
    if not blocks:
        raise ValueError("need at least one block")
    value_range = value_range if value_range is not None else _value_range(blocks)
    return EncodedBlocks("individual", *_standalone(compressor, blocks, False, value_range))


def compress_blocks_lm(blocks: Sequence[np.ndarray], compressor: SZLRCompressor,
                       value_range: float | None = None) -> EncodedBlocks:
    """Linear merging: stack the blocks along the last axis and compress once.

    Blocks are padded (edge mode) to a common cross-section so they can be
    stacked; prediction crosses the seams, which is exactly the accuracy loss
    the paper attributes to merging non-adjacent blocks.
    """
    if not blocks:
        raise ValueError("need at least one block")
    value_range = value_range if value_range is not None else _value_range(blocks)
    ndim = blocks[0].ndim
    cross = tuple(max(b.shape[d] for b in blocks) for d in range(ndim - 1))
    padded: List[np.ndarray] = []
    for b in blocks:
        pads = [(0, cross[d] - b.shape[d]) for d in range(ndim - 1)] + [(0, 0)]
        padded.append(np.pad(b, pads, mode="edge"))
    merged = np.concatenate(padded, axis=ndim - 1)
    buffer, (recon,) = _standalone(compressor, [merged], True, value_range)
    out: List[np.ndarray] = []
    offset = 0
    for b in blocks:
        length = b.shape[-1]
        slab = recon[..., offset:offset + length]
        out.append(np.ascontiguousarray(
            slab[tuple(slice(0, s) for s in b.shape[:-1]) + (slice(None),)]))
        offset += length
    return EncodedBlocks("lm", buffer, out)


#: name → strategy callable (used by the Figure 6/7 benches)
STRATEGIES = {
    "sle": compress_blocks_sle,
    "lm": compress_blocks_lm,
    "individual": compress_blocks_individual,
}
