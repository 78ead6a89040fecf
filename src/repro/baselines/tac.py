"""TAC-style offline 3D compression (Figure 16's comparison point).

TAC (Wang et al., HPDC'22) improves on zMesh with adaptive 3D compression: the
sparse fine-level data is partitioned into regular sub-blocks (padding
small/irregular pieces), and each partition is handed to SZ_L/R **as a black
box** — TAC only pre-processes, it does not touch the compressor internals.
That is exactly the contrast the paper draws in §4.3: AMRIC optimises both the
pre-processing *and* the compressor (unit SLE, adaptive block size), which is
where its rate-distortion advantage over TAC comes from.

The reproduction keeps TAC's structure: per-box partitioning into regular
cubes (with edge padding), one independent SZ_L/R call per partition (each
with its own Huffman tables and its own value range), default 6³ SZ blocks.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.compress.errorbound import ErrorBound
from repro.compress.metrics import CompressionStats
from repro.compress.registry import create_codec
from repro.core.preprocess import hierarchy_layouts

__all__ = ["tac_compress"]


def tac_compress(hierarchy: AmrHierarchy, component: str, error_bound: float = 1e-3,
                 partition_size: int = 16, level: int | None = None) -> CompressionStats:
    """Compress one component the TAC way and return the stats record.

    Parameters
    ----------
    partition_size:
        Edge length of the regular partitions TAC cuts boxes into.
    level:
        Restrict to one level (None = all levels, redundant coarse data
        removed first, as TAC also works on the non-redundant data).
    """
    levels = range(hierarchy.nlevels) if level is None else [level]
    # TAC applies one global (dataset-range-relative) bound, not per-partition bounds
    abs_eb = ErrorBound.relative(error_bound).resolve(value_range=hierarchy.value_range(component))
    comp = create_codec("sz_lr", ErrorBound.absolute(abs_eb), block_size=6)

    originals: List[np.ndarray] = []
    recons: List[np.ndarray] = []
    compressed = 0
    layouts = hierarchy_layouts(hierarchy, partition_size, remove_redundancy=True)
    for level_index in levels:
        for block in layouts[level_index].views(hierarchy[level_index], component):
            # pad irregular partitions up to the regular cube (TAC's padding step)
            pads = [(0, partition_size - min(s, partition_size)) if s < partition_size else (0, 0)
                    for s in block.shape]
            padded = np.pad(block, pads, mode="edge")
            buffer, recon = comp.compress_with_reconstruction(padded)
            compressed += buffer.compressed_nbytes
            trim = tuple(slice(0, s) for s in block.shape)
            originals.append(block.reshape(-1))
            recons.append(recon[trim].reshape(-1))

    if not originals:
        raise ValueError(f"no data found for component {component!r}")
    orig = np.concatenate(originals)
    rec = np.concatenate(recons)
    return CompressionStats.measure("tac", error_bound, orig, rec, compressed,
                                    partitions=float(len(originals)))
