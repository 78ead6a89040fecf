"""The no-compression writer (the "NoComp" configuration of Figures 17/18).

Data is written box-major, uncompressed, one dataset per level.  The writer
produces the same :class:`~repro.core.pipeline.WriteReport` the compressed
writers do so the I/O benchmarks can treat every method uniformly.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.core.header import CHUNK_ALIGNMENT_STREAM, build_header
from repro.core.pipeline import LevelFieldRecord, WriteReport
from repro.core.preprocess import hierarchy_layouts
from repro.h5lite.file import H5LiteFile
from repro.h5lite.filters import NoCompressionFilter
from repro.parallel.iomodel import RankWorkload

__all__ = ["NoCompressionWriter"]


class NoCompressionWriter:
    """Writes the full hierarchy without compression (and without redundancy removal)."""

    method_name = "nocomp"

    def __init__(self, chunk_elements: Optional[int] = None):
        #: chunk size for the raw write; None = one chunk per rank
        self.chunk_elements = chunk_elements

    def write_plotfile(self, hierarchy: AmrHierarchy, path: Optional[str] = None) -> WriteReport:
        start = time.perf_counter()
        records: List[LevelFieldRecord] = []
        nranks = max(lvl.multifab.distribution.nranks for lvl in hierarchy.levels)
        rank_raw = np.zeros(nranks, dtype=np.int64)
        rank_chunks = np.zeros(nranks, dtype=np.int64)
        ndatasets = 0

        # the context removes the target if the body raises (no partial file)
        with (H5LiteFile(path, "w") if path is not None
              else nullcontext()) as h5file:
            if h5file is not None:
                h5file.attrs["method"] = self.method_name
                h5file.attrs["time"] = hierarchy.time
                h5file.attrs["step"] = hierarchy.step
                # raw plotfiles are self-describing too: repro.open reads
                # them back without the producing hierarchy (rank data is
                # packed back-to-back, so chunking is decoupled from ranks)
                h5file.header = build_header(
                    hierarchy, method=self.method_name, codec="none",
                    error_bound=0.0, unit_block_size=10 ** 6,
                    remove_redundancy=False,
                    chunk_alignment=CHUNK_ALIGNMENT_STREAM).to_json()

            # no redundancy removal: AMReX dumps the whole patch-based level
            layouts = hierarchy_layouts(hierarchy, unit_block_size=10 ** 6,
                                        remove_redundancy=False)
            for level_index, (level, layout) in enumerate(zip(hierarchy.levels, layouts)):
                for name in hierarchy.component_names:
                    # the level's blocks rank by rank, back to back
                    buffer = np.concatenate([v.reshape(-1) for v in layout.views(level, name)])
                    rank_raw[layout.ranks] += np.array(layout.rank_elements) * buffer.itemsize
                    rank_chunks[layout.ranks] += 1
                    raw_bytes = int(buffer.nbytes)
                    if h5file is not None:
                        h5file.create_dataset(f"level_{level_index}/{name}", buffer,
                                              chunk_elements=self.chunk_elements,
                                              filter=NoCompressionFilter())
                    ndatasets += 1
                    records.append(LevelFieldRecord(
                        level=level_index, field=name, raw_bytes=raw_bytes,
                        compressed_bytes=raw_bytes, psnr=float("inf"), max_error=0.0,
                        filter_calls=0, nblocks=layout.nblocks,
                        sq_error=0.0, n_elements=buffer.size,
                        value_min=float(buffer.min()), value_max=float(buffer.max())))

        workloads = [RankWorkload(raw_bytes=int(rank_raw[r]), compressed_bytes=int(rank_raw[r]),
                                  compressor_launches=0, padded_bytes=0,
                                  chunks_written=int(max(rank_chunks[r], 1)))
                     for r in range(nranks)]
        return WriteReport(method=self.method_name, path=path, records=records,
                           rank_workloads=workloads, removed_cells=0,
                           total_cells=hierarchy.num_cells, ndatasets=ndatasets,
                           elapsed_seconds=time.perf_counter() - start, error_bound=0.0)
