"""AMReX's original in situ compression (the paper's main baseline).

The behaviour reproduced here is the one §2.1/§3.3/§5 of the paper describe:

* **no redundancy removal** — the full patch-based level is compressed;
* **box-major layout** — each box's fields are contiguous, so a chunk may not
  span more than one field segment; AMReX therefore uses a small fixed HDF5
  chunk (1024 elements);
* **1D compression** — every chunk is handed to SZ as a flat stream;
* **one filter launch per chunk** — thousands of launches per rank for the
  paper-scale runs, the dominant cost in Figures 17/18;
* each chunk gets its own error bound relative to its own value range and its
  own Huffman table (low encoding efficiency — the compression-ratio penalty
  of Table 2).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.compress.errorbound import ErrorBound
from repro.compress.registry import create_codec
from repro.core.header import CHUNK_ALIGNMENT_BOX_MAJOR, build_header
from repro.core.pipeline import LevelFieldRecord, WriteReport
from repro.core.layout import build_rank_buffer_box_major
from repro.core.preprocess import UnitBlock, preprocess_level
from repro.h5lite.chunking import AMREX_DEFAULT_CHUNK, amrex_chunk_elements
from repro.h5lite.file import H5LiteFile
from repro.h5lite.filters import SZChunkFilter
from repro.parallel.backend import apportion
from repro.parallel.iomodel import RankWorkload

__all__ = ["AMReXOriginalWriter", "RecordingSZChunkFilter"]


class RecordingSZChunkFilter(SZChunkFilter):
    """Classic SZ chunk filter that also keeps each chunk's reconstruction.

    The reconstructions let the writer report PSNR without re-reading and
    decoding the file (the compression itself is bit-identical either way).
    """

    def __init__(self, compressor):
        super().__init__(compressor)
        self.reconstructions: List[np.ndarray] = []

    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        chunk = np.asarray(chunk, dtype=np.float64).reshape(-1)
        buffer, recon = self.compressor.compress_with_reconstruction(chunk)
        self.reconstructions.append(recon)
        out = buffer.payload
        self._account(chunk, actual_elements if actual_elements is not None else chunk.size, out)
        return out


class AMReXOriginalWriter:
    """The "AMReX" baseline of Tables 2/3 and Figures 17/18."""

    method_name = "amrex_1d"

    def __init__(self, error_bound: float = 1e-2, chunk_elements: int = AMREX_DEFAULT_CHUNK):
        self.error_bound = float(error_bound)
        self.chunk_elements = int(chunk_elements)
        if self.chunk_elements < 2:
            raise ValueError("chunk_elements must be >= 2")

    # ------------------------------------------------------------------
    def write_plotfile(self, hierarchy: AmrHierarchy, path: Optional[str] = None) -> WriteReport:
        start = time.perf_counter()
        records: List[LevelFieldRecord] = []
        nranks = max(lvl.multifab.distribution.nranks for lvl in hierarchy.levels)
        rank_raw = np.zeros(nranks, dtype=np.int64)
        rank_compressed = np.zeros(nranks, dtype=np.int64)
        rank_launches = np.zeros(nranks, dtype=np.int64)
        rank_chunks = np.zeros(nranks, dtype=np.int64)
        ndatasets = 0

        # the context removes the target if the body raises (no partial file)
        with (H5LiteFile(path, "w") if path is not None
              else nullcontext()) as h5file:
            if h5file is not None:
                h5file.attrs["method"] = self.method_name
                h5file.attrs["error_bound"] = self.error_bound
                # self-describing metadata; the box-major interleaved layout
                # is declared so the staged reader refuses cleanly instead of
                # misplacing data (`repro info` still works from the header)
                h5file.header = build_header(
                    hierarchy, method=self.method_name, codec="sz_1d",
                    error_bound=self.error_bound, unit_block_size=10 ** 6,
                    remove_redundancy=False,
                    chunk_alignment=CHUNK_ALIGNMENT_BOX_MAJOR).to_json()

            for level_index, level in enumerate(hierarchy.levels):
                # whole boxes, no redundancy removal, box-major (field-interleaved)
                pre = preprocess_level(hierarchy, level_index, unit_block_size=10 ** 6,
                                       remove_redundancy=False)
                ranks_with_data = sorted({b.rank for b in pre.unit_blocks})

                # the chunk must not exceed the smallest per-box field segment
                smallest_segment = min(b.size for b in pre.unit_blocks)
                chunk_elements = amrex_chunk_elements(smallest_segment, self.chunk_elements)

                # accumulate the level's data (all fields interleaved per box)
                per_field_error: dict = {name: [0.0, 0.0, 0, np.inf, -np.inf]
                                         for name in hierarchy.component_names}
                level_compressed = 0
                level_calls = 0
                rank_buffers = []
                for rank in ranks_with_data:
                    rb = build_rank_buffer_box_major(level, pre.unit_blocks, rank,
                                                     hierarchy.component_names)
                    rank_buffers.append((rank, rb))

                level_data = np.concatenate([rb.data for _, rb in rank_buffers])
                filt = RecordingSZChunkFilter(
                    create_codec("sz_1d", ErrorBound.relative(self.error_bound)))
                if h5file is not None:
                    info = h5file.create_dataset(f"level_{level_index}/cell_data", level_data,
                                                 chunk_elements=chunk_elements, filter=filt)
                    level_compressed = info.stored_nbytes
                else:
                    nchunks = (level_data.size + chunk_elements - 1) // chunk_elements
                    for i in range(nchunks):
                        chunk = np.zeros(chunk_elements)
                        seg = level_data[i * chunk_elements:(i + 1) * chunk_elements]
                        chunk[:seg.size] = seg
                        level_compressed += len(filt.encode(chunk))
                ndatasets += 1
                level_calls = filt.stats.calls

                # reassemble the reconstruction to measure per-field quality
                recon_flat = np.concatenate(filt.reconstructions)[:level_data.size]
                # split the level's compressed bytes between the ranks
                # proportionally to raw size, conserving the total exactly
                rank_shares = apportion(level_compressed,
                                        [rb.nelements for _, rb in rank_buffers])
                offset = 0
                for (rank, rb), share in zip(rank_buffers, rank_shares):
                    rank_raw[rank] += rb.nbytes
                    rank_elems = rb.nelements
                    rank_nchunks = int(np.ceil(rank_elems / chunk_elements))
                    rank_launches[rank] += rank_nchunks
                    rank_chunks[rank] += rank_nchunks
                    rank_compressed[rank] += share
                    recon_rank = recon_flat[offset:offset + rank_elems]
                    seg_offset = 0
                    for name, _, count in rb.segments:
                        orig = rb.data[seg_offset:seg_offset + count]
                        rec = recon_rank[seg_offset:seg_offset + count]
                        acc = per_field_error[name]
                        diff = orig - rec
                        acc[0] += float(np.sum(diff * diff))
                        acc[1] = max(acc[1], float(np.max(np.abs(diff))) if count else 0.0)
                        acc[2] += count
                        acc[3] = min(acc[3], float(orig.min()) if count else np.inf)
                        acc[4] = max(acc[4], float(orig.max()) if count else -np.inf)
                        seg_offset += count
                    offset += rank_elems

                # per-field compressed bytes: conserving split of the level total
                field_items = [(name, acc) for name, acc in per_field_error.items()
                               if acc[2] > 0]
                field_shares = apportion(level_compressed,
                                         [acc[2] for _, acc in field_items])
                for (name, (sq, mx, n, lo, hi)), share in zip(field_items, field_shares):
                    mse = sq / n
                    vrange = (hi - lo) if hi > lo else 1.0
                    psnr = float("inf") if mse == 0 else \
                        20.0 * np.log10(vrange) - 10.0 * np.log10(mse)
                    records.append(LevelFieldRecord(
                        level=level_index, field=name, raw_bytes=n * 8,
                        compressed_bytes=share,
                        psnr=psnr, max_error=mx,
                        filter_calls=int(round(level_calls / hierarchy.ncomp)),
                        nblocks=len(pre.unit_blocks),
                        sq_error=sq, n_elements=n, value_min=lo, value_max=hi))

        workloads = [RankWorkload(raw_bytes=int(rank_raw[r]),
                                  compressed_bytes=int(rank_compressed[r]),
                                  compressor_launches=int(rank_launches[r]),
                                  padded_bytes=0,
                                  chunks_written=int(max(rank_chunks[r], 1)))
                     for r in range(nranks)]
        return WriteReport(method=self.method_name, path=path, records=records,
                           rank_workloads=workloads, removed_cells=0,
                           total_cells=hierarchy.num_cells, ndatasets=ndatasets,
                           elapsed_seconds=time.perf_counter() - start,
                           error_bound=self.error_bound)
