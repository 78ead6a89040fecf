"""AMReX's original in situ compression (the paper's main baseline).

The behaviour reproduced here is the one §2.1/§3.3/§5 of the paper describe:

* **no redundancy removal** — the full patch-based level is compressed;
* **box-major layout** — each box's fields are contiguous, so a chunk may not
  span more than one field segment; AMReX therefore uses a small fixed HDF5
  chunk (1024 elements);
* **1D compression** — every chunk is handed to SZ as a flat stream, padding
  included (:class:`ClassicSZFilter`, the filter with no side channel for the
  real size);
* **one filter launch per chunk** — thousands of launches per rank for the
  paper-scale runs, the dominant cost in Figures 17/18;
* each chunk gets its own error bound relative to its own value range and its
  own Huffman table (low encoding efficiency — the compression-ratio penalty
  of Table 2).

A level is encoded once, chunk by chunk, and the payloads are committed as
they are when there is a file, so an in-memory write reports what the file
holds.  The report is kept like every other writer's
(:mod:`repro.core.pipeline`): one :func:`~repro.core.stages.dataset_record`
per field over its box segments, rank by rank, and one
:class:`~repro.parallel.backend.WorkloadTally` billing each rank
``ceil(elements / chunk)`` chunks and launches — none for a rank with no box.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.hierarchy import AmrHierarchy, AmrLevel
from repro.compress.base import Compressor
from repro.compress.errorbound import ErrorBound
from repro.compress.metrics import ErrorTally
from repro.compress.registry import create_codec
from repro.core.header import CHUNK_ALIGNMENT_BOX_MAJOR, build_header
from repro.core.pipeline import LevelFieldRecord, WriteReport, writer_comm
from repro.core.preprocess import LevelLayout, hierarchy_layouts
from repro.core.stages import dataset_record
from repro.h5lite.chunking import AMREX_DEFAULT_CHUNK, amrex_chunk_elements
from repro.h5lite.file import H5LiteFile
from repro.h5lite.filters import Filter
from repro.parallel.backend import WorkloadTally, apportion

__all__ = ["AMReXOriginalWriter", "ClassicSZFilter", "box_major_blocks"]


def box_major_blocks(level: AmrLevel, layout: LevelLayout,
                     fields: Sequence[str]) -> List[np.ndarray]:
    """A level's blocks in the order of its box-major stream — block by block
    in stored order (rank by rank), each block's fields back to back — as
    views of the level's fabs: what the writer cuts into chunks and what a
    decode of the stream fills."""
    views = [layout.views(level, name) for name in fields]
    return [field[i] for i in range(layout.nblocks) for field in views]


class ClassicSZFilter(Filter):
    """AMReX's H5Z-SZ filter: compresses each chunk buffer as handed over.

    Padding is compressed along with the data, as by a filter with no side
    channel for the real size.  A chunk's payload is the codec's record (the
    writer encodes its chunks alike, ``SZ1DCompressor.compress_chunked``).
    """

    filter_id = "sz_classic"

    def __init__(self, compressor: Compressor):
        self.compressor = compressor

    def encode(self, chunk: np.ndarray) -> Tuple[bytes, np.ndarray]:
        return self.compressor.encode_record(np.asarray(chunk, dtype=np.float64).reshape(-1))

    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        return self.compressor.decode_record(payload, (chunk_elements,))


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
        tally = WorkloadTally(writer_comm(hierarchy).size)
        components = hierarchy.component_names

        # the context removes the target if the body raises (no partial file)
        with (H5LiteFile(path, "w") if path is not None
              else nullcontext()) as h5file:
            if h5file is not None:
                # self-describing metadata; the box-major interleaved layout
                # is declared so the staged reader refuses cleanly instead of
                # misplacing data (`repro info` still works from the header)
                h5file.header = build_header(
                    hierarchy, method=self.method_name, codec="sz_1d",
                    error_bound=self.error_bound, unit_block_size=10 ** 6,
                    remove_redundancy=False,
                    chunk_alignment=CHUNK_ALIGNMENT_BOX_MAJOR).to_json()

            # whole boxes, no redundancy removal
            layouts = hierarchy_layouts(hierarchy, unit_block_size=10 ** 6,
                                        remove_redundancy=False)
            for level_index, (level, layout) in enumerate(zip(hierarchy.levels, layouts)):
                # box-major (field-interleaved): segment k is field k % ncomp
                segments = [block.reshape(-1)
                            for block in box_major_blocks(level, layout, components)]
                level_data = np.concatenate(segments)

                # the chunk must not exceed the smallest per-box field segment;
                # the level's stream is cut into zero-padded chunks, one filter
                # call each
                chunk_elements = amrex_chunk_elements(int(layout.sizes.min()),
                                                      self.chunk_elements)
                nchunks = -(-level_data.size // chunk_elements)
                chunks = np.zeros((nchunks, chunk_elements))
                chunks.reshape(-1)[:level_data.size] = level_data
                codec = create_codec("sz_1d", ErrorBound.relative(self.error_bound))
                payloads, recon = codec.compress_chunked(chunks, chunk_elements)
                if h5file is not None:
                    h5file.create_dataset_from_chunks(
                        f"level_{level_index}/cell_data", payloads,
                        shape=level_data.shape, dtype=str(level_data.dtype),
                        chunk_elements=chunk_elements, filter_id=ClassicSZFilter.filter_id,
                        actual_elements_per_chunk=[
                            min(chunk_elements, level_data.size - i * chunk_elements)
                            for i in range(nchunks)])
                level_compressed = sum(len(p) for p in payloads)
                tally.add_dataset(ranks=layout.ranks,
                                  per_rank_elements=[hierarchy.ncomp * n
                                                     for n in layout.rank_elements],
                                  chunk_elements=chunk_elements,
                                  compressed_bytes=level_compressed)

                # |x − x̂| of the level's stream in its reconstruction's buffer: each
                # chunk held to its own bound, each field's segments tallied, rank by rank
                error = recon.reshape(-1)[:level_data.size]
                np.abs(np.subtract(level_data, error, out=error), out=error)
                starts = np.arange(0, error.size, chunk_elements)
                for start, worst, vrange in zip(starts.tolist(), np.maximum.reduceat(
                        error, starts).tolist(), np.ptp(chunks, axis=1).tolist()):
                    codec.hold(worst, min(chunk_elements, error.size - start),
                               codec.error_bound.resolve(value_range=vrange))
                errors = dict.fromkeys(components, ErrorTally())
                offset = 0
                for k, flat in enumerate(segments):
                    name = components[k % len(components)]
                    errors[name] += ErrorTally.of_error(flat, error[offset:offset + flat.size])
                    offset += flat.size
                # per-field compressed bytes: conserving split of the level total
                shares = apportion(level_compressed,
                                   [errors[name].n_elements for name in components])
                for name, share in zip(components, shares):
                    records.append(dataset_record(
                        level_index, name, errors[name], share,
                        round(len(payloads) / hierarchy.ncomp), layout.nblocks))

        return WriteReport(method=self.method_name, path=path, records=records,
                           rank_workloads=tally.workloads(), removed_cells=0,
                           total_cells=hierarchy.num_cells, ndatasets=hierarchy.nlevels,
                           elapsed_seconds=time.perf_counter() - start,
                           error_bound=self.error_bound)
