"""The no-compression writer (the "NoComp" configuration of Figures 17/18).

Data is written uncompressed under the staged writer's level layout
(:func:`~repro.core.preprocess.hierarchy_layouts`): one chunk per
participating rank, each storing exactly that rank's cells, so stored bytes
equal raw bytes, committed by :func:`~repro.core.stages.commit_dataset`.
Nothing is removed: AMReX dumps the whole patch-based level, one block per
box.  The report is kept like every other writer's (:mod:`repro.core.pipeline`),
so the I/O benchmarks treat every method uniformly:
:func:`~repro.core.stages.dataset_record` measures each buffer as its own
reconstruction (zero error, infinite PSNR), and
:class:`~repro.parallel.backend.WorkloadTally` bills each participating rank
one chunk write per dataset and no compressor launch — a rank with no box is
billed nothing.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.core.header import build_header
from repro.core.pipeline import LevelFieldRecord, WriteReport, writer_comm
from repro.core.preprocess import hierarchy_layouts
from repro.core.stages import commit_dataset, dataset_record
from repro.h5lite.file import H5LiteFile
from repro.h5lite.filters import NoCompressionFilter
from repro.parallel.backend import WorkloadTally

__all__ = ["NoCompressionWriter"]


class NoCompressionWriter:
    """Writes the full hierarchy without compression (and without redundancy
    removal), under the bound its values already carry: 0.0 for raw data, a
    decompressed copy its source's (so it verifies as its source does)."""

    method_name = "nocomp"

    def __init__(self, error_bound: float = 0.0, error_bound_mode: str = "rel"):
        self.error_bound, self.error_bound_mode = float(error_bound), str(error_bound_mode)

    def write_plotfile(self, hierarchy: AmrHierarchy, path: Optional[str] = None) -> WriteReport:
        start = time.perf_counter()
        records: List[LevelFieldRecord] = []
        tally = WorkloadTally(writer_comm(hierarchy).size)
        # no redundancy removal and one block per box: AMReX dumps the whole
        # patch-based level
        layouts = hierarchy_layouts(hierarchy, unit_block_size=10 ** 6,
                                    remove_redundancy=False)
        filt = NoCompressionFilter()

        # the context removes the target if the body raises (no partial file)
        with (H5LiteFile(path, "w") if path is not None
              else nullcontext()) as h5file:
            if h5file is not None:
                # raw plotfiles are self-describing too: repro.open reads
                # them back without the producing hierarchy
                h5file.header = build_header(
                    hierarchy, method=self.method_name, codec="none",
                    error_bound=self.error_bound, error_bound_mode=self.error_bound_mode,
                    unit_block_size=10 ** 6,
                    remove_redundancy=False).to_json()
            for level_index, (level, layout) in enumerate(zip(hierarchy.levels, layouts)):
                if not layout.nblocks:
                    continue
                ends = np.cumsum(layout.rank_elements).tolist()
                for name in hierarchy.component_names:
                    # the level's blocks rank by rank, back to back: each
                    # rank's run is its chunk, stored without the padding tail
                    buffer = np.concatenate([v.reshape(-1) for v in layout.views(level, name)])
                    commit_dataset(h5file, f"level_{level_index}/{name}", layout,
                                   [filt.encode(buffer[a:b]) for a, b in zip([0] + ends, ends)],
                                   filt.filter_id)
                    records.append(dataset_record(level_index, name, [(buffer, buffer)],
                                                  buffer.nbytes, 0, layout.nblocks))
                    tally.add_dataset(ranks=layout.ranks,
                                      per_rank_elements=layout.rank_elements,
                                      chunk_elements=layout.chunk_elements,
                                      compressed_bytes=buffer.nbytes, launches_per_chunk=0)

        return WriteReport(method=self.method_name, path=path, records=records,
                           rank_workloads=tally.workloads(), removed_cells=0,
                           total_cells=hierarchy.num_cells, ndatasets=len(records),
                           elapsed_seconds=time.perf_counter() - start, error_bound=0.0)
