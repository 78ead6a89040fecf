"""The end-to-end AMRIC in situ writer.

The write is four explicit stages (:mod:`repro.core.stages`), mirroring how
the paper's pipeline separates concerns:

1. **plan** — remove redundant coarse data, truncate into unit blocks
   (§3.1) and lay out one chunk per rank per field with the global chunk
   size from the collective max (§3.3): one
   :class:`~repro.core.preprocess.LevelLayout` per level;
2. **pack** — build each dataset's field-major write buffer, one chunk slice
   per rank (§3.3 Solution 1, :func:`~repro.core.stages.pack_dataset`);
3. **encode** — push every dataset's chunk sequence through the 3D-aware
   AMRIC filter: a dataset's chunks are predicted together and serialised in
   order.  Each dataset is an independent work item submitted through
   :class:`~repro.parallel.mpi_sim.SimComm` to the caller's execution
   backend (:mod:`repro.parallel.backend`; inline when none is given): a
   pooled backend encodes datasets concurrently and still produces a
   byte-identical plotfile;
4. **commit** — append the encoded chunks to one shared
   :class:`~repro.h5lite.file.H5LiteFile` dataset per level/field (a
   collective write per dataset) and aggregate the report.

The writer returns a :class:`WriteReport` carrying, per level and field, the
raw/compressed sizes, the reconstruction quality (PSNR over the kept data),
the filter-call counts and the per-rank workloads the I/O cost model consumes.
Every writer — this one, the series writer and both baselines — keeps that
ledger one way: :func:`~repro.core.stages.dataset_record` measures each
dataset from its ``(original, reconstruction)`` pairs, and
:class:`~repro.parallel.backend.WorkloadTally` bills each rank the chunks it
writes (none for a rank that owns no cell) with an exactly conserving
largest-remainder byte split.  :func:`writer_comm` is the prologue this
writer and the series writer share.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.compress.metrics import psnr_from_mse
from repro.core.config import AMRICConfig
from repro.core.filter_mod import AMRICLevelFilter
from repro.core.stages import (
    commit_dataset,
    commit_header,
    dataset_record,
    encode_job,
    make_encode_job,
    pack_dataset,
    plan_write,
)
from repro.h5lite.file import H5LiteFile
from repro.obs import span
from repro.parallel.backend import ExecutionBackend, WorkloadTally, as_backend
from repro.parallel.iomodel import RankWorkload
from repro.parallel.mpi_sim import SimComm

__all__ = ["AMRICWriter", "WriteReport", "LevelFieldRecord", "writer_comm"]


@dataclass
class LevelFieldRecord:
    """Compression outcome for one (level, field) dataset."""

    level: int
    field: str
    raw_bytes: int
    compressed_bytes: int
    psnr: float
    max_error: float
    filter_calls: int
    nblocks: int
    #: error-accumulation terms for cell-count-weighted aggregation across
    #: levels (:attr:`WriteReport.psnr`)
    sq_error: float
    n_elements: int
    value_min: float
    value_max: float


@dataclass
class WriteReport:
    """Everything a plotfile write produced (sizes, quality, workloads)."""

    method: str
    path: Optional[str]
    records: List[LevelFieldRecord]
    rank_workloads: List[RankWorkload]
    removed_cells: int
    total_cells: int
    ndatasets: int
    elapsed_seconds: float
    error_bound: float
    #: which execution backend encoded the chunks
    backend: str = "serial"
    #: collective-operation counts (barriers/reductions/writes)
    collectives: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    @property
    def raw_bytes(self) -> int:
        return sum(r.raw_bytes for r in self.records)

    @property
    def compressed_bytes(self) -> int:
        return sum(r.compressed_bytes for r in self.records)

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(self.compressed_bytes, 1)

    def _records_by_field(self) -> Dict[str, List[LevelFieldRecord]]:
        fields: Dict[str, List[LevelFieldRecord]] = {}
        for rec in self.records:
            fields.setdefault(rec.field, []).append(rec)
        return fields

    @property
    def psnr(self) -> Dict[str, float]:
        """Per-field PSNR aggregated over levels, MSE-weighted by cell count.

        The per-level squared errors are pooled (``sum(sq_err) / sum(n)``)
        and referenced to the field's value range across all levels — the
        PSNR of the whole field as one dataset.
        """
        return {name: psnr_from_mse(
                    sum(r.sq_error for r in recs) / sum(r.n_elements for r in recs),
                    max(r.value_max for r in recs) - min(r.value_min for r in recs))
                for name, recs in self._records_by_field().items()}

    @property
    def mean_psnr(self) -> float:
        values = [r.psnr for r in self.records if np.isfinite(r.psnr)]
        return float(np.mean(values)) if values else float("inf")

    @property
    def total_filter_calls(self) -> int:
        return sum(r.filter_calls for r in self.records)


def writer_comm(hierarchy: AmrHierarchy, comm: Optional[SimComm] = None) -> SimComm:
    """The communicator a write runs on: ``comm``, which must span the ranks
    the hierarchy is distributed over, or a fresh one over them."""
    nranks = max(lvl.multifab.distribution.nranks for lvl in hierarchy.levels)
    if comm is None:
        return SimComm(nranks)
    if comm.size != nranks:
        raise ValueError(f"communicator has {comm.size} ranks but the hierarchy "
                         f"is distributed over {nranks}")
    return comm


class AMRICWriter:
    """In situ compressed plotfile writer implementing the AMRIC pipeline."""

    method_name = "amric"

    def __init__(self, config: AMRICConfig | None = None,
                 backend: Optional[ExecutionBackend] = None,
                 comm: Optional[SimComm] = None, **overrides):
        config = config or AMRICConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        #: where the encode jobs run; the caller's, never closed here
        self.backend = as_backend(backend)
        self.comm = comm

    # ------------------------------------------------------------------
    def write_plotfile(self, hierarchy: AmrHierarchy, path: Optional[str] = None) -> WriteReport:
        """Compress and write one plotfile; return the report.

        ``path`` may be None for in-memory evaluation (the file step is then
        skipped but every compression result is identical).
        """
        cfg = self.config
        start = time.perf_counter()

        # ---- plan: preprocess + chunk layout (collective maxes) ----------
        comm = writer_comm(hierarchy, self.comm)
        # writer-stage spans report into the process-wide registry (an in
        # situ writer has no query engine whose registry could collect them)
        with span("write.plan"):
            plan = plan_write(hierarchy, cfg, comm)

        # ---- pack / encode / commit, one level at a time -----------------
        # Levels batch the pipeline: a level's datasets pack together, encode
        # concurrently on the backend (one barrier per level) and commit in
        # plan order, so peak memory is one level's buffers — not the whole
        # hierarchy's — matching the in situ write pattern of the real code.
        records: List[LevelFieldRecord] = []
        tally = WorkloadTally(comm.size)
        # the context removes the target if the body raises (no partial file)
        with (H5LiteFile(path, "w") if path is not None
              else nullcontext()) as h5file:
            # the self-describing header: structure + codec, so the file can
            # be opened without the producing hierarchy in memory
            commit_header(h5file, hierarchy, cfg, method=self.method_name)
            for level_plan in plan.levels:
                if not level_plan.datasets:
                    continue
                level = hierarchy[level_plan.level]
                with span("write.pack"):
                    packed = [pack_dataset(level, d) for d in level_plan.datasets]
                with span("write.encode") as sp:
                    jobs = [make_encode_job(p, cfg) for p in packed]
                    results = comm.run_jobs(self.backend, encode_job, jobs)
                    sp.add_bytes(sum(r.compressed_bytes for r in results))
                with span("write.commit"):
                    for dplan, pack, result in zip(level_plan.datasets, packed,
                                                   results):
                        commit_dataset(h5file, dplan.name, dplan.layout, result.payloads,
                                       AMRICLevelFilter.filter_id,
                                       {"codec": result.recipe}, dplan.actual_elements)
                        comm.record_collective_write()
                        records.append(dataset_record(
                            dplan.level, dplan.field,
                            [(orig, rec) for blocks, recons in zip(pack.originals,
                                                                   result.reconstructions)
                             for orig, rec in zip(blocks, recons)],
                            result.compressed_bytes, result.filter_calls,
                            dplan.layout.nblocks))
                        tally.add_dataset(
                            ranks=dplan.layout.ranks,
                            per_rank_elements=dplan.layout.rank_elements,
                            chunk_elements=dplan.chunk_elements,
                            compressed_bytes=result.compressed_bytes,
                            count_padding=not cfg.modify_filter)
        assert tally.total_compressed == sum(r.compressed_bytes for r in records), \
            "per-rank compressed-byte apportionment must conserve the total"

        return WriteReport(
            method=f"{self.method_name}({cfg.compressor})",
            path=path, records=records, rank_workloads=tally.workloads(),
            removed_cells=plan.removed_cells, total_cells=plan.total_cells,
            ndatasets=len(records),
            elapsed_seconds=time.perf_counter() - start,
            error_bound=cfg.error_bound,
            backend=self.backend.name,
            collectives=asdict(comm.counters))
