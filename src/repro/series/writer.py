"""The series writer: staged per-step writes with a rolling temporal reference.

Each :meth:`SeriesWriter.append` reuses the staged writer's plan and pack
stages (:mod:`repro.core.stages`) so a series step's chunk layout is exactly
a plotfile's, then swaps the spatial encode stage for temporal encode jobs:

* every chunk is quantised once onto the series' fixed grid and its absolute
  codes tabled as a **key** candidate;
* a dataset whose stream layout matches the previous step's — same
  boxes, same distribution, same unit blocks, i.e. no regrid touched it —
  also tables the codes' difference to the previous step's as a **delta**
  candidate, and the candidate whose records come out smaller is the one
  committed (DESIGN.md §6);
* every ``keyframe_interval``-th step skips the delta candidates entirely,
  so the series always contains self-contained restart points.

Jobs are plain picklable dataclasses submitted through
:meth:`~repro.parallel.mpi_sim.SimComm.run_jobs` to the caller's execution
backend (inline when none is given), mirroring the plotfile writer — every
backend commits byte-identical series.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.compress.errorbound import ErrorBound
from repro.compress.metrics import ErrorTally
from repro.compress.temporal import MODE_DELTA, MODE_KEY, TemporalDeltaCodec, TemporalDeltaFilter
from repro.core.config import AMRICConfig
from repro.core.header import build_header
from repro.core.pipeline import LevelFieldRecord, WriteReport, writer_comm
from repro.core.stages import (DatasetPlan, commit_dataset, dataset_record, pack_dataset,
                                plan_write)
from repro.h5lite.file import H5LiteFile
from repro.parallel.backend import ExecutionBackend, WorkloadTally, as_backend
from repro.parallel.mpi_sim import SimComm
from repro.series.index import (
    SERIES_FORMAT_VERSION,
    FieldGrid,
    SeriesDatasetRecord,
    SeriesIndex,
    SeriesStepRecord,
)
from repro.series.reader import is_series_dir
from repro.stream.journal import SeriesJournal, load_journal

__all__ = [
    "SeriesWriter",
    "TemporalEncodeJob",
    "TemporalEncodeResult",
    "temporal_encode_job",
]


def _stream_key(dplan: DatasetPlan) -> tuple:
    """One dataset's chunked element stream layout, exactly.

    Delta encoding subtracts the reference stream element-by-element, so it
    is only valid when both steps packed the dataset identically: same chunk
    size, same valid prefix per chunk, same unit blocks on the same ranks in
    the same order.  Because redundancy removal carves a level's blocks
    around the *next* level's boxes, a fine-level regrid changes the coarse
    level's key too — exactly the cases that must fall back to a keyframe.
    """
    layout = dplan.layout
    return (dplan.chunk_elements, tuple(dplan.actual_elements),
            *(a.tobytes() for a in (layout.rank, layout.box_index, layout.lo, layout.hi)))


# ----------------------------------------------------------------------
# the temporal encode stage (runs on the execution backends)
# ----------------------------------------------------------------------
@dataclass
class TemporalEncodeJob:
    """One dataset's temporal encode work (picklable, backend-portable)."""

    #: bulk fields the shm backend ships as shared-memory descriptors
    _shm_fields: ClassVar[Tuple[str, ...]] = ("data", "ref_codes")

    key: str                                  #: dataset name
    data: np.ndarray                          #: packed buffer (one chunk per rank)
    chunk_elements: int
    actual_sizes: List[int]                   #: valid elements per chunk
    owned_sizes: List[int]                    #: the ledger's cells per chunk (its rank's)
    eb_abs: float                             #: the series' fixed grid for this field
    offset: float
    #: previous step's absolute codes per chunk; None forces a keyframe
    ref_codes: Optional[List[np.ndarray]] = None


@dataclass
class TemporalEncodeResult:
    """What one temporal encode produced (travels back across the backend)."""

    _shm_fields: ClassVar[Tuple[str, ...]] = ("payloads", "codes")

    key: str
    mode: str                                 #: the committed stream kind
    recipe: dict                              #: what the records decode under
    payloads: List[bytes]
    codes: List[np.ndarray]                   #: absolute codes (the next step's reference)
    key_bytes: int                            #: the key candidate, as sized (its records)
    delta_bytes: Optional[int]                #: the delta candidate (None: not tabled)
    error: ErrorTally                         #: the owned cells, chunk by chunk
    filter_calls: int

    @property
    def compressed_bytes(self) -> int:
        return sum(len(p) for p in self.payloads)


def temporal_encode_job(job: TemporalEncodeJob) -> TemporalEncodeResult:
    """Encode one dataset's chunks as key or delta, whichever its tables favour.

    A module-level pure function over picklable inputs — the temporal mirror of
    :func:`repro.core.stages.encode_job` — so serial and shm produce identical bytes.
    Each chunk is quantised once and tabled under both modes; only the dataset's winner is
    entropy-coded and packed, under the one recipe (grid and mode) the dataset stores.
    Both decode to the same grid values, held to the bound here (``Compressor.measure``).
    """
    codec = TemporalDeltaCodec(ErrorBound.absolute(job.eb_abs), offset=job.offset)
    ce, eb = job.chunk_elements, job.eb_abs
    keys, deltas, codes_out, errors = [], [], [], []
    for i, (actual, owned) in enumerate(zip(job.actual_sizes, job.owned_sizes)):
        chunk = job.data[i * ce:i * ce + int(actual)]
        try:
            codes = codec.quantize(chunk, eb)
            recon = codec.grid_values(codes, eb, job.offset)
            errors.append(codec.measure(chunk[:owned], recon[:owned], eb))
            codec.measure(chunk[owned:], recon[owned:], eb)     # a naive chunk's tail
        except ValueError as exc:
            raise ValueError(f"series dataset {job.key!r}: {exc}") from None
        codes_out.append(codes)
        keys.append(codec.candidate(codes))
        if job.ref_codes is not None:
            deltas.append(codec.candidate(codes, job.ref_codes[i]))
    key_bytes = sum(c.nbytes for c in keys)
    delta_bytes = sum(c.nbytes for c in deltas) if job.ref_codes is not None else None
    mode = MODE_DELTA if delta_bytes is not None and delta_bytes < key_bytes else MODE_KEY
    recipe = codec.recipe(eb, stream=mode)
    return TemporalEncodeResult(
        key=job.key, mode=mode, recipe=recipe,
        payloads=[codec.pack(c, recipe) for c in (deltas if mode == MODE_DELTA else keys)],
        codes=codes_out, key_bytes=key_bytes, delta_bytes=delta_bytes,
        error=sum(errors, ErrorTally()), filter_calls=len(job.actual_sizes))


# ----------------------------------------------------------------------
# the series writer
# ----------------------------------------------------------------------
class SeriesWriter:
    """Appends one plotfile per simulation dump into a series directory.

    Usage::

        with SeriesWriter("run_dir", keyframe_interval=8,
                          error_bound=1e-3) as series:
            for hierarchy in simulation.run(nsteps):
                report = series.append(hierarchy)

    The directory accumulates ``plt<step>.h5z`` files.  Each step file is
    itself a self-describing plotfile; keyframe steps open with plain
    :func:`repro.open`, delta steps need :func:`repro.open_series` to resolve
    their references.

    Every step is committed through the series journal
    (:mod:`repro.stream.journal`): step file fsync'd first, then one fsync'd
    journal record — a crash can only lose the step being written, never a
    committed one.  Until it is finalized the directory is a *live* series
    that readers follow with
    :meth:`~repro.series.reader.SeriesHandle.refresh`.  :meth:`finalize`
    (called by :meth:`close`) appends the journal's ``final`` record; a
    writer that raises or is never closed leaves the live directory behind.

    ``append`` is whether an existing series directory may be reopened; a
    plain writer refuses one.  Resuming a live (crashed) or finalized
    directory is the same: it recovers the committed steps, truncates a torn
    journal tail, appends after the last complete record, and makes the
    first step after it a keyframe (the rolling delta reference does not
    survive a restart).
    """

    method_name = "series"

    def __init__(self, directory: str, config: Optional[AMRICConfig] = None,
                 keyframe_interval: int = 8,
                 backend: Optional[ExecutionBackend] = None,
                 comm: Optional[SimComm] = None, append: bool = False,
                 **overrides):
        #: where the temporal encode jobs run; the caller's, never closed here
        self.backend = as_backend(backend)
        config = config or AMRICConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.keyframe_interval = int(keyframe_interval)
        if self.keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.index: Optional[SeriesIndex] = None
        self.journal = SeriesJournal(self.directory)
        self._recovered = is_series_dir(self.directory)
        self._finalized = False
        self._aborted = False
        #: dataset name -> (stream key, absolute codes per chunk)
        self._ref: Dict[str, Tuple[tuple, List[np.ndarray]]] = {}
        if self._recovered:
            if not append:
                raise ValueError(
                    f"{self.directory!r} already holds a series; write each "
                    "series into a fresh directory, or resume it with append=True")
            self._recover()
        self.comm = comm
        self.reports: List[WriteReport] = []

    def _recover(self) -> None:
        """Resume a series behind its last complete journal record.

        The recovered index is authoritative for the series-wide knobs — the
        grids were frozen at the original step 0 and delta chains depend on
        them — so constructor arguments that disagree are overridden.
        """
        index, view = load_journal(self.directory)
        self.journal.resume(view)
        self.index = index
        self.keyframe_interval = index.keyframe_interval
        self.config = self.config.with_overrides(
            error_bound=index.error_bound,
            error_bound_mode=index.error_bound_mode,
            unit_block_size=index.unit_block_size,
            remove_redundancy=index.remove_redundancy)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Append the journal's fsync'd ``final`` record (idempotent)."""
        if self._finalized:
            return
        if self.index is not None:
            self.journal.append_final()
        self._finalized = True

    def abort(self) -> None:
        """Stop without finalizing: the journal stays and the series stays live.

        For tests and controlled shutdowns that want the directory left
        exactly as a crash would — resumable with ``append=True`` and
        readable through :func:`repro.open_series`.
        """
        self._aborted = True
        self.journal.close()

    def close(self) -> None:
        """Finalize (unless aborted) and close the journal."""
        if not self._aborted:
            self.finalize()
        self.journal.close()

    def __enter__(self) -> "SeriesWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # on an exception, leave the journal in place: the committed prefix
        # stays live-readable and the run is resumable with append=True
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    # ------------------------------------------------------------------
    @property
    def nsteps(self) -> int:
        return 0 if self.index is None else self.index.nsteps

    def _field_grids(self, hierarchy: AmrHierarchy) -> Dict[str, FieldGrid]:
        """Fix every field's quantisation grid from the first step's data.

        The grid must not move between steps (delta codes would stop lining
        up), so the relative bound is resolved once, against the first dump's
        value range — the same convention the paper's writers use per file,
        frozen for the series.
        """
        eb = self.config.error_bound_obj
        grids: Dict[str, FieldGrid] = {}
        for name in hierarchy.component_names:
            vmin = min(lvl.multifab.min(name) for lvl in hierarchy.levels)
            grids[name] = FieldGrid(
                eb_abs=eb.resolve(value_range=hierarchy.value_range(name)),
                offset=float(vmin))
        return grids

    def _start_index(self, hierarchy: AmrHierarchy) -> SeriesIndex:
        cfg = self.config
        return SeriesIndex(
            version=SERIES_FORMAT_VERSION,
            codec=TemporalDeltaCodec.name,
            error_bound=cfg.error_bound,
            error_bound_mode=cfg.error_bound_mode,
            keyframe_interval=self.keyframe_interval,
            unit_block_size=cfg.unit_block_size,
            remove_redundancy=cfg.remove_redundancy,
            components=tuple(hierarchy.component_names),
            field_grids=self._field_grids(hierarchy))

    # ------------------------------------------------------------------
    def append(self, hierarchy: AmrHierarchy,
               filename: Optional[str] = None) -> WriteReport:
        """Write one step of the series; returns the step's write report."""
        cfg = self.config
        start = time.perf_counter()
        if self._finalized:
            raise ValueError(
                "this series has been finalized; reopen it with "
                "SeriesWriter(append=True) to add more steps")
        # a first step that is refused must leave no series behind: the index
        # (and its journal) become the writer's only once the step is encoded
        index = self.index or self._start_index(hierarchy)
        if tuple(hierarchy.component_names) != index.components:
            raise ValueError(
                f"hierarchy components {hierarchy.component_names} do not match "
                f"the series components {index.components}")
        step_index = index.nsteps
        force_key = step_index % self.keyframe_interval == 0
        filename = filename or f"plt{hierarchy.step:05d}.h5z"
        path = os.path.join(self.directory, filename)
        if os.path.exists(path):
            # a recovered series may hold the file a crashed commit wrote but
            # never journaled — an orphan no committed step references
            if self._recovered and all(s.path != filename for s in index.steps):
                os.unlink(path)
            else:
                raise ValueError(
                    f"series step file {path!r} already exists; every appended "
                    "hierarchy needs a distinct step counter")

        # ---- plan + pack: the staged writer's layout, unchanged ----------
        comm = writer_comm(hierarchy, self.comm)
        plan = plan_write(hierarchy, cfg, comm)
        header = build_header(
            hierarchy, method=self.method_name, codec=TemporalDeltaCodec.name,
            error_bound=cfg.error_bound, error_bound_mode=cfg.error_bound_mode,
            unit_block_size=cfg.unit_block_size,
            remove_redundancy=cfg.remove_redundancy,
            codec_options={"modify_filter": cfg.modify_filter})

        # ---- encode: temporal jobs through the backend -------------------
        dplans: List[DatasetPlan] = []
        jobs: List[TemporalEncodeJob] = []
        keys: Dict[str, tuple] = {}
        for level_plan in plan.levels:
            level = hierarchy[level_plan.level]
            for dplan in level_plan.datasets:
                keys[dplan.name] = key = _stream_key(dplan)
                grid = index.field_grids[dplan.field]
                ref_codes: Optional[List[np.ndarray]] = None
                if not force_key:
                    ref = self._ref.get(dplan.name)
                    if ref is not None and ref[0] == key:
                        ref_codes = ref[1]
                dplans.append(dplan)
                jobs.append(TemporalEncodeJob(
                    key=dplan.name, data=pack_dataset(level, dplan),
                    chunk_elements=dplan.chunk_elements,
                    actual_sizes=dplan.actual_elements, owned_sizes=dplan.layout.rank_elements,
                    eb_abs=grid.eb_abs, offset=grid.offset, ref_codes=ref_codes))
        results = comm.run_jobs(self.backend, temporal_encode_job, jobs)
        if self.index is None:
            self.index = index
            self.journal.create(index.to_json())

        # ---- commit: container file, then its journal record --------------
        records: List[LevelFieldRecord] = []
        dataset_records: List[SeriesDatasetRecord] = []
        tally = WorkloadTally(comm.size)
        next_ref: Dict[str, Tuple[tuple, List[np.ndarray]]] = {}
        with H5LiteFile(path, "w") as h5file:
            h5file.header = header.to_json()
            for dplan, result in zip(dplans, results):
                ref_index = step_index - 1 if result.mode == MODE_DELTA else None
                commit_dataset(h5file, dplan.name, dplan.layout, result.payloads,
                               TemporalDeltaFilter.filter_id,
                               {"codec": result.recipe}, dplan.actual_elements)
                comm.record_collective_write()
                record = dataset_record(dplan.level, dplan.field, result.error,
                                        result.compressed_bytes, result.filter_calls,
                                        dplan.layout.nblocks)
                records.append(record)
                dataset_records.append(SeriesDatasetRecord(
                    name=dplan.name, mode=result.mode, ref=ref_index,
                    stored_bytes=result.compressed_bytes,
                    raw_bytes=record.raw_bytes,
                    key_bytes=result.key_bytes, delta_bytes=result.delta_bytes,
                    psnr=record.psnr))
                tally.add_dataset(
                    ranks=dplan.layout.ranks,
                    per_rank_elements=dplan.layout.rank_elements,
                    chunk_elements=dplan.chunk_elements,
                    compressed_bytes=result.compressed_bytes)
                next_ref[dplan.name] = (keys[dplan.name], result.codes)
        # the rolling reference is always exactly the previous dump — stale
        # datasets (e.g. a level that vanished this step) drop out with it
        self._ref = next_ref

        kind = MODE_KEY if all(d.mode == MODE_KEY for d in dataset_records) \
            else MODE_DELTA
        record_step = SeriesStepRecord(
            index=step_index, step=int(hierarchy.step), time=float(hierarchy.time),
            path=filename, kind=kind, datasets=dataset_records)
        # durable commit order: data file first, then the journal record
        # naming it — a crash between the two leaves only an orphan file
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self.journal.append_step(record_step.to_json())
        index.steps.append(record_step)

        report = WriteReport(
            method=f"{self.method_name}({TemporalDeltaCodec.name})",
            path=path, records=records, rank_workloads=tally.workloads(),
            removed_cells=plan.removed_cells, total_cells=plan.total_cells,
            ndatasets=len(records),
            elapsed_seconds=time.perf_counter() - start,
            error_bound=cfg.error_bound,
            backend=self.backend.name,
            collectives=asdict(comm.counters))
        self.reports.append(report)
        return report
