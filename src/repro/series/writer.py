"""The series writer: staged per-step writes with a rolling temporal reference.

Each :meth:`SeriesWriter.append` reuses the staged writer's plan and pack
stages (:mod:`repro.core.stages`) so a series step's chunk layout is exactly
a plotfile's, then swaps the spatial encode stage for temporal encode jobs:

* every chunk is quantised once onto the series' fixed grid and its absolute
  codes tabled as a **key** candidate;
* a dataset whose layout fingerprint matches the previous step's — same
  boxes, same distribution, same unit blocks, i.e. no regrid touched it —
  also tables the codes' difference to the previous step's as a **delta**
  candidate, and the candidate whose Huffman tables imply the smaller stream
  is the one entropy-coded, deflated and committed (DESIGN.md §6);
* every ``keyframe_interval``-th step skips the delta candidates entirely,
  so the series always contains self-contained restart points.

Jobs are plain picklable dataclasses submitted through
:meth:`~repro.parallel.mpi_sim.SimComm.run_jobs` to any execution backend
(serial / shm), mirroring the plotfile writer — every backend
commits byte-identical series.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.amr.hierarchy import AmrHierarchy
from repro.compress.errorbound import ErrorBound
from repro.compress.temporal import MODE_DELTA, MODE_KEY, TemporalDeltaCodec, TemporalDeltaFilter
from repro.core.config import AMRICConfig
from repro.core.header import build_header, structure_fingerprint
from repro.core.pipeline import LevelFieldRecord, WriteReport, stamp_attrs, writer_comm
from repro.core.stages import DatasetPlan, dataset_record, pack_dataset, plan_write
from repro.h5lite.file import H5LiteFile
from repro.parallel.backend import ExecutionBackend, WorkloadTally, make_backend
from repro.parallel.mpi_sim import SimComm
from repro.series.index import (
    INDEX_FILENAME,
    SERIES_FORMAT_VERSION,
    FieldGrid,
    SeriesDatasetRecord,
    SeriesIndex,
    SeriesStepRecord,
)
from repro.stream.journal import JOURNAL_FILENAME, SeriesJournal, replay_journal

__all__ = [
    "SeriesWriter",
    "write_series",
    "TemporalEncodeJob",
    "TemporalEncodeResult",
    "temporal_encode_job",
    "dataset_layout_fingerprint",
]


def dataset_layout_fingerprint(dplan: DatasetPlan) -> str:
    """Digest of one dataset's chunked element stream layout.

    Delta encoding subtracts the reference stream element-by-element, so it
    is only valid when both steps packed the dataset identically: same chunk
    size, same participating ranks, same unit blocks in the same order.
    Because redundancy removal carves a level's blocks around the *next*
    level's boxes, a fine-level regrid changes the coarse level's fingerprint
    too — exactly the cases that must fall back to a keyframe.
    """
    layout = dplan.layout
    doc = {
        "chunk_elements": int(dplan.chunk_elements),
        "ranks": [
            {
                "rank": rank,
                "actual": actual,
                "blocks": [list(block) for block in zip(
                    layout.box_index[run].tolist(), layout.lo[run].tolist(),
                    layout.hi[run].tolist())],
            }
            for rank, actual, run in zip(layout.ranks, dplan.actual_elements,
                                         layout.rank_runs)
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


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
    eb_abs: float                             #: the series' fixed grid for this field
    offset: float
    #: previous step's absolute codes per chunk; None forces a keyframe
    ref_codes: Optional[List[np.ndarray]] = None
    lossless_level: int = 6


@dataclass
class TemporalEncodeResult:
    """What one temporal encode produced (travels back across the backend)."""

    _shm_fields: ClassVar[Tuple[str, ...]] = ("payloads", "codes",
                                              "reconstructions")

    key: str
    mode: str                                 #: the committed stream kind
    payloads: List[bytes]
    codes: List[np.ndarray]                   #: absolute codes (the next step's reference)
    key_bytes: int                            #: the key candidate, as its tables imply
    delta_bytes: Optional[int]                #: the delta candidate (None: not tabled)
    reconstructions: List[List[np.ndarray]]   #: per chunk, its one flat array
    filter_calls: int

    @property
    def compressed_bytes(self) -> int:
        return sum(len(p) for p in self.payloads)


def temporal_encode_job(job: TemporalEncodeJob) -> TemporalEncodeResult:
    """Encode one dataset's chunks as key or delta, whichever its tables favour.

    A module-level pure function over picklable inputs — the temporal mirror of
    :func:`repro.core.stages.encode_job` — so serial and shm produce identical bytes.
    Each chunk is quantised once and tabled under both modes; only the dataset's winner is
    entropy-coded and deflated.  Both decode to the same grid values either way.
    """
    codec = TemporalDeltaCodec(ErrorBound.absolute(job.eb_abs), offset=job.offset,
                               lossless_level=job.lossless_level)
    ce, eb = job.chunk_elements, job.eb_abs
    keys, deltas, codes_out = [], [], []
    for i, actual in enumerate(job.actual_sizes):
        chunk = job.data[i * ce:i * ce + int(actual)]
        try:
            codes = codec.quantize(chunk, eb)
        except ValueError as exc:
            raise ValueError(f"series dataset {job.key!r}: {exc}") from None
        codes_out.append(codes)
        keys.append(codec.candidate(codes, eb, shape=chunk.shape))
        if job.ref_codes is not None:
            deltas.append(codec.candidate(codes, eb, job.ref_codes[i]))
    key_bytes = sum(c.nbytes for c in keys)
    delta_bytes = sum(c.nbytes for c in deltas) if job.ref_codes is not None else None
    delta_wins = delta_bytes is not None and delta_bytes < key_bytes
    return TemporalEncodeResult(
        key=job.key, mode=MODE_DELTA if delta_wins else MODE_KEY,
        payloads=[codec.pack(c) for c in (deltas if delta_wins else keys)],
        codes=codes_out, key_bytes=key_bytes, delta_bytes=delta_bytes,
        reconstructions=[[codec.grid_values(codes, eb, job.offset)] for codes in codes_out],
        filter_calls=len(job.actual_sizes))


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

    The directory accumulates ``plt<step>.h5z`` files plus the ``series.h5z``
    manifest (rewritten atomically after every append, so an interrupted run
    leaves a readable prefix).  Each step file is itself a self-describing
    format-v1 plotfile; keyframe steps open with plain :func:`repro.open`,
    delta steps need :func:`repro.open_series` to resolve their references.

    **Append mode** (``append=True``) turns the directory into a *live*
    series.  Each step is committed through the manifest journal
    (:mod:`repro.stream.journal`): step file fsync'd first, then one fsync'd
    journal record — a crash can only lose the step being written, never a
    committed one.  Every ``compact_interval`` committed records the journal
    is folded into ``series.h5z`` (snapshot + atomic journal rewrite).
    Readers follow the run with :meth:`~repro.series.reader.SeriesHandle.refresh`;
    :meth:`finalize` (called by :meth:`close`) compacts one last time and
    drops the journal, leaving a directory byte-compatible with non-append
    series.  Reopening an existing live (crashed) or finalized directory with
    ``append=True`` resumes it: committed steps are recovered, a torn journal
    tail is truncated, and the first resumed step is a keyframe (the rolling
    delta reference does not survive a restart).
    """

    method_name = "series"

    def __init__(self, directory: str, config: Optional[AMRICConfig] = None,
                 keyframe_interval: int = 8,
                 backend: "ExecutionBackend | str | None" = None,
                 comm: Optional[SimComm] = None, append: bool = False,
                 compact_interval: Optional[int] = None, **overrides):
        config = config or AMRICConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.keyframe_interval = int(keyframe_interval)
        if self.keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        self.append_mode = bool(append)
        if compact_interval is not None and not self.append_mode:
            raise ValueError("compact_interval only applies to append=True")
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.index: Optional[SeriesIndex] = None
        self.journal: Optional[SeriesJournal] = None
        self._finalized = False
        self._aborted = False
        #: dataset name -> (layout fingerprint, absolute codes per chunk)
        self._ref: Dict[str, Tuple[str, List[np.ndarray]]] = {}
        has_manifest = os.path.exists(os.path.join(self.directory, INDEX_FILENAME))
        has_journal = os.path.exists(os.path.join(self.directory, JOURNAL_FILENAME))
        if self.append_mode:
            if has_manifest or has_journal:
                self._recover()
        else:
            if has_manifest:
                raise ValueError(
                    f"{self.directory!r} already holds a series manifest; "
                    "write each series into a fresh directory, or resume it "
                    "with append=True")
            if has_journal:
                raise ValueError(
                    f"{self.directory!r} holds a live series journal; "
                    "resume it with append=True")
        if compact_interval is None:
            compact_interval = self.keyframe_interval
        self.compact_interval = int(compact_interval)
        if self.compact_interval < 1:
            raise ValueError("compact_interval must be >= 1")
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = make_backend(backend if backend is not None else config.backend,
                                    config.backend_workers)
        self.comm = comm
        self.reports: List[WriteReport] = []

    def _recover(self) -> None:
        """Resume an append-mode series: replay the journal, truncate torn tail.

        The recovered manifest is authoritative for the series-wide knobs —
        the grids were frozen at the original step 0 and delta chains depend
        on them — so constructor arguments that disagree are overridden.
        """
        if os.path.exists(os.path.join(self.directory, JOURNAL_FILENAME)):
            journal, view = SeriesJournal.open_existing(self.directory)
            if os.path.exists(os.path.join(self.directory, INDEX_FILENAME)):
                index = SeriesIndex.load(self.directory)
            else:
                config = dict(view.config)
                config["steps"] = []
                index = SeriesIndex.from_json(config)
            replay_journal(index, view, path=journal.path)
        else:
            # a finalized series reopened for more steps: fresh generation
            index = SeriesIndex.load(self.directory)
            journal = SeriesJournal(self.directory)
            journal.create(index.to_json(), base=index.nsteps)
        self.index = index
        self.journal = journal
        self.keyframe_interval = index.keyframe_interval
        self.config = self.config.with_overrides(
            error_bound=index.error_bound,
            error_bound_mode=index.error_bound_mode,
            unit_block_size=index.unit_block_size,
            remove_redundancy=index.remove_redundancy)

    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Fold the journal into the manifest (snapshot, then fresh generation)."""
        self.index.save(self.directory)
        self.journal.rewrite(self.index.to_json(), base=self.index.nsteps)

    def finalize(self) -> None:
        """Compact everything and drop the journal (idempotent).

        After this the directory is indistinguishable from one written
        without append mode — any pre-stream reader opens it.
        """
        if not self.append_mode:
            raise ValueError("finalize() only applies to append=True writers")
        if self._finalized:
            return
        if self.index is not None:
            self.index.save(self.directory)
        if self.journal is not None:
            self.journal.remove()
        self._finalized = True

    def abort(self) -> None:
        """Stop without finalizing: the journal stays and the series stays live.

        For tests and controlled shutdowns that want the directory left
        exactly as a crash would — resumable with ``append=True`` and
        readable through :func:`repro.open_series`.
        """
        self._aborted = True
        if self.journal is not None:
            self.journal.close()
        if self._owns_backend:
            self.backend.close()

    def close(self) -> None:
        """Finalize (append mode) and release the writer-owned backend pool."""
        if self.append_mode and not self._aborted:
            self.finalize()
        if self.journal is not None:
            self.journal.close()
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "SeriesWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # on an exception, leave the journal in place: the committed prefix
        # stays live-readable and the run is resumable with append=True
        if exc_type is not None and self.append_mode:
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
        if self.append_mode and self._finalized:
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
            # an append-mode restart may find the file a crashed commit wrote
            # but never journaled — an orphan no committed step references
            if self.append_mode and all(s.path != filename for s in index.steps):
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
            codec_options={"modify_filter": True,
                           "series": {"step_index": step_index,
                                      "keyframe_interval": self.keyframe_interval}})
        fingerprint = structure_fingerprint(header)

        # ---- encode: temporal jobs through the backend -------------------
        dplans: List[DatasetPlan] = []
        packed = []
        jobs: List[TemporalEncodeJob] = []
        layouts: Dict[str, str] = {}
        for level_plan in plan.levels:
            level = hierarchy[level_plan.level]
            for dplan in level_plan.datasets:
                pack = pack_dataset(level, dplan)
                layout = dataset_layout_fingerprint(dplan)
                grid = index.field_grids[dplan.field]
                ref_codes: Optional[List[np.ndarray]] = None
                if not force_key:
                    ref = self._ref.get(dplan.name)
                    if ref is not None and ref[0] == layout:
                        ref_codes = ref[1]
                dplans.append(dplan)
                packed.append(pack)
                layouts[dplan.name] = layout
                jobs.append(TemporalEncodeJob(
                    key=dplan.name, data=pack.data,
                    chunk_elements=dplan.chunk_elements,
                    actual_sizes=dplan.actual_elements,
                    eb_abs=grid.eb_abs, offset=grid.offset,
                    ref_codes=ref_codes))
        results = comm.run_jobs(self.backend, temporal_encode_job, jobs)
        if self.index is None:
            self.index = index
            if self.append_mode:
                self.journal = SeriesJournal(self.directory)
                self.journal.create(index.to_json(), base=0)

        # ---- commit: container file + manifest ---------------------------
        records: List[LevelFieldRecord] = []
        dataset_records: List[SeriesDatasetRecord] = []
        tally = WorkloadTally(comm.size)
        next_ref: Dict[str, Tuple[str, List[np.ndarray]]] = {}
        with H5LiteFile(path, "w") as h5file:
            stamp_attrs(h5file, hierarchy, self.method_name, TemporalDeltaCodec.name,
                        cfg.error_bound)
            h5file.attrs["series_step_index"] = step_index
            h5file.header = header.to_json()
            for dplan, pack, result in zip(dplans, packed, results):
                ref_index = step_index - 1 if result.mode == MODE_DELTA else None
                h5file.create_dataset_from_chunks(
                    dplan.name, result.payloads,
                    shape=(dplan.total_elements,), dtype="float64",
                    chunk_elements=dplan.chunk_elements,
                    filter_id=TemporalDeltaFilter.filter_id,
                    actual_elements_per_chunk=dplan.actual_elements,
                    attrs={"level": dplan.level, "field": dplan.field,
                           "value_range": dplan.value_range,
                           "series_mode": result.mode,
                           "series_ref": ref_index})
                comm.record_collective_write()
                # the record covers the cells a rank owns, not a naive chunk's zero tail
                ce = dplan.chunk_elements
                record = dataset_record(
                    dplan.level, dplan.field,
                    [(pack.data[i * ce:i * ce + n], recons[0][:n]) for i, (recons, n)
                     in enumerate(zip(result.reconstructions, dplan.layout.rank_elements))],
                    result.compressed_bytes, result.filter_calls, dplan.layout.nblocks)
                records.append(record)
                dataset_records.append(SeriesDatasetRecord(
                    name=dplan.name, mode=result.mode, ref=ref_index,
                    stored_bytes=result.compressed_bytes,
                    raw_bytes=record.raw_bytes,
                    key_bytes=result.key_bytes, delta_bytes=result.delta_bytes,
                    psnr=record.psnr, layout=layouts[dplan.name]))
                tally.add_dataset(
                    ranks=dplan.layout.ranks,
                    per_rank_elements=dplan.layout.rank_elements,
                    chunk_elements=dplan.chunk_elements,
                    compressed_bytes=result.compressed_bytes)
                next_ref[dplan.name] = (layouts[dplan.name], result.codes)
        # the rolling reference is always exactly the previous dump — stale
        # datasets (e.g. a level that vanished this step) drop out with it
        self._ref = next_ref

        kind = MODE_KEY if all(d.mode == MODE_KEY for d in dataset_records) \
            else MODE_DELTA
        record_step = SeriesStepRecord(
            index=step_index, step=int(hierarchy.step), time=float(hierarchy.time),
            path=filename, kind=kind, fingerprint=fingerprint,
            datasets=dataset_records)
        index.steps.append(record_step)
        if self.append_mode:
            # durable commit order: data file first, then the journal record
            # naming it — a crash between the two leaves only an orphan file
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self.journal.append_step(record_step.to_json())
            if index.nsteps - self.journal.base >= self.compact_interval:
                self._compact()
        else:
            index.save(self.directory)

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


def write_series(hierarchies: Iterable[AmrHierarchy], directory: str, *,
                 config: Optional[AMRICConfig] = None,
                 keyframe_interval: int = 8,
                 backend: "ExecutionBackend | str | None" = None,
                 append: bool = False,
                 compact_interval: Optional[int] = None,
                 **overrides) -> List[WriteReport]:
    """Write a whole series in one call (exported as :func:`repro.write_series`).

    ``hierarchies`` is any iterable of snapshots — a list, or a generator like
    :meth:`~repro.apps.base.SyntheticAMRSimulation.run` so dumps stream
    through without holding every step in memory.  Returns the per-step
    write reports.  With ``append=True`` every step is journal-committed as
    it lands (live readers can follow the run) and the series is finalized
    on normal exit — an exception leaves the committed prefix resumable.
    """
    with SeriesWriter(directory, config=config,
                      keyframe_interval=keyframe_interval, backend=backend,
                      append=append, compact_interval=compact_interval,
                      **overrides) as writer:
        return [writer.append(h) for h in hierarchies]
