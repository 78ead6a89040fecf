"""The staged write pipeline: plan → pack → encode → commit.

``AMRICWriter.write_plotfile`` used to be one serial loop doing everything —
preprocessing, buffer fills, filter calls, file writes and per-rank
bookkeeping — which left the rank parallelism of the in situ design
unexpressed.  This module decomposes the write into four explicit stages,
each a pure function over a small dataclass:

``plan`` (:func:`plan_write`)
    Build every level's :class:`~repro.core.preprocess.LevelLayout` — the
    unit blocks redundancy removal and truncation leave (§3.1), stored one
    chunk per rank with the global chunk size from the collective max (§3.3)
    — and each field's per-chunk :class:`ChunkPlan`; produces a
    :class:`WritePlan` of :class:`DatasetPlan` entries.  The reader rebuilds
    the same layout from the plotfile header.
``pack`` (:func:`pack_dataset`)
    Fill one dataset's write buffer (field-major, per-rank chunk slices) from
    the AMR level at the layout's offsets; produces a :class:`PackedDataset`.
``encode`` (:func:`encode_job`)
    Run the AMRIC filter over one dataset's chunk sequence.  This is the
    independent work item the writer submits to an execution backend
    (:mod:`repro.parallel.backend`): datasets encode in parallel, while the
    chunks *within* a dataset are predicted together and serialised in order,
    so the shared-Huffman-table reuse across a level's ranks (unit SLE)
    produces byte-identical payloads on every backend.
``commit`` (:func:`commit_dataset` / :func:`dataset_record`)
    Append the encoded chunks to the H5Lite file and distil the quality /
    size record the :class:`~repro.core.pipeline.WriteReport` aggregates —
    the one commit of every field-major writer (AMRIC, series, ``nocomp``)
    and the one record function every writer, baselines included, measures
    with.

Everything that crosses a backend boundary (:class:`EncodeJob`,
:class:`EncodeResult`) is a plain picklable dataclass, so it runs in the shm
backend's worker processes as well as inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.hierarchy import AmrHierarchy, AmrLevel
from repro.compress.metrics import psnr_from_mse
from repro.core.config import AMRICConfig
from repro.core.filter_mod import AMRICLevelFilter, ChunkPlan, chunk_plan
from repro.core.header import header_from_config
from repro.core.preprocess import LevelLayout, hierarchy_layouts
from repro.h5lite.file import DatasetInfo, H5LiteFile

__all__ = [
    "DatasetPlan",
    "LevelPlan",
    "WritePlan",
    "plan_write",
    "PackedDataset",
    "pack_dataset",
    "EncodeJob",
    "EncodeResult",
    "make_encode_job",
    "encode_job",
    "commit_header",
    "commit_dataset",
    "dataset_record",
]


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
@dataclass
class DatasetPlan:
    """The write layout of one ``level_<l>/<field>`` dataset: its level's
    :class:`~repro.core.preprocess.LevelLayout` (one chunk per participating
    rank) and what the filter is told about each chunk."""

    level: int
    field: str
    name: str
    layout: LevelLayout                #: shared by every dataset of the level
    chunk_plans: List[ChunkPlan]       #: per chunk, its unit blocks for the filter

    @property
    def actual_elements(self) -> List[int]:
        """Per chunk, the cells its plan names (the chunk size when naive)."""
        return [plan.nelements for plan in self.chunk_plans]

    @property
    def chunk_elements(self) -> int:
        return self.layout.chunk_elements

    @property
    def total_elements(self) -> int:
        return len(self.layout.ranks) * self.chunk_elements


@dataclass
class LevelPlan:
    """One AMR level's layout and its datasets (none when no block survived)."""

    level: int
    layout: LevelLayout
    datasets: List[DatasetPlan] = field(default_factory=list)


@dataclass
class WritePlan:
    """Everything the pack/encode/commit stages need, decided up front."""

    levels: List[LevelPlan]

    @property
    def datasets(self) -> List[DatasetPlan]:
        return [d for lvl in self.levels for d in lvl.datasets]

    @property
    def removed_cells(self) -> int:
        return sum(lvl.layout.removed_cells for lvl in self.levels)

    @property
    def total_cells(self) -> int:
        return sum(lvl.layout.total_cells for lvl in self.levels)


def plan_write(hierarchy: AmrHierarchy, config: AMRICConfig,
               comm=None) -> WritePlan:
    """Stage 1: lay out every level and plan every dataset's chunks.

    ``comm`` (a :class:`~repro.parallel.mpi_sim.SimComm`) is charged one
    allreduce per level/field for the global chunk size — the collective the
    real writer performs so all ranks agree on the shared dataset's chunking.
    """
    levels: List[LevelPlan] = []
    for level_index, (level, layout) in enumerate(zip(
            hierarchy.levels, hierarchy_layouts(hierarchy, config.unit_block_size,
                                                config.remove_redundancy))):
        level_plan = LevelPlan(level=level_index, layout=layout)
        levels.append(level_plan)
        if not layout.nblocks:
            continue
        padded = not config.modify_filter
        for name in hierarchy.component_names:
            value_range = max(level.multifab.value_range(name), 0.0)
            # the global chunk size is the collective max of the per-rank
            # contributions (one allreduce per shared dataset)
            if comm is not None:
                sizes = [0] * comm.size
                for rank, nelem in zip(layout.ranks, layout.rank_elements):
                    sizes[rank] = nelem
                comm.allreduce(sizes, op=max)
            # naive large chunks: the padding tail is real work (a pseudo block)
            level_plan.datasets.append(DatasetPlan(
                level=level_index, field=name, name=f"level_{level_index}/{name}",
                layout=layout, chunk_plans=[chunk_plan(layout, chunk, padded, name, value_range)
                                            for chunk in range(len(layout.ranks))]))
    return WritePlan(levels=levels)


# ----------------------------------------------------------------------
# pack
# ----------------------------------------------------------------------
@dataclass
class PackedDataset:
    """One dataset's filled write buffer plus the originals for quality checks."""

    plan: DatasetPlan
    data: np.ndarray                       #: the whole dataset, chunk per rank
    originals: List[List[np.ndarray]]      #: per rank, per block (for PSNR)


def pack_dataset(level: AmrLevel, dplan: DatasetPlan) -> PackedDataset:
    """Stage 2: copy every block to its layout offset in one zero-padded buffer."""
    layout = dplan.layout
    views = layout.views(level, dplan.field)
    data = np.zeros(dplan.total_elements, dtype=np.float64)
    for view, offset in zip(views, layout.rank_offsets.tolist()):
        data[offset:offset + view.size].reshape(view.shape)[...] = view
    return PackedDataset(plan=dplan, data=data,
                         originals=[views[run] for run in layout.rank_runs])


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
@dataclass
class EncodeJob:
    """One dataset's encode work: its chunk sequence, in write order.

    The job is the unit of backend parallelism.  Chunks within a job are
    predicted together and serialised in order, because unit SLE carries one
    shared Huffman table across a level's ranks — splitting them would change
    the bytes.
    """

    #: bulk fields the shm backend ships as shared-memory descriptors
    #: instead of pickling (see :mod:`repro.parallel.shm`)
    _shm_fields: ClassVar[Tuple[str, ...]] = ("data",)

    key: str                               #: dataset name (stable identifier)
    data: np.ndarray                       #: the packed dataset buffer
    chunk_elements: int
    plans: List[ChunkPlan]                 #: per chunk, the cells it holds
    config: AMRICConfig                    #: the filter's settings (frozen)


@dataclass
class EncodeResult:
    """What one encode job produced (travels back across the backend)."""

    _shm_fields: ClassVar[Tuple[str, ...]] = ("payloads", "reconstructions")

    key: str
    payloads: List[bytes]
    reconstructions: List[List[np.ndarray]]
    filter_calls: int
    recipe: dict                           #: the codec recipe the dataset stores once

    @property
    def compressed_bytes(self) -> int:
        return sum(len(p) for p in self.payloads)


def make_encode_job(packed: PackedDataset, config: AMRICConfig) -> EncodeJob:
    return EncodeJob(
        key=packed.plan.name, data=packed.data,
        chunk_elements=packed.plan.chunk_elements, plans=packed.plan.chunk_plans,
        config=config)


def encode_job(job: EncodeJob) -> EncodeResult:
    """Stage 3: run the AMRIC filter over one dataset's chunks, in one
    :meth:`~repro.core.filter_mod.AMRICLevelFilter.encode` call: the chunks
    are predicted together and serialised in order.

    A module-level pure function over picklable inputs, so every execution
    backend (inline, shm pool) runs the identical code and produces
    identical bytes.
    """
    ce = job.chunk_elements
    payloads, reconstructions, recipe = AMRICLevelFilter(job.config).encode(
        [job.data[i * ce:(i + 1) * ce] for i in range(len(job.plans))], job.plans)
    return EncodeResult(key=job.key, payloads=payloads, reconstructions=reconstructions,
                        filter_calls=len(payloads), recipe=recipe)


# ----------------------------------------------------------------------
# commit
# ----------------------------------------------------------------------
def commit_header(h5file: Optional[H5LiteFile], hierarchy: AmrHierarchy,
                  config: AMRICConfig, method: str = "amric") -> None:
    """Stage 4 preamble: make the plotfile self-describing.

    Serialises the hierarchy structure (boxes, ratios, distribution, fields)
    plus the codec name/options into the container's versioned header section
    so :func:`repro.open` can reconstruct the read plan from the file alone
    (:mod:`repro.core.header`).  A no-op for in-memory writes.
    """
    if h5file is None:
        return
    h5file.header = header_from_config(hierarchy, config, method=method).to_json()


def commit_dataset(h5file: Optional[H5LiteFile], name: str, layout: LevelLayout,
                   payloads: Sequence[bytes], filter_id: str,
                   attrs: Optional[dict] = None,
                   actual_elements: Optional[Sequence[int]] = None) -> Optional[DatasetInfo]:
    """Stage 4a: append one dataset's encoded chunks, one per participating
    rank, to the container file under the layout's chunking — the commit
    of every field-major writer (AMRIC, series step, ``nocomp``), each
    naming its filter and the attrs its chunks decode under.  Each chunk
    records ``actual_elements`` (a :class:`DatasetPlan`'s; default: its
    rank's cell count)."""
    if h5file is None:
        return None
    return h5file.create_dataset_from_chunks(
        name, payloads,
        shape=(len(layout.ranks) * layout.chunk_elements,), dtype="float64",
        chunk_elements=layout.chunk_elements, filter_id=filter_id,
        actual_elements_per_chunk=list(actual_elements or layout.rank_elements),
        attrs=attrs)


def dataset_record(level: int, field: str,
                   pairs: Iterable[Tuple[np.ndarray, np.ndarray]],
                   compressed_bytes: int, filter_calls: int, nblocks: int):
    """Stage 4b: one dataset's quality/size record.

    Every writer measures its datasets here: ``pairs`` are the dataset's
    ``(original, reconstruction)`` pieces in write order (a raw writer passes
    each buffer as its own reconstruction), and the squared errors are summed
    in that order.
    """
    from repro.core.pipeline import LevelFieldRecord

    sq_err = 0.0
    max_err = 0.0
    n_elems = 0
    gmin, gmax = np.inf, -np.inf
    for orig, rec in pairs:
        diff = orig - rec
        sq_err += float(np.sum(diff * diff))
        max_err = max(max_err, float(np.max(np.abs(diff))))
        n_elems += orig.size
        gmin = min(gmin, float(orig.min()))
        gmax = max(gmax, float(orig.max()))
    return LevelFieldRecord(
        level=level, field=field, raw_bytes=n_elems * 8,
        compressed_bytes=compressed_bytes,
        psnr=psnr_from_mse(sq_err / max(n_elems, 1), gmax - gmin),
        max_error=max_err, filter_calls=filter_calls, nblocks=nblocks,
        sq_error=sq_err, n_elements=n_elems, value_min=gmin, value_max=gmax)
