"""The staged read pipeline: scan → decode → place → refill.

The read side mirrors the writer's staged decomposition
(:mod:`repro.core.stages`) instead of the old serial monolith:

``scan`` (:func:`scan_plotfile`)
    Rebuild every level's :class:`~repro.core.preprocess.LevelLayout` — which
    unit blocks exist, where, and at which element offsets of the level's
    ``level_<l>/<field>`` datasets — from the plotfile's self-describing
    header (:mod:`repro.core.header`), as int arrays: the same record the
    writer laid the datasets out by, one per level, shared by the level's
    fields.  A file without a header is rejected.  Produces a
    :class:`ReadPlan` of :class:`DatasetReadPlan` entries.
``decode`` (:func:`decode_job`)
    Decode the wanted unit blocks of one dataset's chunk payloads, handed to
    the filter together (:meth:`~repro.h5lite.filters.Filter.decode_blocks`) so
    AMRIC's level filter runs one Huffman lane pass per job instead of one per
    chunk — over the wanted blocks' streams only.  An AMRIC chunk is a lean
    record (format v2): it is decoded under the dataset's stored codec recipe
    against the blocks the layout puts in its chunk (a
    :class:`~repro.core.filter_mod.ChunkPlan`).  A :class:`DecodeJob` is a
    plain picklable dataclass (raw bytes, the stored filter id, recipe and
    plans), so per-dataset decode jobs run through any
    :class:`~repro.parallel.backend.ExecutionBackend` with bit-identical
    results.
``place`` (:func:`place_dataset`)
    Scatter the decoded blocks into the hierarchy :func:`PlotfileHandle.read`
    rebuilds from the header, at the slices the layout precomputes once per
    level.
``refill`` (:func:`~repro.amr.upsample.fill_covered_from_finer`)
    Restore the redundant coarse cells dropped before compression by
    conservatively averaging the reconstructed finer level down — the shared
    stencil in :mod:`repro.amr.upsample`, not a private copy.

:class:`PlotfileHandle` (returned by :func:`repro.open`) runs the stages.
Every consumer — the full :meth:`~PlotfileHandle.read`, the lazy
``read_field(name, level=..., box=...)``, the query engine's batches, a series
step — obtains decoded data through one door (:meth:`PlotfileHandle._blocks`),
in two units.  The **chunk payload is the unit of I/O**: it is fetched whole
(its deflated sections do not inflate in part).  The **unit block is the unit
of decode and of cache**: the paper's unit SLE gives every block its own
byte-aligned Huffman stream under the chunk's shared table and confines
prediction to the block, so a box read entropy-decodes and reconstructs only
the blocks it meets — one cache lookup per block, one decode batch for the
misses.  A filter that cannot decode a block alone (SZ_Interp's packed
arrangement, the flat baselines, a series' code streams) decodes the chunk and
every block of it is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, ClassVar, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.amr.box import Box
from repro.amr.hierarchy import AmrHierarchy
from repro.amr.upsample import average_down, fill_covered_from_finer
from repro.core.filter_mod import AMRICLevelFilter, ChunkPlan, chunk_plan
from repro.core.header import CHUNK_ALIGNMENT_RANK, PlotfileHeader, template_from_header
from repro.core.preprocess import LevelLayout, level_layouts
from repro.h5lite.file import DatasetInfo, H5LiteFile
from repro.h5lite.filters import Filter, NoCompressionFilter
from repro.parallel.backend import ExecutionBackend, as_backend
from repro.errors import CorruptFileError
from repro.parallel.mpi_sim import SimComm

__all__ = [
    "PlotfileHandle",
    "ReadStats",
    "DatasetReadPlan",
    "ReadPlan",
    "scan_plotfile",
    "parse_plotfile_header",
    "DecodeJob",
    "DecodeResult",
    "make_decode_job",
    "decode_job",
    "place_dataset",
]


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------
@dataclass(eq=False)
class DatasetReadPlan:
    """The decode/placement layout of one ``level_<l>/<field>`` dataset.

    Compared and hashed by identity: a plan's datasets key the block requests
    and answers of :meth:`PlotfileHandle._blocks`.  Slot ``i`` is block ``i``
    of the level's :class:`~repro.core.preprocess.LevelLayout`, at element
    ``layout.rank_offsets[i]`` of the dataset: chunk ``j`` holds the run of
    slots ``layout.rank_runs[j]``, and slot ``i`` is its block of *ordinal*
    ``i - layout.rank_runs[j].start``.
    """

    level: int
    field: str
    name: str
    chunk_elements: int
    nchunks: int
    filter_id: str
    layout: LevelLayout                       #: shared by every dataset of the level
    #: per chunk, the element count its record names (``actual_elements``)
    stored: Tuple[int, ...]
    #: what an AMRIC dataset's records decode under (its ``codec`` attribute)
    recipe: Optional[dict] = None
    padded: bool = False                      #: naive chunks: encoded with their tail

    def chunk_layout(self, chunk: int) -> List[Tuple[int, int]]:
        """``(offset in the chunk, size)`` of every block chunk ``chunk`` holds,
        in stored (= ordinal) order."""
        run = self.layout.rank_runs[chunk]
        offsets = self.layout.rank_offsets[run] - chunk * self.chunk_elements
        return list(zip(offsets.tolist(), self.layout.sizes[run].tolist()))

    def pieces_of(self, slot_indices: Iterable[int]) -> Dict[int, List[int]]:
        """``{chunk: ordinals}`` of the given slots (ascending): the payloads
        to fetch and what to decode of each."""
        chunk_of, runs = self.layout.chunk_of, self.layout.rank_runs
        wanted: Dict[int, List[int]] = {}
        for index in slot_indices:
            chunk = chunk_of[index]
            wanted.setdefault(chunk, []).append(index - runs[chunk].start)
        return wanted


@dataclass
class ReadPlan:
    """Everything the decode/place/refill stages need, decided up front."""

    header: PlotfileHeader
    layouts: List[LevelLayout]                #: per level, coarse to fine
    datasets: List[DatasetReadPlan]

    def __post_init__(self) -> None:
        self._by_key = {(d.level, d.field): d for d in self.datasets}

    @property
    def nranks(self) -> int:
        return max(lvl.nranks for lvl in self.header.levels)

    def dataset(self, level: int, fieldname: str) -> Optional[DatasetReadPlan]:
        return self._by_key.get((level, fieldname))


def parse_plotfile_header(f: H5LiteFile) -> PlotfileHeader:
    """The file's validated self-description; a file without one is rejected."""
    if f.header is None:
        raise CorruptFileError(
            f"{f.path} has no self-describing header (written before the "
            "plotfile format v1)")
    return PlotfileHeader.from_json(f.header)


def _check_rank_aligned(path: str, dsname: str, info: DatasetInfo, layout: LevelLayout,
                        strict_actual: bool) -> None:
    """A field-major dataset must hold one chunk per participating rank, of
    the largest rank's size, each recording that rank's cell count."""
    if (info.nchunks, info.chunk_elements) != (len(layout.ranks), layout.chunk_elements):
        raise ValueError(
            f"{path}: dataset {dsname!r} stores {info.nchunks} chunks of "
            f"{info.chunk_elements} elements but the structure implies "
            f"{len(layout.ranks)} participating ranks, the largest holding "
            f"{layout.chunk_elements} — header does not match this file")
    # with the modified filter each chunk records the rank's real element
    # count; a disagreement means the structure does not describe this file
    # (naive mode records the padded chunk size instead, which carries no signal)
    for i, (chunk, valid) in enumerate(zip(info.chunks, layout.rank_elements)):
        stored = chunk.actual_elements
        if strict_actual and stored != info.chunk_elements and stored != valid:
            raise ValueError(
                f"{path}: chunk {i} of {dsname!r} stores {stored} valid elements "
                f"but the structure implies {valid} — header does not match this file")


def scan_plotfile(f: H5LiteFile, header: Optional[PlotfileHeader] = None,
                  layouts_of: Optional[Callable[[PlotfileHeader], List[LevelLayout]]] = None,
                  ) -> ReadPlan:
    """Stage 1: the read plan, from the plotfile's header alone.

    ``header`` is the file's own, already parsed (default: parse it).  Every
    level's :class:`~repro.core.preprocess.LevelLayout` is rebuilt from the
    header's boxes, ranks and ratios — the same record the writer laid the
    datasets out by — or, given ``layouts_of``, taken from it for that header
    (a series shares one set per geometry).  Each stored dataset is checked
    against them either way.
    """
    header = header or parse_plotfile_header(f)
    if header.chunk_alignment != CHUNK_ALIGNMENT_RANK:
        raise ValueError(
            f"{f.path} stores box-major interleaved level data "
            f"(method {header.method!r}); the staged reader only "
            "reconstructs field-major plotfiles — use `repro info` for "
            "its metadata")
    layouts = layouts_of(header) if layouts_of else level_layouts(*header.geometry)
    strict_actual = bool(header.codec_options.get("modify_filter", True))

    datasets: List[DatasetReadPlan] = []
    for level_index, layout in enumerate(layouts):
        if not layout.nblocks:
            continue
        for name in header.components:
            dsname = f"level_{level_index}/{name}"
            if dsname not in f:
                raise ValueError(
                    f"{f.path}: the header lists unit blocks for {dsname!r} "
                    "but the file stores no such dataset (an interrupted "
                    "write?)")
            info = f.datasets[dsname]
            _check_rank_aligned(f.path, dsname, info, layout, strict_actual)
            datasets.append(DatasetReadPlan(
                level=level_index, field=name, name=dsname,
                chunk_elements=info.chunk_elements, nchunks=info.nchunks,
                filter_id=info.filter_id, layout=layout,
                stored=tuple(chunk.actual_elements for chunk in info.chunks),
                recipe=info.attrs.get("codec", {})
                if info.filter_id == AMRICLevelFilter.filter_id else None,
                padded=not strict_actual))
    return ReadPlan(header=header, layouts=layouts, datasets=datasets)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
@dataclass
class DecodeJob:
    """One dataset's decode work: raw chunk payloads, what is wanted of each,
    and the stored filter id.

    The payloads cross the shm pool boundary as shared-memory descriptors,
    the rest pickles (ints, strings); decoding is deterministic, so every
    backend produces identical arrays.
    """

    #: bulk fields the shm backend ships as shared-memory descriptors
    _shm_fields: ClassVar[Tuple[str, ...]] = ("payloads",)

    key: str                               #: dataset name (stable identifier)
    payloads: List[bytes]
    chunk_indices: List[int]
    #: per payload, where each of its blocks sits (:meth:`DatasetReadPlan.chunk_layout`)
    layouts: List[List[Tuple[int, int]]]
    #: per payload, the ordinals of the blocks to decode (ascending)
    wanted: List[List[int]]
    #: per payload, the element count its chunk record names
    stored: List[int]
    chunk_elements: int
    filter_id: str
    #: an AMRIC dataset's recipe, and per payload the blocks its record holds
    recipe: Optional[dict] = None
    plans: Optional[List[ChunkPlan]] = None


@dataclass
class DecodeResult:
    """What one decode job produced (travels back across the backend)."""

    _shm_fields: ClassVar[Tuple[str, ...]] = ("blocks",)

    pieces: List[Tuple[int, int]]          #: (chunk, ordinal) of each of ``blocks``
    blocks: List[np.ndarray]


def _decode_filter(filter_id: str, recipe: Optional[dict] = None) -> Filter:
    """Filter instance for one stored ``filter_id`` (decode direction only):
    the ids a field-major plotfile or series step carries.  An AMRIC
    dataset's chunks decode under its ``recipe``; the others' payloads are
    self-describing."""
    if filter_id == AMRICLevelFilter.filter_id:
        return AMRICLevelFilter.reading(recipe or {})
    if filter_id == NoCompressionFilter.filter_id:
        return NoCompressionFilter()
    if filter_id == "temporal_delta":
        # series keyframe chunks are self-contained (payload carries its own
        # grid); delta chunks raise from decode with a pointer at open_series
        from repro.compress.temporal import TemporalDeltaFilter

        return TemporalDeltaFilter()
    raise ValueError(f"cannot decode chunks written with unknown filter {filter_id!r}")


def make_decode_job(f: H5LiteFile, dplan: DatasetReadPlan,
                    wanted: Mapping[int, Sequence[int]]) -> DecodeJob:
    """Pull the raw chunk payloads that hold the wanted blocks of one dataset
    (``{chunk: ordinals}``, see :meth:`DatasetReadPlan.pieces_of`) into a job."""
    indices = list(wanted)
    # one batched (coalescing) source read instead of N seek+read round-trips;
    # a payload is fetched whole whatever is wanted of it (its deflated
    # sections do not inflate in part)
    payloads = f.read_chunk_payloads(dplan.name, indices)
    return DecodeJob(key=dplan.name, payloads=payloads, chunk_indices=indices,
                     layouts=[dplan.chunk_layout(index) for index in indices],
                     wanted=[list(wanted[index]) for index in indices],
                     stored=[dplan.stored[index] for index in indices],
                     chunk_elements=dplan.chunk_elements, filter_id=dplan.filter_id,
                     recipe=dplan.recipe, plans=None if dplan.recipe is None else
                     [chunk_plan(dplan.layout, index, dplan.padded) for index in indices])


def decode_job(job: DecodeJob) -> DecodeResult:
    """Stage 2: decode the wanted blocks of one dataset's chunks.

    A module-level pure function over picklable inputs — the read-side mirror
    of :func:`repro.core.stages.encode_job` — so the serial and shm backends
    run identical code on identical bytes.  A damaged chunk is a
    :class:`~repro.errors.CorruptFileError` naming the dataset and chunks.
    """
    # one call per job: a filter whose chunks can share a decode cost (AMRIC's
    # level filter: one Huffman lane pass for the job) gets them together
    filt = _decode_filter(job.filter_id, job.recipe)
    try:
        answers = filt.decode_blocks(job.payloads, job.chunk_elements,
                                     job.layouts, job.wanted, job.plans, job.stored)
    except ValueError as exc:
        kind = CorruptFileError if isinstance(exc, CorruptFileError) else ValueError
        raise kind(f"{job.key}, chunks {job.chunk_indices}: {exc}") from exc
    return DecodeResult(
        pieces=[(chunk, ordinal) for chunk, answer in zip(job.chunk_indices, answers)
                for ordinal in answer],
        blocks=[np.asarray(block, dtype=np.float64)
                for answer in answers for block in answer.values()])


def _split_indices(indices: Sequence[int], nparts: int) -> List[List[int]]:
    """Partition chunk indices into at most ``nparts`` contiguous batches.

    Chunk decodes within one dataset are independent, so the split changes
    nothing but wall-clock on a pooled backend.
    """
    per = -(-len(indices) // min(nparts, len(indices)))   # ceil division
    return [list(indices[i:i + per]) for i in range(0, len(indices), per)]


# ----------------------------------------------------------------------
# place
# ----------------------------------------------------------------------
def place_dataset(structure: AmrHierarchy, dplan: DatasetReadPlan,
                  blocks: Mapping[int, np.ndarray]) -> None:
    """Stage 3: scatter one dataset's decoded blocks (by slot) into the hierarchy."""
    level = structure[dplan.level]
    comp = level.multifab.component_index(dplan.field)
    fabs = level.multifab.fabs
    shapes = dplan.layout.shapes
    for index, (box, where) in enumerate(dplan.layout.placements):
        fabs[box].data[comp][where] = blocks[index].reshape(shapes[index])


# ----------------------------------------------------------------------
# accounting and planned box reads
# ----------------------------------------------------------------------
@dataclass
class ReadStats:
    """Decode accounting for one handle (shared by a series' step handles).

    Counted once, in :meth:`PlotfileHandle._blocks` and the miss producer
    under it.  Bytes and requests are counted where they happen, by the byte
    source: see :attr:`PlotfileHandle.source_stats`.
    """

    #: chunk payloads entropy-decoded, in whole or in part (a series: streams)
    chunks_decoded: int = 0
    blocks_decoded: int = 0     #: unit blocks reconstructed from them
    cache_hits: int = 0         #: blocks (a series: also code streams) a cache held
    datasets_decoded: int = 0   #: datasets with at least one miss, per request

    def reset(self) -> None:
        self.__init__()


class _BoxRead(NamedTuple):
    """One planned box read of one field: where its cells will come from."""

    query: Box
    dplan: Optional[DatasetReadPlan]
    #: (slot, slices in the answer, slices in the block) of the blocks it meets
    hits: List[Tuple[int, Tuple[slice, ...], Tuple[slice, ...]]]
    #: (covered coarse region, the finer read averaged down into it)
    finer: List[Tuple[Box, "_BoxRead"]]
    ratio: int                                #: refinement ratio to ``finer``


# ----------------------------------------------------------------------
# the lazy handle behind repro.open
# ----------------------------------------------------------------------
class PlotfileHandle:
    """An open plotfile: inspect cheaply, decode lazily, read fully.

    The handle parses the self-describing header (a file without one is
    rejected with :class:`ValueError`) but decodes nothing until asked:

    * :attr:`fields`, :attr:`levels`, :attr:`codec`, :meth:`describe` —
      metadata only, no chunk is touched;
    * :meth:`read_field` — decodes exactly the unit blocks that intersect
      the requested box (cached per block; see :attr:`stats`);
    * :meth:`read` — the full staged scan/decode/place/refill pipeline.

    Every decode job runs on the ``backend`` the handle was opened with: the
    caller's instance, never closed here (None decodes inline).

    Decoded blocks live in a :class:`~repro.service.cache.ChunkCache` under
    ``(path, dataset, slot)`` keys: the caller's shared one (``cache``), else
    a private one of the default byte budget.
    """

    def __init__(self, path: str, backend: Optional[ExecutionBackend] = None,
                 cache=None, source=None):
        # deferred so a bare ``import repro`` loads nothing of repro.service
        from repro.service.cache import ChunkCache

        self._backend = as_backend(backend)
        self._file = H5LiteFile(path, "r", source=source)
        try:
            self.header = parse_plotfile_header(self._file)
        except ValueError:
            self._file.close()
            raise
        self._plan: Optional[ReadPlan] = None
        self._cache = cache if cache is not None else ChunkCache()
        self.stats = ReadStats()
        self._closed = False

    @property
    def source_stats(self):
        """The byte source's :class:`~repro.h5lite.source.SourceStats`: every
        byte and request this file cost, the superblock loads included."""
        return self._file.source.stats

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True

    def __enter__(self) -> "PlotfileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlotfileHandle({self.path!r})"

    # -- metadata (no decoding) ----------------------------------------
    @property
    def path(self) -> str:
        return self._file.path

    @property
    def fields(self) -> Tuple[str, ...]:
        """Component names stored in the plotfile."""
        return tuple(self.header.components)

    @property
    def levels(self) -> Tuple[int, ...]:
        """Level indices present in the plotfile (coarse → fine)."""
        return tuple(lvl.level for lvl in self.header.levels)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def codec(self) -> str:
        return self.header.codec

    @property
    def error_bound(self) -> float:
        return self.header.error_bound

    def dataset_names(self) -> List[str]:
        return self._file.dataset_names()

    def dataset_info(self, name: str):
        """The stored :class:`~repro.h5lite.file.DatasetInfo` for one dataset."""
        if name not in self._file.datasets:
            raise KeyError(
                f"no dataset named {name!r}; have {self.dataset_names()}")
        return self._file.datasets[name]

    def describe(self) -> Dict[str, object]:
        """A flat metadata summary (what ``python -m repro info`` prints)."""
        stored = self._file.total_stored_bytes()
        # what the chunks record as data, as the per-dataset rows count it
        logical = sum(d.valid_elements * np.dtype(d.dtype).itemsize
                      for d in self._file.datasets.values())
        return {
            "path": self.path,
            # constant since header-less files are rejected at open; kept so
            # `repro info` and the wire describe op answer key for key
            "self_describing": True,
            "format_version": self.header.version,
            "method": self.header.method,
            "codec": self.codec,
            "error_bound": self.error_bound,
            "fields": list(self.fields),
            "levels": list(self.levels),
            "datasets": len(self._file.datasets),
            "stored_bytes": stored,
            "logical_bytes": logical,
            "compression_ratio": logical / max(stored, 1),
            "time": self.header.time,
            "step": self.header.step,
            "unit_block_size": self.header.unit_block_size,
            "remove_redundancy": self.header.remove_redundancy,
            "boxes_per_level": [lvl.nboxes for lvl in self.header.levels],
        }

    # -- scanning -------------------------------------------------------
    def _scan(self) -> ReadPlan:
        """The header-based read plan (cached; used by lazy random access)."""
        if self._plan is None:
            self._plan = scan_plotfile(self._file)
        return self._plan

    # -- the block door -------------------------------------------------
    def _blocks(self, needed: Mapping[DatasetReadPlan, Iterable[int]],
                comm: Optional[SimComm] = None, store: bool = True,
                ) -> Dict[DatasetReadPlan, Dict[int, np.ndarray]]:
        """The one door to decoded unit blocks: ``{dataset: {slot: block}}``.

        Each needed block is looked up once in the handle's cache; the misses
        are grouped by the chunk payload that holds them and decoded
        (:meth:`_decode_missing`, one batch) — they alone where the filter can
        decode a block without its chunk, else the chunk's blocks, all kept.
        Unless ``store`` is off (the full read's rule: it would only flush
        what random access keeps warm) every decoded block is stored, as an
        array that owns its memory so the byte budget counts what is held.
        The caller holds the answer, so a block the cache evicts or rejects
        meanwhile costs a later request time, never this one its data.
        """
        out, pending = self._lookup(needed)
        if pending:
            self._fill(out, self._decode_missing(pending, comm), store)
        return out

    def _lookup(self, needed: Mapping[DatasetReadPlan, Iterable[int]]
                ) -> Tuple[Dict[DatasetReadPlan, Dict[int, np.ndarray]],
                           Dict[DatasetReadPlan, Dict[int, List[int]]]]:
        """The cache half of :meth:`_blocks`: the blocks the cache holds, and
        the misses as ``{dataset: {chunk: ordinals}}`` (counted as datasets
        decoded)."""
        path = self.path
        out: Dict[DatasetReadPlan, Dict[int, np.ndarray]] = {}
        pending: Dict[DatasetReadPlan, Dict[int, List[int]]] = {}
        for dplan, slots in needed.items():
            have = out[dplan] = {}
            missing = []
            for slot in sorted(slots):
                block = self._cache.get((path, dplan.name, slot))
                if block is None:
                    missing.append(slot)
                else:
                    have[slot] = block
            self.stats.cache_hits += len(have)
            if missing:
                pending[dplan] = dplan.pieces_of(missing)
        self.stats.datasets_decoded += len(pending)
        return out, pending

    def _fill(self, out: Dict[DatasetReadPlan, Dict[int, np.ndarray]],
              decoded: Iterable[Tuple[DatasetReadPlan, int, int, np.ndarray]],
              store: bool = True) -> None:
        """The decode half of :meth:`_blocks`: the ``(dataset, chunk, ordinal,
        block)`` of the misses, into ``out`` (and the cache)."""
        path = self.path
        for dplan, chunk, ordinal, block in decoded:
            slot = dplan.layout.rank_runs[chunk].start + ordinal
            shape = dplan.layout.shapes[slot]
            if block.shape != (dplan.layout.sizes[slot],) and block.shape != shape:
                raise ValueError(
                    f"{path}: block {ordinal} of chunk {chunk} of {dplan.name!r} decoded "
                    f"to shape {block.shape}, its unit block is {shape}")
            out[dplan][slot] = block
            self.stats.blocks_decoded += 1
            if store:
                self._cache.put((path, dplan.name, slot),
                                block if block.base is None else block.copy())

    def _decode_missing(self, pending: Mapping[DatasetReadPlan, Mapping[int, List[int]]],
                        comm: Optional[SimComm],
                        ) -> Iterator[Tuple[DatasetReadPlan, int, int, np.ndarray]]:
        """Decode the blocks no cache held, given per dataset as ``{chunk:
        ordinals}``: yields ``(dataset, chunk, ordinal, block)`` for at least
        those (chunks ascending within a dataset).

        One decode job per dataset — cut into per-worker jobs while the batch
        has fewer datasets than the handle's backend has workers — submitted
        through ``comm`` (:meth:`~repro.parallel.mpi_sim.SimComm.run_jobs`) as
        one batch with one barrier, mirroring the writer's encode stage.  Jobs
        are pure functions of the stored bytes, so every backend and every
        split yields identical blocks.
        """
        plan = self._scan()
        width = self._backend.parallel_width()
        nparts = -(-width // len(pending))
        jobs = [(dplan, make_decode_job(self._file, dplan,
                                        {chunk: wanted[chunk] for chunk in part}))
                for dplan, wanted in pending.items()
                for part in _split_indices(list(wanted), nparts)]
        comm = comm if comm is not None else SimComm(plan.nranks)
        results = comm.run_jobs(self._backend, decode_job, [job for _, job in jobs])
        for (dplan, job), result in zip(jobs, results):
            self.stats.chunks_decoded += len(job.chunk_indices)
            for (chunk, ordinal), block in zip(result.pieces, result.blocks):
                yield dplan, chunk, ordinal, block

    # -- lazy random access --------------------------------------------
    def _plan_box(self, name: str, level: int, box: Optional[Box],
                  refill: bool, max_level: Optional[int],
                  needed: Dict[DatasetReadPlan, set]) -> _BoxRead:
        """Plan one :meth:`read_field` request without decoding anything.

        Adds every unit block (slot) the read meets — at ``level`` and, for
        refill, in the finer levels under it — to ``needed``, so one trip
        through :meth:`_blocks` serves the whole request (or a whole batch of
        them sharing ``needed``).
        """
        plan = self._scan()
        header = plan.header
        if not 0 <= level < header.nlevels:
            raise ValueError(
                f"level {level} out of range; plotfile has levels "
                f"0..{header.nlevels - 1}")
        if max_level is not None and level > max_level:
            raise ValueError(
                f"level {level} is finer than max_level {max_level}; a "
                "progressive read cannot return data above its cap")
        if name not in header.components:
            raise KeyError(
                f"unknown field {name!r}; plotfile has {header.components}")
        finest = level                      # the finest level refill reads
        if refill and header.remove_redundancy:
            finest = header.nlevels - 1 if max_level is None \
                else min(max_level, header.nlevels - 1)
        return self._plan_level(
            plan, name, level, header.levels[level].domain() if box is None else box,
            finest, needed)

    def _plan_level(self, plan: ReadPlan, name: str, level: int, query: Box,
                    finest: int, needed: Dict[DatasetReadPlan, set]) -> _BoxRead:
        """One level of :meth:`_plan_box`; recurses while ``level < finest``."""
        if query.is_empty():
            return _BoxRead(query, None, [], [], 1)
        dplan = plan.dataset(level, name)
        hits = dplan.layout.hits(query) if dplan is not None else []
        if hits:
            needed.setdefault(dplan, set()).update(index for index, _, _ in hits)
        if level >= finest:
            return _BoxRead(query, dplan, hits, [], 1)
        ratio = plan.header.ref_ratios[level]
        return _BoxRead(query, dplan, hits, [
            (overlap, self._plan_level(plan, name, level + 1, overlap.refine(ratio),
                                       finest, needed))
            for _, overlap in plan.layouts[level].covered.intersections(query)], ratio)

    def _assemble(self, read: _BoxRead,
                  blocks: Mapping[DatasetReadPlan, Mapping[int, np.ndarray]],
                  fill_value: float) -> np.ndarray:
        """The dense array of a planned read, from the blocks it asked for."""
        query = read.query
        out = np.full(query.shape, fill_value, dtype=np.float64)
        if read.hits:
            shapes, got = read.dplan.layout.shapes, blocks[read.dplan]
            for index, where, part in read.hits:
                out[where] = got[index].reshape(shapes[index])[part]
        for overlap, fine in read.finer:
            out[overlap.slices(origin=query.lo)] = average_down(
                self._assemble(fine, blocks, fill_value), read.ratio)
        return out

    def _read_boxes(self, requests: Sequence[Tuple]) -> List[np.ndarray]:
        """Answer :meth:`read_field` argument tuples ``(name, level, box,
        refill, fill_value, max_level)`` together: the union of the blocks
        they meet goes through :meth:`_blocks` once, so requests that overlap
        in blocks cost one lookup and at most one decode per block."""
        needed: Dict[DatasetReadPlan, set] = {}
        reads = [(self._plan_box(name, level, box, refill, max_level, needed), fill_value)
                 for name, level, box, refill, fill_value, max_level in requests]
        blocks = self._blocks(needed)
        return [self._assemble(read, blocks, fill_value) for read, fill_value in reads]

    def read_field(self, name: str, level: int = 0, box: Optional[Box] = None,
                   refill: bool = True, fill_value: float = 0.0,
                   max_level: Optional[int] = None) -> np.ndarray:
        """Decode one field over one region, touching only intersecting blocks.

        Returns a dense array covering ``box`` (default: the level's whole
        domain).  Cells no stored block covers keep ``fill_value``; with
        ``refill`` (the default) coarse cells covered by the next finer level
        are restored by conservatively averaging the finer data down — which
        itself decodes only the intersecting fine blocks.

        ``max_level`` makes the read *progressive*: refill never recurses
        past level ``max_level``, so a ``max_level=0`` probe touches only
        coarse blocks and returns immediately — the time-to-first-array path
        of an interactive viewer, which then re-issues the read with a higher
        (or no) cap to refine.  Cells whose data was dropped at write time
        (``remove_redundancy``) and whose finer source lies above the cap
        keep ``fill_value``.  Requesting ``level > max_level`` is a
        contradiction and raises :class:`ValueError`.
        """
        return self._read_boxes(
            [(name, level, box, refill, fill_value, max_level)])[0]

    # -- the full staged read ------------------------------------------
    def read(self, comm: Optional[SimComm] = None) -> AmrHierarchy:
        """Reconstruct the whole hierarchy (scan → decode → place → refill).

        Blocks :meth:`read_field` already decoded are reused; every call
        returns a fresh hierarchy.
        """
        plan = self._scan()
        if comm is not None and comm.size != plan.nranks:
            raise ValueError(
                f"communicator has {comm.size} ranks but the plotfile is "
                f"distributed over {plan.nranks}")
        blocks = self._blocks({d: range(d.layout.nblocks) for d in plan.datasets},
                              comm=comm, store=False)
        structure = template_from_header(self.header)
        for dplan in plan.datasets:
            place_dataset(structure, dplan, blocks.pop(dplan))
        if self.header.remove_redundancy:
            fill_covered_from_finer(structure)
        return structure
