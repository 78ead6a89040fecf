"""The staged read pipeline: scan → decode → place → refill.

The read side mirrors the writer's staged decomposition
(:mod:`repro.core.stages`) instead of the old serial monolith:

``scan`` (:func:`scan_plotfile`)
    Rebuild the structural read plan — which unit blocks live at which
    element offsets of which ``level_<l>/<field>`` dataset — from the
    plotfile's self-describing header (:mod:`repro.core.header`); a file
    without one is rejected.  Produces a :class:`ReadPlan` of
    :class:`DatasetReadPlan` entries.
``decode`` (:func:`decode_job`)
    Decode one dataset's chunk payloads, handed to the filter together
    (:meth:`~repro.h5lite.filters.Filter.decode_many`) so AMRIC's level filter
    runs one Huffman lane pass per job instead of one per chunk.  A
    :class:`DecodeJob` is a plain picklable dataclass (raw bytes + filter
    recipe), so per-dataset decode jobs run through any
    :class:`~repro.parallel.backend.ExecutionBackend` (serial, shm) with
    bit-identical results.
``place`` (:func:`place_dataset`)
    Scatter the decoded elements back into the hierarchy's fabs by the
    planned block offsets.
``refill`` (:func:`~repro.amr.upsample.fill_covered_from_finer`)
    Restore the redundant coarse cells dropped before compression by
    conservatively averaging the reconstructed finer level down — the shared
    stencil in :mod:`repro.amr.upsample`, not a private copy.

:class:`PlotfileHandle` (returned by :func:`repro.open`) runs the stages.
Every consumer — the full :meth:`~PlotfileHandle.read`, the lazy
``read_field(name, level=..., box=...)`` that decodes only the chunks whose
unit blocks intersect the request, the query engine's batches, a series step —
obtains decoded chunks through one door (:meth:`PlotfileHandle._chunks`): one
cache lookup per chunk, one decode batch for the misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (ClassVar, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AmrHierarchy
from repro.amr.upsample import average_down, fill_covered_from_finer
from repro.compress.errorbound import ErrorBound
from repro.compress.registry import create_codec
from repro.core.filter_mod import AMRICLevelFilter
from repro.core.header import (
    CHUNK_ALIGNMENT_BOX_MAJOR,
    CHUNK_ALIGNMENT_RANK,
    PlotfileHeader,
    template_from_header,
)
from repro.core.preprocess import UnitBlock, preprocess_level
from repro.h5lite.file import H5LiteFile
from repro.h5lite.filters import (
    AMRICChunkFilter,
    Filter,
    LosslessFilter,
    NoCompressionFilter,
    SZChunkFilter,
)
from repro.parallel.backend import ExecutionBackend, SerialBackend, make_backend
from repro.parallel.mpi_sim import SimComm

__all__ = [
    "PlotfileHandle",
    "ReadStats",
    "BlockSlot",
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
@dataclass(frozen=True)
class BlockSlot:
    """One unit block's home: its box/fab and its element offset in the dataset.

    The offset addresses the dataset's *chunked element stream*, in which
    chunk ``j`` occupies ``[j * chunk_elements, (j + 1) * chunk_elements)``
    (rank-aligned datasets pad each chunk's tail; stream-aligned datasets
    pack blocks back-to-back and a block may span a chunk boundary).
    """

    block: UnitBlock
    offset: int
    size: int                                 #: the block's cell count


@dataclass(eq=False)
class DatasetReadPlan:
    """The decode/placement layout of one ``level_<l>/<field>`` dataset.

    Compared and hashed by identity: a plan's datasets key the chunk requests
    and answers of :meth:`PlotfileHandle._chunks`.
    """

    level: int
    field: str
    name: str
    chunk_elements: int
    nchunks: int
    filter_id: str
    slots: List[BlockSlot]
    #: the slots' boxes, slot ``i`` <-> box ``i``; one index per level,
    #: shared by every dataset of that level
    boxes: BoxArray

    def __post_init__(self) -> None:
        offsets = np.array([s.offset for s in self.slots], dtype=np.int64)
        sizes = np.array([s.size for s in self.slots], dtype=np.int64)
        self._first = offsets // self.chunk_elements
        self._last = (offsets + sizes - 1) // self.chunk_elements

    def chunks_for(self, slot_indices: Sequence[int]) -> List[int]:
        """Which chunk indices the given slots touch (sorted, deduplicated)."""
        # +1 where a slot's chunk span opens, -1 past where it closes: the
        # running sum is positive exactly on the touched chunks
        n = self.nchunks + 1
        edges = np.bincount(self._first[slot_indices], minlength=n) \
            - np.bincount(self._last[slot_indices] + 1, minlength=n)
        return np.flatnonzero(np.cumsum(edges)).tolist()


@dataclass
class ReadPlan:
    """Everything the decode/place/refill stages need, decided up front."""

    structure: AmrHierarchy                   #: zero-filled output hierarchy
    datasets: List[DatasetReadPlan]
    remove_redundancy: bool
    header: PlotfileHeader

    def __post_init__(self) -> None:
        self._by_key = {(d.level, d.field): d for d in self.datasets}
        #: per level, the next finer level's boxes coarsened to it — the
        #: regions a lazy read refills from finer data
        self.fine_coarsened = [
            finer.boxarray.coarsen(ratio) for finer, ratio
            in zip(self.structure.levels[1:], self.structure.ref_ratios)]

    @property
    def nranks(self) -> int:
        return max(lvl.multifab.distribution.nranks for lvl in self.structure.levels)

    def dataset(self, level: int, fieldname: str) -> Optional[DatasetReadPlan]:
        return self._by_key.get((level, fieldname))


def parse_plotfile_header(f: H5LiteFile) -> PlotfileHeader:
    """The file's validated self-description; a file without one is rejected."""
    if f.header is None:
        raise ValueError(
            f"{f.path} has no self-describing header (written before the "
            "plotfile format v1)")
    return PlotfileHeader.from_json(f.header)


def scan_plotfile(f: H5LiteFile) -> ReadPlan:
    """Stage 1: rebuild the structural read plan from the plotfile's header."""
    header = parse_plotfile_header(f)
    if header.chunk_alignment == CHUNK_ALIGNMENT_BOX_MAJOR:
        raise ValueError(
            f"{f.path} stores box-major interleaved level data "
            f"(method {header.method!r}); the staged reader only "
            "reconstructs field-major plotfiles — use `repro info` for "
            "its metadata")
    structure = template_from_header(header)
    unit_block_size = header.unit_block_size
    remove_redundancy = header.remove_redundancy
    rank_aligned = header.chunk_alignment == CHUNK_ALIGNMENT_RANK
    strict_actual = bool(header.codec_options.get("modify_filter", True))

    datasets: List[DatasetReadPlan] = []
    for level_index in range(structure.nlevels):
        pre = preprocess_level(structure, level_index, unit_block_size,
                               remove_redundancy=remove_redundancy)
        if not pre.unit_blocks:
            continue
        ranks = sorted({b.rank for b in pre.unit_blocks})
        per_rank = {r: pre.blocks_on_rank(r) for r in ranks}
        # every dataset of the level lays its slots out in this order
        boxes = BoxArray([b.box for r in ranks for b in per_rank[r]])
        for name in structure.component_names:
            dsname = f"level_{level_index}/{name}"
            if dsname not in f:
                raise ValueError(
                    f"{f.path}: the header lists unit blocks for {dsname!r} "
                    "but the file stores no such dataset (an interrupted "
                    "write?)")
            info = f.datasets[dsname]
            slots: List[BlockSlot] = []
            if rank_aligned:
                if info.nchunks != len(ranks):
                    raise ValueError(
                        f"{f.path}: dataset {dsname!r} stores {info.nchunks} "
                        f"chunks but the structure implies {len(ranks)} "
                        "participating ranks — header does not match "
                        "this file")
                ce = info.chunk_elements
                for i, rank in enumerate(ranks):
                    offset = i * ce
                    for block in per_rank[rank]:
                        size = block.size
                        slots.append(BlockSlot(block, offset, size))
                        offset += size
                    if offset > (i + 1) * ce:
                        raise ValueError(
                            f"{f.path}: rank {rank}'s blocks overflow its "
                            f"chunk of {ce} elements in {dsname!r} — "
                            "header does not match this file")
                    valid = offset - i * ce
                    stored = info.chunks[i].actual_elements
                    # with the modified filter each chunk records the rank's
                    # real element count; a disagreement means the structure
                    # does not describe this file (naive mode records the
                    # padded chunk size instead, which carries no signal)
                    if strict_actual and stored != ce and stored != valid:
                        raise ValueError(
                            f"{f.path}: chunk {i} of {dsname!r} stores "
                            f"{stored} valid elements but the structure "
                            f"implies {valid} — header does not "
                            "match this file")
            else:
                offset = 0
                for rank in ranks:
                    for block in per_rank[rank]:
                        size = block.size
                        slots.append(BlockSlot(block, offset, size))
                        offset += size
                if offset != info.nelements:
                    raise ValueError(
                        f"{f.path}: dataset {dsname!r} stores {info.nelements} "
                        f"elements but the structure implies {offset} — "
                        "header does not match this file")
            datasets.append(DatasetReadPlan(
                level=level_index, field=name, name=dsname,
                chunk_elements=info.chunk_elements, nchunks=info.nchunks,
                filter_id=info.filter_id, slots=slots, boxes=boxes))
    return ReadPlan(structure=structure, datasets=datasets,
                    remove_redundancy=remove_redundancy, header=header)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
@dataclass
class DecodeJob:
    """One dataset's decode work: raw chunk payloads + the filter recipe.

    The payloads cross the shm pool boundary as shared-memory descriptors,
    the rest pickles (ints, strings); decoding is deterministic, so every
    backend produces identical arrays.
    """

    #: bulk fields the shm backend ships as shared-memory descriptors
    _shm_fields: ClassVar[Tuple[str, ...]] = ("payloads",)

    key: str                               #: dataset name (stable identifier)
    payloads: List[bytes]
    chunk_indices: List[int]
    chunk_elements: int
    filter_id: str
    codec: str = "sz_lr"
    error_bound: float = 1e-3
    error_bound_mode: str = "rel"


@dataclass
class DecodeResult:
    """What one decode job produced (travels back across the backend)."""

    _shm_fields: ClassVar[Tuple[str, ...]] = ("chunks",)

    key: str
    chunk_indices: List[int]
    chunks: List[np.ndarray]


def _decode_filter(filter_id: str, codec: str, error_bound: float,
                   error_bound_mode: str) -> Filter:
    """Filter instance for one stored ``filter_id`` (decode direction only)."""
    if filter_id == AMRICLevelFilter.filter_id:
        # AMRIC payloads are fully self-describing; the constructor arguments
        # only matter for encode
        return AMRICLevelFilter()
    if filter_id == NoCompressionFilter.filter_id:
        return NoCompressionFilter()
    if filter_id == LosslessFilter.filter_id:
        return LosslessFilter()
    if filter_id in (SZChunkFilter.filter_id, AMRICChunkFilter.filter_id):
        compressor = create_codec(codec, ErrorBound(error_bound, error_bound_mode))
        cls = SZChunkFilter if filter_id == SZChunkFilter.filter_id else AMRICChunkFilter
        return cls(compressor)
    if filter_id == "temporal_delta":
        # series keyframe chunks are self-contained (payload carries its own
        # grid); delta chunks raise from decode with a pointer at open_series
        from repro.compress.temporal import TemporalDeltaFilter

        return TemporalDeltaFilter()
    raise ValueError(f"cannot decode chunks written with unknown filter {filter_id!r}")


def make_decode_job(f: H5LiteFile, dplan: DatasetReadPlan,
                    chunk_indices: Sequence[int], plan: ReadPlan) -> DecodeJob:
    """Pull the selected raw chunk payloads of one dataset into a job."""
    indices = list(chunk_indices)
    # one batched (coalescing) source read instead of N seek+read round-trips
    payloads = f.read_chunk_payloads(dplan.name, indices)
    header = plan.header
    return DecodeJob(key=dplan.name, payloads=payloads, chunk_indices=indices,
                     chunk_elements=dplan.chunk_elements,
                     filter_id=dplan.filter_id, codec=header.codec,
                     error_bound=header.error_bound,
                     error_bound_mode=header.error_bound_mode)


def decode_job(job: DecodeJob) -> DecodeResult:
    """Stage 2: decode one dataset's chunks.

    A module-level pure function over picklable inputs — the read-side mirror
    of :func:`repro.core.stages.encode_job` — so the serial and shm backends
    run identical code on identical bytes.  Decode filters are stateless per
    call, so inside a shm pool worker the instance is reused across jobs via
    the per-process codec cache (a no-op elsewhere:
    :func:`~repro.parallel.shm.worker_codec_cache` returns ``None`` outside
    a worker).
    """
    from repro.parallel.shm import worker_codec_cache

    cache = worker_codec_cache()
    cache_key = ("decode_filter", job.filter_id, job.codec,
                 job.error_bound, job.error_bound_mode)
    filt = cache.get(cache_key) if cache is not None else None
    if filt is None:
        filt = _decode_filter(job.filter_id, job.codec, job.error_bound,
                              job.error_bound_mode)
        if cache is not None:
            cache[cache_key] = filt
    # one call per job: a filter whose chunks can share a decode cost (AMRIC's
    # level filter: one Huffman lane pass for the job) gets them together
    chunks = [np.asarray(chunk, dtype=np.float64).reshape(-1)
              for chunk in filt.decode_many(job.payloads, job.chunk_elements)]
    return DecodeResult(key=job.key, chunk_indices=list(job.chunk_indices),
                        chunks=chunks)


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
def _gather_slot(slot: BlockSlot, chunks: Dict[int, np.ndarray],
                 chunk_elements: int) -> np.ndarray:
    """Extract one block's elements from the decoded chunks (may span chunks)."""
    start, stop = slot.offset, slot.offset + slot.size
    first = start // chunk_elements
    last = (stop - 1) // chunk_elements
    if first == last:
        local = start - first * chunk_elements
        return chunks[first][local:local + slot.size]
    pieces: List[np.ndarray] = []
    for index in range(first, last + 1):
        base = index * chunk_elements
        local_lo = max(start, base) - base
        local_hi = min(stop, base + chunk_elements) - base
        pieces.append(chunks[index][local_lo:local_hi])
    return np.concatenate(pieces)


def place_dataset(structure: AmrHierarchy, dplan: DatasetReadPlan,
                  chunks: Dict[int, np.ndarray]) -> None:
    """Stage 3: scatter one dataset's decoded elements into the hierarchy."""
    level = structure[dplan.level]
    comp = level.multifab.component_index(dplan.field)
    for slot in dplan.slots:
        data = _gather_slot(slot, chunks, dplan.chunk_elements)
        fab = level.multifab[slot.block.box_index]
        fab.component(comp)[slot.block.box.slices(origin=fab.box.lo)] = \
            data.reshape(slot.block.box.shape)


# ----------------------------------------------------------------------
# accounting and planned box reads
# ----------------------------------------------------------------------
@dataclass
class ReadStats:
    """Decode accounting for one handle (shared by a series' step handles).

    Counted once, in :meth:`PlotfileHandle._chunks` and the miss producer
    under it.  Bytes and requests are counted where they happen, by the byte
    source: see :attr:`PlotfileHandle.source_stats`.
    """

    chunks_decoded: int = 0     #: chunk payloads decoded (a series: streams)
    cache_hits: int = 0         #: chunks (a series: also code streams) a cache held
    datasets_decoded: int = 0   #: datasets with at least one miss, per request

    def reset(self) -> None:
        self.chunks_decoded = 0
        self.cache_hits = 0
        self.datasets_decoded = 0


class _BoxRead(NamedTuple):
    """One planned box read of one field: where its cells will come from."""

    query: Box
    dplan: Optional[DatasetReadPlan]
    #: (slot index, overlap with the query) of the stored blocks it meets
    hits: List[Tuple[int, Box]]
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
    * :meth:`read_field` — decodes exactly the chunks whose unit blocks
      intersect the requested box (cached per chunk; see :attr:`stats`);
    * :meth:`read` — the full staged scan/decode/place/refill pipeline,
      optionally over a pooled execution backend.

    Decoded chunks live in a :class:`~repro.service.cache.ChunkCache` under
    ``(path, dataset, chunk)`` keys: the caller's shared one (``cache``), else
    a private one of the default byte budget.
    """

    def __init__(self, path: str,
                 backend: "ExecutionBackend | str | None" = None,
                 cache=None, source=None):
        # deferred so a bare ``import repro`` loads nothing of repro.service
        from repro.service.cache import ChunkCache

        self._file = H5LiteFile(path, "r", source=source)
        try:
            self.header = parse_plotfile_header(self._file)
        except ValueError:
            self._file.close()
            raise
        self._backend_spec = backend
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
    def attrs(self) -> Dict[str, object]:
        return self._file.attrs

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
        logical = sum(d.nelements * np.dtype(d.dtype).itemsize
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

    # -- the chunk door -------------------------------------------------
    def _chunks(self, needed: Mapping[DatasetReadPlan, Iterable[int]],
                backend: Optional[ExecutionBackend] = None,
                comm: Optional[SimComm] = None, store: bool = True,
                ) -> Dict[DatasetReadPlan, Dict[int, np.ndarray]]:
        """The one door to decoded chunks: ``{dataset: {chunk index: chunk}}``.

        Each needed chunk is looked up once in the handle's cache; only the
        misses are decoded (:meth:`_decode_missing`, one batch) and — unless
        ``store`` is off, the full read's rule: it would only flush what
        random access keeps warm — stored.  The answer is held by the caller,
        so a chunk the cache evicts or rejects meanwhile costs a later request
        time, never this one its data.
        """
        path = self.path
        out: Dict[DatasetReadPlan, Dict[int, np.ndarray]] = {}
        pending: Dict[DatasetReadPlan, List[int]] = {}
        for dplan, indices in needed.items():
            have = out[dplan] = {}
            missing = []
            for index in sorted(indices):
                chunk = self._cache.get((path, dplan.name, index))
                if chunk is None:
                    missing.append(index)
                else:
                    have[index] = chunk
            self.stats.cache_hits += len(have)
            if missing:
                pending[dplan] = missing
        if pending:
            self.stats.datasets_decoded += len(pending)
            for dplan, index, chunk in self._decode_missing(pending, backend, comm):
                out[dplan][index] = chunk
                if store:
                    self._cache.put((path, dplan.name, index), chunk)
        return out

    def _decode_missing(self, pending: Mapping[DatasetReadPlan, List[int]],
                        backend: Optional[ExecutionBackend],
                        comm: Optional[SimComm],
                        ) -> Iterator[Tuple[DatasetReadPlan, int, np.ndarray]]:
        """Decode the chunks no cache held: yields ``(dataset, index, chunk)``.

        One decode job per dataset — cut into per-worker jobs while the batch
        has fewer datasets than a pooled ``backend`` has workers — submitted
        through ``comm`` (:meth:`~repro.parallel.mpi_sim.SimComm.run_jobs`) as
        one batch with one barrier, mirroring the writer's encode stage.  Jobs
        are pure functions of the stored bytes, so every backend and every
        split yields identical chunks.
        """
        plan = self._scan()
        width = backend.parallel_width() if backend is not None else 1
        nparts = -(-width // len(pending))
        jobs = [(dplan, make_decode_job(self._file, dplan, part, plan=plan))
                for dplan, missing in pending.items()
                for part in _split_indices(missing, nparts)]
        comm = comm if comm is not None else SimComm(plan.nranks)
        results = comm.run_jobs(backend if backend is not None else SerialBackend(),
                                decode_job, [job for _, job in jobs])
        for (dplan, _), result in zip(jobs, results):
            self.stats.chunks_decoded += len(result.chunks)
            for index, chunk in zip(result.chunk_indices, result.chunks):
                yield dplan, index, chunk

    # -- lazy random access --------------------------------------------
    def _plan_box(self, name: str, level: int, box: Optional[Box],
                  refill: bool, max_level: Optional[int],
                  needed: Dict[DatasetReadPlan, set]) -> _BoxRead:
        """Plan one :meth:`read_field` request without decoding anything.

        Adds every chunk the read touches — at ``level`` and, for refill, in
        the finer levels under it — to ``needed``, so one trip through
        :meth:`_chunks` serves the whole request (or a whole batch of them
        sharing ``needed``).
        """
        plan = self._scan()
        structure = plan.structure
        if not 0 <= level < structure.nlevels:
            raise ValueError(
                f"level {level} out of range; plotfile has levels "
                f"0..{structure.nlevels - 1}")
        if max_level is not None and level > max_level:
            raise ValueError(
                f"level {level} is finer than max_level {max_level}; a "
                "progressive read cannot return data above its cap")
        if name not in structure.component_names:
            raise KeyError(
                f"unknown field {name!r}; plotfile has {structure.component_names}")
        finest = level                      # the finest level refill reads
        if refill and plan.remove_redundancy:
            finest = structure.nlevels - 1 if max_level is None \
                else min(max_level, structure.nlevels - 1)
        return self._plan_level(
            plan, name, level, structure[level].domain if box is None else box,
            finest, needed)

    def _plan_level(self, plan: ReadPlan, name: str, level: int, query: Box,
                    finest: int, needed: Dict[DatasetReadPlan, set]) -> _BoxRead:
        """One level of :meth:`_plan_box`; recurses while ``level < finest``."""
        if query.is_empty():
            return _BoxRead(query, None, [], [], 1)
        dplan = plan.dataset(level, name)
        hits = dplan.boxes.intersections(query) if dplan is not None else []
        if hits:
            needed.setdefault(dplan, set()).update(
                dplan.chunks_for([i for i, _ in hits]))
        if level >= finest:
            return _BoxRead(query, dplan, hits, [], 1)
        ratio = plan.structure.ref_ratios[level]
        return _BoxRead(query, dplan, hits, [
            (overlap, self._plan_level(plan, name, level + 1, overlap.refine(ratio),
                                       finest, needed))
            for _, overlap in plan.fine_coarsened[level].intersections(query)], ratio)

    def _assemble(self, read: _BoxRead,
                  chunks: Mapping[DatasetReadPlan, Mapping[int, np.ndarray]],
                  fill_value: float) -> np.ndarray:
        """The dense array of a planned read, from the chunks it asked for."""
        query = read.query
        out = np.full(query.shape, fill_value, dtype=np.float64)
        for index, overlap in read.hits:
            slot = read.dplan.slots[index]
            home = slot.block.box
            data = _gather_slot(slot, chunks[read.dplan], read.dplan.chunk_elements) \
                .reshape(home.shape)
            out[overlap.slices(origin=query.lo)] = \
                data[overlap.slices(origin=home.lo)]
        for overlap, fine in read.finer:
            out[overlap.slices(origin=query.lo)] = average_down(
                self._assemble(fine, chunks, fill_value), read.ratio)
        return out

    def _read_boxes(self, requests: Sequence[Tuple],
                    backend: Optional[ExecutionBackend] = None) -> List[np.ndarray]:
        """Answer :meth:`read_field` argument tuples ``(name, level, box,
        refill, fill_value, max_level)`` together: the union of the chunks
        they touch goes through :meth:`_chunks` once, so requests that overlap
        in chunks cost one lookup and at most one decode per chunk."""
        needed: Dict[DatasetReadPlan, set] = {}
        reads = [(self._plan_box(name, level, box, refill, max_level, needed), fill_value)
                 for name, level, box, refill, fill_value, max_level in requests]
        chunks = self._chunks(needed, backend=backend)
        return [self._assemble(read, chunks, fill_value) for read, fill_value in reads]

    def read_field(self, name: str, level: int = 0, box: Optional[Box] = None,
                   refill: bool = True, fill_value: float = 0.0,
                   max_level: Optional[int] = None) -> np.ndarray:
        """Decode one field over one region, touching only intersecting chunks.

        Returns a dense array covering ``box`` (default: the level's whole
        domain).  Cells no stored block covers keep ``fill_value``; with
        ``refill`` (the default) coarse cells covered by the next finer level
        are restored by conservatively averaging the finer data down — which
        itself decodes only the intersecting fine chunks.

        ``max_level`` makes the read *progressive*: refill never recurses
        past level ``max_level``, so a ``max_level=0`` probe touches only
        coarse chunks and returns immediately — the time-to-first-array path
        of an interactive viewer, which then re-issues the read with a higher
        (or no) cap to refine.  Cells whose data was dropped at write time
        (``remove_redundancy``) and whose finer source lies above the cap
        keep ``fill_value``.  Requesting ``level > max_level`` is a
        contradiction and raises :class:`ValueError`.
        """
        return self._read_boxes(
            [(name, level, box, refill, fill_value, max_level)])[0]

    # -- the full staged read ------------------------------------------
    def read(self, backend: "ExecutionBackend | str | None" = None,
             comm: Optional[SimComm] = None) -> AmrHierarchy:
        """Reconstruct the whole hierarchy (scan → decode → place → refill).

        ``backend`` follows the writer's convention: a name builds a backend
        owned (and closed) by this call, an :class:`ExecutionBackend`
        instance stays the caller's to manage.  Chunks :meth:`read_field`
        already decoded are reused; every call returns a fresh hierarchy.
        """
        plan = self._scan()
        if comm is not None and plan.structure.levels and comm.size != plan.nranks:
            raise ValueError(
                f"communicator has {comm.size} ranks but the plotfile is "
                f"distributed over {plan.nranks}")
        spec = backend if backend is not None else self._backend_spec
        owns = not isinstance(spec, ExecutionBackend)
        resolved = make_backend(spec)
        try:
            chunks = self._chunks({d: range(d.nchunks) for d in plan.datasets},
                                  backend=resolved, comm=comm, store=False)
        finally:
            if owns:
                resolved.close()
        structure = template_from_header(self.header)
        for dplan in plan.datasets:
            place_dataset(structure, dplan, chunks.pop(dplan))
        if plan.remove_redundancy:
            fill_covered_from_finer(structure)
        return structure
