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

On top of the staged full read, :class:`PlotfileHandle` (returned by
:func:`repro.open`) offers lazy random access: ``read_field(name, level=...,
box=...)`` decodes only the chunks whose unit blocks intersect the request,
with a per-chunk cache and decode-call statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

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
from repro.h5lite.source import ByteSource
from repro.h5lite.filters import (
    AMRICChunkFilter,
    Filter,
    LosslessFilter,
    NoCompressionFilter,
    SZChunkFilter,
)
from repro.parallel.backend import ExecutionBackend, make_backend
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
    "execute_read",
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


@dataclass
class DatasetReadPlan:
    """The decode/placement layout of one ``level_<l>/<field>`` dataset."""

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

    @property
    def decode_calls(self) -> int:
        return len(self.chunks)


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


def _split_indices(indices: Sequence[int],
                   backend: Optional[ExecutionBackend]) -> List[List[int]]:
    """Partition chunk indices into contiguous per-worker batches.

    One batch (no split) without a pooled backend or when the batch is too
    small to amortise a dispatch; otherwise roughly one batch per worker.
    """
    width = backend.parallel_width() if backend is not None else 1
    if width <= 1 or len(indices) < 2:
        return [list(indices)]
    nparts = min(width, len(indices))
    per = -(-len(indices) // nparts)        # ceil division
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
# the full staged read
# ----------------------------------------------------------------------
@dataclass
class ReadStats:
    """Decode + I/O accounting for one handle / reader.

    The decode counters drive the lazy-read tests; the I/O counters mirror
    the handle's :class:`~repro.h5lite.source.SourceStats` (wire bytes,
    ranges requested pre-coalescing, reads issued post-coalescing), so cache
    hit-rate and transfer cost are observable per handle and per engine.
    """

    chunks_decoded: int = 0
    cache_hits: int = 0
    datasets_decoded: int = 0
    bytes_read: int = 0             #: bytes fetched from the byte source
    requests: int = 0               #: ranges requested (pre-coalescing)
    coalesced_requests: int = 0     #: reads issued to the medium

    def reset(self) -> None:
        self.chunks_decoded = 0
        self.cache_hits = 0
        self.datasets_decoded = 0
        self.bytes_read = 0
        self.requests = 0
        self.coalesced_requests = 0


def execute_read(f: H5LiteFile, plan: ReadPlan, backend: ExecutionBackend,
                 comm: Optional[SimComm] = None,
                 stats: Optional[ReadStats] = None,
                 cache=None) -> AmrHierarchy:
    """Run decode → place → refill for a scanned plan; returns the hierarchy.

    Per-dataset decode jobs are submitted through ``comm``
    (:meth:`~repro.parallel.mpi_sim.SimComm.run_jobs`) to the execution
    backend — one barrier for the batch, mirroring the writer's encode stage —
    and the results are placed in plan order, which is what makes every
    backend produce an element-wise identical hierarchy.  ``cache`` (anything
    with dict-style ``get``/item assignment over ``(dataset, chunk index)``
    keys — a handle's private dict or a shared-cache view) lets
    already-decoded chunks skip their decode job.
    """
    if comm is not None and plan.structure.levels and comm.size != plan.nranks:
        raise ValueError(
            f"communicator has {comm.size} ranks but the plotfile is "
            f"distributed over {plan.nranks}")
    comm = comm if comm is not None else SimComm(plan.nranks)
    jobs: List[DecodeJob] = []
    hits: List[Dict[int, np.ndarray]] = []
    for dplan in plan.datasets:
        hit: Dict[int, np.ndarray] = {}
        if cache:
            for index in range(dplan.nchunks):
                chunk = cache.get((dplan.name, index))
                if chunk is not None:
                    hit[index] = chunk
        hits.append(hit)
        missing = [i for i in range(dplan.nchunks) if i not in hit]
        jobs.append(make_decode_job(f, dplan, missing, plan=plan))
    results = comm.run_jobs(backend, decode_job, jobs)
    for dplan, hit, result in zip(plan.datasets, hits, results):
        chunks = dict(hit)
        chunks.update(zip(result.chunk_indices, result.chunks))
        place_dataset(plan.structure, dplan, chunks)
        if stats is not None:
            stats.chunks_decoded += result.decode_calls
            stats.cache_hits += len(hit)
            stats.datasets_decoded += 1
    if plan.remove_redundancy:
        fill_covered_from_finer(plan.structure)
    return plan.structure


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
    """

    def __init__(self, path: str,
                 backend: "ExecutionBackend | str | None" = None,
                 cache=None, source=None):
        # a caller may hand several handles one *shared* ByteSource instance;
        # watermarking from the source's pre-open totals (not from zero) keeps
        # each handle billing only the traffic it caused itself — two handles
        # on one source must never both absorb the same bytes
        pre_open = source.stats.totals() if isinstance(source, ByteSource) \
            else (0, 0, 0)
        self._file = H5LiteFile(path, "r", source=source)
        try:
            self.header = parse_plotfile_header(self._file)
        except ValueError:
            self._file.close()
            raise
        self._backend_spec = backend
        self._plan: Optional[ReadPlan] = None
        # ``cache`` opts the handle into a shared, byte-budgeted chunk cache
        # (repro.service.cache.ChunkCache, keyed by path); the default stays a
        # private unbounded dict in this handle's (dataset, chunk) key space
        if cache is not None and hasattr(cache, "bound_view"):
            self._cache = cache.bound_view(self._file.path)
        else:
            self._cache = cache if cache is not None else {}
        self.stats = ReadStats()
        self._io_seen = pre_open
        self._sync_io()                     # charges the superblock loads
        self._closed = False

    def _sync_io(self) -> None:
        """Fold the source's traffic since the last sync into :attr:`stats`.

        Delta-based so :attr:`stats` can be swapped for a shared accumulator
        (a series hands every step handle its own stats object) without
        double-counting what an earlier object already absorbed.  The
        watermark starts at the source's *pre-open* totals, so a handle
        joining an already-trafficked shared source bills only its own reads
        (see the shared-source regression tests).
        """
        src = self._file.source.stats
        now = src.totals()
        self.stats.bytes_read += now[0] - self._io_seen[0]
        self.stats.requests += now[1] - self._io_seen[1]
        self.stats.coalesced_requests += now[2] - self._io_seen[2]
        self._io_seen = now

    @property
    def source_stats(self):
        """The underlying :class:`~repro.h5lite.source.SourceStats`."""
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

    # -- lazy random access --------------------------------------------
    def _decode_chunks(self, plan: ReadPlan, dplan: DatasetReadPlan,
                       indices: Sequence[int],
                       backend: Optional[ExecutionBackend] = None,
                       ) -> Dict[int, np.ndarray]:
        """Decode the requested chunks (cache-aware).

        With ``backend`` given (the query engine's batch path), the missing
        chunks are split into per-worker sub-jobs and decoded through the
        pool — chunk decodes within one dataset are independent, so the
        split changes nothing but wall-clock.  Results are identical either
        way; the serial path stays a single inline :func:`decode_job`.
        """
        out: Dict[int, np.ndarray] = {}
        missing: List[int] = []
        for index in indices:
            cached = self._cache.get((dplan.name, index))
            if cached is not None:
                out[index] = cached
                self.stats.cache_hits += 1
            else:
                missing.append(index)
        if missing:
            jobs = [make_decode_job(self._file, dplan, part, plan=plan)
                    for part in _split_indices(missing, backend)]
            if backend is not None and len(jobs) > 1:
                results = backend.map(decode_job, jobs)
            else:
                results = [decode_job(job) for job in jobs]
            for result in results:
                for index, chunk in zip(result.chunk_indices, result.chunks):
                    self._cache[(dplan.name, index)] = chunk
                    out[index] = chunk
            self.stats.chunks_decoded += len(missing)
            self._sync_io()
        return out

    def chunks_for_box(self, name: str, level: int = 0,
                       box: Optional[Box] = None):
        """What a box read of one field would decode: ``(plan, dplan, indices)``.

        The scouting half of :meth:`read_field`, shared with the query
        engine's batch coalescing and time-slice prefetch (which union these
        indices across requests and decode each chunk once).  Unlike
        :meth:`read_field`, an absent dataset or out-of-range level yields
        ``(plan, None, [])`` instead of raising — a prefetch skips, it does
        not fail.
        """
        plan = self._scan()
        if not 0 <= level < plan.structure.nlevels:
            return plan, None, []
        dplan = plan.dataset(level, name)
        if dplan is None:
            return plan, None, []
        region = box if box is not None else plan.structure[level].domain
        return plan, dplan, dplan.chunks_for(
            [i for i, _ in dplan.boxes.intersections(region)])

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
        lvl = structure[level]
        query = lvl.domain if box is None else box
        if query.is_empty():
            return np.full(query.shape, fill_value, dtype=np.float64)
        out = np.full(query.shape, fill_value, dtype=np.float64)

        dplan = plan.dataset(level, name)
        hits = dplan.boxes.intersections(query) if dplan is not None else []
        if hits:
            chunks = self._decode_chunks(
                plan, dplan, dplan.chunks_for([i for i, _ in hits]))
            for index, overlap in hits:
                slot = dplan.slots[index]
                home = slot.block.box
                data = _gather_slot(slot, chunks, dplan.chunk_elements) \
                    .reshape(home.shape)
                out[overlap.slices(origin=query.lo)] = \
                    data[overlap.slices(origin=home.lo)]

        if (refill and plan.remove_redundancy and level < structure.nlevels - 1
                and (max_level is None or level + 1 <= max_level)):
            ratio = structure.ref_ratios[level]
            for _, overlap in plan.fine_coarsened[level].intersections(query):
                fine = self.read_field(name, level=level + 1,
                                       box=overlap.refine(ratio), refill=refill,
                                       fill_value=fill_value,
                                       max_level=max_level)
                out[overlap.slices(origin=query.lo)] = average_down(fine, ratio)
        return out

    # -- the full staged read ------------------------------------------
    def read(self, backend: "ExecutionBackend | str | None" = None,
             comm: Optional[SimComm] = None) -> AmrHierarchy:
        """Reconstruct the whole hierarchy (scan → decode → place → refill).

        ``backend`` follows the writer's convention: a name builds a backend
        owned (and closed) by this call, an :class:`ExecutionBackend`
        instance stays the caller's to manage.
        """
        plan = scan_plotfile(self._file)
        spec = backend if backend is not None else self._backend_spec
        owns = not isinstance(spec, ExecutionBackend)
        resolved = make_backend(spec)
        try:
            # chunks read_field already decoded are reused
            return execute_read(self._file, plan, resolved, comm=comm,
                                stats=self.stats, cache=self._cache)
        finally:
            self._sync_io()
            if owns:
                resolved.close()
