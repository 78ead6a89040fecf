"""Lazy, time-indexed reads over a plotfile series.

:func:`repro.open_series` parses the series journal and returns a
:class:`SeriesHandle`; nothing is decoded until a field is asked for.  Per
step the handle hands out a :class:`SeriesStepHandle` — a
:class:`~repro.core.reader.PlotfileHandle` whose chunk decode stage resolves
temporal references: a key chunk decodes directly, a delta chunk needs the
*same chunk* of its reference step (and so on back to the nearest keyframe)
and adds the stored code differences.  The chains of a decode group are
planned from the manifest, fetched one payload batch per step and
entropy-decoded several streams to a pass.  A delta is element-wise and every
stream carries a sync offset per ``SYNC_INTERVAL`` codes, so resolution is
lane-granular: a chain decodes only the decoder lanes that hold the blocks
asked for (a full read asks for all of them and decodes whole streams).
What it resolves to is memoised in two byte-budgeted caches (decoded block
values, resolved code streams), so

* reading a box at step *t* decodes only the lanes of the chunks
  intersecting the box — at step *t* and along those chunks' reference
  chains — never a chunk outside the request;
* :meth:`SeriesHandle.time_slice` plans every step first and resolves their
  chains together, newest first, so each chain element is decoded once and
  a keyframe interval's steps share its entropy passes.

All decode work is counted in one shared :class:`~repro.core.reader.ReadStats`
(`handle.stats`), which is what the chain-locality tests assert against.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.hierarchy import AmrHierarchy
from repro.compress.huffman import SYNC_INTERVAL
from repro.compress.temporal import MODE_DELTA, TemporalDeltaCodec
from repro.core.header import PlotfileHeader
from repro.core.preprocess import LevelLayout, level_layouts
from repro.core.reader import DatasetReadPlan, PlotfileHandle, ReadPlan, ReadStats, scan_plotfile
from repro.h5lite.filters import cut_blocks
from repro.h5lite.source import ByteSource, SourceStats
from repro.series.index import SeriesStepRecord
from repro.service.cache import ChunkCache
from repro.stream.journal import (
    JOURNAL_FILENAME,
    load_journal,
    replay_journal,
    tail_journal,
)

__all__ = ["SeriesHandle", "SeriesStepHandle", "is_series_dir"]

#: streams per entropy pass while chains are resolved: a pass's 256 Python-level
#: steps are shared by two chains on a ``keyframe_interval=4`` series — all
#: eight steps of a one-chunk probe's time slice (4 streams cost 3.4 ms in one
#: pass, 6.7 ms alone; past 8 a stream gains little), and the int64 code arrays
#: alive at once stop growing with the decode group and the chain length
_PASS_STREAMS = 8


def is_series_dir(path: str) -> bool:
    """Whether ``path`` is a series directory (it holds a series journal)
    rather than a plotfile."""
    return os.path.isfile(os.path.join(path, JOURNAL_FILENAME))


class _CodeStream(NamedTuple):
    """One chunk's resolved absolute grid codes at one step — every code, or
    those of some decoder lanes back to back — sized for the
    :class:`~repro.service.cache.ChunkCache` that holds them."""

    codes: np.ndarray
    eb: float
    offset: float
    size: int                       #: codes in the whole stream
    #: the decoder lanes ``codes`` holds (ascending); None: the whole stream
    lanes: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes)

    def narrow(self, lanes: Optional[np.ndarray]) -> "_CodeStream":
        """The codes of ``lanes``, which this stream covers."""
        if lanes is None or (self.lanes is not None and np.array_equal(lanes, self.lanes)):
            return self
        at = lanes if self.lanes is None else np.searchsorted(self.lanes, lanes)
        return self._replace(codes=self.codes[TemporalDeltaCodec.lane_cells(at, self.codes.size)],
                             lanes=lanes)


class _Chain(NamedTuple):
    """One planned reference chain of :meth:`SeriesHandle._resolve`."""

    base: Optional[_CodeStream]     #: the cached codes under its oldest stream
    lanes: Optional[np.ndarray]     #: what is decoded of each stream (None: all)
    streams: List[Tuple[int, int]]  #: ``(step, chunk)``, oldest first
    answers: set                    #: the streams asked for


def _covers(have: Optional[np.ndarray], want: Optional[np.ndarray]) -> bool:
    """Whether lanes ``have`` include lanes ``want`` (None: every lane)."""
    return have is None or (want is not None and bool(np.isin(want, have).all()))


def _lanes_of(pieces: Sequence[Tuple[int, int]], ordinals: Sequence[int]
              ) -> Optional[np.ndarray]:
    """The decoder lanes of a chunk's stream that hold the pieces ``ordinals``
    of its ``pieces`` (ascending); None when that is every lane."""
    if len(ordinals) == len(pieces):
        return None
    hit = np.zeros(-(-sum(pieces[-1]) // SYNC_INTERVAL), dtype=bool)
    for ordinal in ordinals:
        offset, size = pieces[ordinal]
        hit[offset // SYNC_INTERVAL:(offset + size - 1) // SYNC_INTERVAL + 1] = True
    return None if hit.all() else np.flatnonzero(hit)


def _cut(stream: _CodeStream, pieces: Sequence[Tuple[int, int]], ordinals: Sequence[int],
         stored: int) -> Iterator[Tuple[int, np.ndarray]]:
    """``(ordinal, values)`` of a chunk's pieces from its resolved codes: every
    piece of a whole stream (wanted or not; it must hold the ``stored``
    elements its chunk record names), the wanted ones of a narrowed one."""
    values = TemporalDeltaCodec.grid_values(stream.codes, stream.eb, stream.offset)
    if stream.lanes is None:
        yield from enumerate(cut_blocks(values, pieces, stored))
        return
    for ordinal in ordinals:
        offset, size = pieces[ordinal]
        lane, within = divmod(offset, SYNC_INTERVAL)
        at = int(np.searchsorted(stream.lanes, lane)) * SYNC_INTERVAL + within
        yield ordinal, values[at:at + size]


class SeriesStepHandle(PlotfileHandle):
    """One step of a series: a plotfile handle that can follow delta chains.

    Metadata, the cache lookup and placement are inherited.  Two things go
    through the owning :class:`SeriesHandle`: the level layouts of the read
    plan (:meth:`_scan`: one set per geometry, shared by every step whose
    own header declares it) and the production of missing chunks
    (:meth:`_decode_missing`: temporal chain resolution).
    """

    def __init__(self, series: "SeriesHandle", step_index: int, path: str):
        super().__init__(path, cache=series.cache, source=series._source_spec)
        self._series = series
        self._step_index = step_index
        # all step handles of a series report into one shared stats object
        self.stats = series.stats

    def _scan(self) -> ReadPlan:
        if self._plan is None:
            self._plan = scan_plotfile(self._file, self.header, self._series._layouts)
        return self._plan

    def _decode_missing(self, pending: Mapping[DatasetReadPlan, Mapping[int, List[int]]],
                        comm, store: bool = False,
                        ) -> Iterator[Tuple[DatasetReadPlan, int, int, np.ndarray]]:
        # no backend runs here and ``comm`` and ``store`` go unused: a group's
        # streams share entropy passes in this process, and what they resolve to lives in this
        # process's per-series code cache.  A delta adds onto the same cells
        # of its reference, so each chain decodes only the lanes that hold
        # the wanted pieces; a chunk wanted whole is decoded whole and hands on
        # every piece
        for _, dplan, index, ordinal, block in self._series._decode_pending(
                {self._step_index: pending}):
            yield dplan, index, ordinal, block


class SeriesHandle:
    """An open plotfile series: inspect cheaply, decode lazily, slice time.

    * :meth:`steps`, :attr:`fields`, :attr:`times` — manifest only;
    * :meth:`read_field` — one field over one region at one step, decoding
      only the intersecting chunks and their reference chains;
    * :meth:`time_slice` — a region's evolution across steps as one array;
    * :meth:`read` — a whole hierarchy at one step.

    Step handles, decoded chunk values and resolved code streams are all
    cached on the series handle, shared across steps (a keyframe chunk
    resolved for step 3's chain is a cache hit for step 4's).  Both caches
    are byte-budgeted :class:`~repro.service.cache.ChunkCache` instances: the
    chunk values live in ``cache`` (the caller's shared one, else a private
    one of the default budget), the code streams in a second instance of the
    same budget — so a long-lived handle stays bounded either way.  Eviction
    is always safe: a missing stream makes the next read plan a longer chain
    (at worst back to the keyframe payloads) and re-derive it.
    """

    def __init__(self, directory: str, cache=None, source=None):
        if isinstance(source, ByteSource):
            raise ValueError(
                "a series opens one file per step; pass a source spec "
                "string or a factory callable, not a single ByteSource")
        self.directory = str(directory)
        self.index, view = load_journal(self.directory)
        #: the series is still being appended to (no ``final`` record last);
        #: :meth:`refresh` keeps the handle current until it finalizes
        self._live = not view.final
        self._journal_offset = view.end_offset
        self._journal_crc = view.genesis_crc
        self._refresh_lock = threading.Lock()
        #: the recipe every step handle opens its file through
        self._source_spec = source
        self.stats = ReadStats()
        #: refresh accounting (mirrored into the engine's metrics registry):
        #: polls issued and steps picked up live
        self.refreshes = 0
        self.steps_appended = 0
        #: where every step handle stores its decoded chunk values (keyed by
        #: the step's own path)
        self.cache = cache if cache is not None else ChunkCache()
        self._handles: Dict[int, SeriesStepHandle] = {}
        #: (step index, dataset, chunk) -> :class:`_CodeStream`
        self._codes = ChunkCache(self.cache.max_bytes)
        # guards the step-handle pool: concurrent readers (the query service
        # worker pool) must not race open_step into leaked duplicate handles
        self._handles_lock = threading.Lock()
        #: a step header's geometry -> its level layouts (see :meth:`_layouts`)
        self._geometries: Dict[tuple, List[LevelLayout]] = {}
        self._geometries_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._handles_lock:
            if not self._closed:
                for handle in self._handles.values():
                    handle.close()
                self._handles.clear()
                self._closed = True

    def __enter__(self) -> "SeriesHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.index.nsteps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SeriesHandle({self.directory!r}, nsteps={self.index.nsteps}, "
                f"codec={self.index.codec!r})")

    @property
    def source_stats(self) -> SourceStats:
        """Every byte and request the opened steps' files cost, added up."""
        with self._handles_lock:
            return SourceStats.sum(h.source_stats for h in self._handles.values())

    # ------------------------------------------------------------------
    # manifest-level metadata (nothing decoded)
    # ------------------------------------------------------------------
    @property
    def nsteps(self) -> int:
        return self.index.nsteps

    @property
    def fields(self) -> Tuple[str, ...]:
        return tuple(self.index.components)

    @property
    def codec(self) -> str:
        return self.index.codec

    @property
    def error_bound(self) -> float:
        return self.index.error_bound

    @property
    def times(self) -> List[float]:
        return self.index.times()

    def steps(self) -> List[SeriesStepRecord]:
        """The manifest's per-step records (paths, kinds, stats)."""
        return list(self.index.steps)

    @property
    def live(self) -> bool:
        """Whether the series is still being appended to (not finalized)."""
        return self._live

    @property
    def high_water(self) -> int:
        """Index of the newest committed step (-1 for an empty live series)."""
        return self.index.nsteps - 1

    def refresh(self) -> int:
        """Pick up steps committed since the handle last looked; returns how many.

        Committed steps are immutable, so a refresh only ever *appends* to
        the in-memory index — open step handles, decoded chunk values and
        resolved code streams all stay valid and warm.  The steady-state cost
        when nothing changed is one ``stat`` plus a 24-byte journal head
        probe; new steps cost exactly their own journal records.  A journal
        that no longer holds what the handle read raises
        :class:`~repro.errors.CorruptFileError`.  Once the handle reads a
        ``final`` record, refresh settles to a free no-op.
        """
        if not self._live:
            return 0
        with self._refresh_lock:
            if not self._live:
                return 0
            self.refreshes += 1
            path = os.path.join(self.directory, JOURNAL_FILENAME)
            tail = tail_journal(path, self._journal_offset, self._journal_crc)
            appended = replay_journal(self.index, tail, path=path)
            self._journal_offset = tail.end_offset
            self._live = not tail.final
            self.steps_appended += appended
            return appended

    def describe(self) -> Dict[str, object]:
        """A flat summary (what ``python -m repro info DIR`` prints).

        ``keyframe_only_bytes`` is the sum of the recorded key candidates:
        their records' sizes less the headers, a few percent under a real
        keyframe-only series (DESIGN.md §6).  ``delta_savings_factor``
        compares like with like: that sum over the sum of the candidates that
        were committed.
        """
        index = self.index
        psnrs = [d.psnr for s in index.steps for d in s.datasets
                 if np.isfinite(d.psnr)]
        return {
            "directory": self.directory,
            "nsteps": index.nsteps,
            "live": self._live,
            "high_water": self.high_water,
            "codec": index.codec,
            "error_bound": index.error_bound,
            "error_bound_mode": index.error_bound_mode,
            "keyframe_interval": index.keyframe_interval,
            "fields": list(index.components),
            "stored_bytes": index.stored_bytes,
            "raw_bytes": index.raw_bytes,
            "compression_ratio": index.compression_ratio,
            "keyframe_only_bytes": index.key_bytes,
            "delta_saved_bytes": index.delta_saved_bytes,
            "keyframes": sum(1 for s in index.steps if s.kind == "key"),
            "delta_steps": sum(1 for s in index.steps if s.kind == "delta"),
            "delta_savings_factor":
                index.key_bytes / max(index.key_bytes - index.delta_saved_bytes, 1),
            "mean_psnr_db": float(np.mean(psnrs)) if psnrs else float("inf"),
            "worst_psnr_db": float(min(psnrs)) if psnrs else float("inf"),
        }

    # ------------------------------------------------------------------
    def _step_index(self, step: int) -> int:
        nsteps = self.index.nsteps
        if not -nsteps <= step < nsteps:
            raise IndexError(
                f"step {step} out of range for a series of {nsteps} steps")
        return step % nsteps if nsteps else 0

    def _layouts(self, header: PlotfileHeader) -> List[LevelLayout]:
        """The level layouts of one step file's own parsed header, built the
        first time its geometry is met and shared (read-only) by every later
        step that declares the same, so no step is decoded under geometry it
        did not declare."""
        key = header.geometry
        with self._geometries_lock:
            layouts = self._geometries.get(key)
            if layouts is None:
                layouts = self._geometries[key] = level_layouts(*key)
            return layouts

    def _resolve(self, name: str, wanted: Sequence[Tuple[int, int, Optional[np.ndarray]]]
                 ) -> Iterator[Tuple[Tuple[int, int], _CodeStream]]:
        """Absolute grid codes of one dataset's chunks at some steps: for each
        ``(step, chunk, lanes)`` of ``wanted`` yields ``((step, chunk), codes)``,
        codes that cover those decoder lanes (``lanes`` None: all of them).

        Each chunk's reference chain is *planned* first, from the manifest's
        ``ref`` links back to the nearest keyframe or to a cached stream that
        covers the lanes — a loop, so an arbitrary ``keyframe_interval``
        cannot hit the recursion limit, and no stream has to be decoded to
        learn where its chain leads.  A chunk whose stream an earlier (newer)
        request's chain already decodes is answered by it: ask newest step
        first and a keyframe interval's steps share one chain.  Then every
        step the chains touch is read once (one coalesced payload batch per
        step) and the streams are entropy-decoded chain by chain, oldest
        first, ``_PASS_STREAMS`` to a lane pass, only their chain's lanes of
        each, each delta folded onto its chain's base as it comes out and a
        chunk handed on when its stream is folded — what is alive at once is
        the compressed payloads, one pass's code arrays and one base per
        chain that had a cached one, whatever the request or the
        ``keyframe_interval``.  Every stream is decoded at most once per
        series handle for given lanes (memoised in the shared code cache)
        and charged to :attr:`stats` as one chunk.
        """
        chains: List[_Chain] = []
        planned: Dict[Tuple[int, int], _Chain] = {}     # stream -> the chain decoding it
        for step, index, lanes in wanted:
            key = (step, index)
            chain = planned.get(key)
            if chain is not None and _covers(chain.lanes, lanes):
                chain.answers.add(key)
                continue
            base, streams = None, []
            while True:
                cached = self._codes.get((key[0], name, index))
                if cached is not None and _covers(cached.lanes, lanes):
                    self.stats.cache_hits += 1
                    # held from planning on: a byte-bounded cache may evict it meanwhile
                    base = cached.narrow(lanes)
                    break
                streams.append(key)
                record = self.index.steps[key[0]].dataset(name)
                if record is None or record.ref is None:
                    break
                key = (record.ref, index)
            if not streams:
                yield (step, index), base
                continue
            chain = _Chain(base, lanes, streams[::-1], {(step, index)})
            chains.append(chain)
            planned.update(dict.fromkeys(streams, chain))

        order = [(chain, key) for chain in chains for key in chain.streams]
        fetch: Dict[int, List[int]] = {}                # step -> its chunks to fetch
        for _, (step, index) in order:
            fetch.setdefault(step, []).append(index)
        payloads: Dict[Tuple[int, int], bytes] = {}
        stored: Dict[int, Tuple[dict, List[int]]] = {}  # step -> recipe, codes a chunk
        for step, indices in fetch.items():
            f = self.open_step(step)._file
            payloads.update(zip(((step, index) for index in indices),
                                f.read_chunk_payloads(name, indices)))
            info = f.datasets[name]
            stored[step] = info.attrs.get("codec", {}), [c.actual_elements for c in info.chunks]

        # fold the deltas forward onto each chain's base, caching each step;
        # the answers are handed on directly — the code cache may be byte-bounded
        # and must be allowed to evict what was just inserted
        entry = None
        for at in range(0, len(order), _PASS_STREAMS):
            batch = order[at:at + _PASS_STREAMS]
            streams = TemporalDeltaCodec.unpack_codes_many(
                [payloads[key] for _, key in batch],
                [stored[step][0] for _, (step, _) in batch],
                [stored[step][1][index] for _, (step, index) in batch],
                [chain.lanes for chain, _ in batch])
            self.stats.chunks_decoded += len(batch)
            for (chain, (step, index)), codes in zip(batch, streams):
                mode, eb, offset = TemporalDeltaCodec.grid_of(stored[step][0])
                size = stored[step][1][index]
                if (step, index) == chain.streams[0]:
                    entry = chain.base
                if mode == MODE_DELTA:
                    if entry is None:
                        raise ValueError(
                            f"step {step} stores {name!r} as a delta stream but "
                            "the series manifest records no reference step")
                    if size != entry.size:
                        raise ValueError(
                            f"delta chunk {index} of {name!r} at step {step} "
                            f"has {size} codes but its reference has "
                            f"{entry.size}; the series is corrupt")
                    codes = entry.codes + codes
                entry = _CodeStream(codes, eb, offset, size, chain.lanes)
                self._codes.put((step, name, index), entry)
                if (step, index) in chain.answers:
                    yield (step, index), entry

    def _decode_pending(self, pending: Mapping[int, Mapping[DatasetReadPlan,
                                                            Mapping[int, List[int]]]]
                        ) -> Iterator[Tuple[int, DatasetReadPlan, int, int, np.ndarray]]:
        """The missing pieces of some steps' reads, ``{step: {dataset: {chunk:
        ordinals}}}``: yields ``(step, dataset, chunk, ordinal, values)``.

        A dataset's chunks are resolved together across the steps, newest
        first (:meth:`_resolve`), each narrowed to the decoder lanes that hold
        its wanted pieces — unless that is all of them, as on a full read,
        which decodes each stream whole and hands on every piece.
        """
        groups: Dict[str, Dict[Tuple[int, int], tuple]] = {}
        for step in sorted(pending, reverse=True):
            for dplan, chunks in pending[step].items():
                group = groups.setdefault(dplan.name, {})
                for index, ordinals in chunks.items():
                    group[(step, index)] = (dplan, dplan.chunk_layout(index), ordinals)
        for name, group in groups.items():
            wanted = [(step, index, _lanes_of(pieces, ordinals))
                      for (step, index), (_, pieces, ordinals) in group.items()]
            for (step, index), stream in self._resolve(name, wanted):
                dplan, pieces, ordinals = group[(step, index)]
                for ordinal, values in _cut(stream, pieces, ordinals, dplan.stored[index]):
                    yield step, dplan, index, ordinal, values

    def open_step(self, step: int = -1) -> SeriesStepHandle:
        """The (cached) plotfile handle of one step; negative indices count back."""
        index = self._step_index(step)
        with self._handles_lock:
            if self._closed:
                raise ValueError("series handle is closed")
            handle = self._handles.get(index)
            if handle is None:
                path = os.path.join(self.directory, self.index.steps[index].path)
                handle = SeriesStepHandle(self, index, path)
                self._handles[index] = handle
            return handle

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read_field(self, name: str, level: int = 0, box: Optional[Box] = None,
                   step: int = -1, refill: bool = True,
                   fill_value: float = 0.0,
                   max_level: Optional[int] = None) -> np.ndarray:
        """One field over one region at one step (see PlotfileHandle.read_field)."""
        return self.open_step(step).read_field(name, level=level, box=box,
                                               refill=refill,
                                               fill_value=fill_value,
                                               max_level=max_level)

    def read(self, step: int = -1) -> AmrHierarchy:
        """Fully reconstruct one step's hierarchy."""
        return self.open_step(step).read()

    def time_slice(self, name: str, box: Optional[Box] = None, level: int = 0,
                   steps: Optional[Sequence[int]] = None, refill: bool = True,
                   fill_value: float = 0.0,
                   max_level: Optional[int] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """A region's evolution: (times, values of shape ``(nsteps, *box.shape)``).

        Only the chunks whose unit blocks intersect ``box`` are decoded — at
        each requested step and along those chunks' delta chains, and of each
        stream only the decoder lanes that hold those blocks — so extracting a
        small probe region from a long series stays far cheaper than decoding
        the plotfiles in full.  Every step is planned and looked up in the
        block cache first; then all their chains are resolved together,
        newest step first, so a keyframe interval's steps share one chain and
        its entropy passes.  ``box`` None is the level's whole domain.
        """
        indices = list(range(self.index.nsteps)) if steps is None \
            else [self._step_index(s) for s in steps]
        times = np.asarray([self.index.steps[i].time for i in indices],
                           dtype=np.float64)
        if not indices:
            if box is None and self.index.nsteps:
                box = self.open_step(-1).header.levels[level].domain()
            return times, np.zeros((0, *(() if box is None else box.shape)))
        reads, pending = {}, {}
        for i in sorted(set(indices), reverse=True):
            handle = self.open_step(i)
            needed: Dict[DatasetReadPlan, set] = {}
            read = handle._plan_box(name, level, box, refill, max_level, needed)
            out, pending[i] = handle._lookup(needed)
            reads[i] = (handle, read, out)
        decoded: Dict[int, list] = {i: [] for i in reads}
        for i, *piece in self._decode_pending(pending):
            decoded[i].append(piece)
        values = {}
        for i, (handle, read, out) in reads.items():
            handle._fill(out, decoded.pop(i))
            values[i] = handle._assemble(read, out, fill_value)
        return times, np.stack([values[i] for i in indices])
