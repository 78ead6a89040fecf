"""Lazy, time-indexed reads over a plotfile series.

:func:`open_series` parses the manifest and returns a :class:`SeriesHandle`;
nothing is decoded until a field is asked for.  Per step the handle hands out
a :class:`SeriesStepHandle` — a :class:`~repro.core.reader.PlotfileHandle`
whose chunk decode stage resolves temporal references: a key chunk decodes
directly, a delta chunk needs the *same chunk* of its reference step (and so
on back to the nearest keyframe) and adds the stored code differences.  The
chains of a decode group are planned from the manifest, fetched one payload
batch per step and entropy-decoded several streams to a pass.  Resolution is
chunk-granular and memoised in the PR-3 style chunk caches, so

* reading a box at step *t* decodes only the chunks intersecting the box —
  at step *t* and along those chunks' reference chains — never a chunk
  outside the request;
* :meth:`SeriesHandle.time_slice` walks a box through every step while each
  chunk's chain is decoded exactly once (shared code cache across steps).

All decode work is counted in one shared :class:`~repro.core.reader.ReadStats`
(`handle.stats`), which is what the chain-locality tests assert against.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.hierarchy import AmrHierarchy
from repro.compress.temporal import MODE_DELTA, TemporalDeltaCodec
from repro.core.reader import DatasetReadPlan, PlotfileHandle, ReadPlan, ReadStats
from repro.series.index import SeriesIndex, SeriesStepRecord
from repro.stream.journal import (
    JOURNAL_FILENAME,
    load_live_index,
    replay_journal,
    tail_journal,
)

__all__ = ["SeriesHandle", "SeriesStepHandle", "open_series"]

#: streams per entropy pass while chains are resolved: a pass's 256 Python-level
#: steps are shared by two chunks' chains on a ``keyframe_interval=4`` series
#: (4 streams cost 3.4 ms in one pass, 6.7 ms alone; past 8 a stream gains
#: little), and the int64 code arrays alive at once stop growing with the decode
#: group and the chain length
_PASS_STREAMS = 8


def open_series(directory: str, cache=None, source=None) -> "SeriesHandle":
    """Open a series directory for lazy reading (exported as :func:`repro.open_series`).

    A directory still being written by an append-mode
    :class:`~repro.series.writer.SeriesWriter` opens too (``handle.live`` is
    true): the handle sees every journal-committed step, and
    :meth:`SeriesHandle.refresh` picks up new ones as they land.
    """
    return SeriesHandle(directory, cache=cache, source=source)


class _CodeStreamCache:
    """Resolved absolute code streams, LRU-bounded when a budget is given.

    Values are ``(codes array, eb, offset)`` tuples keyed by ``(step index,
    dataset, chunk)``.  Without a budget this is the PR-4 behaviour (memoise
    for the handle's lifetime); with one — a series opened onto a shared
    :class:`~repro.service.cache.ChunkCache`, i.e. a long-lived server —
    least-recently-used streams are evicted past the byte budget.  Eviction
    is always safe: a missing stream makes :meth:`SeriesStepHandle._resolve_codes`
    plan a longer chain (at worst back to the keyframe payloads) and re-derive it.
    """

    def __init__(self, max_bytes: Optional[int] = None):
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: "OrderedDict[Tuple[int, str, int], Tuple[np.ndarray, float, float]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def __setitem__(self, key, value) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= int(old[0].nbytes)
            self._entries[key] = value
            self._bytes += int(value[0].nbytes)
            if self.max_bytes is not None:
                while self._bytes > self.max_bytes and len(self._entries) > 1:
                    _, evicted = self._entries.popitem(last=False)
                    self._bytes -= int(evicted[0].nbytes)


class SeriesStepHandle(PlotfileHandle):
    """One step of a series: a plotfile handle that can follow delta chains.

    Everything metadata- and geometry-related is inherited; only the chunk
    decode stage (:meth:`_decode_chunks`) is replaced by temporal chain
    resolution through the owning :class:`SeriesHandle`.
    """

    def __init__(self, series: "SeriesHandle", step_index: int, path: str):
        super().__init__(path, cache=series.cache, source=series._source_spec)
        self._series = series
        self._step_index = step_index
        # all step handles of a series report into one shared stats object;
        # the I/O charged during open (the superblock loads) moves with it
        series.stats.bytes_read += self.stats.bytes_read
        series.stats.requests += self.stats.requests
        series.stats.coalesced_requests += self.stats.coalesced_requests
        self.stats = series.stats

    # ------------------------------------------------------------------
    def _record(self) -> SeriesStepRecord:
        return self._series.index.steps[self._step_index]

    def _resolve_codes(self, dsname: str, chunk_indices: Sequence[int]
                       ) -> Iterator[Tuple[int, Tuple[np.ndarray, float, float]]]:
        """Absolute grid codes of a group of chunks: yields (index, (codes, eb, offset)).

        Each chunk's reference chain is *planned* first, from the manifest's
        ``ref`` links back to the nearest keyframe or cached stream — a loop,
        so an arbitrary ``keyframe_interval`` cannot hit the recursion limit,
        and no stream has to be decoded to learn where its chain leads.  Then
        every step the chains touch is read once (one coalesced payload batch
        per step) and the streams are entropy-decoded chunk by chunk, oldest
        first, ``_PASS_STREAMS`` to a lane pass, each delta folded onto its
        chunk's base as it comes out and a chunk handed on when its chain
        ends — what is alive at once is the compressed payloads, one pass's
        code arrays and one base per chunk that had a cached one, whatever
        the group size or the ``keyframe_interval``.  Every stream is decoded
        at most once per series handle (memoised in the shared code cache)
        and charged to :attr:`stats` as one chunk.
        """
        series = self._series
        # held from planning on: a byte-bounded cache may evict them meanwhile
        bases: Dict[int, Tuple[np.ndarray, float, float]] = {}
        order: List[Tuple[int, int]] = []          # (step, chunk): chunk by chunk, oldest first
        for index in chunk_indices:
            step, chain = self._step_index, []
            while True:
                cached = series._codes.get((step, dsname, index))
                if cached is not None:
                    self.stats.cache_hits += 1
                    bases[index] = cached
                    break
                chain.append((step, index))
                record = series.index.steps[step].dataset(dsname)
                if record is None or record.ref is None:
                    break
                step = record.ref
            if chain:
                order += reversed(chain)
            else:
                yield index, bases.pop(index)

        wanted: Dict[int, List[int]] = {}          # step -> its chunks to fetch
        for step, index in order:
            wanted.setdefault(step, []).append(index)
        payloads: Dict[Tuple[int, int], bytes] = {}
        for step, indices in wanted.items():
            handle = self if step == self._step_index else series.open_step(step)
            payloads.update(zip(((step, index) for index in indices),
                                handle._file.read_chunk_payloads(dsname, indices)))
            handle._sync_io()

        # fold the deltas forward onto the resolved base, caching each step;
        # the answers are handed on directly — the code cache may be byte-bounded
        # and must be allowed to evict what was just inserted
        entry = None
        for at in range(0, len(order), _PASS_STREAMS):
            keys = order[at:at + _PASS_STREAMS]
            streams = TemporalDeltaCodec.unpack_codes_many([payloads.pop(key) for key in keys])
            self.stats.chunks_decoded += len(keys)
            for (step, index), (mode, codes, meta) in zip(keys, streams):
                if entry is None:
                    entry = bases.pop(index, None)
                if mode == MODE_DELTA:
                    if entry is None:
                        raise ValueError(
                            f"step {step} stores {dsname!r} as a delta stream but "
                            "the series manifest records no reference step")
                    if codes.size != entry[0].size:
                        raise ValueError(
                            f"delta chunk {index} of {dsname!r} at step {step} "
                            f"has {codes.size} codes but its reference has "
                            f"{entry[0].size}; the series is corrupt")
                    codes = entry[0] + codes
                entry = (codes, float(meta["eb"]), float(meta.get("offset", 0.0)))
                series._codes[(step, dsname, index)] = entry
                if step == self._step_index:       # the chain's newest stream
                    yield index, entry
                    entry = None

    def _decode_chunks(self, plan: ReadPlan, dplan: DatasetReadPlan,
                       indices: Sequence[int],
                       backend=None) -> Dict[int, np.ndarray]:
        # ``backend`` is accepted for signature compatibility with the base
        # handle (the query engine passes its pool) but deliberately unused:
        # the group's streams share entropy passes in this process, and what
        # they resolve to lives in this process's per-series code cache
        out: Dict[int, np.ndarray] = {}
        misses: List[int] = []
        for index in indices:
            cached = self._cache.get((dplan.name, index))
            if cached is not None:
                out[index] = cached
                self.stats.cache_hits += 1
            else:
                misses.append(index)
        for index, (codes, eb, offset) in self._resolve_codes(dplan.name, misses):
            chunk = np.zeros(dplan.chunk_elements, dtype=np.float64)
            chunk[:codes.size] = TemporalDeltaCodec.grid_values(codes, eb, offset)
            self._cache[(dplan.name, index)] = chunk
            out[index] = chunk
        return out

    # ------------------------------------------------------------------
    def read(self, backend=None, comm=None) -> AmrHierarchy:
        """Full staged read; delta chains are pre-resolved into the chunk cache.

        Chain resolution must run through the series handle (the shared code
        cache is what keeps chains chunk-granular), so every chunk is
        materialised into the PR-3 chunk cache in-process first; the staged
        decode/place/refill pipeline then runs entirely on cache hits, over
        the cached scan plan with a fresh output hierarchy.
        """
        from dataclasses import replace

        from repro.core.header import template_from_header
        from repro.core.reader import execute_read
        from repro.parallel.backend import ExecutionBackend, make_backend

        plan = self._scan()
        # collect the resolved chunks into a local map rather than trusting
        # the chunk cache to retain them: a shared byte-budgeted cache may
        # evict between materialisation and placement
        resolved_chunks: Dict[Tuple[str, int], np.ndarray] = {}
        for dplan in plan.datasets:
            decoded = self._decode_chunks(plan, dplan, range(dplan.nchunks))
            for index, chunk in decoded.items():
                resolved_chunks[(dplan.name, index)] = chunk
        owns = not isinstance(backend, ExecutionBackend)
        resolved = make_backend(backend)
        try:
            fresh = replace(plan, structure=template_from_header(plan.header))
            return execute_read(self._file, fresh, resolved, comm=comm,
                                stats=self.stats, cache=resolved_chunks)
        finally:
            if owns:
                resolved.close()


class SeriesHandle:
    """An open plotfile series: inspect cheaply, decode lazily, slice time.

    * :meth:`steps`, :attr:`fields`, :attr:`times` — manifest only;
    * :meth:`read_field` — one field over one region at one step, decoding
      only the intersecting chunks and their reference chains;
    * :meth:`time_slice` — a region's evolution across steps as one array;
    * :meth:`read` — a whole hierarchy at one step.

    Step handles, decoded chunk values and resolved code streams are all
    cached on the series handle, shared across steps (a keyframe chunk
    resolved for step 3's chain is a cache hit for step 4's).  By default —
    like the single-file handle's chunk cache — the caches are unbounded for
    the handle's lifetime; open a fresh handle to drop them.  With ``cache``
    (a shared :class:`~repro.service.cache.ChunkCache`) both the decoded
    chunk values and the resolved code streams are byte-bounded to its
    budget, so long-lived consumers (the query service) stay bounded too.
    """

    def __init__(self, directory: str, cache=None, source=None):
        from repro.h5lite.source import ByteSource

        if isinstance(source, ByteSource):
            raise ValueError(
                "a series opens one file per step; pass a source spec "
                "string or a factory callable, not a single ByteSource")
        self.directory = str(directory)
        self.index, view = load_live_index(self.directory)
        #: the series is still being appended to (a journal is present);
        #: :meth:`refresh` keeps the handle current until it finalizes
        self._live = view is not None
        self._journal_offset = 0 if view is None else view.end_offset
        self._journal_crc = 0 if view is None else view.genesis_crc
        self._refresh_lock = threading.Lock()
        #: the recipe every step handle opens its file through
        self._source_spec = source
        self.stats = ReadStats()
        #: refresh accounting (mirrored into the engine's metrics registry):
        #: polls issued, steps picked up live, and full manifest reloads
        #: (compaction/finalize generation switches)
        self.refreshes = 0
        self.steps_appended = 0
        self.index_reloads = 0
        #: optional shared :class:`~repro.service.cache.ChunkCache`; every
        #: step handle stores its decoded chunk values there (keyed by the
        #: step's own path) instead of a private per-step dict
        self.cache = cache
        self._handles: Dict[int, SeriesStepHandle] = {}
        #: (step index, dataset, chunk) -> (absolute codes, eb, offset);
        #: byte-bounded to the shared cache's budget when one is given, so a
        #: long-lived server cannot grow it without limit
        self._codes = _CodeStreamCache(
            cache.max_bytes if cache is not None
            and hasattr(cache, "max_bytes") else None)
        # guards the step-handle pool: concurrent readers (the query service
        # worker pool) must not race open_step into leaked duplicate handles
        self._handles_lock = threading.Lock()
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
        """Whether the series is still being appended to (journal present)."""
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
        probe; new steps cost exactly their own journal records.  When the
        writer compacted (journal rewritten) or finalized (journal gone) the
        handle falls back to one manifest reload — still merged append-only
        into the same index object.  Once the series finalizes, refresh
        settles to a free no-op.
        """
        if not self._live:
            return 0
        with self._refresh_lock:
            if not self._live:
                return 0
            self.refreshes += 1
            path = os.path.join(self.directory, JOURNAL_FILENAME)
            tail = tail_journal(path, self._journal_offset, self._journal_crc)
            if tail.status == "ok":
                appended = replay_journal(self.index, tail, path=path)
                self._journal_offset = tail.end_offset
                self.steps_appended += appended
                return appended
            # compaction or finalize switched generations: full reload,
            # merged by appending the unseen suffix onto the live index
            self.index_reloads += 1
            before = self.index.nsteps
            if tail.status == "gone":
                fresh, view = SeriesIndex.load(self.directory), None
            else:
                fresh, view = load_live_index(self.directory)
            if fresh.nsteps < before:
                raise ValueError(
                    f"series {self.directory!r} lost steps ({before} -> "
                    f"{fresh.nsteps}); committed steps are immutable — the "
                    "directory was rewritten by something other than the "
                    "append-mode writer")
            self.index.steps.extend(fresh.steps[before:])
            if view is None:
                self._live = False
                self._journal_offset = 0
                self._journal_crc = 0
            else:
                self._journal_offset = view.end_offset
                self._journal_crc = view.genesis_crc
            self.steps_appended += self.index.nsteps - before
            return self.index.nsteps - before

    def describe(self) -> Dict[str, object]:
        """A flat summary (what ``python -m repro series-info`` prints)."""
        index = self.index
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
        }

    # ------------------------------------------------------------------
    def _step_index(self, step: int) -> int:
        nsteps = self.index.nsteps
        if not -nsteps <= step < nsteps:
            raise IndexError(
                f"step {step} out of range for a series of {nsteps} steps")
        return step % nsteps if nsteps else 0

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

    def read(self, step: int = -1, backend=None) -> AmrHierarchy:
        """Fully reconstruct one step's hierarchy."""
        return self.open_step(step).read(backend=backend)

    def time_slice(self, name: str, box: Optional[Box] = None, level: int = 0,
                   steps: Optional[Sequence[int]] = None, refill: bool = True,
                   fill_value: float = 0.0,
                   max_level: Optional[int] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """A region's evolution: (times, values of shape ``(nsteps, *box.shape)``).

        Only the chunks whose unit blocks intersect ``box`` are decoded — at
        each requested step and along those chunks' delta chains — so
        extracting a small probe region from a long series stays far cheaper
        than decoding the plotfiles in full.
        """
        indices = list(range(self.index.nsteps)) if steps is None \
            else [self._step_index(s) for s in steps]
        times = np.asarray([self.index.steps[i].time for i in indices],
                           dtype=np.float64)
        # newest step first: its chunks' chains reach back to the keyframe, so
        # every step of a keyframe interval shares that read's entropy passes
        # and the older steps of the interval find their codes resolved
        values = {i: self.read_field(name, level=level, box=box, step=i,
                                     refill=refill, fill_value=fill_value,
                                     max_level=max_level)
                  for i in sorted(set(indices), reverse=True)}
        return times, np.stack([values[i] for i in indices]) if indices \
            else np.zeros((0,))
