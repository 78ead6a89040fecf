"""The query engine: a pool of lazy handles serving batched box reads.

One :class:`QueryEngine` fronts many plotfiles and series at once.  It keeps
a pool of lazily-opened handles, binds every one of them to a single shared
:class:`~repro.service.cache.ChunkCache`, and adds the two behaviours a
serving layer needs beyond what a lone handle offers:

* **batching with block coalescing** — :meth:`read_batch` hands the
  :class:`BoxQuery` requests that land on one file (or series step) to its
  handle together, which obtains the union of the unit blocks they meet once
  (one cache lookup and at most one decode per block per batch);
* **time slices** — :meth:`time_slice` is :meth:`SeriesHandle.time_slice
  <repro.series.reader.SeriesHandle.time_slice>` on the pooled handle.

The TCP server (:mod:`repro.service.server`) executes requests against it;
the handle pool is the seam where sharding across files would slot in.
DESIGN.md §7 has the whole account.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.core.reader import PlotfileHandle
from repro.h5lite.source import SourceStats
from repro.obs import MetricsRegistry, current_trace_id, get_registry, span
from repro.series.reader import SeriesHandle, is_series_dir
from repro.service.cache import DEFAULT_CACHE_BYTES, ChunkCache

__all__ = ["BoxQuery", "QueryEngine"]


@dataclass(frozen=True)
class BoxQuery:
    """One box-read request against the engine.

    ``path`` names either a plotfile or a series directory; ``step`` selects
    a series step (and must be None for a plain plotfile).  ``box`` is the
    region to read (None = the level's whole domain).
    """

    path: str
    field: str
    level: int = 0
    box: Optional[Box] = None
    step: Optional[int] = None
    refill: bool = True
    fill_value: float = 0.0
    #: progressive-read cap: refill never recurses past this level (None =
    #: full resolution); see :meth:`PlotfileHandle.read_field`
    max_level: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "path": self.path, "field": self.field, "level": self.level,
            "box": [list(self.box.lo), list(self.box.hi)] if self.box else None,
            "step": self.step, "refill": self.refill,
            "fill_value": self.fill_value,
            "max_level": self.max_level,
        }

    @staticmethod
    def from_json(obj: dict) -> "BoxQuery":
        if not isinstance(obj, dict):
            raise ValueError(f"a query must be an object, got {type(obj).__name__}")
        for key in ("path", "field"):
            if key not in obj:
                raise ValueError(f"query is missing {key!r}")
        box = obj.get("box")
        if box is not None:
            box = Box(tuple(int(v) for v in box[0]), tuple(int(v) for v in box[1]))
        step = obj.get("step")
        max_level = obj.get("max_level")
        return BoxQuery(
            path=str(obj["path"]), field=str(obj["field"]),
            level=int(obj.get("level", 0)), box=box,
            step=int(step) if step is not None else None,
            refill=bool(obj.get("refill", True)),
            fill_value=float(obj.get("fill_value", 0.0)),
            max_level=int(max_level) if max_level is not None else None)


class QueryEngine:
    """Batched, cached reads over a pool of plotfile and series handles."""

    def __init__(self, cache: Optional[ChunkCache] = None,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 source=None, registry: Optional[MetricsRegistry] = None):
        self.cache = cache if cache is not None else ChunkCache(cache_bytes)
        #: this engine's metrics spine.  Private by default so a server's
        #: ``stats`` snapshot describes *that* server, not every tenant of
        #: the process; pass :data:`~repro.obs.NULL_REGISTRY` to opt out
        #: (the instrumentation-overhead bench baseline does).
        self.registry = registry if registry is not None else MetricsRegistry()
        #: trace ID of the most recent traced query this engine served (the
        #: tail of the client → server → engine propagation chain)
        self.last_trace: Optional[str] = None
        #: byte-source recipe (spec string / factory) every pooled handle
        #: opens its file through; None = plain local files
        self._source_spec = source
        self._plotfiles: Dict[str, PlotfileHandle] = {}
        self._series: Dict[str, SeriesHandle] = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._closed = False
        self.cache.bind_registry(self.registry)
        self.registry.add_collector(self._metrics_samples)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            for handle in self._plotfiles.values():
                handle.close()
            for series in self._series.values():
                series.close()
            self._plotfiles.clear()
            self._series.clear()
            self._closed = True

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QueryEngine({len(self._plotfiles)} plotfiles, "
                f"{len(self._series)} series, cache={self.cache!r})")

    # ------------------------------------------------------------------
    # the handle pool
    # ------------------------------------------------------------------
    def handle(self, path: str) -> PlotfileHandle:
        """The pooled (lazily opened) handle of one plotfile."""
        from repro.facade import open_plotfile

        key = os.path.abspath(path)
        with self._lock:
            if self._closed:
                raise ValueError("query engine is closed")
            handle = self._plotfiles.get(key)
            if handle is None:
                handle = open_plotfile(key, cache=self.cache,
                                       source=self._source_spec)
                self._plotfiles[key] = handle
            return handle

    def series(self, directory: str) -> SeriesHandle:
        """The pooled (lazily opened) handle of one series directory."""
        key = os.path.abspath(directory)
        with self._lock:
            if self._closed:
                raise ValueError("query engine is closed")
            series = self._series.get(key)
            if series is None:
                series = SeriesHandle(key, cache=self.cache,
                                      source=self._source_spec)
                self._series[key] = series
            return series

    def refresh(self, directory: str) -> int:
        """Pick up a live series' newly committed steps; returns how many.

        Cheap by design (see :meth:`SeriesHandle.refresh`): committed steps
        are immutable, so nothing in the shared cache is invalidated — a
        server polling this per watch tick costs a ``stat`` per tick.
        """
        return self.series(directory).refresh()

    def _target(self, query: BoxQuery) -> PlotfileHandle:
        """The plotfile handle a query reads from (a step handle for series)."""
        if is_series_dir(query.path):
            series = self.series(query.path)
            return series.open_step(query.step if query.step is not None else -1)
        if query.step is not None:
            raise ValueError(
                f"{query.path!r} is a single plotfile; step={query.step} "
                "only applies to series directories")
        return self.handle(query.path)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def describe(self, path: str) -> Dict[str, object]:
        """Metadata of one plotfile or series (nothing decoded)."""
        if is_series_dir(path):
            return self.series(path).describe()
        return self.handle(path).describe()

    def read_field(self, path: str, field: str, level: int = 0,
                   box: Optional[Box] = None, step: Optional[int] = None,
                   refill: bool = True, fill_value: float = 0.0,
                   max_level: Optional[int] = None) -> np.ndarray:
        """One box read (the single-request form of :meth:`read_batch`)."""
        query = BoxQuery(path=path, field=field, level=level, box=box,
                         step=step, refill=refill, fill_value=fill_value,
                         max_level=max_level)
        return self.read_batch([query])[0]

    def read_batch(self, queries: Sequence[BoxQuery]) -> List[np.ndarray]:
        """Answer many box reads, decoding every touched block at most once.

        Requests are grouped by the handle they read from (a file, or one
        step of a series); each handle plans its group, obtains the union of
        the touched unit blocks in one shot (one lookup per block in the shared
        cache, one decode batch for the misses — for series steps this
        resolves the delta chains of exactly their chunks) and assembles its
        answers from what it obtained.  Answers come back in input order.
        """
        queries = list(queries)
        with self._lock:
            self._requests += len(queries)
            self._batches += 1
        self.last_trace = current_trace_id() or self.last_trace
        with span("engine.read_batch", registry=self.registry,
                  queries=len(queries)) as sp:
            groups: Dict[PlotfileHandle, List[int]] = {}
            for position, query in enumerate(queries):
                groups.setdefault(self._target(query), []).append(position)
            answers: List[Optional[np.ndarray]] = [None] * len(queries)
            for handle, positions in groups.items():
                group = [queries[position] for position in positions]
                arrays = handle._read_boxes(
                    [(q.field, q.level, q.box, q.refill, q.fill_value, q.max_level)
                     for q in group])
                for position, array in zip(positions, arrays):
                    answers[position] = array
            sp.add_bytes(sum(int(a.nbytes) for a in answers))
            return answers

    def time_slice(self, directory: str, field: str, box: Optional[Box] = None,
                   level: int = 0, steps: Optional[Sequence[int]] = None,
                   refill: bool = True, fill_value: float = 0.0,
                   max_level: Optional[int] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """A region's evolution across steps (see :meth:`SeriesHandle.time_slice
        <repro.series.reader.SeriesHandle.time_slice>`), one request per step."""
        series = self.series(directory)
        nsteps = series.nsteps if steps is None else len(steps)
        self.last_trace = current_trace_id() or self.last_trace
        with span("engine.time_slice", registry=self.registry,
                  steps=nsteps) as sp:
            times, values = series.time_slice(field, box=box, level=level,
                                              steps=steps, refill=refill,
                                              fill_value=fill_value,
                                              max_level=max_level)
            with self._lock:
                self._requests += nsteps
            sp.add_bytes(int(values.nbytes))
            return times, values

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _totals(self):
        """The pool's counters, read once for either accounting surface:
        ``(plotfile handles, series, requests, batches, chunks decoded,
        records parsed, I/O)``.

        I/O is the one ledger: :meth:`SourceStats.sum` over the byte sources
        of every pooled plotfile handle and opened series step, a source two
        handles share counted once.
        """
        with self._lock:
            handles = list(self._plotfiles.values())
            series = list(self._series.values())
            requests, batches = self._requests, self._batches
        decoded = sum(h.stats.chunks_decoded for h in handles + series)
        parsed = sum(h.stats.records_parsed for h in handles + series)
        steps: List[PlotfileHandle] = []
        for s in series:
            with s._handles_lock:
                steps.extend(s._handles.values())
        io = SourceStats.sum(h.source_stats for h in handles + steps)
        return handles, series, requests, batches, decoded, parsed, io

    def _metrics_samples(self):
        """Snapshot-time collector: fold pooled-handle stats into the registry."""
        handles, series, requests, batches, decoded, parsed, io = self._totals()
        rows = [
            ("repro_engine_requests_total", "counter", {}, float(requests)),
            ("repro_engine_batches_total", "counter", {}, float(batches)),
            ("repro_engine_plotfiles_open", "gauge", {}, float(len(handles))),
            ("repro_engine_series_open", "gauge", {}, float(len(series))),
            ("repro_chunks_decoded_total", "counter", {}, float(decoded)),
            ("repro_records_parsed_total", "counter", {}, float(parsed)),
            ("repro_blocks_decoded_total", "counter", {},
             float(sum(h.stats.blocks_decoded for h in handles + series))),
            ("repro_series_refreshes_total", "counter", {},
             float(sum(s.refreshes for s in series))),
            ("repro_series_steps_appended_total", "counter", {},
             float(sum(s.steps_appended for s in series))),
        ]
        rows.extend(io.samples())
        return rows

    def metrics_snapshot(self, include_global: bool = True) -> Dict[str, object]:
        """The registry snapshot (the payload of the ``stats`` wire op).

        With ``include_global`` the process-wide default registry
        (:func:`repro.obs.get_registry` — writer-stage spans, journal
        producer counters) is folded in, so a server co-located with an in
        situ producer exposes the whole pipeline's telemetry in one place.
        The fold happens in a scratch registry: nothing is double-counted
        into this engine's persistent instruments.
        """
        snap = self.registry.snapshot()
        if not include_global:
            return snap
        merged = MetricsRegistry()
        merged.merge_snapshot(snap)
        merged.merge_snapshot(get_registry().snapshot())
        return merged.snapshot()

    def stats(self) -> Dict[str, object]:
        """One flat snapshot: engine counters + cache counters + decode totals."""
        handles, series, requests, batches, decoded, parsed, io = self._totals()
        out: Dict[str, object] = {
            "plotfiles_open": len(handles), "series_open": len(series),
            "requests": requests, "batches": batches,
            "chunks_decoded": decoded, "records_parsed": parsed,
            # the registry's repro_io_* rows, flat ("io_" prefixed: "requests"
            # above counts engine queries, not source ranges)
            "io_bytes_read": io.bytes_read, "io_requests": io.requests,
            "io_coalesced_requests": io.coalesced_requests,
            "cache_bytes": self.cache.current_bytes,
            "cache_max_bytes": self.cache.max_bytes,
        }
        out.update({f"cache_{k}": v for k, v in self.cache.stats.as_dict().items()})
        return out
