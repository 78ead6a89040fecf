"""A byte-budgeted LRU cache of decoded unit blocks.

:class:`ChunkCache` is a thread-safe LRU over ``(path, dataset, slot index)``
keys — one entry per decoded unit block, the reader's unit of decode and of
cache (:mod:`repro.core.reader`) — with a byte budget, every hit, miss and
eviction counted in :class:`CacheStats`.  Every handle has one: a private one
of the default budget, or the one its opener shares (``repro.open(path,
cache=...)``), so handles and service clients over the same file decode a
block once; the path in the key lets one cache serve many files.  An entry is
sized by its ``nbytes``, so what is put must own its memory.  The budget
bounds decoded blocks only (the parsed records a handle keeps are not
entries); the series reader keeps its resolved code streams in a second
instance.  DESIGN.md §7 has the whole account.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CacheStats", "ChunkCache", "DEFAULT_CACHE_BYTES"]

#: default byte budget: ~4k unit blocks of 16^3 float64 cells
DEFAULT_CACHE_BYTES = 128 * 1024 * 1024

#: (file path, dataset name, slot index)
CacheKey = Tuple[str, str, int]


@dataclass
class CacheStats:
    """Counters for one cache's lifetime (all monotone except current_bytes)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    rejected: int = 0             #: entries larger than the whole budget

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / max(self.requests, 1)

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "insertions": self.insertions, "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes, "rejected": self.rejected,
                "hit_rate": self.hit_rate}


class ChunkCache:
    """Byte-budgeted LRU over decoded blocks, shared by any number of handles.

    ``get``/``put`` are safe to call from concurrent readers (one lock guards
    the LRU order and the counters).  Cached arrays are treated as immutable
    by every consumer — the readers copy out of them, never into them — so
    sharing needs no defensive copies.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES, registry=None):
        max_bytes = int(max_bytes)
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self._current_bytes = 0
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry) -> None:
        """Mirror this cache's counters into a metrics registry.

        Registered as a snapshot-time collector (see
        :meth:`repro.obs.metrics.MetricsRegistry.add_collector`), so the
        ``get``/``put`` hot paths keep their plain ``+=`` accounting and the
        registry export costs nothing between snapshots.
        """
        cache = self

        def collect():
            s = cache.stats
            rows = [("repro_cache_hits_total", "counter", s.hits),
                    ("repro_cache_misses_total", "counter", s.misses),
                    ("repro_cache_insertions_total", "counter", s.insertions),
                    ("repro_cache_evictions_total", "counter", s.evictions),
                    ("repro_cache_evicted_bytes_total", "counter",
                     s.evicted_bytes),
                    ("repro_cache_rejected_total", "counter", s.rejected),
                    ("repro_cache_current_bytes", "gauge", cache.current_bytes),
                    ("repro_cache_max_bytes", "gauge", cache.max_bytes),
                    ("repro_cache_entries", "gauge", len(cache))]
            return [(name, kind, {}, float(value))
                    for name, kind, value in rows]

        registry.add_collector(collect)

    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        return self._current_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ChunkCache({len(self._entries)} chunks, "
                f"{self._current_bytes}/{self.max_bytes} bytes)")

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[np.ndarray]:
        """The cached entry, refreshed to most-recently-used; None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: CacheKey, chunk: np.ndarray) -> None:
        """Insert one decoded block, evicting LRU entries past the budget.

        An entry larger than the whole budget is not cached (it would evict
        everything and immediately be evicted itself); re-inserting an
        existing key refreshes its recency without double-counting bytes.
        """
        nbytes = int(chunk.nbytes)
        with self._lock:
            if nbytes > self.max_bytes:
                self.stats.rejected += 1
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= int(old.nbytes)
            self._entries[key] = chunk
            self._current_bytes += nbytes
            self.stats.insertions += 1
            while self._current_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._current_bytes -= int(evicted.nbytes)
                self.stats.evictions += 1
                self.stats.evicted_bytes += int(evicted.nbytes)

    def clear(self) -> None:
        """Drop every entry (stats are kept — they describe the lifetime)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    def keys(self) -> List[CacheKey]:
        """A snapshot of the cached keys, LRU first."""
        with self._lock:
            return list(self._entries)
