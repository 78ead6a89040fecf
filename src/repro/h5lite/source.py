"""Pluggable byte sources under :class:`~repro.h5lite.file.H5LiteFile`.

A high-latency medium (NFS, HTTP/S3 range requests) costs tens of
milliseconds per round-trip, so a staged reader that issued one seek per chunk
would serialize behind N of them.  This module abstracts "where the bytes
live" behind :class:`ByteSource` — a vectorized ``read_many(ranges)``, its
one-range form ``read_at(offset, size)`` and ``size()`` — with two
implementations:

:class:`LocalFileSource`
    Seek+read on a local file handle (one lock), with exactly-adjacent ranges
    in a ``read_many`` batch merged into one syscall.  Every default open.
:class:`RangeSource`
    The remote-style adapter: wraps a base source with per-request
    latency/bandwidth accounting (optionally *simulated* by sleeping, which is
    how the remote benchmark measures time-to-first-array), **request
    coalescing** (near-adjacent ranges within a gap threshold merge into one
    ranged read) and a byte-budgeted **block cache** (fixed-size aligned
    blocks, LRU, counted with the same eviction-stats idiom as
    :mod:`repro.service.cache`).

Every source counts its traffic in a :class:`SourceStats`: ranges requested
by callers (pre-coalescing), reads actually issued to the backing medium
(post-coalescing), bytes fetched, block-cache hits/misses/evictions and
simulated wait time.  It is the one I/O ledger: a handle exposes its source's
as ``source_stats``, a series and the query engine add up the sources they
opened (:meth:`SourceStats.sum`).

Sources are picked through :func:`make_source`: None is the local file, a
spec string of RangeSource modifiers (``repro.open(path,
source="latency:50ms,block:4k")``, ``repro info --source latency:50ms``)
wraps it in a RangeSource.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ByteSource",
    "SourceStats",
    "LocalFileSource",
    "RangeSource",
    "make_source",
    "coalesce_ranges",
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_BLOCK_CACHE_BYTES",
    "DEFAULT_GAP_BYTES",
]

#: aligned block size of the :class:`RangeSource` cache
DEFAULT_BLOCK_BYTES = 64 * 1024
#: byte budget of the :class:`RangeSource` block cache
DEFAULT_BLOCK_CACHE_BYTES = 32 * 1024 * 1024
#: ranges closer than this merge into one ranged read
DEFAULT_GAP_BYTES = 64 * 1024

#: (offset, size) byte range
Range = Tuple[int, int]


@dataclass
class SourceStats:
    """Traffic counters for one source's lifetime (the I/O mirror of
    :class:`~repro.service.cache.CacheStats`)."""

    requests: int = 0             #: ranges callers asked for (pre-coalescing)
    coalesced_requests: int = 0   #: reads issued to the medium (post-coalescing)
    bytes_read: int = 0           #: bytes fetched from the medium
    cache_hits: int = 0           #: block-cache hits (RangeSource only)
    cache_misses: int = 0         #: block-cache misses (RangeSource only)
    evictions: int = 0            #: blocks evicted past the budget
    evicted_bytes: int = 0
    wait_seconds: float = 0.0     #: simulated latency/bandwidth time accrued

    @property
    def cache_requests(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / max(self.cache_requests, 1)

    @property
    def coalescing_factor(self) -> float:
        """Ranges requested per read issued (>= 1 once coalescing helps)."""
        return self.requests / max(self.coalesced_requests, 1)

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "coalesced_requests": self.coalesced_requests,
            "bytes_read": self.bytes_read,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "wait_seconds": self.wait_seconds,
            "hit_rate": self.hit_rate,
            "coalescing_factor": self.coalescing_factor,
        }

    @classmethod
    def sum(cls, parts: Iterable["SourceStats"]) -> "SourceStats":
        """One ledger over several sources: every counter added up, an object
        that appears twice (handles sharing a source) counted once."""
        total = cls()
        for part in {id(p): p for p in parts}.values():
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + getattr(part, f.name))
        return total

    def samples(self, labels: Optional[Dict[str, str]] = None):
        """This source's traffic as registry collector samples.

        The ``(name, kind, labels, value)`` rows a
        :class:`repro.obs.metrics.MetricsRegistry` collector yields — how the
        query engine exposes per-source I/O without touching the read path.
        """
        tags = dict(labels or {})
        rows = [("repro_io_requests_total", "counter", self.requests),
                ("repro_io_reads_total", "counter", self.coalesced_requests),
                ("repro_io_bytes_read_total", "counter", self.bytes_read),
                ("repro_io_block_cache_hits_total", "counter", self.cache_hits),
                ("repro_io_block_cache_misses_total", "counter",
                 self.cache_misses),
                ("repro_io_block_cache_evictions_total", "counter",
                 self.evictions),
                ("repro_io_wait_seconds_total", "counter", self.wait_seconds)]
        return [(name, kind, tags, float(value)) for name, kind, value in rows]


def _check_range(offset: int, size: int, total: int, name: str) -> None:
    if offset < 0 or size < 0:
        raise ValueError(
            f"{name}: invalid range (offset={offset}, size={size}); "
            "offset and size must be >= 0")
    if offset + size > total:
        raise ValueError(
            f"{name}: range [{offset}, {offset + size}) reads past EOF "
            f"(source is {total} bytes); the file is truncated or the "
            "range is wrong")


def coalesce_ranges(ranges: Sequence[Range], gap: int
                    ) -> List[Tuple[int, int, List[int]]]:
    """Merge byte ranges whose gaps are at most ``gap`` bytes.

    Returns ``(start, end, member_indices)`` groups in offset order, where
    ``member_indices`` point into the input sequence.  Zero-size ranges are
    never grouped (they read nothing).  Overlapping ranges merge regardless
    of ``gap``.
    """
    order = sorted((i for i in range(len(ranges)) if ranges[i][1] > 0),
                   key=lambda i: ranges[i][0])
    groups: List[Tuple[int, int, List[int]]] = []
    for i in order:
        offset, size = ranges[i]
        if groups and offset - groups[-1][1] <= gap:
            start, end, members = groups.pop()
            members.append(i)
            groups.append((start, max(end, offset + size), members))
        else:
            groups.append((offset, offset + size, [i]))
    return groups


class ByteSource:
    """Where an :class:`~repro.h5lite.file.H5LiteFile`'s bytes live.

    The contract every implementation honours:

    * :meth:`read_many` answers a batch of ranges in input order, each
      exactly ``size`` bytes — the seam where coalescing implementations turn
      N chunk reads into few ranged reads; a range past :meth:`size` raises
      :class:`ValueError` (never a short read), a zero-size range returns an
      empty buffer without touching the medium;
    * all traffic is counted in :attr:`stats`.
    """

    def __init__(self) -> None:
        self.stats = SourceStats()

    # -- required ------------------------------------------------------
    def size(self) -> int:
        raise NotImplementedError

    def read_many(self, ranges: Sequence[Range]) -> List[object]:
        raise NotImplementedError

    # -- provided ------------------------------------------------------
    def read_at(self, offset: int, size: int):
        """One range: a batch of one."""
        return self.read_many([(offset, size)])[0]

    def close(self) -> None:
        pass

    def __enter__(self) -> "ByteSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalFileSource(ByteSource):
    """Seek+read against a local file.

    One lock serializes the seek+read pair so concurrent readers (the query
    service decodes on a worker pool) cannot interleave them.  A
    :meth:`read_many` batch merges *exactly adjacent* ranges (chunks are
    written back-to-back, so a dataset's chunk batch usually collapses into
    one syscall).
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = str(path)
        self._fh = open(self.path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self._lock = threading.Lock()

    def size(self) -> int:
        return self._size

    def read_many(self, ranges: Sequence[Range]) -> List[object]:
        for offset, size in ranges:
            _check_range(offset, size, self._size, self.path)
        self.stats.requests += len(ranges)
        out: List[object] = [b""] * len(ranges)
        for start, end, members in coalesce_ranges(ranges, gap=0):
            with self._lock:
                self._fh.seek(start)
                data = self._fh.read(end - start)
            self.stats.coalesced_requests += 1
            self.stats.bytes_read += len(data)
            if len(data) != end - start:
                raise ValueError(
                    f"{self.path}: short read at offset {start} "
                    f"({len(data)} of {end - start} bytes); the file was "
                    "truncated after open")
            for i in members:
                offset, size = ranges[i]
                out[i] = data[offset - start:offset - start + size]
        return out

    def close(self) -> None:
        self._fh.close()


class RangeSource(ByteSource):
    """A remote-style adapter: coalescing + block cache + latency.

    Wraps any base source and models a ranged-read protocol (HTTP/S3 style):
    every read issued to the base costs ``latency`` seconds plus
    ``nbytes / bandwidth``, accrued in ``stats.wait_seconds`` and — with
    ``simulate=True`` — actually slept, so wall-clock benchmarks see the
    round-trips.  Two mechanisms keep the round-trip count down:

    * **coalescing** — a :meth:`read_many` batch's missing block runs merge
      when the gap between them is at most ``gap`` bytes (re-fetching a small
      cached gap is cheaper than a second round-trip);
    * **block cache** — fetched bytes land in fixed-size aligned blocks under
      a byte-budgeted LRU, so overlapping and repeated ranges are served
      locally.

    Thread-safe; assembly never depends on a block surviving the LRU between
    fetch and use (a batch pins its blocks locally), so an arbitrarily small
    budget stays correct — it only costs refetches.
    """

    def __init__(self, base: ByteSource, *,
                 latency: float = 0.0,
                 bandwidth: Optional[float] = None,
                 gap: int = DEFAULT_GAP_BYTES,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 cache_bytes: int = DEFAULT_BLOCK_CACHE_BYTES,
                 simulate: bool = False):
        super().__init__()
        if block_bytes < 1:
            raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
        if cache_bytes < block_bytes:
            raise ValueError(
                f"cache_bytes ({cache_bytes}) must hold at least one block "
                f"({block_bytes})")
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        if latency < 0 or (bandwidth is not None and bandwidth <= 0):
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        self.base = base
        self.path = getattr(base, "path", "<wrapped>")
        self.latency = float(latency)
        self.bandwidth = float(bandwidth) if bandwidth else None
        self.gap = int(gap)
        self.block_bytes = int(block_bytes)
        self.cache_bytes = int(cache_bytes)
        self.simulate = bool(simulate)
        self._size = base.size()
        self._blocks: "OrderedDict[int, bytes]" = OrderedDict()
        self._cached_bytes = 0
        self._lock = threading.RLock()

    def size(self) -> int:
        return self._size

    # -- block bookkeeping (callers hold the lock) ----------------------
    def _block_span(self, offset: int, size: int) -> range:
        return range(offset // self.block_bytes,
                     (offset + size - 1) // self.block_bytes + 1)

    def _insert_block(self, block: int, data: bytes) -> None:
        old = self._blocks.pop(block, None)
        if old is not None:
            self._cached_bytes -= len(old)
        self._blocks[block] = data
        self._cached_bytes += len(data)
        while self._cached_bytes > self.cache_bytes and len(self._blocks) > 1:
            _, evicted = self._blocks.popitem(last=False)
            self._cached_bytes -= len(evicted)
            self.stats.evictions += 1
            self.stats.evicted_bytes += len(evicted)

    def _fetch_run(self, first: int, last: int,
                   local: Dict[int, bytes]) -> None:
        """One ranged read covering blocks ``first..last`` (inclusive)."""
        start = first * self.block_bytes
        end = min((last + 1) * self.block_bytes, self._size)
        data = self.base.read_at(start, end - start)
        nbytes = end - start
        self.stats.coalesced_requests += 1
        self.stats.bytes_read += nbytes
        wait = self.latency
        if self.bandwidth is not None:
            wait += nbytes / self.bandwidth
        if wait > 0:
            self.stats.wait_seconds += wait
            if self.simulate:
                time.sleep(wait)
        for block in range(first, last + 1):
            lo = block * self.block_bytes - start
            piece = bytes(data[lo:lo + min(self.block_bytes, end - start - lo)])
            local[block] = piece
            self._insert_block(block, piece)

    # -- reads -----------------------------------------------------------
    def read_many(self, ranges: Sequence[Range]) -> List[object]:
        for offset, size in ranges:
            _check_range(offset, size, self._size, self.path)
        with self._lock:
            self.stats.requests += len(ranges)
            needed = sorted({block for offset, size in ranges if size > 0
                             for block in self._block_span(offset, size)})
            # pin every needed block locally: cache hits are copied out now so
            # eviction mid-batch (a budget smaller than the batch span) can
            # never invalidate assembly
            local: Dict[int, bytes] = {}
            missing: List[int] = []
            for block in needed:
                cached = self._blocks.get(block)
                if cached is not None:
                    self._blocks.move_to_end(block)
                    self.stats.cache_hits += 1
                    local[block] = cached
                else:
                    self.stats.cache_misses += 1
                    missing.append(block)
            if missing:
                # merge missing-block runs whose byte gap is within threshold
                runs: List[List[int]] = [[missing[0], missing[0]]]
                for block in missing[1:]:
                    if (block - runs[-1][1] - 1) * self.block_bytes <= self.gap:
                        runs[-1][1] = block
                    else:
                        runs.append([block, block])
                for first, last in runs:
                    self._fetch_run(first, last, local)
            # assemble each range from the pinned blocks
            out: List[object] = []
            for offset, size in ranges:
                if size == 0:
                    out.append(b"")
                    continue
                span = self._block_span(offset, size)
                if len(span) == 1:
                    lo = offset - span[0] * self.block_bytes
                    out.append(local[span[0]][lo:lo + size])
                    continue
                pieces: List[bytes] = []
                for block in span:
                    base = block * self.block_bytes
                    lo = max(offset, base) - base
                    hi = min(offset + size, base + self.block_bytes) - base
                    pieces.append(local[block][lo:hi])
                out.append(b"".join(pieces))
            return out

    # -- cache management -----------------------------------------------
    def clear_cache(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._cached_bytes = 0

    def close(self) -> None:
        self.clear_cache()
        self.base.close()


# ----------------------------------------------------------------------
# spec parsing: "latency:50ms,block:4k,gap:128k", "range", ...
# ----------------------------------------------------------------------
#: anything :func:`make_source` accepts: None (local), a source instance, a
#: spec string, or a callable ``path -> ByteSource``
SourceSpec = Union[None, str, ByteSource, Callable[[str], ByteSource]]

#: spec token -> RangeSource keyword
_BYTE_OPTIONS = {"gap": "gap", "block": "block_bytes", "cache": "cache_bytes"}
_ACCEPTED = ("latency:<value>, bandwidth:<value>, gap:<value>, block:<value>, "
             "cache:<value> or 'range' (no source at all opens the local file)")


def _parse_duration(value: str, token: str) -> float:
    """Seconds from '50ms', '2s', '100us' or a bare number (seconds)."""
    units = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    for suffix, scale in sorted(units.items(), key=lambda kv: -len(kv[0])):
        if value.endswith(suffix):
            return float(value[:-len(suffix)]) * scale
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"bad duration {value!r} in source spec token {token!r}; "
            "expected e.g. 50ms, 0.1s") from None


def _parse_bytes(value: str, token: str) -> float:
    """Bytes from '64k', '8m', '1g' (base 1024) or a bare number."""
    units = {"k": 1024.0, "m": 1024.0 ** 2, "g": 1024.0 ** 3}
    lowered = value.lower().rstrip("ib")          # accept 64kib / 64kb / 64k
    if lowered and lowered[-1] in units:
        return float(lowered[:-1]) * units[lowered[-1]]
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"bad byte count {value!r} in source spec token {token!r}; "
            "expected e.g. 64k, 8m") from None


def parse_source_spec(spec: str) -> Dict[str, float]:
    """Parse a source spec string into :class:`RangeSource` keyword options.

    Grammar: comma-separated tokens, each a modifier of the RangeSource that
    wraps the local file — ``latency:50ms``, ``bandwidth:100m`` [bytes/s],
    ``gap:128k``, ``block:4k``, ``cache:8m`` — or bare ``range`` (every
    option at its default).
    """
    tokens = [raw.strip() for raw in str(spec).split(",") if raw.strip()]
    if not tokens:
        raise ValueError(f"empty source spec; expected {_ACCEPTED}")
    out: Dict[str, float] = {}
    for token in tokens:
        name, _, value = token.partition(":")
        name = name.strip().lower()
        value = value.strip()
        if name == "range" and not value:
            continue
        if name == "latency":
            out["latency"] = _parse_duration(value, token)
        elif name == "bandwidth":
            out["bandwidth"] = _parse_bytes(value, token)
        elif name in _BYTE_OPTIONS:
            out[_BYTE_OPTIONS[name]] = int(_parse_bytes(value, token))
        else:
            raise ValueError(
                f"unknown source spec token {token!r}; expected {_ACCEPTED}")
    return out


def make_source(path: str, spec: SourceSpec = None) -> ByteSource:
    """Build the byte source an :class:`H5LiteFile` opens ``path`` through.

    ``spec`` may be None (a plain :class:`LocalFileSource`), an already-built
    :class:`ByteSource` (used as-is; the caller manages sharing), a callable
    ``path -> ByteSource`` (how a series opens every step through the same
    recipe), or a spec string: a :class:`RangeSource` over the local file —
    see :func:`parse_source_spec`.
    """
    if spec is None:
        return LocalFileSource(path)
    if isinstance(spec, ByteSource):
        return spec
    if callable(spec):
        source = spec(path)
        if not isinstance(source, ByteSource):
            raise TypeError(
                f"source factory returned {type(source).__name__}, "
                "not a ByteSource")
        return source
    options = parse_source_spec(spec)
    # a spec that asks for latency/bandwidth wants to *feel* it
    simulate = bool(options.get("latency", 0.0) > 0 or options.get("bandwidth"))
    base = LocalFileSource(path)
    try:
        return RangeSource(base, simulate=simulate, **options)
    except ValueError:
        base.close()
        raise
