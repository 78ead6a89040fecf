"""Execution backends: where the per-rank encode work actually runs.

The writer pipeline produces independent work items (one per dataset, each a
sequence of per-rank chunk encodes — see :mod:`repro.core.stages`).  An
:class:`ExecutionBackend` decides how those items execute:

* :class:`SerialBackend` — in-process, in submission order; reproduces the
  pre-backend writer behaviour bit-for-bit and is the default;
* :class:`SharedMemoryBackend` — a persistent process pool whose bulk
  payloads (chunk arrays, compressed byte streams) cross the process
  boundary as ``(segment, offset, shape, dtype)`` descriptors over
  ``multiprocessing.shared_memory`` instead of pickled ndarrays, with
  per-worker codec caches.  Work functions are module-level pure functions
  over picklable dataclasses and results come back in submission order,
  which is what makes the pooled write byte-identical to the serial one.
  See :mod:`repro.parallel.shm` for the wire format.

:data:`BACKENDS` is the one list of backend names; the config and the CLI
import it.

The module also owns the per-rank accounting that used to be hand-tallied in
the writer loop:

* :func:`apportion` — largest-remainder split of an integer total across
  weights; unlike per-share rounding it conserves the total exactly;
* :class:`WorkloadTally` — accumulates per-rank raw/compressed/padded bytes,
  chunk writes and launch counts across datasets and emits the
  :class:`~repro.parallel.iomodel.RankWorkload` list the I/O cost model
  consumes; every writer (AMRIC, series, AMReX, NoComp) bills its ranks
  through it.
"""

from __future__ import annotations

import abc
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.parallel import shm as shm_mod
from repro.parallel.iomodel import RankWorkload

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "SharedMemoryBackend",
    "BACKENDS",
    "make_backend",
    "apportion",
    "WorkloadTally",
]


def _tuned_chunksize(nitems: int, nworkers: int) -> int:
    """Items per IPC round-trip: ~4 waves across the pool, at least 1.

    ``executor.map``'s default chunksize of 1 makes every item a separate
    pickle+pipe round-trip; for the small-but-many job batches the writer
    produces, the framing overhead rivals the work.  Four waves keeps the
    pool load-balanced (a straggler chunk idles at most ~1/4 of a worker's
    share) while cutting round-trips by the chunk factor.
    """
    return max(1, nitems // (max(1, nworkers) * 4))


class ExecutionBackend(abc.ABC):
    """Strategy for running a batch of independent work items."""

    name: str = "base"

    # map-call accounting (class attrs double as zero defaults so subclasses
    # need no __init__ cooperation; the first += creates instance attrs).
    # One shared lock is fine — it is taken once per map() call, not per item.
    maps: int = 0
    items_mapped: int = 0
    map_seconds: float = 0.0
    _tally_lock = threading.Lock()

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``items``, returning results in submission order."""

    def _tally_map(self, nitems: int, seconds: float) -> None:
        with self._tally_lock:
            self.maps += 1
            self.items_mapped += nitems
            self.map_seconds += seconds

    def map_stats(self) -> Dict[str, float]:
        """Lifetime map-call accounting: calls, items, wall seconds."""
        return {"maps": self.maps, "items": self.items_mapped,
                "seconds": self.map_seconds}

    def parallel_width(self) -> int:
        """How many items can genuinely make progress at once (1 = inline).

        A sizing hint for callers that split divisible work (e.g. one
        dataset's chunk decodes) into per-worker sub-jobs — not a promise.
        """
        return 1

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run everything inline, in order — today's single-process behaviour."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        t0 = time.perf_counter()
        try:
            return [fn(item) for item in items]
        finally:
            self._tally_map(len(items), time.perf_counter() - t0)


class SharedMemoryBackend(ExecutionBackend):
    """A persistent process pool fed through shared-memory descriptors.

    Instead of pickling every job's chunk arrays into the IPC pipe (and the
    results back out), this backend copies each batch's bulk payloads once
    into a shared segment and ships only
    ``(segment, offset, shape, dtype)`` descriptors; workers reconstruct
    zero-copy views, run the work function, and return results through
    per-result segments the parent adopts without a further copy.  Jobs whose
    dataclasses don't declare ``_shm_fields`` — or batches with no bulk
    payload — fall back to plain pickling transparently.

    The pool is persistent across :meth:`map` calls (spawn cost is paid
    once), and workers keep per-process codec caches
    (:func:`repro.parallel.shm.worker_codec_cache`) so stateless decode
    filters and temporal codecs are constructed once per worker rather than
    once per job.  :meth:`close` shuts the pool down and sweeps any orphaned
    ``/dev/shm`` segments of this run.
    """

    name = "shm"

    def __init__(self, max_workers: Optional[int] = None):
        if not shm_mod.HAVE_SHARED_MEMORY:  # pragma: no cover - exotic platform
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use the 'serial' backend instead")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._executor = None

    def parallel_width(self) -> int:
        if self.max_workers is not None:
            return int(self.max_workers)
        return os.cpu_count() or 1

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=shm_mod._worker_init,
                initargs=(shm_mod._PROCESS_TOKEN,))
        return self._executor

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        if not items:
            return []
        executor = self._ensure_executor()
        t0 = time.perf_counter()
        wire_items, batch_segment = shm_mod.pack_batch(items)
        tasks = [(fn, item) for item in wire_items]
        chunk = _tuned_chunksize(len(tasks), self.parallel_width())
        try:
            # shm_call returns worker exceptions in-band (WireError), so this
            # list() always consumes every result — no sibling's result
            # segment is stranded by an early raise
            wires = list(executor.map(shm_mod.shm_call, tasks, chunksize=chunk))
        except BaseException:
            self.close()                     # broken pool: rebuild on next map
            raise
        finally:
            if batch_segment is not None:
                batch_segment.close()
                try:
                    batch_segment.unlink()
                except FileNotFoundError:
                    pass             # already swept by close() on a broken pool
        results: List[R] = []
        error: Optional[BaseException] = None
        for wire in wires:
            try:
                results.append(shm_mod.adopt_result(wire))
            except BaseException as exc:     # adopt the rest before raising
                error = error or exc
        self._tally_map(len(items), time.perf_counter() - t0)
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        # backstop: a worker killed mid-task can orphan a result segment no
        # surviving wire result names; sweep everything this run created
        shm_mod.sweep_segments()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemoryBackend(max_workers={self.max_workers})"


#: every backend name the API, the config and the CLI accept
BACKENDS = ("serial", "shm")


def make_backend(spec: "str | ExecutionBackend | None",
                 max_workers: Optional[int] = None) -> ExecutionBackend:
    """Build a backend from a :data:`BACKENDS` name or pass an instance through."""
    if spec is None or spec == "serial":
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec == "shm":
        return SharedMemoryBackend(max_workers)
    raise ValueError(
        f"unknown backend {spec!r}; expected one of {', '.join(BACKENDS)}")


# ----------------------------------------------------------------------
# per-rank accounting
# ----------------------------------------------------------------------
def apportion(total: int, weights: Sequence[int | float]) -> List[int]:
    """Split an integer ``total`` across ``weights`` by largest remainder.

    Unlike independent ``round(total * share)`` per entry, the result always
    sums to ``total`` exactly.  Zero/degenerate weights split evenly.  Ties in
    the fractional remainders are broken by lower index (deterministic).
    """
    total = int(total)
    if total < 0:
        raise ValueError("cannot apportion a negative total")
    n = len(weights)
    if n == 0:
        raise ValueError("need at least one weight")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights cannot be negative")
    wsum = float(w.sum())
    if wsum <= 0:
        w = np.ones(n, dtype=np.float64)
        wsum = float(n)
    quotas = total * w / wsum
    base = np.floor(quotas).astype(np.int64)
    remainder = int(total - int(base.sum()))
    if remainder:
        # stable argsort on negated fractions → largest remainder, lowest index first
        order = np.argsort(-(quotas - base), kind="stable")[:remainder]
        base[order] += 1
    out = [int(b) for b in base]
    assert sum(out) == total, "largest-remainder apportionment must conserve the total"
    return out


class WorkloadTally:
    """Accumulates per-rank workload counters across a plotfile write."""

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = int(nranks)
        self.raw = np.zeros(self.nranks, dtype=np.int64)
        self.compressed = np.zeros(self.nranks, dtype=np.int64)
        self.launches = np.zeros(self.nranks, dtype=np.int64)
        self.padded = np.zeros(self.nranks, dtype=np.int64)
        self.chunks = np.zeros(self.nranks, dtype=np.int64)

    def add_dataset(self, ranks: Sequence[int], per_rank_elements: Sequence[int],
                    chunk_elements: int, compressed_bytes: int,
                    count_padding: bool = False,
                    launches_per_chunk: int = 1) -> None:
        """Charge one dataset's write to the ranks that participated.

        A rank writes ``ceil(elements / chunk_elements)`` chunks — one when a
        chunk holds its whole contribution, many under a small fixed chunk —
        and launches the compressor ``launches_per_chunk`` times per chunk (0
        for a raw write); a rank not in ``ranks`` is charged nothing.
        Compressed bytes are split between the ranks proportionally to their
        raw contribution with exact conservation
        (``sum(per-rank compressed) == compressed_bytes``).
        """
        if len(ranks) != len(per_rank_elements):
            raise ValueError("ranks and per_rank_elements must align")
        shares = apportion(compressed_bytes, per_rank_elements)
        for rank, elements, share in zip(ranks, per_rank_elements, shares):
            chunks = -(-int(elements) // int(chunk_elements))
            self.raw[rank] += int(elements) * 8
            self.compressed[rank] += share
            self.launches[rank] += chunks * int(launches_per_chunk)
            self.chunks[rank] += chunks
            if count_padding:
                self.padded[rank] += (int(chunk_elements) - int(elements)) * 8

    @property
    def total_compressed(self) -> int:
        return int(self.compressed.sum())

    def workloads(self) -> List[RankWorkload]:
        return [RankWorkload(raw_bytes=int(self.raw[r]),
                             compressed_bytes=int(self.compressed[r]),
                             compressor_launches=int(self.launches[r]),
                             padded_bytes=int(self.padded[r]),
                             chunks_written=int(self.chunks[r]))
                for r in range(self.nranks)]
