"""A serial stand-in for an MPI communicator.

The in situ writers in this package are structured the way the real AMRIC
code is structured — "for each rank: gather my boxes, build my buffer, call
the filter" — but execute the per-rank work serially in one process.
``SimComm`` supplies the communicator surface those writers need (sizes,
per-rank iteration, reductions, the encode batch and its barrier) plus
counters for the collective operations so the I/O cost model can charge for
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["SimComm"]


@dataclass
class _CollectiveCounters:
    barriers: int = 0
    reductions: int = 0
    collective_writes: int = 0


class SimComm:
    """A simulated communicator over ``nranks`` ranks."""

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self._nranks = int(nranks)
        self.counters = _CollectiveCounters()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._nranks

    # ------------------------------------------------------------------
    # collectives over per-rank values
    # ------------------------------------------------------------------
    def allreduce(self, per_rank_values: Sequence[T], op: Callable[[Iterable[T]], T] = max) -> T:
        """Reduce a per-rank sequence with ``op`` (default max), visible to all ranks."""
        if len(per_rank_values) != self._nranks:
            raise ValueError(f"expected {self._nranks} values, got {len(per_rank_values)}")
        self.counters.reductions += 1
        return op(per_rank_values)

    def record_collective_write(self, count: int = 1) -> None:
        """Account for a collective dataset write (all ranks participate)."""
        self.counters.collective_writes += int(count)

    # ------------------------------------------------------------------
    def run_jobs(self, backend, fn: Callable, jobs: Sequence) -> List:
        """Execute independent work items through an execution backend.

        This is how the writer submits its per-rank encode jobs: the
        communicator hands the batch to the backend (serial or pooled) and
        charges one barrier — every rank must finish encoding before the
        collective dataset writes can start.  Results come back in submission
        order.
        """
        results = backend.map(fn, jobs)
        self.counters.barriers += 1
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimComm(size={self._nranks})"
