"""Box → MPI rank assignment (AMReX ``DistributionMapping``).

AMRIC's HDF5-filter modification (§3.3, Solution 2) depends on how much data
each rank owns: the global chunk size is the maximum per-rank data size, and
the filter receives each rank's *actual* size.  The distribution mapping is
therefore part of the substrate, with the two strategies AMReX commonly uses:
round-robin and knapsack (size-balanced) assignment.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

__all__ = ["DistributionMapping"]


class DistributionMapping:
    """Assignment of box indices to MPI ranks."""

    def __init__(self, rank_of_box: Sequence[int], nranks: int):
        self.rank_of_box: List[int] = [int(r) for r in rank_of_box]
        self.nranks = int(nranks)
        if self.nranks < 1:
            raise ValueError("nranks must be >= 1")
        if any(r < 0 or r >= self.nranks for r in self.rank_of_box):
            raise ValueError("rank indices out of range")

    def __len__(self) -> int:
        return len(self.rank_of_box)

    def __getitem__(self, box_index: int) -> int:
        return self.rank_of_box[box_index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionMapping):
            return NotImplemented
        return self.rank_of_box == other.rank_of_box and self.nranks == other.nranks

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    @staticmethod
    def round_robin(nboxes: int, nranks: int) -> "DistributionMapping":
        """Box ``i`` goes to rank ``i % nranks``."""
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        return DistributionMapping([i % nranks for i in range(nboxes)], nranks)

    @staticmethod
    def knapsack(box_sizes: Sequence[int], nranks: int) -> "DistributionMapping":
        """Greedy size-balancing: largest box to the currently lightest rank.

        This mirrors AMReX's knapsack strategy closely enough to produce the
        (im)balance characteristics the paper's chunk-size discussion relies on.
        """
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        order = sorted(range(len(box_sizes)), key=lambda i: box_sizes[i], reverse=True)
        heap = [(0, r) for r in range(nranks)]  # (load, rank)
        heapq.heapify(heap)
        rank_of_box = [0] * len(box_sizes)
        for i in order:
            load, rank = heapq.heappop(heap)
            rank_of_box[i] = rank
            heapq.heappush(heap, (load + int(box_sizes[i]), rank))
        return DistributionMapping(rank_of_box, nranks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistributionMapping(nboxes={len(self)}, nranks={self.nranks})"
