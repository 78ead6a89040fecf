"""Collections of boxes tiling a single AMR level (AMReX ``BoxArray``).

A :class:`BoxArray` stores the rectangular patches of one refinement level.
The two operations AMRIC leans on are

* :meth:`BoxArray.intersections` — which parts of a box overlap boxes of the
  array (used to find coarse data covered by the next finer level, §3.1 of the
  paper), and
* :meth:`BoxArray.complement_in` — the uncovered remainder of a box, i.e. the
  data that must actually be compressed after redundancy removal.

AMReX accelerates these queries with a hashed spatial index; here the array
keeps its boxes' corners as two ``(n, ndim)`` int64 arrays (built on the first
query — boxes never change after construction) and answers every query with
one vectorised comparison against them: O(n) per query, but in C, and a
:class:`Box` object is only built for each hit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.amr.box import Box

__all__ = ["BoxArray", "overlaps"]


def overlaps(lo: np.ndarray, hi: np.ndarray,
             box: Box) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indices, lo, hi)`` of the non-empty overlaps of ``box`` with the
    boxes whose corners are the ``(n, ndim)`` int64 arrays ``lo`` / ``hi``,
    ascending — the one comparison every box query uses."""
    lo = np.maximum(lo, box.lo)
    hi = np.minimum(hi, box.hi)
    hits = np.flatnonzero((hi >= lo).all(axis=1))
    return hits, lo[hits], hi[hits]


class BoxArray:
    """An ordered collection of (usually disjoint) boxes on one level."""

    def __init__(self, boxes: Iterable[Box]):
        self._boxes: List[Box] = [b for b in boxes if not b.is_empty()]
        if self._boxes:
            ndim = self._boxes[0].ndim
            if any(b.ndim != ndim for b in self._boxes):
                raise ValueError("all boxes in a BoxArray must share a dimension")
        self._corners: Tuple[np.ndarray, np.ndarray] | None = None

    def _overlaps(self, box: Box) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`overlaps` of ``box`` with the array's boxes."""
        if not self._boxes:
            none = np.empty((0, box.ndim), dtype=np.int64)
            return np.empty(0, dtype=np.intp), none, none
        if box.ndim != self.ndim:
            raise ValueError("cannot intersect boxes of different dimensions")
        if self._corners is None:
            try:
                self._corners = (
                    np.array([b.lo for b in self._boxes], dtype=np.int64),
                    np.array([b.hi for b in self._boxes], dtype=np.int64))
            except OverflowError:
                limit = np.iinfo(np.int64)
                bad = next(b for b in self._boxes
                           if min(b.lo) < limit.min or max(b.hi) > limit.max)
                raise ValueError(f"{bad} has a coordinate outside the int64 range "
                                 "the box index holds") from None
        return overlaps(*self._corners, box)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    def __getitem__(self, index: int) -> Box:
        return self._boxes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxArray):
            return NotImplemented
        return self._boxes == other._boxes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxArray(n={len(self)}, cells={self.num_cells})"

    @property
    def boxes(self) -> Tuple[Box, ...]:
        return tuple(self._boxes)

    @property
    def ndim(self) -> int:
        if not self._boxes:
            raise ValueError("empty BoxArray has no dimensionality")
        return self._boxes[0].ndim

    @property
    def num_cells(self) -> int:
        """Total number of cells covered (boxes assumed disjoint)."""
        return sum(b.size for b in self._boxes)

    def is_disjoint(self) -> bool:
        """True when no two boxes overlap (the AMReX invariant per level)."""
        # every box overlaps itself; a hit at a later index is a real overlap
        return not any((self._overlaps(a)[0] > i).any()
                       for i, a in enumerate(self._boxes))

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def refine(self, ratio: Sequence[int] | int) -> "BoxArray":
        return BoxArray([b.refine(ratio) for b in self._boxes])

    def coarsen(self, ratio: Sequence[int] | int) -> "BoxArray":
        return BoxArray([b.coarsen(ratio) for b in self._boxes])

    def grow(self, n: Sequence[int] | int) -> "BoxArray":
        return BoxArray([b.grow(n) for b in self._boxes])

    def max_size(self, max_size: Sequence[int] | int) -> "BoxArray":
        """Chop every box so no side exceeds ``max_size`` (AMReX ``maxSize``)."""
        out: List[Box] = []
        for b in self._boxes:
            out.extend(b.split(max_size))
        return BoxArray(out)

    # ------------------------------------------------------------------
    # geometric queries
    # ------------------------------------------------------------------
    def intersections(self, box: Box) -> List[Tuple[int, Box]]:
        """All non-empty overlaps of ``box`` with boxes in the array.

        Returns ``(index, overlap_box)`` pairs; AMReX's ``BoxArray::intersections``.
        """
        hits, lo, hi = self._overlaps(box)
        return [(i, Box(tuple(l), tuple(h)))
                for i, l, h in zip(hits.tolist(), lo.tolist(), hi.tolist())]

    def intersects(self, box: Box) -> bool:
        return len(self._overlaps(box)[0]) > 0

    def contains_box(self, box: Box) -> bool:
        """True when every cell of ``box`` is covered by the array."""
        uncovered = self.complement_in(box)
        return len(uncovered) == 0

    def complement_in(self, box: Box) -> List[Box]:
        """Disjoint boxes covering the part of ``box`` *not* covered by the array.

        This is the redundancy-removal primitive: with ``self`` the next finer
        level's BoxArray coarsened to this level, the complement of a coarse
        box is exactly the non-redundant coarse data.
        """
        if box.is_empty():
            return []
        remaining: List[Box] = [box]
        # a box that misses ``box`` misses every piece of it: subtract the hits
        for index in self._overlaps(box)[0].tolist():
            b = self._boxes[index]
            remaining = [rest for piece in remaining for rest in piece.difference(b)]
            if not remaining:
                break
        return remaining

    def coverage_mask(self, box: Box) -> np.ndarray:
        """Boolean mask over ``box`` marking cells covered by the array."""
        mask = np.zeros(box.shape, dtype=bool)
        for _, overlap in self.intersections(box):
            mask[overlap.slices(origin=box.lo)] = True
        return mask

    def covered_fraction(self, domain: Box) -> float:
        """Fraction of ``domain`` covered by this array (the paper's "density")."""
        if domain.size == 0:
            return 0.0
        covered = 0
        for _, overlap in self.intersections(domain):
            covered += overlap.size
        return covered / domain.size

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def decompose(domain: Box, max_grid_size: Sequence[int] | int) -> "BoxArray":
        """Tile ``domain`` into boxes of at most ``max_grid_size`` per side.

        Mirrors AMReX's domain decomposition used to build level 0.
        """
        return BoxArray([domain]).max_size(max_grid_size)
