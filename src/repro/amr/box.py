"""Axis-aligned boxes in cell-index space (AMReX ``Box`` semantics).

A :class:`Box` is a closed integer rectangle ``[lo, hi]`` (both ends
inclusive), matching the AMReX convention.  Boxes support the small algebra
AMRIC's pre-processing needs: intersection, containment, refinement and
coarsening by a per-level ratio, shifting, growing and slicing an ndarray that
covers an enclosing box.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["Box"]

IntVect = Tuple[int, ...]

#: what broadcasts to every dimension (python / numpy numbers, numeric strings)
_SCALARS = (numbers.Number, np.generic, str, bytes)


def _as_intvect(value: Sequence[int] | int, dim: int | None = None) -> IntVect:
    """Normalise ``value`` into a tuple of python ints.

    Scalars are broadcast to ``dim`` entries when ``dim`` is given.
    """
    # tuples (the hot case: every Box construction) skip the scalar test
    if type(value) is not tuple and isinstance(value, _SCALARS):
        if dim is None:
            raise ValueError("scalar IntVect requires an explicit dimension")
        return tuple(int(value) for _ in range(dim))
    vect = tuple(map(int, value))  # type: ignore[arg-type]
    if dim is not None and len(vect) != dim:
        raise ValueError(f"expected {dim}-dimensional IntVect, got {vect}")
    return vect


@dataclass(frozen=True)
class Box:
    """A closed integer box ``[lo, hi]`` in cell-index space.

    Parameters
    ----------
    lo, hi:
        Inclusive lower / upper cell indices.  ``hi`` must be >= ``lo`` in
        every dimension (use :meth:`Box.empty` for an explicitly empty box).
    """

    lo: IntVect
    hi: IntVect

    def __post_init__(self) -> None:
        lo = _as_intvect(self.lo)
        hi = _as_intvect(self.hi)
        if len(lo) != len(hi):
            raise ValueError(f"lo {lo} and hi {hi} have mismatched dimensions")
        if len(lo) == 0:
            raise ValueError("zero-dimensional boxes are not supported")
        if any(h < l - 1 for l, h in zip(lo, hi)):
            raise ValueError(f"invalid box: lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_shape(shape: Sequence[int], lo: Sequence[int] | None = None) -> "Box":
        """Build the box covering ``shape`` cells starting at ``lo`` (default 0)."""
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ValueError(f"shape must be positive, got {shape}")
        if lo is None:
            lo = (0,) * len(shape)
        lo = _as_intvect(lo, len(shape))
        hi = tuple(l + s - 1 for l, s in zip(lo, shape))
        return Box(lo, hi)

    @staticmethod
    def empty(ndim: int) -> "Box":
        """An explicitly empty box (hi = lo - 1)."""
        return Box((0,) * ndim, (-1,) * ndim)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> IntVect:
        return tuple(max(h - l + 1, 0) for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        """Number of cells in the box."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def is_empty(self) -> bool:
        return any(h < l for l, h in zip(self.lo, self.hi))

    def contains(self, other: "Box") -> bool:
        """True if ``other`` lies entirely inside this box."""
        if other.is_empty():
            return True
        return all(sl <= ol and oh <= sh
                   for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    def intersects(self, other: "Box") -> bool:
        return not self.intersection(other).is_empty()

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def intersection(self, other: "Box") -> "Box":
        """The overlap of two boxes (may be empty)."""
        if self.ndim != other.ndim:
            raise ValueError("cannot intersect boxes of different dimensions")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h < l for l, h in zip(lo, hi)):
            return Box.empty(self.ndim)
        return Box(lo, hi)

    def bounding_union(self, other: "Box") -> "Box":
        """Smallest box containing both boxes."""
        if other.is_empty():
            return self
        if self.is_empty():
            return other
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)

    def shift(self, offset: Sequence[int] | int) -> "Box":
        offset = _as_intvect(offset, self.ndim)
        return Box(tuple(l + o for l, o in zip(self.lo, offset)),
                   tuple(h + o for h, o in zip(self.hi, offset)))

    def grow(self, n: Sequence[int] | int) -> "Box":
        n = _as_intvect(n, self.ndim)
        return Box(tuple(l - g for l, g in zip(self.lo, n)),
                   tuple(h + g for h, g in zip(self.hi, n)))

    def refine(self, ratio: Sequence[int] | int) -> "Box":
        """Refine to the next finer level (AMReX ``Box::refine``)."""
        ratio = _as_intvect(ratio, self.ndim)
        if any(r < 1 for r in ratio):
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        lo = tuple(l * r for l, r in zip(self.lo, ratio))
        hi = tuple((h + 1) * r - 1 for h, r in zip(self.hi, ratio))
        return Box(lo, hi)

    def coarsen(self, ratio: Sequence[int] | int) -> "Box":
        """Coarsen to the next coarser level (floor division, AMReX semantics)."""
        ratio = _as_intvect(ratio, self.ndim)
        if any(r < 1 for r in ratio):
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        lo = tuple(l // r for l, r in zip(self.lo, ratio))
        hi = tuple(h // r for h, r in zip(self.hi, ratio))
        return Box(lo, hi)

    def difference(self, other: "Box") -> list["Box"]:
        """This box minus ``other``, as a list of disjoint boxes.

        The decomposition sweeps one dimension at a time, producing at most
        ``2 * ndim`` boxes.  Cells in the result exactly cover
        ``self \\ other``.
        """
        overlap = self.intersection(other)
        if overlap.is_empty():
            return [] if self.is_empty() else [self]
        if overlap == self:
            return []
        pieces: list[Box] = []
        remaining = self
        for axis in range(self.ndim):
            lo = list(remaining.lo)
            hi = list(remaining.hi)
            # part below the overlap along `axis`
            if remaining.lo[axis] < overlap.lo[axis]:
                below_hi = list(hi)
                below_hi[axis] = overlap.lo[axis] - 1
                pieces.append(Box(tuple(lo), tuple(below_hi)))
            # part above the overlap along `axis`
            if remaining.hi[axis] > overlap.hi[axis]:
                above_lo = list(lo)
                above_lo[axis] = overlap.hi[axis] + 1
                pieces.append(Box(tuple(above_lo), tuple(hi)))
            # shrink remaining to the overlap extent along `axis`
            lo[axis] = overlap.lo[axis]
            hi[axis] = overlap.hi[axis]
            remaining = Box(tuple(lo), tuple(hi))
        return pieces

    # ------------------------------------------------------------------
    # ndarray helpers
    # ------------------------------------------------------------------
    def slices(self, origin: Sequence[int] | None = None) -> Tuple[slice, ...]:
        """Slices selecting this box inside an array whose [0,..] cell is ``origin``.

        ``origin`` defaults to the box's own ``lo`` of the *enclosing* array,
        i.e. index 0 of the target array corresponds to cell ``origin``.
        """
        if origin is None:
            origin = (0,) * self.ndim
        origin = _as_intvect(origin, self.ndim)
        return tuple(slice(l - o, h - o + 1) for l, h, o in zip(self.lo, self.hi, origin))

    def cells(self) -> Iterator[IntVect]:
        """Iterate over every cell index in the box (small boxes only)."""
        if self.is_empty():
            return
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        grids = np.meshgrid(*ranges, indexing="ij")
        stacked = np.stack([g.ravel() for g in grids], axis=1)
        for row in stacked:
            yield tuple(int(v) for v in row)

    def split(self, max_size: Sequence[int] | int) -> list["Box"]:
        """Chop the box into pieces no larger than ``max_size`` along each axis."""
        if self.is_empty():
            return []
        max_size = _as_intvect(max_size, self.ndim)
        if any(m < 1 for m in max_size):
            raise ValueError("max_size must be >= 1")
        per_axis: list[list[tuple[int, int]]] = []
        for l, h, m in zip(self.lo, self.hi, max_size):
            segs = []
            start = l
            while start <= h:
                end = min(start + m - 1, h)
                segs.append((start, end))
                start = end + 1
            per_axis.append(segs)
        out: list[Box] = []
        def recurse(axis: int, lo: list[int], hi: list[int]) -> None:
            if axis == self.ndim:
                out.append(Box(tuple(lo), tuple(hi)))
                return
            for s, e in per_axis[axis]:
                recurse(axis + 1, lo + [s], hi + [e])
        recurse(0, [], [])
        return out

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(lo={self.lo}, hi={self.hi})"

    def __iter__(self) -> Iterator[IntVect]:
        return self.cells()


def bounding_box(boxes: Iterable[Box]) -> Box:
    """Smallest box enclosing every box in ``boxes``."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("bounding_box of an empty collection")
    out = boxes[0]
    for b in boxes[1:]:
        out = out.bounding_union(b)
    return out
