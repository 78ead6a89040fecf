"""Box generation (regridding).

AMR applications refine where a criterion fires — e.g. "refine a block when its
maximum value exceeds a threshold" (Figure 1 of the paper).  The applications
tag cells themselves; :func:`cluster_tags` covers the tagged cells with
rectangular boxes (a simplified Berger–Rigoutsos clustering: recursive
bisection at the weakest signature cut until boxes are efficient enough or
small enough).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray

__all__ = ["cluster_tags"]


def _signature_cut(tags: np.ndarray, axis: int) -> int | None:
    """Find a cut index along ``axis`` using the Berger–Rigoutsos signature.

    Prefers holes (zero signature) and otherwise the strongest inflection of
    the second derivative of the signature; returns None if no useful cut.
    """
    axes = tuple(a for a in range(tags.ndim) if a != axis)
    sig = tags.sum(axis=axes)
    n = sig.shape[0]
    if n < 4:
        return None
    # holes in the signature are ideal cut points
    holes = np.nonzero(sig == 0)[0]
    interior_holes = holes[(holes > 0) & (holes < n - 1)]
    if interior_holes.size:
        # cut at the hole closest to the centre
        return int(interior_holes[np.argmin(np.abs(interior_holes - n // 2))])
    # otherwise use the largest Laplacian sign change (inflection)
    lap = np.diff(sig.astype(np.int64), n=2)
    if lap.size < 2:
        return None
    changes = lap[:-1] * lap[1:]
    idx = np.nonzero(changes < 0)[0]
    if idx.size == 0:
        return None
    strength = np.abs(lap[idx + 1] - lap[idx])
    best = idx[np.argmax(strength)] + 2  # offset: diff(n=2) shifts by 2
    if best <= 1 or best >= n - 1:
        return None
    return int(best)


def _minimal_tag_box(tags: np.ndarray) -> Box | None:
    """Smallest box (in local indices) enclosing the True cells of ``tags``."""
    nz = np.nonzero(tags)
    if nz[0].size == 0:
        return None
    lo = tuple(int(axis.min()) for axis in nz)
    hi = tuple(int(axis.max()) for axis in nz)
    return Box(lo, hi)


def cluster_tags(tags: np.ndarray, origin: Sequence[int] | None = None,
                 max_grid_size: int = 32, min_efficiency: float = 0.7,
                 blocking_factor: int = 4) -> BoxArray:
    """Cover tagged cells with boxes (simplified Berger–Rigoutsos).

    Parameters
    ----------
    tags:
        Boolean tag mask over the (coarse-level) region being considered.
    origin:
        Cell index of ``tags[0, 0, ...]`` in the level's index space.
    max_grid_size:
        Maximum box side length.
    min_efficiency:
        Stop splitting a box once at least this fraction of its cells is tagged.
    blocking_factor:
        Boxes are snapped outward so each side is a multiple of this factor,
        mirroring AMReX's ``blocking_factor`` (which is why unit-block sizes in
        AMR data are "typically a power of two", §3.2 of the paper).
    """
    tags = np.asarray(tags, dtype=bool)
    if origin is None:
        origin = (0,) * tags.ndim
    origin = tuple(int(o) for o in origin)

    out: List[Box] = []

    def recurse(local_box: Box, depth: int) -> None:
        sub = tags[local_box.slices()]
        enclosing = _minimal_tag_box(sub)
        if enclosing is None:
            return
        # shrink to the minimal enclosing box of the tags
        tight = enclosing.shift(local_box.lo)
        sub = tags[tight.slices()]
        efficiency = sub.mean()
        too_big = any(s > max_grid_size for s in tight.shape)
        if (efficiency >= min_efficiency and not too_big) or depth > 32:
            out.append(tight)
            return
        # choose the longest axis to cut
        axis = int(np.argmax(tight.shape))
        cut = _signature_cut(sub, axis)
        if cut is None or cut <= 0 or cut >= tight.shape[axis]:
            cut = tight.shape[axis] // 2
        if cut <= 0 or cut >= tight.shape[axis]:
            out.append(tight)
            return
        lo1, hi1 = list(tight.lo), list(tight.hi)
        lo2, hi2 = list(tight.lo), list(tight.hi)
        hi1[axis] = tight.lo[axis] + cut - 1
        lo2[axis] = tight.lo[axis] + cut
        recurse(Box(tuple(lo1), tuple(hi1)), depth + 1)
        recurse(Box(tuple(lo2), tuple(hi2)), depth + 1)

    recurse(Box.from_shape(tags.shape), 0)

    # snap to the blocking factor and the domain, then enforce max size
    snapped: List[Box] = []
    domain = Box.from_shape(tags.shape)
    for box in out:
        lo = [(l // blocking_factor) * blocking_factor for l in box.lo]
        hi = [((h + blocking_factor) // blocking_factor) * blocking_factor - 1 for h in box.hi]
        snapped_box = Box(tuple(lo), tuple(hi)).intersection(domain)
        if not snapped_box.is_empty():
            snapped.append(snapped_box)

    # remove overlaps introduced by snapping: keep boxes disjoint by
    # subtracting previously accepted boxes from each new candidate.
    disjoint: List[Box] = []
    for box in snapped:
        pieces = [box]
        for accepted in disjoint:
            next_pieces: List[Box] = []
            for piece in pieces:
                next_pieces.extend(piece.difference(accepted))
            pieces = next_pieces
            if not pieces:
                break
        disjoint.extend(pieces)

    shifted = [b.shift(origin) for b in disjoint]
    result = BoxArray(shifted).max_size(max_grid_size)
    return result

