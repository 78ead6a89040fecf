"""Moving data between refinement levels (Figure 3 semantics).

Post-analysis never uses the coarse cells underneath finer levels — it reads
the finer data, or its average-down — which is the justification for
discarding them before compression and refilling them on read.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AmrHierarchy

__all__ = ["upsample_array", "average_down", "fill_covered_from_finer",
           "covered_mask"]


def upsample_array(array: np.ndarray, ratio: int) -> np.ndarray:
    """Piecewise-constant upsampling by an integer ratio along every axis."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    out = array
    for axis in range(array.ndim):
        out = np.repeat(out, ratio, axis=axis)
    return out


def average_down(array: np.ndarray, ratio: int) -> np.ndarray:
    """Conservative (block-mean) coarsening by an integer ratio on every axis.

    The inverse of :func:`upsample_array` in the conservative sense: each
    coarse cell is the mean of its ``ratio**ndim`` fine children — exactly the
    value a post-analysis average-down would produce (Figure 3 of the paper).
    This is the one canonical stencil; the write and read paths both use it so
    a future stencil change cannot silently diverge between them.
    """
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    array = np.asarray(array)
    if ratio == 1:
        return array.copy()
    if any(s % ratio for s in array.shape):
        raise ValueError(
            f"array shape {array.shape} is not divisible by ratio {ratio}")
    # one axis at a time, each cell's children added in index order: a coarse
    # cell's sum is then the same whatever the array's shape, so a ratio-aligned
    # sub-box averages to the whole array's cells bit for bit (a multi-axis
    # ``mean`` picks its summation order by shape)
    out = array
    for axis in range(array.ndim):
        lead = (slice(None),) * axis
        out = sum((out[lead + (slice(k, None, ratio),)] for k in range(1, ratio)),
                  out[lead + (slice(0, None, ratio),)])
    return out / ratio ** array.ndim


def fill_covered_from_finer(hierarchy: AmrHierarchy) -> None:
    """Refill covered coarse cells by averaging the next finer level down.

    Walks the hierarchy fine → coarse so values cascade through intermediate
    levels; each fine fab is conservatively averaged (:func:`average_down`)
    and written into every coarse fab it overlaps.  This is the read-side
    counterpart of the pre-compression redundancy removal (§3.1): the dropped
    coarse cells are restored to the values post-analysis would use anyway.
    """
    for level_index in range(hierarchy.nlevels - 2, -1, -1):
        coarse = hierarchy[level_index]
        fine = hierarchy[level_index + 1]
        ratio = hierarchy.ref_ratios[level_index]
        for fine_fab in fine.multifab:
            coarse_box = fine_fab.box.coarsen(ratio)
            hits = coarse.boxarray.intersections(coarse_box)
            for comp in range(hierarchy.ncomp):
                averaged = average_down(fine_fab.component(comp), ratio)
                for index, overlap in hits:
                    coarse_fab = coarse.multifab[index]
                    coarse_fab.component(comp)[overlap.slices(origin=coarse_fab.box.lo)] = \
                        averaged[overlap.slices(origin=coarse_box.lo)]


def covered_mask(hierarchy: AmrHierarchy, level: int) -> np.ndarray:
    """Boolean mask over level ``level``'s domain: True where finer data covers it."""
    domain = hierarchy[level].domain
    if level >= hierarchy.nlevels - 1:
        return np.zeros(domain.shape, dtype=bool)
    fine_coarsened = hierarchy[level + 1].boxarray.coarsen(hierarchy.ref_ratios[level])
    return fine_coarsened.coverage_mask(domain)
