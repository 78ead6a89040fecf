"""AMReX's chunk-size policy.

:func:`amrex_chunk_elements` is AMReX's original choice: a small fixed chunk
(1024 elements) because the box-major, field-interleaved layout forbids
anything larger than the smallest box (§3.3 Challenge 1).  AMRIC's own policy
— one chunk per rank, sized to the **largest** per-rank contribution (§3.3
Solution 2) — is part of each level's
:class:`~repro.core.preprocess.LevelLayout`.
"""

from __future__ import annotations

__all__ = ["AMREX_DEFAULT_CHUNK", "amrex_chunk_elements"]

#: The HDF5 chunk size (in elements) AMReX's original compression uses.
AMREX_DEFAULT_CHUNK = 1024


def amrex_chunk_elements(smallest_box_elements: int | None = None,
                         default: int = AMREX_DEFAULT_CHUNK) -> int:
    """AMReX's original (small) chunk size.

    The chunk may not exceed the smallest box's per-field size, otherwise data
    from different fields would be compressed together; AMReX settles on a
    small fixed value.
    """
    if smallest_box_elements is None:
        return default
    return max(2, min(default, int(smallest_box_elements)))

