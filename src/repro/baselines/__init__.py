"""Baselines the paper compares against.

* :class:`~repro.baselines.nocomp.NoCompressionWriter` — plain parallel write
  (the "NoComp" bars of Figures 17/18).
* :class:`~repro.baselines.amrex_1d.AMReXOriginalWriter` — AMReX's existing in
  situ compression: box-major layout, 1D SZ through the classic filter with a
  1024-element chunk, no redundancy removal (the "AMReX" column of Tables 2/3
  and bars of Figures 17/18).
* :func:`~repro.baselines.tac.tac_compress` — TAC-style offline adaptive 3D
  per-box compression (Figure 16).
"""

from repro.baselines.nocomp import NoCompressionWriter
from repro.baselines.amrex_1d import AMReXOriginalWriter
from repro.baselines.tac import tac_compress

__all__ = [
    "NoCompressionWriter",
    "AMReXOriginalWriter",
    "tac_compress",
]
