"""AMReX-like patch-based AMR substrate.

This subpackage provides the data structures AMRIC needs from the host AMR
framework:

* :class:`~repro.amr.box.Box` — an axis-aligned rectangle in cell-index space,
  with the intersection/refine/coarsen algebra AMReX exposes.
* :class:`~repro.amr.boxarray.BoxArray` — the collection of boxes that tile one
  AMR level, plus intersection and coverage queries used for redundancy
  removal.
* :class:`~repro.amr.multifab.FArrayBox` / :class:`~repro.amr.multifab.MultiFab`
  — per-box, multi-component floating point data.
* :class:`~repro.amr.hierarchy.AmrHierarchy` — the multi-level dataset an AMR
  application dumps at each plotfile step.
* :mod:`~repro.amr.regrid` — box generation over tagged cells (how levels are
  created from refinement criteria).
* :class:`~repro.amr.distribution.DistributionMapping` — box → MPI-rank
  assignment.
* :mod:`~repro.amr.upsample` — up-sampling, average-down and the refill of
  covered coarse cells.
"""

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.multifab import FArrayBox, MultiFab
from repro.amr.hierarchy import AmrLevel, AmrHierarchy
from repro.amr.distribution import DistributionMapping
from repro.amr.regrid import cluster_tags
from repro.amr.upsample import covered_mask

__all__ = [
    "Box",
    "BoxArray",
    "FArrayBox",
    "MultiFab",
    "AmrLevel",
    "AmrHierarchy",
    "DistributionMapping",
    "cluster_tags",
    "covered_mask",
]
