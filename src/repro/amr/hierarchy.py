"""Multi-level AMR datasets: ``AmrLevel`` and ``AmrHierarchy``.

The hierarchy is what an AMR application hands to the I/O layer at each
plotfile step: one :class:`~repro.amr.multifab.MultiFab` per refinement level,
the refinement ratios between levels, and the problem domain of level 0.

Conventions follow AMReX (and the paper):

* level 0 is the **coarsest** level;
* each finer level covers a subset of the domain at ``ratio``× the resolution;
* patch-based AMR keeps the **redundant** coarse data underneath finer levels
  (this is exactly what AMRIC's pre-processing removes before compression);
* finer levels are properly nested inside the next coarser level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.multifab import MultiFab

__all__ = ["AmrLevel", "AmrHierarchy"]


@dataclass
class AmrLevel:
    """One refinement level: its domain box, box array and field data."""

    level: int
    domain: Box            # index space of the whole level (refined level-0 domain)
    boxarray: BoxArray
    multifab: MultiFab

    def __post_init__(self) -> None:
        if len(self.boxarray) != self.multifab.nboxes:
            raise ValueError("boxarray and multifab must have the same number of boxes")
        for box in self.boxarray:
            if not self.domain.contains(box):
                raise ValueError(f"box {box} escapes the level domain {self.domain}")

    @property
    def component_names(self) -> Tuple[str, ...]:
        return self.multifab.component_names

    @property
    def ncomp(self) -> int:
        return self.multifab.ncomp

    @property
    def num_cells(self) -> int:
        return self.boxarray.num_cells

    @property
    def nbytes(self) -> int:
        return self.multifab.nbytes

    def density(self) -> float:
        """Fraction of the level's domain covered by its boxes (the paper's "data density")."""
        return self.boxarray.covered_fraction(self.domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AmrLevel(level={self.level}, nboxes={len(self.boxarray)}, "
                f"cells={self.num_cells}, density={self.density():.3f})")


class AmrHierarchy:
    """A complete multi-level AMR snapshot."""

    def __init__(self, levels: Sequence[AmrLevel], ref_ratios: Sequence[int],
                 time: float = 0.0, step: int = 0):
        if not levels:
            raise ValueError("a hierarchy needs at least one level")
        if len(ref_ratios) != len(levels) - 1:
            raise ValueError("need exactly one refinement ratio per level interface")
        if any(r < 2 for r in ref_ratios):
            raise ValueError("refinement ratios must be >= 2")
        self.levels: List[AmrLevel] = list(levels)
        self.ref_ratios: Tuple[int, ...] = tuple(int(r) for r in ref_ratios)
        self.time = float(time)
        self.step = int(step)
        self._validate()

    def _validate(self) -> None:
        names = self.levels[0].component_names
        for lvl in self.levels:
            if lvl.component_names != names:
                raise ValueError("all levels must expose the same components")
        for i, ratio in enumerate(self.ref_ratios):
            coarse, fine = self.levels[i], self.levels[i + 1]
            expected_domain = coarse.domain.refine(ratio)
            if fine.domain != expected_domain:
                raise ValueError(
                    f"level {i + 1} domain {fine.domain} != refined coarse domain {expected_domain}")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def component_names(self) -> Tuple[str, ...]:
        return self.levels[0].component_names

    @property
    def ncomp(self) -> int:
        return self.levels[0].ncomp

    def __iter__(self) -> Iterator[AmrLevel]:
        return iter(self.levels)

    def __getitem__(self, level: int) -> AmrLevel:
        return self.levels[level]

    @property
    def nbytes(self) -> int:
        return sum(lvl.nbytes for lvl in self.levels)

    @property
    def num_cells(self) -> int:
        return sum(lvl.num_cells for lvl in self.levels)

    def densities(self) -> List[float]:
        """Per-level coverage fractions, coarse → fine (Table 1's density column)."""
        return [lvl.density() for lvl in self.levels]

    def value_range(self, name: str) -> float:
        lo = min(lvl.multifab.min(name) for lvl in self.levels)
        hi = max(lvl.multifab.max(name) for lvl in self.levels)
        return hi - lo

    # ------------------------------------------------------------------
    # nesting / redundancy structure
    # ------------------------------------------------------------------
    def is_properly_nested(self) -> bool:
        """Every fine box, coarsened, must be covered by the coarser level's boxes."""
        for i in range(1, self.nlevels):
            coarse_ba = self.levels[i - 1].boxarray
            ratio = self.ref_ratios[i - 1]
            for fine_box in self.levels[i].boxarray:
                if not coarse_ba.contains_box(fine_box.coarsen(ratio)):
                    return False
        return True

    def covered_cells(self, level: int) -> int:
        """Number of level-``level`` cells hidden underneath the next finer level."""
        if level >= self.nlevels - 1:
            return 0
        fine_coarsened = self.levels[level + 1].boxarray.coarsen(self.ref_ratios[level])
        covered = 0
        for box in self.levels[level].boxarray:
            for _, overlap in fine_coarsened.intersections(box):
                covered += overlap.size
        return covered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dens = ", ".join(f"{d:.1%}" for d in self.densities())
        return (f"AmrHierarchy(nlevels={self.nlevels}, ratios={self.ref_ratios}, "
                f"densities=[{dens}], components={self.component_names})")
