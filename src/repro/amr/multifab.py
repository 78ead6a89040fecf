"""Per-box field data: ``FArrayBox`` and ``MultiFab`` (AMReX semantics).

An :class:`FArrayBox` holds the floating point data of *one* box for *all*
components (fields) of a level — AMReX stores the components of a box
contiguously, which is exactly the data-layout constraint §3.3 of the paper
works around.  A :class:`MultiFab` is the per-level collection of fabs plus
the box→rank distribution mapping.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping

__all__ = ["FArrayBox", "MultiFab"]


class FArrayBox:
    """Multi-component floating point data on a single box.

    Data is stored as an array of shape ``(ncomp,) + box.shape`` in C order,
    i.e. each component occupies a contiguous slab — matching AMReX's
    component-major fab storage.  Without ``data`` the array is zero-filled.
    """

    def __init__(self, box: Box, ncomp: int = 1, dtype=np.float64,
                 data: np.ndarray | None = None):
        if box.is_empty():
            raise ValueError("cannot allocate an FArrayBox on an empty box")
        self.box = box
        self.ncomp = int(ncomp)
        if self.ncomp < 1:
            raise ValueError("ncomp must be >= 1")
        expected = (self.ncomp,) + box.shape
        if data is None:
            data = np.zeros(expected, dtype=dtype)
        else:
            data = np.asarray(data, dtype=dtype)
            if data.shape != expected:
                raise ValueError(f"data shape {data.shape} != expected {expected}")
        self.data = data

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.box.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def component(self, comp: int) -> np.ndarray:
        """View of component ``comp`` (shape = box.shape)."""
        return self.data[comp]

    def set_component(self, comp: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self.data.dtype)
        if values.shape != self.box.shape:
            raise ValueError(f"component shape {values.shape} != box shape {self.box.shape}")
        self.data[comp] = values

    def copy(self) -> "FArrayBox":
        return FArrayBox(self.box, self.ncomp, dtype=self.dtype, data=self.data.copy())

    def min(self, comp: int | None = None) -> float:
        return float(self.data.min() if comp is None else self.data[comp].min())

    def max(self, comp: int | None = None) -> float:
        return float(self.data.max() if comp is None else self.data[comp].max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FArrayBox(box={self.box}, ncomp={self.ncomp}, dtype={self.dtype})"


class MultiFab:
    """All fabs of one AMR level, with component names and a rank mapping."""

    def __init__(self, boxarray: BoxArray, component_names: Sequence[str],
                 distribution: DistributionMapping | None = None,
                 dtype=np.float64):
        if len(component_names) == 0:
            raise ValueError("MultiFab needs at least one component")
        if len(set(component_names)) != len(component_names):
            raise ValueError("component names must be unique")
        self.boxarray = boxarray
        self.component_names: Tuple[str, ...] = tuple(component_names)
        self.dtype = np.dtype(dtype)
        self.distribution = distribution or DistributionMapping.round_robin(len(boxarray), nranks=1)
        if len(self.distribution) != len(boxarray):
            raise ValueError("distribution mapping length must match number of boxes")
        self.fabs: List[FArrayBox] = [
            FArrayBox(box, ncomp=len(self.component_names), dtype=dtype) for box in boxarray
        ]

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def ncomp(self) -> int:
        return len(self.component_names)

    @property
    def nboxes(self) -> int:
        return len(self.boxarray)

    def __len__(self) -> int:
        return self.nboxes

    def __iter__(self) -> Iterator[FArrayBox]:
        return iter(self.fabs)

    def __getitem__(self, index: int) -> FArrayBox:
        return self.fabs[index]

    def component_index(self, name: str) -> int:
        try:
            return self.component_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown component {name!r}; have {self.component_names}") from exc

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def set_from_global(self, name: str, global_array: np.ndarray,
                        domain: Box) -> None:
        """Copy the portion of a domain-covering array into every box."""
        comp = self.component_index(name)
        if global_array.shape != domain.shape:
            raise ValueError(
                f"global array shape {global_array.shape} != domain shape {domain.shape}")
        for fab in self.fabs:
            overlap = fab.box.intersection(domain)
            if overlap != fab.box:
                raise ValueError(f"box {fab.box} is not contained in the domain {domain}")
            fab.set_component(comp, global_array[fab.box.slices(origin=domain.lo)])

    def to_global(self, name: str, domain: Box, fill_value: float = 0.0) -> np.ndarray:
        """Assemble component ``name`` onto a dense array covering ``domain``."""
        comp = self.component_index(name)
        out = np.full(domain.shape, fill_value, dtype=self.dtype)
        for fab in self.fabs:
            overlap = fab.box.intersection(domain)
            if overlap.is_empty():
                continue
            out[overlap.slices(origin=domain.lo)] = \
                fab.component(comp)[overlap.slices(origin=fab.box.lo)]
        return out

    @property
    def nbytes(self) -> int:
        return sum(fab.nbytes for fab in self.fabs)

    def min(self, name: str) -> float:
        comp = self.component_index(name)
        return min(float(fab.component(comp).min()) for fab in self.fabs)

    def max(self, name: str) -> float:
        comp = self.component_index(name)
        return max(float(fab.component(comp).max()) for fab in self.fabs)

    def value_range(self, name: str) -> float:
        return self.max(name) - self.min(name)

    def copy(self) -> "MultiFab":
        out = MultiFab(self.boxarray, self.component_names, self.distribution, dtype=self.dtype)
        for dst, src in zip(out.fabs, self.fabs):
            dst.data[...] = src.data
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MultiFab(nboxes={self.nboxes}, ncomp={self.ncomp}, "
                f"components={self.component_names})")
