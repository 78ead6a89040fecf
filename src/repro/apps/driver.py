"""Run presets mirroring Table 1 of the paper (scaled down).

The paper's six runs use grids from 256³ up to 2048×2048×16384 on 64–4096 MPI
ranks; a laptop-scale reproduction keeps the *structure* of each run — two AMR
levels, the per-level density targets, the relative error bounds, the rank
counts for the I/O model — while scaling the grids down by 4–16× per
dimension.  Every preset also records the paper-scale numbers so the I/O
benchmarks can scale the measured compression ratios back up to the original
data sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.apps.nyx import NyxSimulation
from repro.apps.warpx import WarpXSimulation
from repro.apps.base import SyntheticAMRSimulation

__all__ = ["RunPreset", "RUN_PRESETS", "build_run"]


@dataclass(frozen=True)
class RunPreset:
    """One row of Table 1 (paper scale) plus its scaled-down counterpart."""

    name: str
    app: str                                  #: "nyx" or "warpx"
    #: paper-scale configuration (for the I/O cost model)
    paper_coarse_shape: Tuple[int, int, int]
    paper_nranks: int
    paper_nodes: int
    paper_data_gb: float                      #: per-timestep data size reported in Table 1
    paper_fine_density: float                 #: fine-level density from Table 1
    #: error bounds used in the paper (AMRIC, AMReX) — value-range relative
    error_bound_amric: float
    error_bound_amrex: float
    #: scaled-down configuration actually simulated here
    coarse_shape: Tuple[int, int, int] = (64, 64, 64)
    nranks: int = 4
    max_grid_size: int = 32
    seed: int = 0

    @property
    def paper_total_bytes(self) -> int:
        return int(self.paper_data_gb * 1e9)


#: Table 1, scaled.  Coarse shapes are divided by 8 (Nyx) / 8–16 (WarpX) per
#: dimension; rank counts for the *simulated data* are small, while the
#: paper-scale rank counts drive the I/O model.
RUN_PRESETS: Dict[str, RunPreset] = {
    "warpx_1": RunPreset(
        name="warpx_1", app="warpx",
        paper_coarse_shape=(256, 256, 2048), paper_nranks=64, paper_nodes=2,
        paper_data_gb=12.4, paper_fine_density=0.0196,
        error_bound_amric=1e-3, error_bound_amrex=5e-3,
        coarse_shape=(32, 32, 256), nranks=4, max_grid_size=64, seed=11),
    "warpx_2": RunPreset(
        name="warpx_2", app="warpx",
        paper_coarse_shape=(512, 512, 4096), paper_nranks=512, paper_nodes=16,
        paper_data_gb=99.3, paper_fine_density=0.0196,
        error_bound_amric=1e-3, error_bound_amrex=5e-3,
        coarse_shape=(32, 32, 320), nranks=8, max_grid_size=64, seed=12),
    "warpx_3": RunPreset(
        name="warpx_3", app="warpx",
        paper_coarse_shape=(1024, 1024, 8192), paper_nranks=4096, paper_nodes=128,
        paper_data_gb=624.0, paper_fine_density=0.0104,
        error_bound_amric=1e-4, error_bound_amrex=5e-4,
        coarse_shape=(32, 32, 384), nranks=16, max_grid_size=64, seed=13),
    "nyx_1": RunPreset(
        name="nyx_1", app="nyx",
        paper_coarse_shape=(256, 256, 256), paper_nranks=64, paper_nodes=2,
        paper_data_gb=1.6, paper_fine_density=0.014,
        error_bound_amric=1e-3, error_bound_amrex=1e-2,
        coarse_shape=(48, 48, 48), nranks=4, max_grid_size=24, seed=21),
    "nyx_2": RunPreset(
        name="nyx_2", app="nyx",
        paper_coarse_shape=(512, 512, 512), paper_nranks=512, paper_nodes=16,
        paper_data_gb=12.0, paper_fine_density=0.0323,
        error_bound_amric=1e-3, error_bound_amrex=1e-2,
        coarse_shape=(64, 64, 64), nranks=8, max_grid_size=32, seed=22),
    "nyx_3": RunPreset(
        name="nyx_3", app="nyx",
        paper_coarse_shape=(1024, 1024, 1024), paper_nranks=4096, paper_nodes=128,
        paper_data_gb=97.5, paper_fine_density=0.017,
        error_bound_amric=1e-3, error_bound_amrex=1e-2,
        coarse_shape=(80, 80, 80), nranks=16, max_grid_size=40, seed=23),
}


def build_run(preset: RunPreset | str, **overrides) -> SyntheticAMRSimulation:
    """Instantiate the simulation for a preset (by name or object)."""
    if isinstance(preset, str):
        if preset not in RUN_PRESETS:
            raise KeyError(f"unknown run preset {preset!r}; have {sorted(RUN_PRESETS)}")
        preset = RUN_PRESETS[preset]
    common = dict(coarse_shape=preset.coarse_shape, nranks=preset.nranks,
                  target_fine_density=preset.paper_fine_density,
                  max_grid_size=preset.max_grid_size, seed=preset.seed)
    common.update(overrides)
    if preset.app == "nyx":
        return NyxSimulation(**common)
    if preset.app == "warpx":
        return WarpXSimulation(**common)
    raise ValueError(f"unknown app {preset.app!r}")
