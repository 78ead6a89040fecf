"""Run presets mirroring Table 1 of the paper (scaled down) and a driver loop.

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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.nyx import NyxSimulation
from repro.apps.warpx import WarpXSimulation
from repro.apps.base import SyntheticAMRSimulation

__all__ = ["RunPreset", "RUN_PRESETS", "build_run", "SimulationDriver"]


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
    def ratio(self) -> int:
        return 2

    @property
    def paper_cells_per_level(self) -> Tuple[int, int]:
        coarse = int(np.prod(self.paper_coarse_shape))
        fine_domain = coarse * self.ratio ** 3
        return coarse, int(round(fine_domain * self.paper_fine_density))

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


@dataclass
class StepRecord:
    """What the driver reports per plotfile dump."""

    step: int
    time: float
    report: object            #: whatever the writer's write_plotfile returned
    path: Optional[str]


class SimulationDriver:
    """Step / regrid / dump loop tying an application to the in situ facade.

    Plotfile dumps go through :func:`repro.write`, so the driver accepts any
    combination the facade does: a pre-built ``writer`` object, a ``method``
    name ("amric", "amrex_1d", "nocomp"), an AMRIC ``config`` and/or keyword
    ``overrides`` — and dumps to disk are self-describing (readable back via
    :func:`repro.open`).

    With ``series=True`` the dumps instead accumulate into one plotfile
    series under ``output_dir`` (:mod:`repro.series`): consecutive dumps
    delta-compress against each other through the ``temporal_delta`` codec,
    every ``keyframe_interval``-th dump stays self-contained, and the run is
    read back time-indexed via :func:`repro.open_series`.

    Every series dump is committed through the journal (:mod:`repro.stream`),
    so readers and ``repro serve`` subscribers observe each step the moment
    it lands rather than at finalize.  ``stream=True`` (implies series mode)
    also resumes a series ``output_dir`` already holds — live after a crash,
    or finalized — instead of refusing it.
    """

    def __init__(self, simulation: SyntheticAMRSimulation, writer=None,
                 output_dir: Optional[str] = None, plot_interval: int = 1,
                 method: Optional[str] = None, config=None,
                 series: bool = False, keyframe_interval: int = 8,
                 stream: bool = False, **overrides):
        if writer is not None and (config is not None or overrides):
            # write_plotfile would reject this at the first dump; fail at
            # construction instead of mid-run
            raise ValueError(
                "writer= already carries its configuration; do not also pass "
                "config=/writer overrides to SimulationDriver")
        if stream and not series:
            raise ValueError("stream=True is a series mode; pass series=True")
        if series:
            if output_dir is None:
                raise ValueError("series=True needs an output_dir to accumulate into")
            if writer is not None or method is not None:
                raise ValueError(
                    "series=True always writes through the series writer; "
                    "writer=/method= cannot apply")
        self.simulation = simulation
        self.writer = writer
        self.method = method
        self.config = config
        self.series = bool(series)
        self.stream = bool(stream)
        self.keyframe_interval = int(keyframe_interval)
        self.overrides = overrides
        self.output_dir = output_dir
        self.plot_interval = max(1, int(plot_interval))
        self.records: list[StepRecord] = []
        #: dump only when I/O was configured (a writer, method, config,
        #: overrides — or the series mode, which is always a dump request)
        self._dumps = (writer is not None or method is not None
                       or config is not None or bool(overrides) or self.series)

    def run(self, nsteps: int, dt: float = 1.0) -> list[StepRecord]:
        """Advance ``nsteps`` steps, dumping a plotfile every ``plot_interval`` steps."""
        import os

        from repro.facade import write_plotfile

        series_writer = None
        if self.series and self._dumps:
            from repro.series.writer import SeriesWriter

            series_writer = SeriesWriter(self.output_dir, config=self.config,
                                         keyframe_interval=self.keyframe_interval,
                                         append=self.stream,
                                         **self.overrides)
        try:
            for step in range(nsteps):
                hierarchy = self.simulation.hierarchy
                if step % self.plot_interval == 0 and self._dumps:
                    if series_writer is not None:
                        report = series_writer.append(hierarchy)
                        path = report.path
                    else:
                        path = None
                        if self.output_dir is not None:
                            os.makedirs(self.output_dir, exist_ok=True)
                            path = os.path.join(
                                self.output_dir, f"plt{self.simulation.step:05d}.h5z")
                        report = write_plotfile(hierarchy, path, writer=self.writer,
                                                method=self.method or "amric",
                                                config=self.config, **self.overrides)
                    self.records.append(StepRecord(step=self.simulation.step,
                                                   time=self.simulation.time,
                                                   report=report, path=path))
                self.simulation.advance(dt)
        finally:
            if series_writer is not None:
                series_writer.close()
        return self.records
