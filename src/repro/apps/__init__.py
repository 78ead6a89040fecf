"""Synthetic AMR applications standing in for Nyx and WarpX.

The compression study only ever sees the *data* an application dumps, so the
stand-ins reproduce the data characteristics the paper leans on:

* :class:`~repro.apps.nyx.NyxSimulation` — a cosmology-like workload: six
  fields (baryon density, dark-matter density, temperature, three momenta)
  built from correlated log-normal random fields with halo-like peaks; rough,
  hard to compress (paper CRs around 10–20); refinement tags the densest few
  percent of the volume.
* :class:`~repro.apps.warpx.WarpXSimulation` — a laser-wakefield PIC-like
  workload: six smooth electromagnetic field components on an elongated
  domain; very compressible (paper CRs in the hundreds-to-thousands);
  refinement follows the laser pulse.
* :data:`~repro.apps.driver.RUN_PRESETS` and
  :func:`~repro.apps.driver.build_run` — the scaled-down Table 1 run matrix.

A simulation's dump loop is the facade's: ``repro.write_series(sim.run(n),
directory)`` for a delta-compressed series, or ``repro.write(sim.hierarchy,
path)`` per dump.
"""

from repro.apps.nyx import NyxSimulation, nyx_run
from repro.apps.warpx import WarpXSimulation, warpx_run
from repro.apps.driver import RunPreset, RUN_PRESETS, build_run

__all__ = [
    "NyxSimulation",
    "WarpXSimulation",
    "nyx_run",
    "warpx_run",
    "RunPreset",
    "RUN_PRESETS",
    "build_run",
]
