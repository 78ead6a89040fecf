#!/usr/bin/env python
"""Quickstart: compress one AMR snapshot with AMRIC and read it back.

Uses the two-verb facade — ``repro.write`` to produce a self-describing
plotfile and ``repro.open`` to read it back *without the producing
hierarchy*.  Runs in a few seconds on a laptop::

    python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

import repro
from repro.apps import nyx_run


def main() -> None:
    # 1. run a (synthetic) Nyx-like AMR simulation and take one snapshot
    sim = nyx_run(coarse_shape=(32, 32, 32), nranks=4, target_fine_density=0.02, seed=7)
    hierarchy = sim.hierarchy
    print("AMR snapshot:", hierarchy)
    print(f"  total size: {hierarchy.nbytes / 1e6:.1f} MB, "
          f"fine-level density: {hierarchy[1].density():.1%}")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. write it in situ with AMRIC (SZ_L/R, 1e-3 relative error bound)
        path = os.path.join(tmp, "plotfile_amric.h5z")
        report = repro.write(hierarchy, path, compressor="sz_lr", error_bound=1e-3)
        print("\nAMRIC (SZ_L/R):")
        print(f"  compression ratio: {report.compression_ratio:6.1f}x")
        print(f"  mean PSNR:         {report.mean_psnr:6.1f} dB")
        print(f"  filter calls:      {report.total_filter_calls}")
        print(f"  redundant coarse cells removed: {report.removed_cells}")
        print(f"  file size on disk: {os.path.getsize(path) / 1e6:.2f} MB")

        # 3. compare against AMReX's original 1D compression and no compression
        amrex = repro.write(hierarchy, os.path.join(tmp, "plotfile_amrex.h5z"),
                            method="amrex_1d", error_bound=1e-2)
        nocomp = repro.write(hierarchy, os.path.join(tmp, "plotfile_raw.h5z"),
                             method="nocomp")
        print("\nComparison (same snapshot):")
        for rep in (report, amrex, nocomp):
            print(f"  {rep.method:16s} CR={rep.compression_ratio:7.1f}  "
                  f"PSNR={rep.mean_psnr if np.isfinite(rep.mean_psnr) else float('inf'):7.1f}  "
                  f"compressor launches={sum(w.compressor_launches for w in rep.rank_workloads)}")

        # 4. open the AMRIC plotfile from the file alone: its header carries
        #    the structure the chunks map back onto
        with repro.open(path) as plotfile:
            print(f"\nOpened {os.path.basename(path)}: fields={plotfile.fields}, "
                  f"levels={plotfile.levels}, codec={plotfile.codec}")

            # lazy random access: decode only the chunks under one fine box
            name = "baryon_density"
            box = hierarchy[1].boxarray.boxes[0]
            patch = plotfile.read_field(name, level=1, box=box)
            print(f"  read_field({name!r}, level=1, box={box}) decoded "
                  f"{plotfile.stats.chunks_decoded} chunk(s) -> {patch.shape}")

            # full staged read (scan -> decode -> place -> refill)
            restored = plotfile.read()

        # 5. check the error bound end to end
        orig = hierarchy[1].multifab.to_global(name, hierarchy[1].domain)
        back = restored[1].multifab.to_global(name, restored[1].domain)
        mask = hierarchy[1].boxarray.coverage_mask(hierarchy[1].domain)
        max_err = np.max(np.abs(orig[mask] - back[mask]))
        bound = report.error_bound * hierarchy[1].multifab.value_range(name)
        print(f"\nRead-back check on '{name}': max error {max_err:.3e} <= bound {bound:.3e}: "
              f"{max_err <= bound * (1 + 1e-9)}")


if __name__ == "__main__":
    main()
