#!/usr/bin/env python
"""Rate-distortion study of AMRIC's SZ_L/R optimisations (Figures 5–9 style).

Sweeps the paper's error-bound range on a Nyx-like fine level and prints the
(compression ratio, PSNR) curves for:

* LM   — linear merging of unit blocks (the unoptimised strategy),
* SLE  — unit Shared Lossless Encoding,
* Adp  — SLE plus the adaptive SZ block size (Equation 1),
* 1D   — AMReX-style chunked 1D compression,

plus the linear-versus-clustered arrangement comparison for SZ_Interp.

    python examples/rate_distortion_study.py [--unit 8]
"""

import argparse

import numpy as np

from repro.analysis.rate_distortion import rate_distortion_sweep
from repro.analysis.reporting import format_table
from repro.apps import nyx_run
from repro.compress import SZ1DCompressor, SZInterpCompressor, SZLRCompressor
from repro.core.adaptive import select_sz_block_size
from repro.core.preprocess import arrange_blocks, hierarchy_layouts, pack_blocks
from repro.core.sle import compress_blocks_lm, compress_blocks_sle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--unit", type=int, default=8, help="unit block size")
    parser.add_argument("--size", type=int, default=32, help="coarse grid size")
    args = parser.parse_args()

    sim = nyx_run(coarse_shape=(args.size,) * 3, nranks=2, target_fine_density=0.03, seed=17)
    hierarchy = sim.hierarchy
    layout = hierarchy_layouts(hierarchy, args.unit, remove_redundancy=True)[0]
    blocks = layout.views(hierarchy[0], "baryon_density")
    flat = np.concatenate([b.reshape(-1) for b in blocks])

    def lm(eb):
        enc = compress_blocks_lm(blocks, SZLRCompressor(eb))
        rec = np.concatenate([r.reshape(-1) for r in enc.reconstructions])
        return enc.compressed_nbytes, flat, rec

    def sle(eb):
        enc = compress_blocks_sle(blocks, SZLRCompressor(eb))
        rec = np.concatenate([r.reshape(-1) for r in enc.reconstructions])
        return enc.compressed_nbytes, flat, rec

    def adaptive(eb):
        size = select_sz_block_size(args.unit)
        enc = compress_blocks_sle(blocks, SZLRCompressor(eb, block_size=size))
        rec = np.concatenate([r.reshape(-1) for r in enc.reconstructions])
        return enc.compressed_nbytes, flat, rec

    def one_d(eb):
        records, rec = SZ1DCompressor(eb).compress_chunked(flat, 1024)
        return sum(len(record) for record in records), flat, rec.reshape(-1)

    points = rate_distortion_sweep(
        {"LM": lm, "SLE": sle, f"Adp-{select_sz_block_size(args.unit)}": adaptive, "1D": one_d},
        error_bounds=(2e-2, 1e-2, 5e-3, 1e-3))
    print(format_table([p.as_row() for p in points],
                       title=f"SZ_L/R strategies on Nyx coarse level (unit block {args.unit})"))

    # SZ_Interp arrangement comparison (Figure 5)
    rows = []
    for eb in (2e-2, 1e-2, 1e-3):
        for name in ("cluster", "linear"):
            packed = pack_blocks(blocks, arrange_blocks([b.shape for b in blocks], mode=name))
            comp = SZInterpCompressor(eb)
            buf, recon = comp.compress_with_reconstruction(packed)
            from repro.compress.metrics import psnr
            rows.append({"arrangement": name, "error_bound": eb,
                         "CR": packed.nbytes / buf.compressed_nbytes,
                         "PSNR": psnr(packed, recon)})
    print()
    print(format_table(rows, title="SZ_Interp: clustered vs linear arrangement (Figure 5)"))

    # end-to-end sanity: the same data through the repro.write/repro.open
    # facade — the plotfile is self-describing, so the read needs only the path
    import os
    import tempfile

    import repro

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rd_best.h5z")
        report = repro.write(hierarchy, path, compressor="sz_lr",
                             error_bound=1e-3, unit_block_size=args.unit)
        with repro.open(path) as plotfile:
            stored = plotfile.describe()
        print(f"\nfacade round trip: wrote {path} at eb=1e-3 "
              f"(CR {report.compression_ratio:.1f}x in situ, "
              f"{stored['compression_ratio']:.1f}x on disk, "
              f"codec {stored['codec']}, format v{stored['format_version']})")


if __name__ == "__main__":
    main()
