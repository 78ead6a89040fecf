"""Figure 16 — rate-distortion comparison of AMRIC against TAC.

The paper compresses TAC's public dataset with both pipelines and finds AMRIC
reaches up to 2.2× the compression ratio at equal PSNR, because TAC only
pre-processes (SZ_L/R as a black box, one call per partition) while AMRIC also
optimises the compressor (unit SLE, adaptive block size, shared encoding).

Here both run on the same synthetic Nyx-like two-level dataset.
"""

import numpy as np
import pytest

from repro.analysis.rate_distortion import dominates, rate_distortion_sweep
from repro.analysis.reporting import format_table
from repro.baselines.tac import tac_compress
from repro.compress.sz_lr import SZLRCompressor
from repro.core.adaptive import select_sz_block_size
from repro.core.preprocess import hierarchy_layouts
from repro.core.sle import compress_blocks_sle

ERROR_BOUNDS = (2e-2, 1e-2, 5e-3, 1e-3)


@pytest.mark.paper
def test_fig16_amric_vs_tac(benchmark, preset_hierarchy):
    hierarchy = preset_hierarchy("nyx_1")
    field = "baryon_density"
    unit = 16

    # AMRIC path: per-level unit blocks, SLE + adaptive block size
    def amric_method(eb):
        originals = []
        recons = []
        compressed = 0
        for level, layout in enumerate(hierarchy_layouts(hierarchy, unit, True)):
            if not layout.nblocks:
                continue
            blocks = layout.views(hierarchy[level], field)
            enc = compress_blocks_sle(
                blocks, SZLRCompressor(eb, block_size=select_sz_block_size(unit)))
            compressed += enc.compressed_nbytes
            originals.extend(b.reshape(-1) for b in blocks)
            recons.extend(r.reshape(-1) for r in enc.reconstructions)
        return compressed, np.concatenate(originals), np.concatenate(recons)

    # TAC path: per-partition black-box SZ_L/R (uses the library baseline for
    # the stats; rebuilt here as a sweep-compatible method)
    def tac_method(eb):
        stats = tac_compress(hierarchy, field, eb, partition_size=unit)
        # tac_compress already measured psnr on the concatenated data; to keep
        # the sweep uniform we re-derive original/recon sizes from the record
        # by synthesising an error field with matching MSE is not necessary —
        # instead rerun on the same data returning full vectors:
        return stats  # handled below

    def run():
        points = rate_distortion_sweep({"AMRIC": amric_method}, error_bounds=ERROR_BOUNDS)
        tac_stats = [tac_compress(hierarchy, field, eb, partition_size=unit)
                     for eb in ERROR_BOUNDS]
        return points, tac_stats

    amric_points, tac_stats = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [p.as_row() for p in amric_points]
    rows += [{"method": "TAC", "error_bound": s.error_bound,
              "compression_ratio": s.compression_ratio, "psnr": s.psnr} for s in tac_stats]
    print()
    print(format_table(rows, title="Figure 16 — AMRIC vs TAC rate-distortion"))

    # shape claim: at every error bound AMRIC's ratio >= TAC's at similar PSNR
    amric_by_eb = {p.error_bound: p for p in amric_points}
    wins = 0
    gains = []
    for s in tac_stats:
        a = amric_by_eb[s.error_bound]
        gains.append(a.compression_ratio / s.compression_ratio)
        if a.compression_ratio >= s.compression_ratio and a.psnr >= s.psnr - 1.5:
            wins += 1
    print(f"AMRIC/TAC compression-ratio gain per bound: "
          f"{', '.join(f'{g:.2f}x' for g in gains)} (paper: up to 2.2x)")
    assert wins >= len(ERROR_BOUNDS) - 1
    assert max(gains) > 1.05
