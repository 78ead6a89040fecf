"""Figure 6 — compression-error fields of unit SLE vs linear merging (LM).

Paper claim: at a comparable compression ratio (91.4 vs 86.1 in the paper's
setup), unit SLE's error is visibly lower than LM's, especially at unit-block
boundaries, because prediction no longer crosses the seams between merged,
non-adjacent blocks.
"""

import numpy as np
import pytest

from repro.analysis.error_slices import compare_error_slices, error_slice
from repro.analysis.reporting import format_table
from repro.compress.sz_lr import SZLRCompressor
from repro.core.preprocess import hierarchy_layouts
from repro.core.sle import compress_blocks_lm, compress_blocks_sle


@pytest.mark.paper
def test_fig6_sle_vs_linear_merging(benchmark, preset_hierarchy):
    hierarchy = preset_hierarchy("nyx_1")
    blocks = hierarchy_layouts(hierarchy, 16, remove_redundancy=True)[1] \
        .views(hierarchy[1], "baryon_density")
    eb = 1e-2
    comp = SZLRCompressor(eb)

    def run():
        return compress_blocks_sle(blocks, comp), compress_blocks_lm(blocks, comp)

    sle, lm = benchmark.pedantic(run, rounds=1, iterations=1)

    orig = np.concatenate([b.reshape(-1) for b in blocks])
    rec_sle = np.concatenate([r.reshape(-1) for r in sle.reconstructions])
    rec_lm = np.concatenate([r.reshape(-1) for r in lm.reconstructions])
    cmp = compare_error_slices(orig, rec_sle, rec_lm)

    rows = [
        {"method": "unit SLE", "CR": sle.compression_ratio,
         "mean |err|": cmp.mean_error_a, "p99 |err|": cmp.p99_error_a},
        {"method": "linear merging", "CR": lm.compression_ratio,
         "mean |err|": cmp.mean_error_b, "p99 |err|": cmp.p99_error_b},
    ]
    print()
    print(format_table(rows, title="Figure 6 — SLE vs LM (Nyx fine level, unit block 16)",
                       floatfmt=".4g"))
    print("paper reference: CR 91.4 (SLE) vs 86.1 (LM), SLE visibly lower error")

    # an example error slice is extractable (the figure's payload)
    first_block = blocks[0]
    first_recon_sle = sle.reconstructions[0]
    sl = error_slice(first_block, first_recon_sle, axis=0)
    assert sl.shape == first_block.shape[1:]

    # shape claims: SLE error is no worse, at a comparable or better ratio
    assert cmp.mean_error_a <= cmp.mean_error_b * 1.02
    assert sle.compression_ratio >= lm.compression_ratio * 0.9
