"""Figure 10 — level-boundary artefacts: original SZ_L/R vs AMRIC's optimised SZ_L/R.

The paper compares the decompressed Nyx field produced by the *original*
SZ_L/R usage (linear merging of blocks, fixed 6³ blocks; CR 51.7) with AMRIC's
optimised SZ_L/R (unit SLE + adaptive block size; CR 53.2): at essentially the
same ratio, the optimised pipeline removes the visible artefacts along AMR
level boundaries.

Here the artefact level is quantified as the mean absolute error in a thin
shell around the fine-level boxes' boundaries (where Figure 10's white arrows
point) relative to the mean error elsewhere.
"""

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.compress.sz_lr import SZLRCompressor
from repro.core.adaptive import select_sz_block_size
from repro.core.preprocess import hierarchy_layouts
from repro.core.sle import compress_blocks_lm, compress_blocks_sle


def _boundary_shell_mask(hierarchy, level_domain_shape):
    """Cells of the coarse domain within 1 cell of a fine-box boundary."""
    mask = np.zeros(level_domain_shape, dtype=bool)
    ratio = hierarchy.ref_ratios[0]
    for box in hierarchy[1].boxarray.coarsen(ratio):
        grown = box.grow(1).intersection(hierarchy[0].domain)
        inner = box.grow(-1) if min(box.shape) > 2 else box
        shell = np.zeros(level_domain_shape, dtype=bool)
        shell[grown.slices(origin=hierarchy[0].domain.lo)] = True
        shell[inner.slices(origin=hierarchy[0].domain.lo)] = False
        mask |= shell
    return mask


@pytest.mark.paper
def test_fig10_level_boundary_artifacts(benchmark, preset_hierarchy):
    hierarchy = preset_hierarchy("nyx_1")
    eb = 1e-2
    # compress the coarse level (where the boundary artefacts show up)
    layout = hierarchy_layouts(hierarchy, 8, remove_redundancy=True)[0]
    blocks = layout.views(hierarchy[0], "baryon_density")

    def run():
        original = compress_blocks_lm(blocks, SZLRCompressor(eb, block_size=6))
        optimised = compress_blocks_sle(
            blocks, SZLRCompressor(eb, block_size=select_sz_block_size(8)))
        return original, optimised

    original, optimised = benchmark.pedantic(run, rounds=1, iterations=1)

    # rebuild dense error fields on the coarse domain
    domain = hierarchy[0].domain
    err_orig = np.zeros(domain.shape)
    err_opt = np.zeros(domain.shape)
    for index, (data, rec_o, rec_p) in enumerate(zip(blocks, original.reconstructions,
                                                     optimised.reconstructions)):
        sl = layout.box(index).slices(origin=domain.lo)
        err_orig[sl] = np.abs(data - rec_o)
        err_opt[sl] = np.abs(data - rec_p)

    shell = _boundary_shell_mask(hierarchy, domain.shape)
    kept = err_orig > -1  # all cells (kept regions have errors, removed stay 0)

    def artifact_ratio(err):
        inside = err[shell & kept].mean()
        outside = err[~shell & kept].mean() or 1e-30
        return inside / outside

    rows = [
        {"method": "original SZ_L/R (LM, 6^3)", "CR": original.compression_ratio,
         "boundary/interior error": artifact_ratio(err_orig)},
        {"method": "AMRIC SZ_L/R (SLE, adaptive)", "CR": optimised.compression_ratio,
         "boundary/interior error": artifact_ratio(err_opt)},
    ]
    print()
    print(format_table(rows, title="Figure 10 — level-boundary artefacts", floatfmt=".3f"))
    print("paper reference: CR 51.7 (original) vs 53.2 (AMRIC), artefacts removed")

    # shape claim: the optimised pipeline does not concentrate more error at
    # level boundaries than the original.  (On the synthetic coarse level the
    # original LM configuration reaches a higher ratio — a known deviation of
    # this reproduction — so CR parity is reported but not asserted.)
    assert artifact_ratio(err_opt) <= artifact_ratio(err_orig) * 1.1
    assert optimised.compression_ratio > 1 and original.compression_ratio > 1
