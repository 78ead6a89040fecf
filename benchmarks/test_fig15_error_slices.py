"""Figure 15 — compression-error fields of AMRIC vs AMReX on Nyx_2.

The paper shows one slice of the absolute error on the "baryon density" field
(coarse level of Nyx_2): AMRIC's error is considerably lower than AMReX's,
because AMRIC both compresses in 3D and uses a tighter error bound while
*still* achieving a higher compression ratio (Tables 2/3).
"""

import numpy as np
import pytest

from repro.analysis.error_slices import compare_error_slices, error_slice
from repro.analysis.reporting import format_table
from repro.apps import RUN_PRESETS
from repro.compress.errorbound import ErrorBound
from repro.compress.sz1d import SZ1DCompressor
from repro.compress.sz_lr import SZLRCompressor
from repro.core.preprocess import hierarchy_layouts
from repro.core.sle import compress_blocks_sle


@pytest.mark.paper
def test_fig15_amric_vs_amrex_error_fields(benchmark, preset_hierarchy):
    preset = RUN_PRESETS["nyx_2"]
    hierarchy = preset_hierarchy("nyx_2")
    field = "baryon_density"
    domain = hierarchy[0].domain
    orig = hierarchy[0].multifab.to_global(field, domain)

    layout = hierarchy_layouts(hierarchy, 32, remove_redundancy=True)[0]
    blocks = layout.views(hierarchy[0], field)

    def run():
        # AMRIC: 3D SZ_L/R with SLE at the AMRIC error bound
        amric = compress_blocks_sle(blocks, SZLRCompressor(preset.error_bound_amric))
        # AMReX: chunked 1D SZ at the (looser) AMReX error bound
        flat = np.concatenate([b.reshape(-1) for b in blocks])
        records, amrex_recon = SZ1DCompressor(
            ErrorBound.relative(preset.error_bound_amrex)).compress_chunked(flat, 1024)
        return amric, records, amrex_recon

    amric, amrex_records, amrex_recon_flat = benchmark.pedantic(run, rounds=1, iterations=1)

    # rebuild dense error fields
    err_amric = np.zeros(domain.shape)
    err_amrex = np.zeros(domain.shape)
    offset = 0
    for index, (block, rec) in enumerate(zip(blocks, amric.reconstructions)):
        sl = layout.box(index).slices(origin=domain.lo)
        err_amric[sl] = np.abs(block - rec)
        amrex_rec_block = amrex_recon_flat[offset:offset + block.size].reshape(block.shape)
        err_amrex[sl] = np.abs(block - amrex_rec_block)
        offset += block.size

    amrex_bytes = sum(len(record) for record in amrex_records)
    cmp = compare_error_slices(orig, orig - err_amric, orig - err_amrex)
    rows = [
        {"method": "AMRIC (SZ_L/R)", "CR": amric.compression_ratio,
         "mean |err|": float(err_amric.mean()), "p99 |err|": float(np.percentile(err_amric, 99))},
        {"method": "AMReX (1D, 1024 chunks)", "CR": orig.nbytes / amrex_bytes,
         "mean |err|": float(err_amrex.mean()), "p99 |err|": float(np.percentile(err_amrex, 99))},
    ]
    print()
    print(format_table(rows, title="Figure 15 — Nyx_2 coarse level, baryon density",
                       floatfmt=".4g"))

    # the figure's payload: a 2D error slice per method
    mid = error_slice(orig, orig - err_amric, axis=0)
    assert mid.shape == domain.shape[1:]

    # shape claims: AMRIC error is much lower AND its ratio is higher
    assert err_amric.mean() < err_amrex.mean()
    assert np.percentile(err_amric, 99) < np.percentile(err_amrex, 99)
    assert amric.compression_ratio > orig.nbytes / amrex_bytes
