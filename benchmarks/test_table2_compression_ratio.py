"""Table 2 — compression ratios: AMReX(1D) vs AMRIC(SZ_L/R) vs AMRIC(SZ_Interp).

Paper values (for reference, Summit-scale runs):

    run      AMReX(1D)   AMRIC(SZ_L/R)   AMRIC(SZ_Interp)
    WarpX_1     16.4         267.3            482.1
    WarpX_2    117.5         461.2           2406.0
    WarpX_3     29.6         949.0           4753.7
    Nyx_1        8.8          15.0             14.0
    Nyx_2        8.8          16.6             14.2
    Nyx_3        8.7          16.3             13.6

The absolute numbers cannot transfer to synthetic laptop-scale data; the
*shape* must: AMRIC beats AMReX's original compression on every run and the
gain is far larger on WarpX than on Nyx.  The paper's third claim — SZ_Interp
ahead of SZ_L/R on WarpX — does not hold here: on the synthetic ``warpx_1``
field AMRIC(SZ_Interp) measures about 0.4x AMRIC(SZ_L/R) (40.8 vs 100.8 with
format v2), because its predictor emits about twice SZ_L/R's code bits before
any lossless stage (ROADMAP item 6), so the test asserts only that both beat
AMReX there.  ``AMRIC_SZLR_FLOORS`` holds the two runs the lean chunk record
(format v2) was measured on to its gains.
"""

import pytest

from repro.analysis.reporting import comparison_record, format_table
from repro.apps import RUN_PRESETS

PAPER_TABLE2 = {
    "warpx_1": {"amrex": 16.4, "amric_szlr": 267.3, "amric_szinterp": 482.1},
    "warpx_2": {"amrex": 117.5, "amric_szlr": 461.2, "amric_szinterp": 2406.0},
    "warpx_3": {"amrex": 29.6, "amric_szlr": 949.0, "amric_szinterp": 4753.7},
    "nyx_1": {"amrex": 8.8, "amric_szlr": 15.0, "amric_szinterp": 14.0},
    "nyx_2": {"amrex": 8.8, "amric_szlr": 16.6, "amric_szinterp": 14.2},
    "nyx_3": {"amrex": 8.7, "amric_szlr": 16.3, "amric_szinterp": 13.6},
}

METHODS = ("amrex", "amric_szlr", "amric_szinterp")

#: AMRIC(SZ_L/R) floors: 59.7 and 9.10 before the lean chunk record (format v1),
#: 100.8 and 10.9 with it
AMRIC_SZLR_FLOORS = {"warpx_1": 80.0, "nyx_1": 9.8}


@pytest.mark.paper
@pytest.mark.parametrize("run", sorted(RUN_PRESETS))
def test_table2_compression_ratio(benchmark, write_report, run):
    reports = benchmark.pedantic(
        lambda: {m: write_report(run, m) for m in METHODS}, rounds=1, iterations=1)
    measured = {m: reports[m].compression_ratio for m in METHODS}

    rows = [{"run": run, "method": m, "CR (measured)": measured[m],
             "CR (paper)": PAPER_TABLE2[run][m]} for m in METHODS]
    records = [comparison_record(f"table2/{run}", m, PAPER_TABLE2[run][m], measured[m])
               for m in METHODS]
    print()
    print(format_table(rows, title=f"Table 2 — {run}"))
    print(format_table([r.as_row() for r in records]))

    # shape checks (the module docstring says which of the paper's claims hold)
    assert measured["amric_szlr"] > measured["amrex"] * 0.95, \
        "AMRIC(SZ_L/R) must at least match AMReX's original compression ratio"
    assert measured["amric_szlr"] >= AMRIC_SZLR_FLOORS.get(run, 0.0)
    if run.startswith("warpx"):
        # smooth data: both AMRIC variants beat AMReX by a wide margin
        assert measured["amric_szlr"] / measured["amrex"] > 2.0
        assert measured["amric_szinterp"] / measured["amrex"] > 2.0
    else:
        # rough Nyx data: SZ_L/R wins (paper: 15-16 vs 14); the global
        # interpolation pays for the block seams on this synthetic data, so it
        # is only required not to collapse (a known deviation of this reproduction)
        assert measured["amric_szlr"] > 0.85 * measured["amric_szinterp"]
        assert measured["amric_szinterp"] > 0.5 * measured["amrex"]


@pytest.mark.paper
def test_table2_warpx_gains_exceed_nyx_gains(benchmark, write_report):
    """The paper's up-to-81x CR gain is a WarpX number; Nyx gains are ~2x."""
    def gains():
        out = {}
        for run in ("warpx_1", "nyx_1"):
            amrex = write_report(run, "amrex").compression_ratio
            amric = write_report(run, "amric_szlr").compression_ratio
            out[run] = amric / amrex
        return out

    ratio = benchmark.pedantic(gains, rounds=1, iterations=1)
    print(f"\nCR improvement over AMReX: warpx_1 {ratio['warpx_1']:.1f}x, "
          f"nyx_1 {ratio['nyx_1']:.1f}x (paper: 16.3x and 1.7x)")
    assert ratio["warpx_1"] > ratio["nyx_1"]


@pytest.mark.paper
def test_redundancy_ablation(benchmark, preset_hierarchy):
    """DESIGN.md ablation: redundancy removal reduces the data actually compressed."""
    from repro.core import AMRICConfig, AMRICWriter

    hierarchy = preset_hierarchy("nyx_1")
    def run():
        on = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(hierarchy)
        off = AMRICWriter(AMRICConfig(error_bound=1e-3,
                                      remove_redundancy=False)).write_plotfile(hierarchy)
        return on, off
    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nredundancy removal: kept {on.raw_bytes / 1e6:.1f} MB of "
          f"{off.raw_bytes / 1e6:.1f} MB ({on.removed_cells} coarse cells dropped)")
    assert on.removed_cells > 0
    assert on.raw_bytes < off.raw_bytes
    assert on.compressed_bytes <= off.compressed_bytes * 1.05
