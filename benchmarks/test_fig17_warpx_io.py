"""Figure 17 — WarpX write-time breakdown (weak scaling: 512/1024/2048-core style runs).

For every WarpX preset and every method the harness measures compression
ratios and filter-call structure on the scaled-down run, scales the per-rank
workloads to the paper-scale configuration of Table 1, and evaluates the
calibrated I/O cost model.  Paper shape to reproduce:

* AMRIC reduces total writing time versus the no-compression write by up to
  ~90 % for the largest run and never adds noticeable overhead;
* AMReX's original compression is dramatically slower (the paper reports
  AMRIC reducing its write time by 89–97 %), because each rank launches the
  compressor thousands of times with 1024-element chunks;
* the prep phase stays small for every method.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.analysis.scaling import paper_scale_workloads
from repro.apps import RUN_PRESETS
from repro.parallel import IOCostModel

METHODS = ("nocomp", "amrex", "amric_szlr", "amric_szinterp")
WARPX_RUNS = ("warpx_1", "warpx_2", "warpx_3")


def _breakdowns(write_report, run):
    preset = RUN_PRESETS[run]
    model = IOCostModel()
    out = {}
    for method in METHODS:
        report = write_report(run, method)
        workloads = paper_scale_workloads(report, preset)
        out[method] = (report, model.evaluate(
            workloads, ndatasets=max(report.ndatasets, 1),
            compression_enabled=method != "nocomp"))
    return out


@pytest.mark.paper
@pytest.mark.parametrize("run", WARPX_RUNS)
def test_fig17_warpx_write_time(benchmark, write_report, run):
    results = benchmark.pedantic(lambda: _breakdowns(write_report, run),
                                 rounds=1, iterations=1)

    rows = []
    for method, (report, bd) in results.items():
        rows.append({
            "run": run, "method": method,
            "CR": report.compression_ratio,
            "launches/rank": paper_scale_workloads(report, RUN_PRESETS[run])[0].compressor_launches,
            "prep (s)": bd.prep_seconds,
            "I/O (s)": bd.io_seconds,
            "total (s)": bd.total_seconds,
        })
    print()
    print(format_table(rows, title=f"Figure 17 — {run} write-time breakdown "
                                   f"({RUN_PRESETS[run].paper_nranks} paper-scale ranks, "
                                   f"{RUN_PRESETS[run].paper_data_gb} GB/step)"))

    nocomp = results["nocomp"][1].total_seconds
    amrex = results["amrex"][1].total_seconds
    amric = results["amric_szlr"][1].total_seconds
    amric_interp = results["amric_szinterp"][1].total_seconds

    # AMRIC is far faster than AMReX's original compression (paper: 89–97 %)
    assert amric < amrex / 3
    assert amric_interp < amrex / 3
    # AMRIC never noticeably slows the write down versus no compression
    assert amric <= nocomp * 1.25
    # prep stays a small fraction of the total for the compressed writers
    assert results["amric_szlr"][1].prep_seconds < 0.5 * results["amric_szlr"][1].total_seconds


@pytest.mark.paper
def test_fig17_largest_run_gains(benchmark, write_report):
    """The largest WarpX run shows the largest gain over no compression."""
    def collect():
        out = {}
        for run in ("warpx_1", "warpx_3"):
            results = _breakdowns(write_report, run)
            out[run] = (results["nocomp"][1].total_seconds,
                        results["amric_szlr"][1].total_seconds)
        return out

    totals = benchmark.pedantic(collect, rounds=1, iterations=1)
    reduction_small = 1 - totals["warpx_1"][1] / totals["warpx_1"][0]
    reduction_large = 1 - totals["warpx_3"][1] / totals["warpx_3"][0]
    print(f"\nwrite-time reduction vs NoComp: warpx_1 {reduction_small:.0%}, "
          f"warpx_3 {reduction_large:.0%} (paper: ~0% and ~90%)")
    assert reduction_large > reduction_small - 0.05
    assert reduction_large > 0.3


@pytest.mark.paper
def test_ablation_layout_filter(benchmark, preset_hierarchy):
    """DESIGN.md ablation — §3.3: layout change and filter modification.

    * Without the field-major layout the chunk is capped at the smallest
      per-box field segment (1024-element class), multiplying filter launches.
    * Without the actual-size filter modification the naive global chunk pads
      every smaller rank up to the largest rank's size.
    """
    from repro.core import AMRICConfig, AMRICWriter
    from repro.core.preprocess import hierarchy_layouts
    from repro.h5lite.chunking import amrex_chunk_elements

    hierarchy = preset_hierarchy("warpx_1")

    def run():
        modified = AMRICWriter(AMRICConfig(error_bound=1e-3, modify_filter=True)) \
            .write_plotfile(hierarchy)
        naive = AMRICWriter(AMRICConfig(error_bound=1e-3, modify_filter=False)) \
            .write_plotfile(hierarchy)
        return modified, naive

    modified, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    padded_modified = sum(w.padded_bytes for w in modified.rank_workloads)
    padded_naive = sum(w.padded_bytes for w in naive.rank_workloads)
    print(f"\nfilter modification ablation: padded bytes {padded_modified} (modified) vs "
          f"{padded_naive} (naive global chunk)")
    assert padded_modified == 0
    assert padded_naive > 0

    # layout ablation: the box-major layout caps the chunk at the smallest
    # field segment (one block's field), which implies far more filter
    # launches per rank; the first rank's buffer holds every field of its blocks
    layout = hierarchy_layouts(hierarchy, 16, remove_redundancy=True)[0]
    ncomp = len(hierarchy.component_names)
    box_major_chunk = amrex_chunk_elements(int(layout.sizes[layout.rank_runs[0]].min()))
    field_major_chunk = layout.rank_elements[0]
    launches_box_major = -(-ncomp * field_major_chunk // box_major_chunk)
    launches_field_major = ncomp
    print(f"layout ablation: chunk {box_major_chunk} vs {field_major_chunk} elements, "
          f"launches/rank {launches_box_major} vs {launches_field_major}")
    assert field_major_chunk > box_major_chunk
    assert launches_box_major > 5 * launches_field_major
