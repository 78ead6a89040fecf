"""Temporal rate-distortion reporting for plotfile series.

The per-step counterpart of the single-file summaries in
:mod:`repro.analysis.reporting`: one row per step with its compression ratio,
PSNR and how many bytes the temporal delta saved over the keyframe encoding
of the same step (both candidate sizes are recorded in the series manifest,
so the comparison costs no decoding).  ``python -m repro series-info`` renders
these rows; studies aggregate them via :func:`series_summary`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["step_summary_row", "series_step_rows", "series_dataset_rows",
           "series_summary"]


def _index_of(series) -> "object":
    """Accept a SeriesHandle, a SeriesIndex, or a series directory path.

    A path is opened live-aware (journal-only directories report too), so
    ``series-info`` works mid-run.
    """
    from repro.series.index import SeriesIndex
    from repro.series.reader import SeriesHandle
    from repro.stream.journal import load_live_index

    if isinstance(series, SeriesHandle):
        return series.index
    if isinstance(series, SeriesIndex):
        return series
    index, _ = load_live_index(str(series))
    return index


def step_summary_row(step) -> Dict[str, object]:
    """One step's rate/distortion/savings row (manifest record only, no decode).

    The shared shape of a ``series-info`` table row and of the summary the
    server pushes with each ``subscribe`` step-committed event.
    """
    psnrs = [d.psnr for d in step.datasets if np.isfinite(d.psnr)]
    ndelta = sum(1 for d in step.datasets if d.mode == "delta")
    return {
        "step": step.step,
        "time": step.time,
        "kind": step.kind,
        "delta_datasets": f"{ndelta}/{len(step.datasets)}",
        "stored_bytes": step.stored_bytes,
        "CR": step.compression_ratio,
        "psnr_db": float(np.mean(psnrs)) if psnrs else float("inf"),
        "worst_psnr_db": float(min(psnrs)) if psnrs else float("inf"),
        "key_bytes": step.key_bytes,
        "delta_saved": step.delta_saved_bytes,
    }


def series_step_rows(series) -> List[Dict[str, object]]:
    """Per-step rate/distortion/savings rows for :func:`~repro.analysis.reporting.format_table`."""
    index = _index_of(series)
    return [step_summary_row(step) for step in index.steps]


def series_dataset_rows(series, step: int = -1) -> List[Dict[str, object]]:
    """Per-dataset rows of one step (mode, sizes, both candidates, PSNR)."""
    index = _index_of(series)
    record = index.steps[step]
    rows: List[Dict[str, object]] = []
    for d in record.datasets:
        rows.append({
            "dataset": d.name,
            "mode": d.mode,
            "ref": "-" if d.ref is None else d.ref,
            "stored_bytes": d.stored_bytes,
            "CR": d.raw_bytes / max(d.stored_bytes, 1),
            "key_bytes": d.key_bytes,
            "delta_bytes": "-" if d.delta_bytes is None else d.delta_bytes,
            "psnr_db": d.psnr,
        })
    return rows


def series_summary(series) -> Dict[str, object]:
    """Whole-series totals: ratio, PSNR range and delta-vs-keyframe savings.

    ``keyframe_only_bytes`` is the sum of the recorded key candidates: what
    their Huffman tables imply, a few percent under a real keyframe-only
    series (DESIGN.md §6).  ``delta_savings_factor`` compares like with like:
    that sum over the sum of the candidates that were committed.
    """
    index = _index_of(series)
    psnrs = [d.psnr for s in index.steps for d in s.datasets if np.isfinite(d.psnr)]
    key_only = index.key_bytes
    return {
        "nsteps": index.nsteps,
        "keyframes": sum(1 for s in index.steps if s.kind == "key"),
        "delta_steps": sum(1 for s in index.steps if s.kind == "delta"),
        "raw_bytes": index.raw_bytes,
        "stored_bytes": index.stored_bytes,
        "compression_ratio": index.compression_ratio,
        "keyframe_only_bytes": key_only,
        "delta_saved_bytes": index.delta_saved_bytes,
        "delta_savings_factor": key_only / max(key_only - index.delta_saved_bytes, 1),
        "mean_psnr_db": float(np.mean(psnrs)) if psnrs else float("inf"),
        "worst_psnr_db": float(min(psnrs)) if psnrs else float("inf"),
    }
