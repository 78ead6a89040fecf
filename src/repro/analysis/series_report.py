"""Temporal rate-distortion reporting for plotfile series.

The per-step counterpart of the single-file tables in
:mod:`repro.analysis.reporting`: one row per step with its compression ratio,
PSNR and how many bytes the temporal delta saved over the keyframe encoding
of the same step (both candidate sizes are recorded in the series manifest,
so the comparison costs no decoding).  ``python -m repro info DIR`` renders
these rows; the whole-series totals are :meth:`SeriesHandle.describe()
<repro.series.reader.SeriesHandle.describe>`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["step_summary_row", "series_step_rows", "series_dataset_rows"]


def step_summary_row(step) -> Dict[str, object]:
    """One step's rate/distortion/savings row (manifest record only, no decode).

    The shared shape of an ``info DIR`` table row and of the summary the
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
    """Per-step rate/distortion/savings rows of an open
    :class:`~repro.series.reader.SeriesHandle`, for
    :func:`~repro.analysis.reporting.format_table`."""
    return [step_summary_row(step) for step in series.index.steps]


def series_dataset_rows(series, step: int = -1) -> List[Dict[str, object]]:
    """Per-dataset rows of one step of an open series (mode, sizes, both
    candidates, PSNR)."""
    record = series.index.steps[step]
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
