"""Analysis utilities: rate-distortion sweeps, error slices, table reporting."""

from repro.analysis.rate_distortion import RateDistortionPoint, rate_distortion_sweep
from repro.analysis.error_slices import error_slice, compare_error_slices
from repro.analysis.reporting import (
    format_table,
    comparison_record,
    ComparisonRecord,
)
from repro.analysis.series_report import (
    series_dataset_rows,
    series_step_rows,
)

__all__ = [
    "RateDistortionPoint",
    "rate_distortion_sweep",
    "error_slice",
    "compare_error_slices",
    "format_table",
    "comparison_record",
    "ComparisonRecord",
    "series_dataset_rows",
    "series_step_rows",
]
