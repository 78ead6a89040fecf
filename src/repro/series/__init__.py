"""The plotfile-series subsystem: delta compression across timesteps.

A *series* is a directory of per-step plotfiles plus the series journal
(``series.journal``, :mod:`repro.stream.journal`) tying them together:

* :class:`~repro.series.writer.SeriesWriter` wraps the staged writer's
  plan/pack stages, keeps a rolling reference of the previous dump per
  (level, field) dataset and — when it actually saves bytes — stores the
  quantised delta against the prior step through the registered
  ``temporal_delta`` codec (:mod:`repro.compress.temporal`).  Every Nth dump
  is a self-contained keyframe, and a regrid (any change to a dataset's
  unit blocks, ranks or chunking) forces one per affected dataset.
* :class:`~repro.series.index.SeriesIndex` is the manifest the journal
  holds: per-step paths, simulation times, per-dataset stream modes
  (key, or delta and its reference step) and stats, validated like the
  plotfile header.  A step file's own header holds its geometry; nothing
  restates either.
* :class:`~repro.series.reader.SeriesHandle` (returned by
  :func:`repro.open_series`) reads lazily: ``read_field(..., step=...)``
  resolves delta chains chunk-by-chunk through the PR-3 chunk cache, and
  ``time_slice`` extracts a box's evolution without decoding any chunk
  outside the requested box's chains.
"""

from repro.series.index import (
    SeriesDatasetRecord,
    SeriesIndex,
    SeriesStepRecord,
)
from repro.series.reader import (
    SeriesHandle,
    SeriesStepHandle,
    is_series_dir,
)
from repro.series.writer import SeriesWriter

__all__ = [
    "SeriesDatasetRecord",
    "SeriesIndex",
    "SeriesStepRecord",
    "SeriesHandle",
    "SeriesStepHandle",
    "SeriesWriter",
    "is_series_dir",
]
