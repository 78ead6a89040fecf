"""Table formatting, comparison records and plotfile summaries.

Benchmarks print their results with :func:`format_table` (so the harness
output looks like the paper's tables) and collect
:class:`ComparisonRecord` entries, each a paper value beside the measured one.
:func:`plotfile_dataset_rows` and :func:`io_stats_rows` tabulate an open
handle — what ``python -m repro info`` renders beside ``handle.describe()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

__all__ = ["format_table", "ComparisonRecord", "comparison_record",
           "plotfile_dataset_rows", "io_stats_rows",
           "registry_rows"]


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None,
                 floatfmt: str = ".2f", title: str | None = None) -> str:
    """Render rows of dicts as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if value in (float("inf"), float("-inf")):
                return "inf"
            return format(value, floatfmt)
        return str(value)

    table = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(str(c)), *(len(r[i]) for r in table)) for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in table:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


@dataclass
class ComparisonRecord:
    """Paper value versus measured value for one reported quantity."""

    experiment: str
    quantity: str
    paper_value: float
    measured_value: float
    note: str = ""

    @property
    def ratio(self) -> float:
        if self.paper_value == 0:
            return float("inf")
        return self.measured_value / self.paper_value

    def as_row(self) -> Dict[str, object]:
        return {"experiment": self.experiment, "quantity": self.quantity,
                "paper": self.paper_value, "measured": self.measured_value,
                "measured/paper": self.ratio, "note": self.note}


def comparison_record(experiment: str, quantity: str, paper_value: float,
                      measured_value: float, note: str = "") -> ComparisonRecord:
    return ComparisonRecord(experiment, quantity, float(paper_value),
                            float(measured_value), note)


# ----------------------------------------------------------------------
# plotfile tables (of an open handle)
# ----------------------------------------------------------------------
def plotfile_dataset_rows(handle) -> List[Dict[str, object]]:
    """Per-dataset rows of an open :class:`~repro.core.reader.PlotfileHandle`
    for :func:`format_table`: what each dataset stores and its ratio, from
    the header and the chunk index alone (no chunk is read) — the cells the
    layout places in it (``handle.placed_elements()``) over the bytes its
    chunks occupy.
    """
    import numpy as np

    rows: List[Dict[str, object]] = []
    placed = handle.placed_elements()
    for name in handle.dataset_names():
        info = handle.dataset_info(name)
        rows.append({
            "dataset": name,
            "chunks": info.nchunks,
            "elements": placed[name],
            "stored_bytes": info.stored_nbytes,
            "ratio": placed[name] * np.dtype(info.dtype).itemsize
            / max(info.stored_nbytes, 1),
            "filter": info.filter_id,
        })
    return rows


def io_stats_rows(handle) -> List[Dict[str, object]]:
    """A handle's decode and byte-source counters as metric/value rows.

    ``handle`` is a :class:`~repro.core.reader.PlotfileHandle` or a
    :class:`~repro.series.reader.SeriesHandle`: the decode counters of its
    :class:`~repro.core.reader.ReadStats`, then every counter of its
    ``source_stats`` (``source_`` prefixed — the source's block cache has
    hits of its own) — what ``repro info --stats`` prints to show coalescing
    and cache wins.
    """
    counters = {"chunks_decoded": handle.stats.chunks_decoded,
                "cache_hits": handle.stats.cache_hits}
    counters.update((f"source_{name}", value)
                    for name, value in handle.source_stats.as_dict().items())
    return [{"metric": name, "value": value}
            for name, value in counters.items()]


def registry_rows(snapshot: Mapping[str, Mapping[str, object]]
                  ) -> List[Dict[str, object]]:
    """A metrics-registry snapshot as metric/value rows for :func:`format_table`.

    Works on a local :meth:`~repro.obs.MetricsRegistry.snapshot` or one
    received over the wire (the ``registry`` key of the ``stats`` op).
    Histograms render as count / p50 / p99 rows, the percentiles derived
    from the bucket counts (:func:`repro.obs.quantile_from_buckets`).
    """
    from repro.obs import quantile_from_buckets

    def freeze(labels: Mapping[str, object]) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))

    rows: List[Dict[str, object]] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("type", "untyped")
        samples = sorted(family.get("samples", []),
                         key=lambda s: freeze(s.get("labels") or {}))
        for sample in samples:
            tag = freeze(sample.get("labels") or {})
            metric = f"{name}{{{tag}}}" if tag else name
            if kind == "histogram":
                buckets = sample.get("buckets", [])
                rows.append({"metric": f"{metric} count",
                             "value": int(sample.get("count", 0))})
                rows.append({"metric": f"{metric} p50",
                             "value": quantile_from_buckets(buckets, 0.5)})
                rows.append({"metric": f"{metric} p99",
                             "value": quantile_from_buckets(buckets, 0.99)})
            else:
                value = float(sample.get("value", 0.0))
                rows.append({"metric": metric,
                             "value": int(value) if value.is_integer()
                             else value})
    return rows
