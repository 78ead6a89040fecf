"""The metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` is the telemetry spine of a process (or of one
server — a :class:`~repro.service.engine.QueryEngine` owns a private registry
so its snapshot describes *that* engine, not every tenant of the process;
:func:`get_registry` is the shared process-wide default the writer-stage
spans and journal counters report into).

Three instrument kinds, all thread-safe and dependency-free:

:class:`Counter`
    Monotone ``inc(n)``; the unit of every ``*_total`` metric.
:class:`Gauge`
    ``set(v)``; current-value metrics (cache bytes held).
:class:`Histogram`
    Fixed upper-bound buckets, Prometheus-style cumulative on export.
    ``observe(v)`` is O(#buckets); :func:`quantile_from_buckets` derives
    p50/p99 estimates from the bucket counts, which is how per-op latency
    percentiles come out of a plain counter snapshot.

Instruments are addressed by ``(name, labels)`` — ``registry.counter("x",
labels={"op": "ping"})`` returns the same object every call, so hot paths
hold the instrument and pay one lock per update.  Two export forms:

* :meth:`MetricsRegistry.snapshot` — a plain-dict snapshot (JSON-safe), the
  payload of the ``stats`` wire op;
* :func:`render_prometheus` — the text exposition format, rendered from a
  registry *or* from a snapshot dict (so a client can render what a remote
  server sent without reconstructing instruments).

**Collectors** close the migration gap: the pre-existing stats objects
(:class:`~repro.service.cache.CacheStats`,
:class:`~repro.core.reader.ReadStats`,
:class:`~repro.h5lite.source.SourceStats`, journal/refresh accounting) keep
their cheap ``+=`` hot paths, and a collector registered with
:meth:`MetricsRegistry.add_collector` folds their current values into every
snapshot — zero overhead between snapshots, one consistent export path.

**Merging** (:meth:`MetricsRegistry.merge_snapshot`) folds a snapshot from
another registry — e.g. one built inside a process-pool worker — into this
one: counters and histogram buckets add, gauges take the incoming value.

:data:`NULL_REGISTRY` is the no-op implementation every instrumented call
site can be pointed at to measure instrumentation overhead (the
``BENCH_obs`` gate) or to opt out entirely.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "render_prometheus",
    "PROMETHEUS_CONTENT_TYPE",
    "quantile_from_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
]

#: seconds; spans and per-op server latency use these unless overridden
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: bytes; powers of 4 from 1 KiB to 1 GiB
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = tuple(
    float(1024 * 4 ** i) for i in range(11))

#: frozen label set: sorted (key, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, object]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared shape: a name, frozen labels, and one lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tags = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name}{{{tags}}})"


class Counter(_Instrument):
    """A monotone counter (negative increments are a bug and raise)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A settable current value."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket histogram: counts per upper bound, plus sum and count.

    ``buckets`` are the finite upper bounds in increasing order; an implicit
    ``+Inf`` bucket catches the tail.  Bounds are *inclusive* (the Prometheus
    ``le`` convention): ``observe(0.001)`` lands in the ``le=0.001`` bucket.
    Export is cumulative (each bucket counts every observation at or below
    its bound), matching the exposition format.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} needs strictly increasing buckets, "
                f"got {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)     # per-bucket, +Inf last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` rows, ``+Inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds + (float("inf"),), counts):
            running += n
            out.append((bound, running))
        return out


def quantile_from_buckets(buckets: Sequence[Sequence[float]],
                          q: float) -> float:
    """The q-quantile (0..1) of cumulative ``(upper bound, count)`` rows.

    Linear interpolation inside the bucket the quantile falls in; the
    ``+Inf`` bucket answers with its lower bound (the largest finite bound) —
    the usual Prometheus ``histogram_quantile`` behaviour.  Returns ``nan``
    with no observations.  Accepts :meth:`Histogram.cumulative` output or the
    ``buckets`` rows of a serialized snapshot.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rows = [(float(b), int(c)) for b, c in buckets]
    total = rows[-1][1] if rows else 0
    if total == 0:
        return float("nan")
    rank = q * total
    lower = 0.0
    prev = 0
    for bound, running in rows:
        if running >= rank:
            if bound == float("inf"):
                return lower
            width = bound - lower
            inside = running - prev
            if inside == 0:
                return bound
            return lower + width * (rank - prev) / inside
        lower = bound if bound != float("inf") else lower
        prev = running
    return lower  # pragma: no cover - rank <= total always hits


#: what a collector yields: (name, kind, labels dict, value). Histogram-kind
#: collector samples are not supported — collectors mirror plain counters.
CollectorSample = Tuple[str, str, Dict[str, str], float]
Collector = Callable[[], Iterable[CollectorSample]]


class MetricsRegistry:
    """Named, labelled instruments plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelKey], _Instrument] = {}
        self._collectors: List[Collector] = []

    # -- instrument accessors (get-or-create) ---------------------------
    def _get(self, cls, name: str, labels: Optional[Mapping[str, object]],
             **kwargs) -> _Instrument:
        key = (str(name), _freeze_labels(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(key[0], key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{instrument.kind}, not a {cls.kind}")
            return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, object]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, object]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, object]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- collectors -----------------------------------------------------
    def add_collector(self, collector: Collector) -> None:
        """Register a snapshot-time sample source (see module docstring).

        Collectors run only when a snapshot is taken, so mirroring an
        existing stats object costs nothing on its hot path.  A collector
        that raises is dropped from the registry (a dead handle must not
        poison every later snapshot) and its error is recorded in the
        ``repro_collector_errors_total`` counter.
        """
        with self._lock:
            self._collectors.append(collector)

    def remove_collector(self, collector: Collector) -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    def _collect(self) -> List[CollectorSample]:
        with self._lock:
            collectors = list(self._collectors)
        samples: List[CollectorSample] = []
        for collector in collectors:
            try:
                samples.extend(collector())
            except Exception:  # noqa: BLE001 - a dead source must not poison snapshots
                self.remove_collector(collector)
                self.counter("repro_collector_errors_total").inc()
        return samples

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Everything, as one JSON-safe dict keyed by metric name.

        Shape::

            {name: {"type": "counter"|"gauge",
                    "samples": [{"labels": {...}, "value": v}, ...]}
             name: {"type": "histogram",
                    "samples": [{"labels": {...}, "sum": s, "count": n,
                                 "buckets": [[le, cumulative], ...]}, ...]}}

        Collector samples are folded in; a collector sample whose
        ``(name, labels)`` collides with a pushed instrument replaces it
        (collectors own their names by convention).
        """
        # collectors run first: a raising one is replaced by an error counter,
        # which must appear in *this* snapshot, not the next
        collected = self._collect()
        with self._lock:
            instruments = list(self._instruments.values())
        families: Dict[str, Dict[str, object]] = {}

        def family(name: str, kind: str) -> Dict[str, object]:
            fam = families.get(name)
            if fam is None:
                fam = {"type": kind, "samples": []}
                families[name] = fam
            return fam

        for inst in instruments:
            fam = family(inst.name, inst.kind)
            if isinstance(inst, Histogram):
                fam["samples"].append({
                    "labels": inst.label_dict, "sum": inst.sum,
                    "count": inst.count,
                    "buckets": [[b, c] for b, c in inst.cumulative()]})
            else:
                fam["samples"].append({"labels": inst.label_dict,
                                       "value": inst.value})
        for name, kind, labels, value in collected:
            fam = family(name, kind)
            frozen = _freeze_labels(labels)
            fam["samples"] = [s for s in fam["samples"]
                              if _freeze_labels(s["labels"]) != frozen]
            fam["samples"].append({"labels": dict(labels), "value": value})
        return families

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]
                       ) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram sums/counts/buckets *add*; gauges take the
        incoming value.  This is how per-process-worker registries roll up
        into the parent: workers snapshot at job end, the parent merges.
        """
        for name, fam in snapshot.items():
            kind = fam.get("type")
            for sample in fam.get("samples", []):
                labels = sample.get("labels") or {}
                if kind == "counter":
                    self.counter(name, labels).inc(float(sample["value"]))
                elif kind == "gauge":
                    self.gauge(name, labels).set(float(sample["value"]))
                elif kind == "histogram":
                    rows = [(float(b), int(c)) for b, c in sample["buckets"]]
                    bounds = tuple(b for b, _ in rows if b != float("inf"))
                    hist = self.histogram(name, labels, buckets=bounds)
                    if hist.bounds != bounds:
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch: "
                            f"{hist.bounds} vs {bounds}")
                    per_bucket = [c - p for (_, c), p in
                                  zip(rows, [0] + [c for _, c in rows[:-1]])]
                    with hist._lock:
                        for i, n in enumerate(per_bucket):
                            hist._counts[i] += n
                        hist._sum += float(sample["sum"])
                        hist._count += int(sample["count"])


class _NullInstrument:
    """Accepts every update, records nothing."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0


class _NullRegistry(MetricsRegistry):
    """The do-nothing registry (overhead baseline / explicit opt-out)."""

    _NULL = _NullInstrument()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name, labels=None):  # type: ignore[override]
        return self._NULL

    def gauge(self, name, labels=None):  # type: ignore[override]
        return self._NULL

    def histogram(self, name, labels=None,  # type: ignore[override]
                  buckets=DEFAULT_LATENCY_BUCKETS):
        return self._NULL

    def add_collector(self, collector) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}


#: the shared no-op registry instance
NULL_REGISTRY: MetricsRegistry = _NullRegistry()

_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (writer spans, journal counters)."""
    return _global_registry


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


#: the Content-Type an HTTP endpoint serving :func:`render_prometheus`
#: output should declare (Prometheus text exposition format 0.0.4)
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def render_prometheus(snapshot: Mapping[str, Mapping[str, object]]) -> str:
    """A snapshot dict in the Prometheus text exposition format.

    Deterministic output (families and samples sorted), which is what the
    golden-file test pins down.  Works on any snapshot —
    :meth:`MetricsRegistry.snapshot` taken locally or received over the
    wire — so ``repro stats --prom`` needs no live registry on the client.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        fam = snapshot[name]
        kind = fam.get("type", "untyped")
        lines.append(f"# TYPE {name} {kind}")
        samples = sorted(fam.get("samples", []),
                         key=lambda s: _freeze_labels(s.get("labels") or {}))
        for sample in samples:
            labels = sample.get("labels") or {}
            if kind == "histogram":
                for bound, cumulative in sample["buckets"]:
                    le = _format_value(float(bound))
                    tag = _format_labels(labels, extra=f'le="{le}"')
                    lines.append(f"{name}_bucket{tag} {int(cumulative)}")
                tag = _format_labels(labels)
                lines.append(f"{name}_sum{tag} {_format_value(float(sample['sum']))}")
                lines.append(f"{name}_count{tag} {int(sample['count'])}")
            else:
                tag = _format_labels(labels)
                lines.append(f"{name}{tag} {_format_value(float(sample['value']))}")
    return "\n".join(lines) + ("\n" if lines else "")
