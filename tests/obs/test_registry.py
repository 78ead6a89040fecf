"""MetricsRegistry: instruments, concurrency, collectors, merge, exposition."""

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    quantile_from_buckets,
    render_prometheus,
)

GOLDEN = Path(__file__).parent / "golden_exposition.prom"


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("reads_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_refuses_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("x").inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("c", labels={"op": "ping"})
        b = reg.counter("c", labels={"op": "ping"})
        c = reg.counter("c", labels={"op": "read"})
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("c", labels={"a": 1, "b": 2})
        b = reg.counter("c", labels={"b": 2, "a": 1})
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_bounds_are_inclusive(self):
        """An observation equal to a bound lands in that bound's bucket."""
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)       # le=1.0, inclusively
        hist.observe(1.5)       # le=2.0
        hist.observe(4.0)       # le=4.0, inclusively
        hist.observe(100.0)     # +Inf
        assert hist.cumulative() == [
            (1.0, 1), (2.0, 2), (4.0, 3), (float("inf"), 4)]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)

    def test_buckets_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h", buckets=(1.0, 1.0))

    def test_quantiles_interpolate_within_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(10.0, 20.0, 40.0))
        for _ in range(100):
            hist.observe(15.0)      # all mass in (10, 20]
        # p50: rank 50 of 100 inside the second bucket -> interpolated
        assert 10.0 < quantile_from_buckets(hist.cumulative(), 0.5) <= 20.0
        assert quantile_from_buckets(hist.cumulative(), 1.0) == 20.0

    def test_quantile_of_empty_histogram_is_nan(self):
        reg = MetricsRegistry()
        assert math.isnan(quantile_from_buckets(reg.histogram("h").cumulative(), 0.5))

    def test_quantile_inf_bucket_answers_largest_finite_bound(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert quantile_from_buckets(hist.cumulative(), 0.99) == 2.0

    def test_quantile_from_serialized_snapshot_rows(self):
        """p50/p99 are derivable from the wire-shaped bucket rows alone."""
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=list(DEFAULT_LATENCY_BUCKETS))
        for value in (0.002, 0.002, 0.002, 0.09):
            hist.observe(value)
        rows = reg.snapshot()["h"]["samples"][0]["buckets"]
        assert quantile_from_buckets(rows, 0.5) == \
            pytest.approx(quantile_from_buckets(hist.cumulative(), 0.5))
        assert 0.05 < quantile_from_buckets(rows, 0.99) <= 0.1

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            quantile_from_buckets([(1.0, 1)], 1.5)


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def _worker_snapshot(n: int):
    """Process-pool worker: build a private registry, return its snapshot."""
    reg = MetricsRegistry()
    reg.counter("jobs_total").inc(n)
    reg.gauge("last_n").set(n)
    hist = reg.histogram("job_seconds", buckets=(0.5, 1.0))
    for _ in range(n):
        hist.observe(0.25)
    return reg.snapshot()


class TestConcurrency:
    def test_threaded_increments_are_not_lost(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits_total")
        hist = reg.histogram("h", buckets=(1.0,))

        def work():
            for _ in range(1000):
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
        assert hist.count == 8000

    def test_process_pool_snapshots_merge(self):
        """Worker registries roll up: counters/buckets add, gauges set."""
        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snap in pool.map(_worker_snapshot, [3, 5]):
                parent.merge_snapshot(snap)
        assert parent.counter("jobs_total").value == 8
        hist = parent.histogram("job_seconds", buckets=(0.5, 1.0))
        assert hist.count == 8
        assert hist.cumulative()[0] == (0.5, 8)
        assert parent.gauge("last_n").value in (3.0, 5.0)  # last merge wins

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("h", buckets=(1.0, 4.0)).observe(0.5)
        a.merge_snapshot(a.snapshot())       # same buckets: fine
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_snapshot(b.snapshot())


# ----------------------------------------------------------------------
# collectors
# ----------------------------------------------------------------------
class TestCollectors:
    def test_collector_samples_appear_in_snapshot(self):
        reg = MetricsRegistry()
        reg.add_collector(lambda: [("ext_total", "counter", {}, 7.0)])
        snap = reg.snapshot()
        assert snap["ext_total"]["samples"] == [{"labels": {}, "value": 7.0}]

    def test_collector_sample_replaces_pushed_sample(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc(1)
        reg.add_collector(lambda: [("x_total", "counter", {}, 99.0)])
        assert reg.snapshot()["x_total"]["samples"][0]["value"] == 99.0

    def test_raising_collector_is_dropped_and_counted(self):
        reg = MetricsRegistry()

        def bad():
            raise RuntimeError("dead handle")

        reg.add_collector(bad)
        snap = reg.snapshot()
        assert snap["repro_collector_errors_total"]["samples"][0]["value"] == 1
        # dropped: the next snapshot does not re-count it
        reg.snapshot()
        assert reg.counter("repro_collector_errors_total").value == 1

    def test_remove_collector(self):
        reg = MetricsRegistry()
        collector = lambda: [("y_total", "counter", {}, 1.0)]  # noqa: E731
        reg.add_collector(collector)
        reg.remove_collector(collector)
        assert "y_total" not in reg.snapshot()


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def _golden_registry() -> MetricsRegistry:
    """A small fixed registry covering every exposition shape."""
    reg = MetricsRegistry()
    reg.counter("demo_requests_total", labels={"op": "ping"}).inc(3)
    reg.counter("demo_requests_total", labels={"op": "read"}).inc(2)
    reg.gauge("demo_cache_bytes").set(4096)
    hist = reg.histogram("demo_latency_seconds", buckets=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.004, 0.004, 0.2):
        hist.observe(value)
    reg.add_collector(
        lambda: [("demo_io_bytes_total", "counter",
                  {"source": 'a"b\\c'}, 512.0)])
    return reg


class TestExposition:
    def test_matches_golden_file(self):
        rendered = render_prometheus(_golden_registry().snapshot())
        assert rendered == GOLDEN.read_text()

    def test_renders_wire_roundtripped_snapshot(self):
        """A snapshot that crossed JSON renders identically to a local one."""
        import json

        reg = _golden_registry()
        roundtripped = json.loads(json.dumps(reg.snapshot()))
        assert render_prometheus(roundtripped) == render_prometheus(reg.snapshot())

    def test_deterministic_ordering(self):
        a = MetricsRegistry()
        a.counter("b_total").inc()
        a.counter("a_total", labels={"z": 1}).inc()
        a.counter("a_total", labels={"a": 1}).inc()
        lines = render_prometheus(a.snapshot()).splitlines()
        assert lines == ['# TYPE a_total counter', 'a_total{a="1"} 1',
                         'a_total{z="1"} 1', '# TYPE b_total counter',
                         'b_total 1']


# ----------------------------------------------------------------------
# the null registry and the process-wide default
# ----------------------------------------------------------------------
class TestRegistryPlumbing:
    def test_null_registry_records_nothing(self):
        NULL_REGISTRY.counter("x").inc(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        NULL_REGISTRY.add_collector(
            lambda: [("x", "counter", {}, 1.0)])
        assert NULL_REGISTRY.snapshot() == {}

    def test_get_registry_is_process_wide(self):
        assert get_registry() is get_registry()
