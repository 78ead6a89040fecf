"""Self-test of the end-to-end benchmark; tier-1 collects it with ``benchmarks/``.

Checks what the numbers rest on rather than the numbers: seeded inputs, the
span arithmetic, the wrapper table against the current ``src/``, the
``BENCHMARK.json`` contract, and that a run at self-test sizes prints exactly
the declared metric names with no failed operation.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import host  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _first_queries(seed: int, count: int = 40):
    h = inputs.hierarchy("nyx_1", 0, inputs.TINY)
    stream = inputs.queries(seed, h[0].domain, tuple(h.component_names), inputs.TINY)
    return [(name, box.lo, box.hi) for name, box in itertools.islice(stream, count)]


def test_query_stream_is_seeded_and_stays_in_domain():
    assert _first_queries(3) == _first_queries(3)
    assert _first_queries(3) != _first_queries(4)
    h = inputs.hierarchy("nyx_1", 0, inputs.TINY)
    domain = h[0].domain
    for _, lo, hi in _first_queries(5, 200):
        assert all(domain.lo[d] <= lo[d] <= hi[d] <= domain.hi[d] for d in range(3))


def test_query_cycle_serves_every_field_and_edge_equally():
    h = inputs.hierarchy("nyx_1", 0, inputs.TINY)
    fields = tuple(h.component_names)
    cycle = len(fields) * len(inputs.TINY.box_edges)
    pairs = [(name, hi[0] - lo[0] + 1) for name, lo, hi in _first_queries(7, 2 * cycle)]
    every = sorted((f, e) for f in fields for e in inputs.TINY.box_edges)
    assert sorted(pairs[:cycle]) == every and sorted(pairs[cycle:]) == every


def test_hierarchies_are_seeded():
    def density(seed):
        return inputs.hierarchy("nyx_1", seed, inputs.TINY)[0].multifab[0].data

    assert np.array_equal(density(1), density(1))
    assert not np.array_equal(density(1), density(2))


def test_probe_boxes_lie_inside_one_grid():
    h = inputs.hierarchy("nyx_1", 0, inputs.TINY)
    grids = list(h[0].boxarray)
    probes = {seed: inputs.probe_boxes(seed, grids, inputs.TINY) for seed in range(10)}
    assert probes[3] == inputs.probe_boxes(3, grids, inputs.TINY)
    assert len({(p.lo, p.hi) for boxes in probes.values() for p in boxes}) > 1
    for boxes in probes.values():
        assert len(boxes) == inputs.TINY.probes
        for probe in boxes:
            assert sum(grid.contains(probe) for grid in grids) == 1


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children_and_leaves():
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),       # child of root
        ("a.x", 15, 25, 1),     # grandchild: comes off a, not off root
        ("b", 50, 90, 0),
    ]
    assert spans.self_times(tree) == [30, 20, 10, 40]
    # 5 ns of leaf time while b was innermost
    assert spans.self_times(tree, {3: 5}) == [30, 20, 10, 35]


def test_recorder_nests_spans_and_counts_leaves_once():
    rec = spans.Recorder()
    inner = rec.wrap_leaf("leaf", lambda n: n, weight=lambda n: n)
    outer = rec.wrap_leaf("leaf", lambda n: inner(n) + 1, weight=lambda n: n)
    work = rec.wrap_span("work", lambda: outer(7))
    with rec.span("top"):
        assert work() == 8
    assert [(s[0], s[3]) for s in rec.spans] == [("top", -1), ("work", 0)]
    assert rec.count("leaf") == 1 and rec.weight("leaf") == 7     # not the nested call
    assert rec.count("work") == 1
    assert rec.self_s("work") <= rec.total_s("work") - rec.total_s("leaf") + 1e-12
    assert rec.covered_s() == pytest.approx(rec.total_s("top"))


def test_wrapper_table_resolves_and_is_removed_again():
    import repro.core.pipeline as pipeline
    import repro.core.stages as stages
    from repro.amr.box import Box

    resolved = spans.resolve_targets()
    assert len(resolved) == len(spans.TARGETS)
    before = (stages.encode_job, pipeline.encode_job, Box.intersects)
    assert before[0] is before[1]
    with spans.installed(spans.Recorder()):
        # patched where it is defined and where it was imported by name
        assert stages.encode_job is not before[0]
        assert pipeline.encode_job is stages.encode_job
        assert Box.intersects is not before[2]
    assert (stages.encode_job, pipeline.encode_job, Box.intersects) == before
    leftovers = [(modname, key) for modname, module in list(sys.modules.items())
                 if module is not None and modname.startswith("repro")
                 for key, value in list(vars(module).items())
                 if hasattr(value, "__wrapped__") and getattr(value, "__name__", "") == "wrapper"]
    assert leftovers == []


def test_missing_target_fails_loudly():
    ghost = spans.Target("compress.regression.fit", "repro.compress.regression", "no_such_fn")
    with pytest.raises(LookupError, match="no_such_fn"):
        spans.resolve_targets((ghost,))


def test_host_speed_restates_wall_clock_at_the_reference():
    speed = host.HostSpeed()
    taken = len(speed.samples_ms)
    assert taken >= 1 and all(ms > 0 for ms in speed.samples_ms)
    speed._mark = time.perf_counter()
    speed.probe()                       # nothing owed yet: 5% of no time at all
    assert len(speed.samples_ms) == taken
    speed.samples_ms[:] = [2 * host.REFERENCE_MS]       # a host half as fast
    assert speed.calib_ms == 2 * host.REFERENCE_MS
    assert speed.at_reference(3.0) == pytest.approx(1.5)
    speed._mark -= 1.0                  # a second of operations went by
    speed.probe()
    assert 1 < len(speed.samples_ms) <= 1 + host.MAX_KERNELS


# ----------------------------------------------------------------------
# BENCHMARK.json and the runner
# ----------------------------------------------------------------------
def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        SPEC["end_to_end"][0].items()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "rb") as fh:
        assert len(fh.read()) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_the_declared_metrics(workload, trace, capsys):
    affinity = os.sched_getaffinity(0)
    result = run.run_workload(workload, seed=1, seconds=0.2, trace=bool(trace),
                              sizes=inputs.TINY, setups=1)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)      # the last stdout line of the command is this object
    assert f"# {workload}:" in capsys.readouterr().out
    assert not os.path.exists(run.WORK_ROOT)
    assert os.sched_getaffinity(0) == affinity      # serve_* pin the client while they run
    # the shared-memory round's resource tracker is ended and reaped, not left to outlive us
    assert resource_tracker._resource_tracker._pid is None
