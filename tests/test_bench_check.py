"""The benchmark-regression comparator behind ``make bench-check``."""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_check",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "tools", "bench_check.py"))
bench_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_check)


def _bench_json(medians):
    return {"benchmarks": [{"name": name, "stats": {"median": median}}
                           for name, median in medians.items()]}


def _write(path, medians):
    path.write_text(json.dumps(_bench_json(medians)))


def _write_suite(path, entries):
    """Write a pytest-benchmark JSON whose entries may carry extra_info:
    ``entries`` maps name -> (median, extra_info dict)."""
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"median": median}, "extra_info": extra}
        for name, (median, extra) in entries.items()]}))


class TestComparator:
    def test_within_tolerance_is_ok(self):
        rows = bench_check.compare_medians({"t": 1.0}, {"t": 1.2}, 0.25)
        assert rows[0]["status"] == bench_check.OK
        assert rows[0]["delta"] == pytest.approx(0.2)

    def test_regression_beyond_tolerance_fails(self):
        rows = bench_check.compare_medians({"t": 1.0}, {"t": 1.3}, 0.25)
        assert rows[0]["status"] == bench_check.REGRESSED
        assert bench_check.has_regression(rows)

    def test_improvement_beyond_tolerance_is_not_a_failure(self):
        rows = bench_check.compare_medians({"t": 1.0}, {"t": 0.5}, 0.25)
        assert rows[0]["status"] == bench_check.IMPROVED
        assert not bench_check.has_regression(rows)

    def test_identical_medians_pass(self):
        rows = bench_check.compare_medians({"t": 1.0}, {"t": 1.0}, 0.0)
        assert rows[0]["status"] == bench_check.OK

    def test_new_benchmark_is_tolerated(self):
        rows = bench_check.compare_medians({}, {"t": 1.0}, 0.25)
        assert rows[0]["status"] == bench_check.NEW
        assert not bench_check.has_regression(rows)

    def test_dropped_benchmark_fails(self):
        # silently deleting a benchmark must not disable its own gate
        rows = bench_check.compare_medians({"t": 1.0}, {}, 0.25)
        assert rows[0]["status"] == bench_check.MISSING
        assert bench_check.has_regression(rows)

    def test_delta_table_mentions_every_benchmark(self):
        rows = bench_check.compare_medians(
            {"fast": 0.001, "slow": 2.0}, {"fast": 0.0011, "slow": 3.0}, 0.25)
        table = bench_check.format_rows(rows)
        assert "fast" in table and "slow" in table
        assert "REGRESSED" in table and "+50.0%" in table


#: the reader speedup gate pair, used as the exemplar in the tests below
_READER_PAIR = next(t for t in bench_check.SPEEDUP_TARGETS if t[0] == "reader")


class TestSpeedupGate:
    def _reader_suite(self, tmp_path, serial_median, shm_median,
                      fresh_cores, baseline_cores=None):
        """Baseline+fresh dirs holding only the reader speedup pair."""
        _, shm_name, serial_name, _ = _READER_PAIR
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        if baseline_cores is not None:
            _write_suite(baseline / "BENCH_reader.json", {
                serial_name: (serial_median, {"cpu_count": baseline_cores}),
                shm_name: (shm_median, {"cpu_count": baseline_cores}),
            })
        _write_suite(tmp_path / "BENCH_reader.json", {
            serial_name: (serial_median, {"cpu_count": fresh_cores}),
            shm_name: (shm_median, {"cpu_count": fresh_cores}),
        })
        return str(baseline), str(tmp_path)

    def test_target_relaxes_to_parity_below_two_cores(self):
        assert bench_check.effective_speedup_target(3.0, 1) == 1.0
        assert bench_check.effective_speedup_target(3.0, None) == 1.0

    def test_target_full_at_reference_cores_and_above(self):
        assert bench_check.effective_speedup_target(3.0, 4) == 3.0
        assert bench_check.effective_speedup_target(3.0, 16) == 3.0

    def test_target_scales_linearly_in_between(self):
        # 2 of 4 cores -> one third of the way from 1.0 to 3.0
        assert bench_check.effective_speedup_target(3.0, 2) == \
            pytest.approx(1.0 + 2.0 / 3.0)
        assert bench_check.effective_speedup_target(3.0, 3) == \
            pytest.approx(1.0 + 4.0 / 3.0)

    def test_meets_target_on_reference_machine(self, tmp_path):
        base, fresh = self._reader_suite(tmp_path, serial_median=3.0,
                                         shm_median=0.9, fresh_cores=4)
        lines, notices, failures = bench_check.check_speedups(base, fresh, 0.25)
        assert failures == 0
        assert any("3.33x" in line and "ok" in line for line in lines)

    def test_misses_target_on_reference_machine(self, tmp_path):
        base, fresh = self._reader_suite(tmp_path, serial_median=3.0,
                                         shm_median=2.0, fresh_cores=4)
        lines, notices, failures = bench_check.check_speedups(base, fresh, 0.25)
        assert failures == 1
        assert any("FAIL" in line for line in lines)

    def test_single_core_machine_only_needs_parity(self, tmp_path):
        # 0.9x of serial on one core passes with the 25% tolerance pad
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=1.1, fresh_cores=1)
        _, _, failures = bench_check.check_speedups(base, fresh, 0.25)
        assert failures == 0

    def test_single_core_machine_still_fails_when_far_slower(self, tmp_path):
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=2.0, fresh_cores=1)
        _, _, failures = bench_check.check_speedups(base, fresh, 0.25)
        assert failures == 1

    def test_fewer_cores_than_baseline_skips_with_notice(self, tmp_path):
        # slow enough to fail the 4-core gate — but the baseline was recorded
        # on 4 cores and this machine has 1, so the assertion is skipped
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=5.0, fresh_cores=1,
                                         baseline_cores=4)
        lines, notices, failures = bench_check.check_speedups(base, fresh, 0.25)
        assert failures == 0
        assert not lines
        assert any("skipping" in n and "core" in n for n in notices)

    def test_missing_fresh_suite_is_a_notice(self, tmp_path):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        lines, notices, failures = bench_check.check_speedups(
            str(baseline), str(tmp_path), 0.25)
        assert failures == 0 and not lines
        assert any("no fresh" in n for n in notices)

    def test_speedup_failure_fails_main(self, tmp_path, capsys):
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=2.0, fresh_cores=4,
                                         baseline_cores=4)
        rc = bench_check.main(["--baseline-dir", base, "--fresh-dir", fresh])
        out = capsys.readouterr().out
        assert rc == 1
        assert "speedup assertion(s) failed" in out


class TestEndToEnd:
    def test_fresh_baselines_pass(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        medians = {"test_a": 0.01, "test_b": 2.5}
        _write(baseline / "BENCH_x.json", medians)
        _write(tmp_path / "BENCH_x.json", medians)   # fresh == baseline
        rc = bench_check.main(["--baseline-dir", str(baseline),
                               "--fresh-dir", str(tmp_path)])
        assert rc == 0
        assert "2 benchmark(s) within" in capsys.readouterr().out

    def test_degraded_median_fails_with_table(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        _write(baseline / "BENCH_x.json", {"test_a": 0.01, "test_b": 1.0})
        _write(tmp_path / "BENCH_x.json", {"test_a": 0.01, "test_b": 1.5})
        rc = bench_check.main(["--baseline-dir", str(baseline),
                               "--fresh-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "REGRESSED" in out and "test_b" in out

    def test_tolerance_is_configurable(self, tmp_path):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        _write(baseline / "BENCH_x.json", {"t": 1.0})
        _write(tmp_path / "BENCH_x.json", {"t": 1.4})
        args = ["--baseline-dir", str(baseline), "--fresh-dir", str(tmp_path)]
        assert bench_check.main(args) == 1                       # 25% default
        assert bench_check.main([*args, "--tolerance", "0.5"]) == 0

    def test_missing_fresh_file_is_a_notice_not_a_failure(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        _write(baseline / "BENCH_x.json", {"t": 1.0})
        rc = bench_check.main(["--baseline-dir", str(baseline),
                               "--fresh-dir", str(tmp_path)])
        assert rc == 0
        assert "no fresh results" in capsys.readouterr().out

    def test_update_adopts_fresh_results(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        _write(tmp_path / "BENCH_x.json", {"t": 1.0})
        rc = bench_check.main(["--baseline-dir", str(baseline),
                               "--fresh-dir", str(tmp_path), "--update"])
        assert rc == 0
        adopted = json.loads((baseline / "BENCH_x.json").read_text())
        assert adopted["benchmarks"][0]["stats"]["median"] == 1.0

    def test_not_a_benchmark_file_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a pytest-benchmark"):
            bench_check.load_medians(str(path))


class TestRemoteGate:
    def _remote_suite(self, tmp_path, *, full_median=2.0, probe_median=0.2,
                      full_io=(170, 14, 1_000_000), probe_io=(6, 3, 60_000)):
        """A fresh BENCH_remote.json with the full read and the coarse probe."""
        def extra(io):
            requests, coalesced, nbytes = io
            return {"io_requests": requests,
                    "io_coalesced_requests": coalesced,
                    "io_bytes_read": nbytes}

        _write_suite(tmp_path / "BENCH_remote.json", {
            bench_check.REMOTE_FULL_BENCH: (full_median, extra(full_io)),
            bench_check.REMOTE_PROBE_BENCH: (probe_median, extra(probe_io)),
        })
        return str(tmp_path)

    def test_all_targets_hold(self, tmp_path):
        fresh = self._remote_suite(tmp_path)
        lines, notices, failures = bench_check.check_remote(fresh)
        assert failures == 0
        assert len(lines) == 3
        assert all("ok" in line for line in lines)

    def test_weak_coalescing_fails(self, tmp_path):
        fresh = self._remote_suite(tmp_path, full_io=(28, 14, 1_000_000))
        lines, _, failures = bench_check.check_remote(fresh)
        assert failures == 1
        assert any("coalescing" in line and "FAIL" in line for line in lines)

    def test_heavy_probe_bytes_fail(self, tmp_path):
        fresh = self._remote_suite(tmp_path, probe_io=(6, 3, 400_000))
        lines, _, failures = bench_check.check_remote(fresh)
        assert failures == 1
        assert any("bytes" in line and "FAIL" in line for line in lines)

    def test_slow_probe_fails(self, tmp_path):
        fresh = self._remote_suite(tmp_path, probe_median=1.5)
        lines, _, failures = bench_check.check_remote(fresh)
        assert failures == 1
        assert any("time-to-first-array" in line and "FAIL" in line
                   for line in lines)

    def test_missing_suite_is_a_notice(self, tmp_path):
        lines, notices, failures = bench_check.check_remote(str(tmp_path))
        assert failures == 0 and not lines
        assert any("no fresh" in n for n in notices)

    def test_missing_extra_info_is_a_notice(self, tmp_path):
        _write(tmp_path / "BENCH_remote.json", {
            bench_check.REMOTE_FULL_BENCH: 2.0,
            bench_check.REMOTE_PROBE_BENCH: 0.2,
        })
        lines, notices, failures = bench_check.check_remote(str(tmp_path))
        assert failures == 0
        # byte + coalescing assertions skip; the timing one still runs
        assert any("skipped" in n for n in notices)
        assert any("time-to-first-array" in line for line in lines)

    def test_remote_failure_fails_main(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        self._remote_suite(tmp_path, probe_median=1.9)
        rc = bench_check.main(["--baseline-dir", str(baseline),
                               "--fresh-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "remote-read assertion(s) failed" in out


class TestEntropyGate:
    def _entropy_suite(self, tmp_path, *, long_median=0.030, small_median=0.040,
                       encode_median=0.025, stamp=True):
        """A fresh BENCH_entropy.json: one 1M-symbol stream vs 390 small ones."""
        _write_suite(tmp_path / "BENCH_entropy.json", {
            bench_check.ENTROPY_LONG_BENCH:
                (long_median, {"symbols": 1_000_000} if stamp else {}),
            bench_check.ENTROPY_SMALL_BENCH:
                (small_median, {"symbols": 1_050_000} if stamp else {}),
            bench_check.ENTROPY_ENCODE_BENCH:
                (encode_median, {"symbols": 1_050_000} if stamp else {}),
        })
        return str(tmp_path)

    def test_one_lane_pass_per_container_holds(self, tmp_path):
        lines, notices, failures = bench_check.check_entropy(self._entropy_suite(tmp_path))
        assert failures == 0 and not notices
        assert len(lines) == 2 and all("ok" in line for line in lines)

    def test_encode_per_symbol_ceiling(self, tmp_path):
        # the searchsorted + float64-bincount kernel: ~90 ns/symbol against a
        # 30 ns/symbol decode
        fresh = self._entropy_suite(tmp_path, encode_median=0.095)
        lines, _, failures = bench_check.check_entropy(fresh)
        assert failures == 1
        assert "ok" in lines[0] and "decode at" in lines[0]
        assert "FAIL" in lines[1] and "encode at 3.02x" in lines[1]
        assert bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                                 "--fresh-dir", fresh]) == 1
        # a recording made before the encode benchmark existed is not a failure
        _write_suite(tmp_path / "BENCH_entropy.json", {
            bench_check.ENTROPY_LONG_BENCH: (0.030, {"symbols": 1_000_000}),
            bench_check.ENTROPY_SMALL_BENCH: (0.040, {"symbols": 1_050_000})})
        lines, notices, failures = bench_check.check_entropy(str(tmp_path))
        assert failures == 0 and len(lines) == 1
        assert bench_check.ENTROPY_ENCODE_BENCH in notices[0]

    def test_per_stream_loop_cost_fails(self, tmp_path):
        # what one lane loop per stream measured: ~30x the per-symbol cost
        fresh = self._entropy_suite(tmp_path, small_median=0.9)
        lines, _, failures = bench_check.check_entropy(fresh)
        assert failures == 1 and "FAIL" in lines[0]
        rc = bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                               "--fresh-dir", fresh])
        assert rc == 1

    def test_missing_suite_or_stamp_is_a_notice(self, tmp_path):
        lines, notices, failures = bench_check.check_entropy(str(tmp_path))
        assert failures == 0 and not lines and "no fresh" in notices[0]
        fresh = self._entropy_suite(tmp_path, stamp=False)
        lines, notices, failures = bench_check.check_entropy(fresh)
        assert failures == 0 and not lines and "skipped" in notices[0]
