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


def _gates(kind, baseline_dir, fresh_dir, tolerance=0.25):
    """``(result lines, notices, failures)`` of one kind's rows of the table."""
    results, notices = bench_check.evaluate_gates(str(baseline_dir),
                                                  str(fresh_dir), tolerance)
    mine = [(line, held) for gate, line, held in results if gate.kind == kind]
    return ([line for line, _ in mine], [n for n in notices if kind in n],
            sum(1 for _, held in mine if not held))


def _row(label_part):
    """The one table row whose label mentions ``label_part``."""
    (gate,) = [g for g in bench_check.GATES if label_part in g.label]
    return gate


#: the reader speedup row, used as the exemplar in the tests below
_READER = _row("test_reader_full_shm_backend")


class TestSpeedupGate:
    def _reader_suite(self, tmp_path, serial_median, shm_median,
                      fresh_cores, baseline_cores=None):
        """Baseline+fresh dirs holding only the reader speedup pair."""
        serial_name, shm_name = _READER.num[0], _READER.den[0]
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

    def test_table_names_every_gate_once(self):
        kinds = [gate.kind for gate in bench_check.GATES]
        assert {k: kinds.count(k) for k in kinds} == {
            "speedup": 3, "remote-read": 3, "streaming": 2,
            "observability": 1, "http-gateway": 1, "entropy": 3, "series": 1,
            "service": 1}
        assert all(g.scale_by_cores == (g.kind == "speedup")
                   for g in bench_check.GATES)

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
        lines, notices, failures = _gates("speedup", base, fresh)
        assert failures == 0
        assert any("3.333x" in line and "ok" in line
                   and "required >= 2.25x" in line for line in lines)

    def test_misses_target_on_reference_machine(self, tmp_path):
        base, fresh = self._reader_suite(tmp_path, serial_median=3.0,
                                         shm_median=2.0, fresh_cores=4)
        lines, notices, failures = _gates("speedup", base, fresh)
        assert failures == 1
        assert any("FAIL" in line for line in lines)

    def test_single_core_machine_only_needs_parity(self, tmp_path):
        # 0.9x of serial on one core passes with the 25% tolerance pad
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=1.1, fresh_cores=1)
        _, _, failures = _gates("speedup", base, fresh)
        assert failures == 0

    def test_single_core_machine_still_fails_when_far_slower(self, tmp_path):
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=2.0, fresh_cores=1)
        _, _, failures = _gates("speedup", base, fresh)
        assert failures == 1

    def test_fewer_cores_than_baseline_skips_with_notice(self, tmp_path):
        # slow enough to fail the 4-core gate — but the baseline was recorded
        # on 4 cores and this machine has 1, so the assertion is skipped
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=5.0, fresh_cores=1,
                                         baseline_cores=4)
        lines, notices, failures = _gates("speedup", base, fresh)
        assert failures == 0
        assert not lines
        assert any("skipped" in n and "core" in n for n in notices)

    def test_missing_fresh_suite_is_a_notice(self, tmp_path):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        lines, notices, failures = _gates("speedup", baseline, tmp_path)
        assert failures == 0 and not lines
        # one notice per missing file, not one per row
        assert sorted(notices) == [
            "reader speedup: no fresh BENCH_reader.json; skipped",
            "writer speedup: no fresh BENCH_writer.json; skipped"]

    def test_speedup_failure_fails_main(self, tmp_path, capsys):
        base, fresh = self._reader_suite(tmp_path, serial_median=1.0,
                                         shm_median=2.0, fresh_cores=4,
                                         baseline_cores=4)
        rc = bench_check.main(["--baseline-dir", base, "--fresh-dir", fresh])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 speedup assertion(s) failed" in out


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
    FULL, PROBE = _row("time-to-first-array").den[0], \
        _row("time-to-first-array").num[0]

    def _remote_suite(self, tmp_path, *, full_median=2.0, probe_median=0.2,
                      full_io=(170, 14, 1_000_000), probe_io=(6, 3, 60_000)):
        """A fresh BENCH_remote.json with the full read and the coarse probe."""
        def extra(io):
            requests, coalesced, nbytes = io
            return {"io_requests": requests,
                    "io_coalesced_requests": coalesced,
                    "io_bytes_read": nbytes}

        _write_suite(tmp_path / "BENCH_remote.json", {
            self.FULL: (full_median, extra(full_io)),
            self.PROBE: (probe_median, extra(probe_io)),
        })
        return str(tmp_path)

    def test_all_targets_hold(self, tmp_path):
        fresh = self._remote_suite(tmp_path)
        lines, notices, failures = _gates("remote-read", tmp_path / "none", fresh)
        assert failures == 0
        assert len(lines) == 3
        assert all("ok" in line for line in lines)

    def test_weak_coalescing_fails(self, tmp_path):
        fresh = self._remote_suite(tmp_path, full_io=(28, 14, 1_000_000))
        lines, _, failures = _gates("remote-read", tmp_path / "none", fresh)
        assert failures == 1
        assert any("coalescing" in line and "FAIL" in line
                   and "required >= 3x" in line for line in lines)

    def test_heavy_probe_bytes_fail(self, tmp_path):
        fresh = self._remote_suite(tmp_path, probe_io=(6, 3, 400_000))
        lines, _, failures = _gates("remote-read", tmp_path / "none", fresh)
        assert failures == 1
        assert any("bytes" in line and "FAIL" in line
                   and "required <= 0.25x" in line for line in lines)

    def test_slow_probe_fails(self, tmp_path):
        fresh = self._remote_suite(tmp_path, probe_median=1.5)
        lines, _, failures = _gates("remote-read", tmp_path / "none", fresh)
        assert failures == 1
        assert any("time-to-first-array" in line and "FAIL" in line
                   and "required <= 0.5x" in line for line in lines)

    def test_missing_suite_is_a_notice(self, tmp_path):
        lines, notices, failures = _gates("remote-read", tmp_path, tmp_path)
        assert failures == 0 and not lines
        assert notices == ["remote remote-read: no fresh BENCH_remote.json; "
                           "skipped"]

    def test_missing_extra_info_is_a_notice(self, tmp_path):
        _write(tmp_path / "BENCH_remote.json", {self.FULL: 2.0, self.PROBE: 0.2})
        lines, notices, failures = _gates("remote-read", tmp_path, tmp_path)
        assert failures == 0
        # byte + coalescing assertions skip; the timing one still runs
        assert len(notices) == 2 and all("skipped" in n for n in notices)
        assert len(lines) == 1 and "time-to-first-array" in lines[0]

    def test_remote_failure_fails_main(self, tmp_path, capsys):
        baseline = tmp_path / "baselines"
        baseline.mkdir()
        self._remote_suite(tmp_path, probe_median=1.9)
        rc = bench_check.main(["--baseline-dir", str(baseline),
                               "--fresh-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "remote-read assertion(s) failed" in out


class TestStreamGate:
    REOPEN, REFRESH = _row("live refresh").num[0], _row("live refresh").den[0]
    LAG = _row("commit-to-event lag").num[0]

    def _stream_suite(self, tmp_path, *, reopen=0.64e-3, refresh=8e-6, lag=0.024):
        _write_suite(tmp_path / "BENCH_stream.json", {
            self.REOPEN: (reopen, {}), self.REFRESH: (refresh, {}),
            self.LAG: (0.5, {} if lag is None
                       else {"mean_event_lag_seconds": lag})})
        return tmp_path

    def test_both_targets_hold(self, tmp_path):
        lines, notices, failures = _gates(
            "streaming", tmp_path / "none", self._stream_suite(tmp_path))
        assert failures == 0 and not notices
        assert len(lines) == 2 and all("ok" in line for line in lines)
        assert "80x" in lines[0] and "required >= 5x" in lines[0]
        assert "0.024s" in lines[1] and "required <= 2s" in lines[1]

    def test_refresh_as_dear_as_a_reopen_fails(self, tmp_path):
        fresh = self._stream_suite(tmp_path, refresh=0.3e-3)
        lines, _, failures = _gates("streaming", tmp_path / "none", fresh)
        assert failures == 1 and "FAIL" in lines[0] and "ok" in lines[1]

    def test_slow_event_delivery_fails_main(self, tmp_path, capsys):
        fresh = self._stream_suite(tmp_path, lag=3.5)
        lines, _, failures = _gates("streaming", tmp_path / "none", fresh)
        assert failures == 1 and "ok" in lines[0] and "FAIL" in lines[1]
        assert bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                                 "--fresh-dir", str(fresh)]) == 1
        assert "1 streaming assertion(s) failed" in capsys.readouterr().out

    def test_missing_lag_stamp_or_zero_median_is_a_notice(self, tmp_path):
        fresh = self._stream_suite(tmp_path, refresh=0.0, lag=None)
        lines, notices, failures = _gates("streaming", tmp_path / "none", fresh)
        assert failures == 0 and not lines
        assert "zero median" in notices[0]
        assert "no mean_event_lag_seconds extra_info" in notices[1]


class TestOverheadGates:
    """The obs and http rows: one stamped ratio each against a ceiling."""

    CASES = {"observability": ("obs", _row("metrics overhead"), "<= 1.05x"),
             "http-gateway": ("http", _row("gateway over TCP"), "<= 2x")}

    def _suite(self, tmp_path, kind, ratio):
        suite, gate, _ = self.CASES[kind]
        bench, stamp = gate.num
        _write_suite(tmp_path / f"BENCH_{suite}.json", {
            bench: (0.02, {} if ratio is None else {stamp: ratio})})
        return tmp_path

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_ratio_under_the_ceiling_holds(self, tmp_path, kind):
        lines, notices, failures = _gates(
            kind, tmp_path / "none", self._suite(tmp_path, kind, 1.02))
        assert failures == 0 and not notices and len(lines) == 1
        assert "1.02x" in lines[0] and "ok" in lines[0]
        assert f"required {self.CASES[kind][2]}" in lines[0]

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_ratio_over_the_ceiling_fails_main(self, tmp_path, capsys, kind):
        fresh = self._suite(tmp_path, kind, 2.4)
        lines, _, failures = _gates(kind, tmp_path / "none", fresh)
        assert failures == 1 and "FAIL" in lines[0]
        assert bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                                 "--fresh-dir", str(fresh)]) == 1
        assert f"1 {kind} assertion(s) failed" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_missing_suite_benchmark_or_stamp_is_a_notice(self, tmp_path, kind):
        suite, gate, _ = self.CASES[kind]
        lines, notices, failures = _gates(kind, tmp_path, tmp_path)
        assert failures == 0 and not lines and "no fresh" in notices[0]
        _write(tmp_path / f"BENCH_{suite}.json", {"test_other": 1.0})
        lines, notices, failures = _gates(kind, tmp_path, tmp_path)
        assert failures == 0 and not lines
        assert "not in fresh results" in notices[0]
        fresh = self._suite(tmp_path, kind, None)
        lines, notices, failures = _gates(kind, tmp_path / "none", fresh)
        assert failures == 0 and not lines
        assert f"no {gate.num[1]} extra_info" in notices[0]


class TestEntropyGate:
    LONG = _row(", decode, over").den[0]
    SMALL = _row(", decode, over").num[0]
    ENCODE = _row(", encode, over").num[0]
    ONE_PASS = _row("4-table lane pass").num[0]
    FOUR_PASSES = _row("4-table lane pass").den[0]

    def _entropy_suite(self, tmp_path, *, long_median=0.030, small_median=0.040,
                       encode_median=0.025, one_pass_median=0.0035, stamp=True):
        """A fresh BENCH_entropy.json: one 1M-symbol stream vs 390 small ones,
        and a 4-container decode job in one lane pass vs four."""
        _write_suite(tmp_path / "BENCH_entropy.json", {
            self.LONG: (long_median, {"symbols": 1_000_000} if stamp else {}),
            self.SMALL: (small_median, {"symbols": 1_050_000} if stamp else {}),
            self.ENCODE: (encode_median, {"symbols": 1_050_000} if stamp else {}),
            self.ONE_PASS: (one_pass_median, {"passes": 1, "symbols": 110_000}),
            self.FOUR_PASSES: (0.0072, {"passes": 4, "symbols": 110_000}),
        })
        return str(tmp_path)

    def test_one_lane_pass_per_container_holds(self, tmp_path):
        lines, notices, failures = _gates(
            "entropy", tmp_path / "none", self._entropy_suite(tmp_path))
        assert failures == 0 and not notices
        assert len(lines) == 3 and all("ok" in line for line in lines)

    def test_a_pass_per_container_of_a_job_fails(self, tmp_path):
        # what four passes cost when nothing is shared: the same as four passes
        fresh = self._entropy_suite(tmp_path, one_pass_median=0.0070)
        lines, _, failures = _gates("entropy", tmp_path / "none", fresh)
        assert failures == 1 and "FAIL" in lines[2] and "4-table lane pass" in lines[2]
        assert "0.9722x" in lines[2] and "required <= 0.7x" in lines[2]
        assert bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                                 "--fresh-dir", fresh]) == 1

    def test_encode_per_symbol_ceiling(self, tmp_path):
        # the searchsorted + float64-bincount kernel: ~90 ns/symbol against a
        # 30 ns/symbol decode
        fresh = self._entropy_suite(tmp_path, encode_median=0.095)
        lines, _, failures = _gates("entropy", tmp_path / "none", fresh)
        assert failures == 1
        assert "ok" in lines[0] and ", decode, over" in lines[0]
        assert "FAIL" in lines[1] and ", encode, over" in lines[1]
        assert "3.016x" in lines[1] and "required <= 2.5x" in lines[1]
        assert bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                                 "--fresh-dir", fresh]) == 1
        # a recording made before the encode benchmark existed is not a failure
        _write_suite(tmp_path / "BENCH_entropy.json", {
            self.LONG: (0.030, {"symbols": 1_000_000}),
            self.SMALL: (0.040, {"symbols": 1_050_000})})
        lines, notices, failures = _gates("entropy", tmp_path / "none", tmp_path)
        assert failures == 0 and len(lines) == 1
        assert self.ENCODE in notices[0]

    def test_per_stream_loop_cost_fails(self, tmp_path):
        # what one lane loop per stream measured: ~30x the per-symbol cost
        fresh = self._entropy_suite(tmp_path, small_median=0.9)
        lines, _, failures = _gates("entropy", tmp_path / "none", fresh)
        assert failures == 1 and "FAIL" in lines[0]
        assert "required <= 2x" in lines[0]
        rc = bench_check.main(["--baseline-dir", str(tmp_path / "none"),
                               "--fresh-dir", fresh])
        assert rc == 1

    def test_missing_suite_or_stamp_is_a_notice(self, tmp_path):
        lines, notices, failures = _gates("entropy", tmp_path, tmp_path)
        assert failures == 0 and not lines and "no fresh" in notices[0]
        fresh = self._entropy_suite(tmp_path, stamp=False)
        lines, notices, failures = _gates("entropy", tmp_path / "none", fresh)
        # the per-symbol rows need the stamp; the shared-pass row is two medians
        assert failures == 0 and "skipped" in notices[0]
        assert len(lines) == 1 and "4-table lane pass" in lines[0]
