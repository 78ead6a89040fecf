# Developer entry points. `make test` is the tier-1 gate; `make lint` runs ruff
# (skipping with a notice when it is not installed); `make bench` runs the
# tracked performance suite, one BENCH_<suite>.json per entry of BENCH_SUITES
# (it degrades to a plain run — the perf tests skip themselves — if
# pytest-benchmark is absent); `make bench-check` gates the fresh medians
# against benchmarks/baselines/ (25% tolerance; `make bench-baseline` adopts
# the fresh results); `make smoke` exercises the `python -m repro` CLI end to
# end, `make smoke-series` does the same for the series subsystem,
# `make smoke-remote` drives a box read through a simulated high-latency
# RangeSource, `make smoke-stream` runs a live producer -> serve ->
# `query follow` pipeline across three real processes, `make smoke-obs`
# drives traced queries against a live server and checks the telemetry
# `query stats` reports about them, and `make smoke-http` exercises the HTTP
# gateway (auth, limits, /metrics, read parity with TCP) across real
# processes.  `make loc` prints the Python line count of src/ +
# tools/ beside the Shrink item's baseline and goal (ROADMAP.md); `make
# loc-check` fails when it exceeds LOC_BUDGET — a PR that must grow raises the
# number below in its own diff, where a reviewer sees it.

PY := PYTHONPATH=src python

# src/ + tools/ Python lines as of the last change to them (-8: measuring the
# error at the codec's door paid for its lines in the same change; ROADMAP
# item 14: this number is not raised again, and the round-2 shrink goal is
# <= 17200 from 18036)
LOC_BUDGET := 17934
LOC = $$(find src tools -name '*.py' | xargs cat | wc -l)

# suite -> pytest paths ('+'-separated). Adding a benchmark suite is one line.
BENCH_SUITES := \
	entropy:benchmarks/perf/test_perf_huffman.py+benchmarks/perf/test_perf_sz.py \
	writer:benchmarks/perf/test_perf_writer.py \
	reader:benchmarks/perf/test_perf_reader.py \
	series:benchmarks/perf/test_perf_series.py \
	service:benchmarks/perf/test_perf_service.py \
	remote:benchmarks/perf/test_perf_remote.py \
	stream:benchmarks/perf/test_perf_stream.py \
	obs:benchmarks/perf/test_perf_obs.py \
	http:benchmarks/perf/test_perf_http.py

.PHONY: test lint loc loc-check bench bench-check bench-baseline smoke smoke-series \
	smoke-remote smoke-stream smoke-obs smoke-http

test:
	$(PY) -m pytest -x -q

lint:
	@if $(PY) -c "import ruff" 2>/dev/null; then \
		$(PY) -m ruff check src tests benchmarks tools; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

loc:
	@echo "src/ + tools/ Python lines: $(LOC)" \
		"(budget $(LOC_BUDGET), baseline 18036, goal <= 17200)"

loc-check: loc
	@test $(LOC) -le $(LOC_BUDGET) || { \
		echo "src/ + tools/ grew past LOC_BUDGET ($(LOC_BUDGET)): delete" \
			"something, or raise the budget in this PR's Makefile diff"; \
		exit 1; }

bench:
	@set -e; \
	have_bm=0; $(PY) -c "import pytest_benchmark" 2>/dev/null && have_bm=1; \
	for suite in $(BENCH_SUITES); do \
		name=$${suite%%:*}; \
		paths=$$(printf '%s' "$${suite#*:}" | tr '+' ' '); \
		if [ "$$have_bm" = 1 ]; then \
			$(PY) -m pytest $$paths -q --benchmark-json=BENCH_$$name.json; \
		else \
			$(PY) -m pytest $$paths -q; \
		fi; \
	done

# BENCH_TOLERANCE overrides the default 25% (e.g. CI runners with noisier
# clocks than the machine that produced the committed baselines)
bench-check:
	$(PY) tools/bench_check.py $(if $(BENCH_TOLERANCE),--tolerance $(BENCH_TOLERANCE))

bench-baseline:
	$(PY) tools/bench_check.py --update

smoke:
	@rm -rf .smoke && mkdir -p .smoke
	$(PY) -m repro compress --preset nyx_1 .smoke/plt.h5z | tee .smoke/compress.txt
	$(PY) -m repro info .smoke/plt.h5z | tee .smoke/info.txt
	@grep -Eq "^ *dataset .* ratio " .smoke/info.txt || \
		{ echo "repro info printed no per-dataset ratio column"; exit 1; }
	@cr=$$(sed -n 's/.* CR=\([0-9.]*x\) .*/\1/p' .smoke/compress.txt); \
		grep -q "($$cr over" .smoke/info.txt || \
		{ echo "repro info's ratio is not the write report's $$cr"; exit 1; }
	$(PY) -m repro verify .smoke/plt.h5z
	$(PY) -m repro compress --method nocomp --preset nyx_1 .smoke/orig.h5z
	$(PY) -m repro verify .smoke/plt.h5z --against .smoke/orig.h5z
	$(PY) -m repro decompress .smoke/plt.h5z .smoke/raw.h5z
	$(PY) -m repro info .smoke/raw.h5z | tee .smoke/raw-info.txt
	@grep -q "(1.0x over" .smoke/raw-info.txt || \
		{ echo "repro info of the nocomp copy did not print 1.0x"; exit 1; }
	$(PY) -m repro compress --method amrex_1d --preset nyx_1 .smoke/amrex.h5z \
		| tee .smoke/amrex-compress.txt
	$(PY) -m repro info .smoke/amrex.h5z | tee .smoke/amrex-info.txt
	@cr=$$(sed -n 's/.* CR=\([0-9.]*x\) .*/\1/p' .smoke/amrex-compress.txt); \
		grep -q "($$cr over" .smoke/amrex-info.txt || \
		{ echo "repro info's amrex_1d ratio is not the write report's $$cr"; exit 1; }
	$(PY) -m repro verify .smoke/amrex.h5z
	$(PY) -m repro verify .smoke/amrex.h5z --against .smoke/orig.h5z
	$(PY) -m repro decompress .smoke/amrex.h5z .smoke/amrex-raw.h5z
	$(PY) -m repro info .smoke/amrex-raw.h5z | tee .smoke/amrex-raw-info.txt
	@grep -q "(1.0x over" .smoke/amrex-raw-info.txt || \
		{ echo "repro info of the amrex_1d nocomp copy did not print 1.0x"; exit 1; }
	@rm -rf .smoke

smoke-remote:
	@rm -rf .smoke-remote && mkdir -p .smoke-remote
	$(PY) -m repro compress --preset nyx_1 .smoke-remote/plt.h5z
	$(PY) -m repro info .smoke-remote/plt.h5z \
		--source latency:5ms,block:4k --stats
	$(PY) -c "import numpy as np; import repro; from repro.amr.box import Box; \
		h = repro.open('.smoke-remote/plt.h5z', \
		source='latency:5ms,block:4k,gap:64k'); \
		a = h.read_field('baryon_density', level=0, \
		box=Box((0, 0, 0), (15, 15, 15)), max_level=0); \
		assert np.isfinite(a).all(); \
		s = h.source_stats; \
		assert s.requests >= s.coalesced_requests >= 1; \
		print('remote box read ok:', a.shape, f'{s.coalesced_requests} reads', \
		f'{s.bytes_read} bytes'); \
		h.close()"
	@rm -rf .smoke-remote

SMOKE_SIM := NyxSimulation(coarse_shape=(24, 24, 24), nranks=2, \
		target_fine_density=0.03, max_grid_size=12, seed=7, \
		drift_rate=0.05, growth_rate=0.02, regrid_interval=4)

smoke-series:
	@rm -rf .smoke-series && mkdir -p .smoke-series
	$(PY) -c "import repro; from repro.apps.nyx import NyxSimulation; \
		repro.write_series($(SMOKE_SIM).run(5), '.smoke-series/run', \
		keyframe_interval=4, error_bound=1e-3)"
	$(PY) -m repro info .smoke-series/run --step 1
	$(PY) -m repro verify .smoke-series/run
	$(PY) -c "import numpy as np; import repro; from repro.amr.box import Box; \
		s = repro.open_series('.smoke-series/run'); \
		t, v = s.time_slice('baryon_density', box=Box((0, 0, 0), (3, 3, 3)), refill=False); \
		assert v.shape[0] == 5 and np.isfinite(v).all(); \
		print('time_slice ok:', v.shape, f'{s.stats.chunks_decoded} chunks decoded'); \
		s.close()"
	$(PY) -c "import numpy as np, repro; \
		s = repro.open_series('.smoke-series/run'); \
		assert [st.kind for st in s.steps()[:2]] == ['key', 'delta'], s.steps(); \
		fabs = lambda h: [f.data for lvl in h.levels for f in lvl.multifab.fabs]; \
		h = repro.open('.smoke-series/run/plt00000.h5z'); \
		assert all(np.array_equal(a, b) for a, b in zip(fabs(h.read()), fabs(s.read(0)))); \
		print('key step 0 reads through repro.open as through its series'); h.close(); s.close()"
	@! $(PY) -m repro verify .smoke-series/run/plt00001.h5z 2> .smoke-series/delta.err
	@grep -q "open_series" .smoke-series/delta.err && \
		echo "delta step 1 refused alone: $$(cat .smoke-series/delta.err)"
	$(PY) -c "import itertools, repro; from repro.apps.nyx import NyxSimulation; \
		repro.write_series(itertools.islice($(SMOKE_SIM).run(7), 5, None), \
		'.smoke-series/run', append=True)"
	$(PY) -m repro info .smoke-series/run --json | $(PY) -c "import json, sys; \
		n = json.load(sys.stdin)['nsteps']; assert n == 7, n; \
		print('resumed after final: nsteps', n)"
	$(PY) -m repro verify .smoke-series/run
	@rm -rf .smoke-series

smoke-stream:
	$(PY) tools/smoke_stream.py

smoke-obs:
	$(PY) tools/smoke_obs.py

smoke-http:
	$(PY) tools/smoke_http.py
