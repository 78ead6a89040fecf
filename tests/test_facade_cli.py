"""The public facade (repro.open / repro.write) and the python -m repro CLI."""

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.core import AMRICConfig
from repro.core.pipeline import WriteReport


@pytest.fixture(scope="module")
def hierarchy():
    from repro.apps import nyx_run

    return nyx_run(coarse_shape=(32, 32, 32), nranks=4, target_fine_density=0.03,
                   seed=101).hierarchy


class TestWriteFacade:
    def test_default_method_is_amric(self, hierarchy, tmp_path):
        report = repro.write(hierarchy, str(tmp_path / "a.h5z"), error_bound=1e-3)
        assert isinstance(report, WriteReport)
        assert report.method.startswith("amric")
        assert report.compression_ratio > 2

    def test_in_memory_write(self, hierarchy):
        report = repro.write(hierarchy, None, error_bound=1e-2)
        assert report.path is None

    def test_method_dispatch(self, hierarchy, tmp_path):
        amrex = repro.write(hierarchy, str(tmp_path / "x.h5z"),
                            method="amrex_1d", error_bound=1e-2)
        assert amrex.method == "amrex_1d"
        raw = repro.write(hierarchy, str(tmp_path / "r.h5z"), method="nocomp")
        assert raw.method == "nocomp"
        assert raw.compression_ratio == pytest.approx(1.0)

    def test_unknown_method_raises(self, hierarchy):
        with pytest.raises(ValueError, match="unknown write method"):
            repro.write(hierarchy, None, method="gzip")

    @pytest.mark.parametrize("method", ["amrex", "none", "raw"])
    def test_a_method_has_one_name(self, hierarchy, method):
        """The old spellings of ``amrex_1d`` / ``nocomp`` are refused like any
        other unknown name, and the refusal lists the three methods."""
        with pytest.raises(ValueError, match="unknown write method") as exc:
            repro.write(hierarchy, None, method=method)
        assert "amric, amrex_1d, nocomp" in str(exc.value)

    def test_baseline_methods_reject_amric_config(self, hierarchy):
        with pytest.raises(ValueError, match="neither an AMRIC config"):
            repro.write(hierarchy, None, method="nocomp",
                        config=AMRICConfig())

    def test_nocomp_takes_no_chunk_size(self, hierarchy, tmp_path):
        """``nocomp`` stores the AMRIC layout, one chunk per rank: its chunking
        is no option, and asking for one is refused before any file exists."""
        path = tmp_path / "r.h5z"
        with pytest.raises(TypeError):
            repro.write(hierarchy, str(path), method="nocomp", chunk_elements=100)
        assert not path.exists()

    @pytest.mark.parametrize("method", ["amric", "nocomp"])
    def test_a_writer_object_is_not_a_parameter(self, hierarchy, tmp_path, method):
        """``method=``, ``config=`` and the overrides build every writer."""
        from repro.baselines import NoCompressionWriter

        path = tmp_path / "w.h5z"
        with pytest.raises(TypeError):
            repro.write(hierarchy, str(path), method=method,
                        writer=NoCompressionWriter())
        assert not path.exists()

    def test_write_then_open_round_trip(self, hierarchy, tmp_path):
        path = str(tmp_path / "rt.h5z")
        repro.write(hierarchy, path, error_bound=1e-3)
        with repro.open(path) as handle:
            back = handle.read()
        for name in hierarchy.component_names:
            vrange = hierarchy[1].multifab.value_range(name)
            orig = hierarchy[1].multifab.to_global(name, hierarchy[1].domain)
            rec = back[1].multifab.to_global(name, back[1].domain)
            mask = hierarchy[1].boxarray.coverage_mask(hierarchy[1].domain)
            assert np.max(np.abs(orig[mask] - rec[mask])) <= \
                1e-3 * max(vrange, 1e-30) * (1 + 1e-6)

    @pytest.mark.parametrize("method", ["amric", "amrex_1d", "nocomp"])
    def test_failed_write_leaves_no_file(self, hierarchy, tmp_path, monkeypatch,
                                         method):
        from repro.h5lite.file import H5LiteFile

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(H5LiteFile, "create_dataset_from_chunks", boom)
        path = tmp_path / "torn.h5z"
        with pytest.raises(RuntimeError, match="disk on fire"):
            repro.write(hierarchy, str(path), method=method)
        assert not path.exists()


class TestOpenErrorPaths:
    def test_open_missing_file_raises_clear_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            repro.open(str(tmp_path / "nope.h5z"))

    def test_open_directory_points_at_open_series(self, tmp_path):
        with pytest.raises(ValueError, match="open_series"):
            repro.open(str(tmp_path))

    def test_open_corrupt_file_raises_clear_value_error(self, hierarchy, tmp_path):
        path = tmp_path / "c.h5z"
        repro.write(hierarchy, str(path), error_bound=1e-2)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            repro.open(str(path))

    def test_open_non_plotfile_raises_clear_value_error(self, tmp_path):
        path = tmp_path / "junk.h5z"
        path.write_bytes(b"not a container at all, but long enough to read")
        with pytest.raises(ValueError, match="not an H5Lite file"):
            repro.open(str(path))


class TestReadStatsAccounting:
    def test_lazy_reads_count_decodes_and_hits(self, hierarchy, tmp_path):
        from repro.amr.box import Box

        path = str(tmp_path / "stats.h5z")
        repro.write(hierarchy, path, error_bound=1e-2)
        with repro.open(path) as handle:
            box = Box((0, 0, 0), (7, 7, 7))
            handle.read_field("baryon_density", level=0, box=box, refill=False)
            decoded = handle.stats.chunks_decoded
            assert decoded > 0 and handle.stats.cache_hits == 0
            handle.read_field("baryon_density", level=0, box=box, refill=False)
            assert handle.stats.chunks_decoded == decoded    # second read: cache
            assert handle.stats.cache_hits > 0
            handle.stats.reset()
            assert handle.stats.chunks_decoded == 0

    def test_shared_cache_and_disabled_cache_reads_byte_identical(
            self, hierarchy, tmp_path):
        from repro.amr.box import Box

        path = str(tmp_path / "shared.h5z")
        repro.write(hierarchy, path, error_bound=1e-2)
        cache = repro.ChunkCache()
        box = Box((2, 2, 2), (13, 13, 13))
        with repro.open(path) as plain, repro.open(path, cache=cache) as shared:
            for name in plain.fields:
                a = plain.read_field(name, level=0, box=box)
                b = shared.read_field(name, level=0, box=box)
                assert a.tobytes() == b.tobytes()
        assert cache.stats.insertions > 0


class TestReportingOnFacade:
    def test_describe_and_dataset_rows(self, hierarchy, tmp_path):
        from repro.analysis.reporting import plotfile_dataset_rows

        path = str(tmp_path / "s.h5z")
        repro.write(hierarchy, path, error_bound=1e-3)
        with repro.open(path) as handle:
            summary = handle.describe()
            rows = plotfile_dataset_rows(handle)
        assert summary["self_describing"] is True
        assert summary["codec"] == "sz_lr"
        assert summary["compression_ratio"] > 1
        assert len(rows) == summary["datasets"]
        assert all(row["filter"] == "amric_3d" for row in rows)


class TestCLI:
    def _compress(self, path, extra=()):
        return cli_main(["compress", "--preset", "nyx_1", str(path), *extra])

    @pytest.fixture(scope="class")
    def plotfile(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "plt.h5z"
        assert cli_main(["compress", "--preset", "nyx_1", str(path)]) == 0
        return path

    def test_info(self, plotfile, capsys):
        assert cli_main(["info", str(plotfile)]) == 0
        out = capsys.readouterr().out
        assert "self_describing    True" in out
        assert "level_0/baryon_density" in out

    def test_info_json(self, plotfile, capsys):
        import json

        assert cli_main(["info", str(plotfile), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format_version"] == 2
        assert summary["method"] == "amric"

    def test_info_stats_prints_each_io_counter_once(self, plotfile, capsys):
        import json

        assert cli_main(["info", str(plotfile), "--stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["io_stats"]
        assert stats["source_bytes_read"] > 0
        assert stats["source_requests"] >= stats["source_coalesced_requests"] >= 1
        # one ledger: no handle-side copy of the source's counters beside them
        assert not {"bytes_read", "requests", "coalesced_requests"} & set(stats)
        assert cli_main(["info", str(plotfile), "--stats"]) == 0
        table = capsys.readouterr().out.split("byte-source I/O")[1]
        assert table.count("bytes_read") == 1 and "source_bytes_read" in table

    def test_info_refuses_a_removed_source_in_one_line(self, plotfile, capsys):
        assert cli_main(["info", str(plotfile), "--source", "mmap"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "'mmap'" in lines[0] and "latency:<value>" in lines[0]

    def test_verify_pass(self, plotfile, capsys):
        assert cli_main(["verify", str(plotfile)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_decompress_then_verify_against(self, plotfile, tmp_path, capsys):
        raw = tmp_path / "raw.h5z"
        assert cli_main(["decompress", str(plotfile), str(raw)]) == 0
        assert cli_main(["verify", str(plotfile), "--against", str(raw)]) == 0
        out = capsys.readouterr().out
        assert "error_bound=ok" in out

    def test_recompress_input(self, plotfile, tmp_path, capsys):
        out_path = tmp_path / "re.h5z"
        assert cli_main(["compress", "--input", str(plotfile), str(out_path),
                         "--codec", "sz_interp", "--error-bound", "1e-2"]) == 0
        with repro.open(str(out_path)) as handle:
            assert handle.codec == "sz_interp"
            assert handle.error_bound == pytest.approx(1e-2)

    def test_compress_forwards_error_bound_to_amrex(self, tmp_path, capsys):
        out_path = tmp_path / "ax.h5z"
        assert cli_main(["compress", "--preset", "nyx_1", str(out_path),
                         "--method", "amrex_1d", "--error-bound", "5e-2"]) == 0
        with repro.open(str(out_path)) as handle:
            assert handle.header.method == "amrex_1d"
            assert handle.error_bound == pytest.approx(5e-2)

    def test_compress_refuses_a_method_spelling(self, plotfile, tmp_path, capsys):
        out_path = tmp_path / "ax.h5z"
        assert cli_main(["compress", "--input", str(plotfile), str(out_path),
                         "--method", "amrex"]) == 1
        assert "unknown write method 'amrex'" in capsys.readouterr().err
        assert not out_path.exists()

    def test_compress_rejects_codec_for_non_amric(self, tmp_path, capsys):
        assert cli_main(["compress", "--preset", "nyx_1",
                         str(tmp_path / "x.h5z"), "--method", "nocomp",
                         "--codec", "sz_interp"]) == 1
        assert "--codec only applies" in capsys.readouterr().err

    def test_compress_rejects_inapplicable_flags(self, tmp_path, capsys):
        assert cli_main(["compress", "--preset", "nyx_1",
                         str(tmp_path / "x.h5z"), "--method", "nocomp",
                         "--error-bound", "1e-6"]) == 1
        assert "--error-bound does not apply" in capsys.readouterr().err

    def test_env_backend_is_not_a_flag_baselines_refuse(self, tmp_path,
                                                        monkeypatch, capsys):
        """A leftover REPRO_BACKEND is not read: the baseline writers run
        under it exactly as without it."""
        monkeypatch.setenv("REPRO_BACKEND", "shm")
        out_path = tmp_path / "ax.h5z"
        assert cli_main(["compress", "--preset", "nyx_1", str(out_path),
                         "--method", "amrex_1d"]) == 0
        assert "method=amrex_1d" in capsys.readouterr().out
        with repro.open(str(out_path)) as handle:
            assert handle.header.method == "amrex_1d"

    def test_info_step_is_refused_on_a_plotfile(self, plotfile, capsys):
        assert cli_main(["info", str(plotfile), "--step", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--step only applies to a series directory" in captured.err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["info", str(tmp_path / "nope.h5z")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_fails_cleanly(self, plotfile, tmp_path, capsys):
        bad = tmp_path / "bad.h5z"
        bad.write_bytes(plotfile.read_bytes()[: plotfile.stat().st_size // 2])
        assert cli_main(["verify", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_removed_backend_names_are_refused(self, plotfile, hierarchy,
                                               tmp_path, monkeypatch, capsys,
                                               name):
        """No door takes a backend name: the flag is gone, the variable is
        not read, and the API raises TypeError before writing anything."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", str(plotfile), "--backend", name])
        assert exc.value.code == 2
        capsys.readouterr()
        monkeypatch.setenv("REPRO_BACKEND", name)
        assert cli_main(["verify", str(plotfile)]) == 0
        with pytest.raises(TypeError):
            repro.open(str(plotfile), backend=name)
        out = tmp_path / "x.h5z"
        with pytest.raises(TypeError):
            repro.write(hierarchy, str(out), backend=name)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compress", "x.h5z", "--backend", "shm"],
        ["compress", "x.h5z", "--max-workers", "2"],
        ["decompress", "x.h5z", "y.h5z", "--backend", "shm"],
        ["verify", "x.h5z", "--backend", "shm"],
        ["verify", "x.h5z", "--max-workers", "2"],
        ["serve", "--backend", "shm"],
        ["query", "--follow", "series_dir"]],
        ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_no_verb_takes_a_backend(self, argv, capsys):
        """A pool is an API choice (``backend=`` instances), not a flag; and
        following a series is the ``query follow DIR`` op, not a flag."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_max_workers_only_bounds_engine_calls(self, monkeypatch):
        import repro.service as service

        seen = {}

        class RecordingServer:
            def __init__(self, **kwargs):
                seen.update(kwargs)

            def run(self, on_ready=None):
                pass

        monkeypatch.setattr(service, "ReproServer", RecordingServer)
        assert cli_main(["serve", "--port", "0", "--max-workers", "3"]) == 0
        assert seen["max_workers"] == 3
        assert cli_main(["serve", "--port", "0"]) == 0
        assert seen["max_workers"] == 8

    def test_verify_fails_on_a_header_without_its_datasets(self, plotfile,
                                                           tmp_path, capsys):
        """What an interrupted write used to leave behind passed verify."""
        import json
        import struct

        data = plotfile.read_bytes()
        (offset,) = struct.unpack_from("<Q", data, 4)
        superblock = json.loads(data[offset:])
        superblock["datasets"] = []
        hollow = tmp_path / "hollow.h5z"
        hollow.write_bytes(data[:offset] + json.dumps(superblock).encode())
        assert cli_main(["verify", str(hollow)]) == 1
        assert "stores no such dataset" in capsys.readouterr().err


class TestLazyServiceImport:
    def test_import_repro_does_not_load_the_service_stack(self):
        import os
        import subprocess
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = ("import sys, repro; "
                "loaded = [m for m in sys.modules if m.startswith('repro.service')"
                " or m == 'asyncio']; "
                "assert not loaded, loaded; "
                "repro.ChunkCache(1); "
                "assert 'repro.service.cache' in sys.modules; "
                "assert 'repro.service.server' not in sys.modules; "
                "print('lazy ok')")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(repo_root, "src")})
        assert result.returncode == 0, result.stderr
        assert "lazy ok" in result.stdout

    @pytest.mark.parametrize("module", ["repro.stream", "repro.stream.journal",
                                        "repro.series", "repro.series.index",
                                        "repro.service"])
    def test_a_package_imports_first_in_a_fresh_interpreter(self, module):
        """No import cycle that only resolves when another package came first."""
        import os
        import subprocess
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-c", f"import {module}"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(repo_root, "src")})
        assert result.returncode == 0, result.stderr

    def test_the_serving_stack_does_not_import_asyncio(self):
        """One threaded concurrency model: a ``repro serve`` process does
        not pay for an event loop it never runs."""
        import os
        import subprocess
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(repo_root, "src")
        code = ("import sys, repro.service.server, repro.service.http, "
                "repro.cli; assert 'asyncio' not in sys.modules; "
                "print('no asyncio')")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert "no asyncio" in result.stdout
        # and nothing under src/ mentions it, imports included
        for folder, _, files in os.walk(src):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name),
                              encoding="utf-8") as fh:
                        assert "asyncio" not in fh.read(), (folder, name)
