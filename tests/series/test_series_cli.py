"""Series wiring: CLI info/verify on a series, facade verbs, analysis."""

import json
import os

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.apps.nyx import NyxSimulation
from repro.cli import main as cli_main
from repro.series import SeriesIndex
from repro.stream.journal import JOURNAL_FILENAME, SeriesJournal


def make_sim(seed=17):
    return NyxSimulation(coarse_shape=(24, 24, 24), nranks=2,
                         target_fine_density=0.03, max_grid_size=12, seed=seed,
                         drift_rate=0.05, growth_rate=0.02, regrid_interval=4)


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "run")
    repro.write_series(make_sim().run(4), path, keyframe_interval=4,
                       error_bound=1e-3)
    return path


class TestFacade:
    def test_write_series_accepts_generators(self, series_dir):
        # the module fixture already streamed a generator through write_series
        assert SeriesIndex.load(series_dir).nsteps == 4

    def test_open_series_round_trip(self, series_dir):
        with repro.open_series(series_dir) as series:
            assert series.nsteps == 4
            assert "baryon_density" in series.fields
            times, values = series.time_slice(
                "baryon_density", box=Box((0, 0, 0), (2, 2, 2)), refill=False)
            assert values.shape == (4, 3, 3, 3)
            assert np.all(np.isfinite(values))

    def test_exported_verbs(self):
        assert repro.open_series is not None
        assert repro.write_series is not None
        assert "open_series" in repro.__all__ and "write_series" in repro.__all__


class TestSimulationLoop:
    def test_a_run_streams_into_a_series(self, tmp_path):
        """A simulation's dump loop is one ``write_series`` over its run."""
        out = str(tmp_path / "loop")
        reports = repro.write_series(make_sim(seed=23).run(3), out,
                                     keyframe_interval=3, error_bound=1e-3)
        assert len(reports) == 3
        index = SeriesIndex.load(out)
        assert index.nsteps == 3
        assert index.steps[0].kind == "key"


class TestAnalysisRows:
    def test_step_rows_and_describe(self, series_dir):
        from repro.analysis import series_step_rows

        with repro.open_series(series_dir) as series:
            rows = series_step_rows(series)
            summary = series.describe()
        assert len(rows) == 4
        assert rows[0]["kind"] == "key"
        assert all(row["CR"] > 1 for row in rows)
        assert summary["nsteps"] == 4
        assert summary["keyframes"] + summary["delta_steps"] == 4
        assert summary["keyframe_only_bytes"] >= summary["stored_bytes"]
        assert summary["delta_savings_factor"] >= 1.0
        assert np.isfinite(summary["mean_psnr_db"])
        assert summary["worst_psnr_db"] <= summary["mean_psnr_db"]

    def test_dataset_rows(self, series_dir):
        from repro.analysis import series_dataset_rows

        with repro.open_series(series_dir) as series:
            rows = series_dataset_rows(series, step=1)
        assert {row["mode"] for row in rows} <= {"key", "delta"}
        assert any(row["mode"] == "delta" for row in rows)


class TestSeriesCli:
    """``info`` / ``verify`` on a series directory."""

    def test_info(self, series_dir, capsys):
        assert cli_main(["info", series_dir]) == 0
        out = capsys.readouterr().out
        assert "temporal_delta" in out
        assert "vs keyframe-only" in out
        assert "delta_saved" in out

    def test_info_json_is_describe(self, series_dir, capsys):
        assert cli_main(["info", series_dir, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["nsteps"] == 4
        assert summary["delta_savings_factor"] >= 1.0
        with repro.open_series(series_dir) as series:
            assert summary == series.describe()

    def test_info_step_table(self, series_dir, capsys):
        assert cli_main(["info", series_dir, "--step", "1"]) == 0
        out = capsys.readouterr().out
        assert "step 1" in out and "level_0/baryon_density" in out
        assert cli_main(["info", series_dir, "--step", "1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["dataset_rows"]
        assert any(row["mode"] == "delta" for row in rows)

    def test_info_source_and_stats(self, series_dir, capsys):
        assert cli_main(["info", series_dir, "--source", "block:4k",
                         "--stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["io_stats"]
        assert stats["chunks_decoded"] == 0          # info decodes nothing

    def test_verify_passes(self, series_dir, capsys):
        assert cli_main(["verify", series_dir]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "chunks decoded" in out
        assert "keyframe_cadence=ok" in out and "4 steps" in out

    def test_verify_source_and_stats(self, series_dir, capsys):
        assert cli_main(["verify", series_dir, "--source", "block:4k",
                         "--stats"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "byte-source I/O" in out
        table = out.split("byte-source I/O")[1]
        assert "source_bytes_read" in table

    def test_verify_detects_corruption(self, series_dir, tmp_path, capsys):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(series_dir, broken)
        index = SeriesIndex.load(broken)
        # lie about a stored size: manifest/file consistency must fail
        index.steps[1].datasets[0].stored_bytes += 1
        os.unlink(os.path.join(broken, JOURNAL_FILENAME))
        with SeriesJournal(broken) as journal:
            journal.create(dict(index.to_json(), steps=[]))
            for step in index.steps:
                journal.append_step(step.to_json())
            journal.append_final()
        assert cli_main(["verify", broken]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "manifest_bytes=FAIL" in out

    def test_commands_on_missing_dir(self, tmp_path, capsys):
        assert cli_main(["info", str(tmp_path / "nope")]) == 1
        assert cli_main(["verify", str(tmp_path / "nope")]) == 1

    def test_against_is_refused_on_a_series(self, series_dir, capsys):
        assert cli_main(["verify", series_dir, "--against", series_dir]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--against only applies to a plotfile" in captured.err

    @pytest.mark.parametrize("verb", ["series-info", "series-verify"])
    def test_the_series_verbs_are_gone(self, series_dir, verb):
        with pytest.raises(SystemExit):
            cli_main([verb, series_dir])

    def test_a_live_series(self, tmp_path, capsys):
        """A journal-only directory (append mode, before finalize) is a series."""
        from repro.series import SeriesWriter, is_series_dir

        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=2, error_bound=1e-3,
                              append=True)
        try:
            for hierarchy in make_sim(seed=41).run(3):
                writer.append(hierarchy)
            assert is_series_dir(directory)
            assert cli_main(["info", directory, "--json"]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["live"] is True and summary["nsteps"] == 3
            assert cli_main(["info", directory, "--step", "2"]) == 0
            assert "step 2" in capsys.readouterr().out
            assert cli_main(["verify", directory]) == 0
            out = capsys.readouterr().out
            assert "PASS" in out and "3 steps" in out
        finally:
            writer.close()


class TestLegacyInfoSatellite:
    @pytest.fixture()
    def legacy_pair(self, tmp_path):
        """A header-less plotfile plus its self-describing twin."""
        from repro.core.pipeline import AMRICWriter
        from repro.h5lite.file import H5LiteFile

        hierarchy = make_sim(seed=31).hierarchy
        modern = str(tmp_path / "modern.h5z")
        AMRICWriter(error_bound=1e-3).write_plotfile(hierarchy, modern)
        legacy = str(tmp_path / "legacy.h5z")
        with H5LiteFile(modern, "r") as src, H5LiteFile(legacy, "w") as dst:
            dst.attrs.update(src.attrs)
            dst.header = None                       # strip the format-v1 header
            for name in src.dataset_names():
                info = src.datasets[name]
                payloads = [src.read_chunk_payloads(name, [i])[0]
                            for i in range(info.nchunks)]
                dst.create_dataset_from_chunks(
                    name, payloads, shape=info.shape, dtype=info.dtype,
                    chunk_elements=info.chunk_elements,
                    filter_id=info.filter_id,
                    actual_elements_per_chunk=[c.actual_elements
                                               for c in info.chunks],
                    attrs=info.attrs)
        return legacy, modern, hierarchy

    def test_info_on_legacy_file_fails_clearly(self, legacy_pair, capsys):
        legacy, _, _ = legacy_pair
        assert cli_main(["info", legacy]) == 1
        err = capsys.readouterr().err
        assert "no self-describing header" in err and legacy in err
        assert "template" not in err

    def test_info_on_modern_file_still_works(self, legacy_pair, capsys):
        _, modern, _ = legacy_pair
        assert cli_main(["info", modern]) == 0
        assert "self_describing" in capsys.readouterr().out

    def test_decompress_and_verify_refuse_legacy(self, legacy_pair, tmp_path,
                                                 capsys):
        legacy, _, _ = legacy_pair
        out = tmp_path / "x.h5z"
        assert cli_main(["decompress", legacy, str(out)]) == 1
        assert "no self-describing header" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(["verify", legacy]) == 1
        assert "no self-describing header" in capsys.readouterr().err
        with pytest.raises(SystemExit):           # the flag is gone
            cli_main(["decompress", legacy, str(out), "--template", legacy])
