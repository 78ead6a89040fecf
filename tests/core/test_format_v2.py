"""Plotfile format v2: lean chunk records decoded against the level layout.

What a chunk stores (no JSON, one recipe per dataset), what a damaged one does
(one exception type, never a silently wrong read), what an older file does
(refused by its version number), and the carried SLE table (each stream
encoded once).
"""

import json
import os

import numpy as np
import pytest

import repro
from repro.apps import nyx_run
from repro.compress.huffman import HuffmanCodec
from repro.core.config import AMRICConfig
from repro.core.header import FORMAT_VERSION
from repro.core.preprocess import hierarchy_layouts
from repro.errors import CorruptFileError
from repro.h5lite.file import H5LiteFile

FIELD = "baryon_density"


@pytest.fixture(scope="module")
def hierarchy():
    return nyx_run(coarse_shape=(16, 16, 16), nranks=2, target_fine_density=0.05,
                   max_grid_size=8, seed=23).hierarchy


@pytest.fixture(scope="module")
def plotfile(hierarchy, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("v2") / "plt.h5z")
    repro.write(hierarchy, path, error_bound=1e-3)
    return path


@pytest.fixture(scope="module")
def clean(plotfile):
    with repro.open(plotfile) as handle:
        return _fabs(handle.read())


def _fabs(hierarchy):
    return [fab.data.copy() for level in hierarchy.levels for fab in level.multifab.fabs]


def _rewrite(src_path, dst_path, header=None, payload_of=lambda name, index, raw: raw,
             attrs_of=lambda attrs: attrs):
    """A copy of a plotfile with its header, chunk payloads and dataset
    attributes passed through."""
    with H5LiteFile(src_path, "r") as src, H5LiteFile(dst_path, "w") as dst:
        dst.attrs.update(src.attrs)
        dst.header = src.header if header is None else header
        for name, info in src.datasets.items():
            payloads = [payload_of(name, index, raw) for index, raw in
                        enumerate(src.read_chunk_payloads(name, range(info.nchunks)))]
            dst.create_dataset_from_chunks(
                name, payloads, shape=info.shape, dtype=info.dtype,
                chunk_elements=info.chunk_elements, filter_id=info.filter_id,
                actual_elements_per_chunk=[c.actual_elements for c in info.chunks],
                attrs=attrs_of(info.attrs))
    return dst_path


class TestTheRecord:
    def test_chunks_hold_no_json_and_each_dataset_one_recipe(self, hierarchy, plotfile):
        with H5LiteFile(plotfile, "r") as f:
            assert f.header["version"] == FORMAT_VERSION == 4
            assert f.header["codec_options"] == {"modify_filter": True}
            for name, info in f.datasets.items():
                recipe = info.attrs["codec"]
                level, field = int(name.split("/")[0][len("level_"):]), name.split("/")[1]
                value_range = hierarchy[level].multifab.value_range(field)
                assert recipe["codec"] == "sz_lr" and recipe["shared"] is True
                assert recipe["abs_eb"] == pytest.approx(1e-3 * value_range)
                for payload in f.read_chunk_payloads(name, range(info.nchunks)):
                    assert b"block_shapes" not in payload and b'{"' not in payload

    @pytest.mark.parametrize("method, dataset_attrs", [
        ("amric", {"codec"}), ("amrex_1d", set()), ("nocomp", set()),
        ("series", {"codec"})])
    def test_the_header_and_journal_are_not_restated(self, hierarchy, tmp_path,
                                                     method, dataset_attrs):
        """Method, bound, time, levels, ratios, fields live in the header, a
        step's mode and reference in the journal: no file attr restates them."""
        if method == "series":
            repro.write_series([hierarchy], str(tmp_path), error_bound=1e-3)
            path = str(tmp_path / f"plt{hierarchy.step:05d}.h5z")
        else:
            path = str(tmp_path / "p.h5z")
            repro.write(hierarchy, path, method=method,
                        **({} if method == "nocomp" else {"error_bound": 1e-3}))
        with H5LiteFile(path, "r") as f:
            assert f.header is not None and f.attrs == {}
            assert f.datasets
            for info in f.datasets.values():
                assert set(info.attrs) == dataset_attrs

    @pytest.mark.parametrize("config", [
        AMRICConfig(error_bound=1e-3), AMRICConfig(error_bound=1e-3, use_sle=False),
        AMRICConfig(error_bound=1e-3, compressor="sz_interp"),
        AMRICConfig(error_bound=1e-3, modify_filter=False)],
        ids=["sz_lr", "no_sle", "sz_interp", "naive_chunks"])
    def test_reads_back_what_the_writer_reconstructed(self, hierarchy, tmp_path, config):
        path = str(tmp_path / "p.h5z")
        report = repro.write(hierarchy, path, config=config)
        with repro.open(path) as handle:
            back = handle.read()
        for record in report.records:
            if record.level == hierarchy.nlevels - 1 or not config.remove_redundancy:
                original = hierarchy[record.level].multifab
                restored = back[record.level].multifab
                comp = original.component_index(record.field)
                worst = max(float(np.abs(a.data[comp] - b.data[comp]).max())
                            for a, b in zip(original.fabs, restored.fabs))
                assert worst == record.max_error


class TestCarriedTable:
    def test_every_stream_is_encoded_exactly_once(self, hierarchy, monkeypatch):
        """A chunk the carried SLE table does not cover is checked before any
        of its streams is encoded: encode calls == streams, and the table is
        rebuilt mid-dataset at least once (the case that used to re-encode)."""
        calls = {"encode": 0, "build": 0}
        encode, build = HuffmanCodec.encode, HuffmanCodec.from_multiple

        def counting_encode(self, data):
            calls["encode"] += 1
            return encode(self, data)

        def counting_build(codes):
            calls["build"] += 1
            return build(codes)

        monkeypatch.setattr(HuffmanCodec, "encode", counting_encode)
        monkeypatch.setattr(HuffmanCodec, "from_multiple", staticmethod(counting_build))
        repro.write(hierarchy, None, error_bound=1e-3)
        config = AMRICConfig()
        layouts = hierarchy_layouts(hierarchy, config.unit_block_size, config.remove_redundancy)
        ncomponents = len(hierarchy.component_names)
        datasets = sum(ncomponents for layout in layouts if layout.nblocks)
        assert calls["encode"] == sum(layout.nblocks for layout in layouts) * ncomponents
        assert calls["build"] > datasets


class TestDamage:
    def test_older_and_newer_versions_are_refused_by_number(self, plotfile, tmp_path):
        with H5LiteFile(plotfile, "r") as f:
            header = dict(f.header)
        for version in (1, 2, 3, 5):
            path = _rewrite(plotfile, str(tmp_path / f"v{version}.h5z"),
                            header=dict(header, version=version))
            with pytest.raises(CorruptFileError, match=f"format version {version} is not"):
                repro.open(path)

    def test_a_version_3_series_step_is_refused_by_number(self, tmp_path):
        from repro.apps import build_run

        directory = str(tmp_path / "s")
        sim = build_run("nyx_1", seed=0, regrid_interval=2, coarse_shape=(16, 16, 16),
                        max_grid_size=8)
        repro.write_series(list(sim.run(2)), directory, keyframe_interval=2, error_bound=1e-3)
        with repro.open_series(directory) as series:
            step, field = os.path.join(directory, series.steps()[1].path), series.fields[0]
        with H5LiteFile(step, "r") as f:
            header = dict(f.header, version=3)
        os.replace(_rewrite(step, step + ".v3", header=header), step)
        with repro.open_series(directory) as series:
            series.read_field(field, step=0)                # the keyframe still reads
            with pytest.raises(CorruptFileError, match="format version 3 is not supported"):
                series.read_field(field, step=1)
        with pytest.raises(CorruptFileError, match="format version 3 is not supported"):
            repro.open(step)

    def test_mutated_chunks_never_read_silently_wrong(self, plotfile, clean, tmp_path):
        """300 seeded single-byte flips and truncations inside chunk payloads:
        each read equals the clean one or raises CorruptFileError."""
        rng = np.random.default_rng(2026)
        with H5LiteFile(plotfile, "r") as f:
            chunks = [(name, index, chunk.nbytes) for name, info in f.datasets.items()
                      for index, chunk in enumerate(info.chunks)]
        outcomes = {"equal": 0, "corrupt": 0}
        path = str(tmp_path / "mutant.h5z")
        for trial in range(300):
            name, index, nbytes = chunks[rng.integers(len(chunks))]
            at = int(rng.integers(nbytes))
            flip = int(rng.integers(1, 256))

            def mutate(dsname, chunk, raw, truncate=trial % 2):
                if (dsname, chunk) != (name, index):
                    return raw
                if truncate:
                    return raw[:at]
                damaged = bytearray(raw)
                damaged[at] ^= flip
                return bytes(damaged)

            _rewrite(plotfile, path, payload_of=mutate)
            try:
                with repro.open(path) as handle:
                    got = _fabs(handle.read())
            except CorruptFileError:
                outcomes["corrupt"] += 1
                continue
            assert all(np.array_equal(a, b) for a, b in zip(got, clean)), \
                f"trial {trial}: {name} chunk {index} byte {at} read back silently wrong"
            outcomes["equal"] += 1
        assert sum(outcomes.values()) == 300
        assert outcomes["corrupt"] > 0

    @pytest.mark.parametrize("compressor, change", [
        *(("sz_lr", change) for change in (
            {"abs_eb": 2e-3}, {"radius": 64}, {"radius": 1}, {"block_size": 5},
            {"block_size": 0}, {"block_size": "x"}, {"shared": False},
            {"dtype": "int8"}, {"codec": "nope"})),
        *(("sz_interp", change) for change in (
            {"abs_eb": 2e-3}, {"radius": 64}, {"anchor_stride": 8}, {"cubic": False},
            {"dtype": "int8"}, {"arrangement": "linear"}, {"arrangement": "bogus"}))])
    def test_a_changed_recipe_is_corrupt(self, hierarchy, tmp_path, compressor, change):
        """The recipe lives in the superblock, outside the chunks, so each
        record's checksum covers the recipe values it decodes under: a value
        that would decode to other numbers (or not at all) is refused."""
        path = str(tmp_path / "p.h5z")
        repro.write(hierarchy, path, error_bound=1e-3, compressor=compressor)
        _rewrite(path, str(tmp_path / "q.h5z"),
                 attrs_of=lambda attrs: dict(attrs, codec=dict(attrs["codec"], **change)))
        with repro.open(str(tmp_path / "q.h5z")) as handle:
            with pytest.raises(CorruptFileError):
                handle.read()

    @pytest.mark.parametrize("edit", [(b'"name": "level_1/baryon_density"',
                                       b'"name": "level_1/baryon_densitz"'),
                                      (b'"filter_id": "amric_3d"', b'"filter_id": "amric_id"')],
                             ids=["dataset name", "filter_id"])
    def test_an_edited_directory_is_corrupt(self, tmp_path, edit):
        """The directory JSON is not checksummed: a dataset renamed away from
        the header's, or a filter no reader knows, is refused as corrupt."""
        from repro.apps import build_run

        path = tmp_path / "tiny.h5z"
        repro.write(build_run("nyx_1", seed=0, coarse_shape=(16, 16, 16),
                              max_grid_size=8).hierarchy, str(path), error_bound=1e-3)
        raw = path.read_bytes()
        old, new = edit
        assert old in raw and len(old) == len(new)
        path.write_bytes(raw.replace(old, new, 1))              # one dataset's entry
        with pytest.raises(CorruptFileError, match="no such dataset|unknown filter"):
            with repro.open(str(path)) as handle:
                handle.read()

    def test_a_lost_recipe_is_corrupt(self, plotfile, tmp_path):
        path = _rewrite(plotfile, str(tmp_path / "norecipe.h5z"), attrs_of=lambda attrs: {
            k: v for k, v in attrs.items() if k != "codec"})
        with repro.open(path) as handle:
            with pytest.raises(CorruptFileError, match="recipe"):
                handle.read_field(FIELD)


class TestInfo:
    def test_per_dataset_stored_bytes_and_ratio_come_from_the_chunk_index(self, plotfile,
                                                                          capsys):
        from repro.cli import main as cli_main

        assert cli_main(["info", plotfile, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["dataset_rows"]
        with H5LiteFile(plotfile, "r") as f:
            assert [row["dataset"] for row in rows] == sorted(f.datasets)
            for row in rows:
                info = f.datasets[row["dataset"]]
                assert row["stored_bytes"] == sum(c.nbytes for c in info.chunks)
                assert row["elements"] == sum(c.actual_elements for c in info.chunks)
                assert row["ratio"] == pytest.approx(8 * row["elements"] / row["stored_bytes"])
                assert row["ratio"] > 1
        assert cli_main(["info", plotfile]) == 0
        header = [line for line in capsys.readouterr().out.splitlines()
                  if line.lstrip().startswith("dataset")]
        assert header and "stored_bytes" in header[0] and "ratio" in header[0]

    @pytest.mark.parametrize("method", ["amric", "amrex_1d", "nocomp"])
    def test_the_summary_counts_what_the_rows_count(self, hierarchy, tmp_path, method):
        """``describe()`` (``repro info``'s summary line) counts the elements
        the chunks record as data, as the per-dataset rows do: a rank chunk's
        zero padding is no logical byte, so its ratio is the write report's."""
        from repro.analysis.reporting import plotfile_dataset_rows

        path = str(tmp_path / "p.h5z")
        report = repro.write(hierarchy, path, method=method,
                             **({} if method == "nocomp" else {"error_bound": 1e-3}))
        with repro.open(path) as handle:
            summary = handle.describe()
            rows = plotfile_dataset_rows(handle)
        assert summary["logical_bytes"] == 8 * sum(row["elements"] for row in rows) \
            == report.raw_bytes
        assert summary["stored_bytes"] == report.compressed_bytes
        assert summary["compression_ratio"] == report.compression_ratio

    def test_a_naive_file_counts_the_cells_its_layout_places(self, tmp_path, capsys):
        """A naive (``modify_filter=False``) chunk records its padded size;
        the write report, ``describe()`` / ``repro info``'s summary and its
        per-dataset rows all count the cells the layout places instead."""
        from repro.analysis.reporting import plotfile_dataset_rows
        from repro.apps import build_run
        from repro.cli import main as cli_main

        path = str(tmp_path / "naive.h5z")
        hierarchy = build_run("nyx_1", seed=23, coarse_shape=(16, 16, 16),
                              max_grid_size=8).hierarchy
        report = repro.write(hierarchy, path, error_bound=1e-3, modify_filter=False)
        with repro.open(path) as handle:
            summary = handle.describe()
            rows = plotfile_dataset_rows(handle)
            padded = sum(handle.dataset_info(row["dataset"]).valid_elements for row in rows)
        assert report.raw_bytes == 368_640 < 8 * padded
        assert summary["logical_bytes"] == 8 * sum(row["elements"] for row in rows) \
            == report.raw_bytes
        assert summary["compression_ratio"] == report.compression_ratio
        assert cli_main(["info", path]) == 0
        assert f"({report.compression_ratio:.1f}x over {report.raw_bytes}" \
            in capsys.readouterr().out
