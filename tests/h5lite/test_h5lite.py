"""Tests for the H5Lite container, filters and chunking policies."""

import numpy as np
import pytest

from repro.compress import SZ1DCompressor
from repro.h5lite import (
    H5LiteFile,
    NoCompressionFilter,
    SZChunkFilter,
    amrex_chunk_elements,
)


@pytest.fixture
def sample_data():
    rng = np.random.default_rng(0)
    return np.cumsum(rng.normal(size=5000)).reshape(50, 100)


class TestFileBasics:
    def test_write_read_roundtrip_no_filter(self, tmp_path, sample_data):
        path = tmp_path / "plain.h5z"
        with H5LiteFile(path, "w") as f:
            f.attrs["time"] = 1.25
            f.create_dataset("level_0/data", sample_data, chunk_elements=512)
        with H5LiteFile(path, "r") as f:
            assert f.attrs["time"] == 1.25
            back = f.read_dataset("level_0/data")
        np.testing.assert_array_equal(back, sample_data)

    def test_multiple_datasets_and_names(self, tmp_path, sample_data):
        path = tmp_path / "multi.h5z"
        with H5LiteFile(path, "w") as f:
            f.create_dataset("a", sample_data)
            f.create_dataset("grp/b", sample_data * 2, attrs={"field": "density"})
        with H5LiteFile(path, "r") as f:
            assert f.dataset_names() == ["a", "grp/b"]
            assert "a" in f and "missing" not in f
            assert f.datasets["grp/b"].attrs["field"] == "density"
            np.testing.assert_array_equal(f.read_dataset("grp/b"), sample_data * 2)

    def test_duplicate_dataset_rejected(self, tmp_path, sample_data):
        with H5LiteFile(tmp_path / "dup.h5z", "w") as f:
            f.create_dataset("x", sample_data)
            with pytest.raises(ValueError):
                f.create_dataset("x", sample_data)

    def test_write_whose_body_raises_leaves_no_file(self, tmp_path, sample_data):
        path = tmp_path / "torn.h5z"
        with pytest.raises(RuntimeError, match="mid-write"):
            with H5LiteFile(path, "w") as f:
                f.create_dataset("x", sample_data)
                raise RuntimeError("mid-write")
        assert not path.exists()
        # a read-mode body raising must of course leave the file alone
        with H5LiteFile(path, "w") as f:
            f.create_dataset("x", sample_data)
        with pytest.raises(RuntimeError):
            with H5LiteFile(path, "r"):
                raise RuntimeError("reader bug")
        assert path.exists()

    def test_read_missing_dataset(self, tmp_path, sample_data):
        path = tmp_path / "m.h5z"
        with H5LiteFile(path, "w") as f:
            f.create_dataset("x", sample_data)
        with H5LiteFile(path, "r") as f:
            with pytest.raises(KeyError):
                f.read_dataset("y")

    def test_write_to_readonly_rejected(self, tmp_path, sample_data):
        path = tmp_path / "ro.h5z"
        with H5LiteFile(path, "w") as f:
            f.create_dataset("x", sample_data)
        with H5LiteFile(path, "r") as f:
            with pytest.raises(ValueError):
                f.create_dataset("y", sample_data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.h5z"
        path.write_bytes(b"not a file" * 10)
        with pytest.raises(ValueError):
            H5LiteFile(path, "r")

    def test_empty_dataset_rejected(self, tmp_path):
        with H5LiteFile(tmp_path / "e.h5z", "w") as f:
            with pytest.raises(ValueError):
                f.create_dataset("x", np.zeros(0))

    def test_bad_chunk_size_rejected(self, tmp_path, sample_data):
        with H5LiteFile(tmp_path / "c.h5z", "w") as f:
            for bad in (0, -4):
                with pytest.raises(ValueError, match="chunk_elements must be >= 1"):
                    f.create_dataset("x", sample_data, chunk_elements=bad)

    def test_inline_encode_is_a_commit_of_encoded_chunks(self, tmp_path, sample_data):
        """create_dataset = the filter over zero-padded chunks, then
        create_dataset_from_chunks: the two files are byte-identical."""
        comp = SZ1DCompressor(1e-3)
        inline, committed = tmp_path / "inline.h5z", tmp_path / "committed.h5z"
        with H5LiteFile(inline, "w") as f:
            f.create_dataset("x", sample_data, chunk_elements=1024,
                             filter=SZChunkFilter(comp))
        flat, filt = sample_data.reshape(-1), SZChunkFilter(comp)
        starts = range(0, flat.size, 1024)
        chunks = [np.pad(flat[s:s + 1024], (0, max(0, s + 1024 - flat.size)))
                  for s in starts]
        with H5LiteFile(committed, "w") as f:
            f.create_dataset_from_chunks(
                "x", [filt.encode(c) for c in chunks], shape=sample_data.shape,
                dtype=str(sample_data.dtype), chunk_elements=1024,
                filter_id=filt.filter_id,
                actual_elements_per_chunk=[min(1024, flat.size - s) for s in starts])
        assert inline.read_bytes() == committed.read_bytes()

    def test_chunk_count(self, tmp_path, sample_data):
        path = tmp_path / "chunks.h5z"
        with H5LiteFile(path, "w") as f:
            info = f.create_dataset("x", sample_data, chunk_elements=512)
        assert info.nchunks == int(np.ceil(sample_data.size / 512))

    def test_wrong_filter_on_read(self, tmp_path, sample_data):
        path = tmp_path / "wf.h5z"
        comp = SZ1DCompressor(1e-3)
        with H5LiteFile(path, "w") as f:
            f.create_dataset("x", sample_data, filter=SZChunkFilter(comp))
        with H5LiteFile(path, "r") as f:
            with pytest.raises(ValueError):
                f.read_dataset("x")  # default NoCompression filter mismatches


class TestFilters:
    def test_sz_classic_roundtrip(self, tmp_path, sample_data):
        path = tmp_path / "sz.h5z"
        eb_abs = 1e-3 * (sample_data.max() - sample_data.min())
        comp = SZ1DCompressor(eb_abs, mode="abs")
        with H5LiteFile(path, "w") as f:
            f.create_dataset("x", sample_data, chunk_elements=1024, filter=SZChunkFilter(comp))
        with H5LiteFile(path, "r") as f:
            back = f.read_dataset("x", filter=SZChunkFilter(comp))
        assert back.shape == sample_data.shape
        assert np.max(np.abs(back - sample_data)) <= eb_abs * (1 + 1e-9)

    def test_sz_classic_counts_calls(self, sample_data, tmp_path):
        comp = SZ1DCompressor(1e-3)
        filt = SZChunkFilter(comp)
        with H5LiteFile(tmp_path / "c.h5z", "w") as f:
            f.create_dataset("x", sample_data, chunk_elements=1024, filter=filt)
        assert filt.stats.calls == int(np.ceil(sample_data.size / 1024))
        assert filt.stats.output_bytes > 0

    def test_nocompression_stats(self):
        filt = NoCompressionFilter()
        filt.encode(np.zeros(100))
        assert filt.stats.calls == 1
        assert filt.stats.output_bytes == 800


class TestChunking:
    def test_amrex_chunk_default(self):
        assert amrex_chunk_elements() == 1024
        assert amrex_chunk_elements(smallest_box_elements=500) == 500
        assert amrex_chunk_elements(smallest_box_elements=10**6) == 1024

    def test_file_size_reflects_compression(self, tmp_path, sample_data):
        comp = SZ1DCompressor(1e-3)
        p1, p2 = tmp_path / "raw.h5z", tmp_path / "comp.h5z"
        with H5LiteFile(p1, "w") as f:
            f.create_dataset("x", sample_data)
        with H5LiteFile(p2, "w") as f:
            f.create_dataset("x", sample_data, filter=SZChunkFilter(comp))
        assert p2.stat().st_size < p1.stat().st_size
