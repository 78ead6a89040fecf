"""Tests for the H5Lite container, filters and chunking policies."""

import numpy as np
import pytest

from repro.baselines.amrex_1d import ClassicSZFilter
from repro.compress import SZ1DCompressor
from repro.h5lite import H5LiteFile, NoCompressionFilter, amrex_chunk_elements


@pytest.fixture
def sample_data():
    rng = np.random.default_rng(0)
    return np.cumsum(rng.normal(size=5000)).reshape(50, 100)


def _raw(f, name, data, attrs=None):
    """Commit ``data`` as one raw chunk (pass-through filter)."""
    return f.create_dataset_from_chunks(
        name, [data.tobytes()], shape=data.shape, dtype="float64",
        chunk_elements=data.size, filter_id="none", actual_elements_per_chunk=[data.size],
        attrs=attrs)


def _sz_store(f, name, data, filt, chunk_elements=1024):
    """Commit ``data`` flat in chunks of ``chunk_elements``, each zero-padded
    and compressed whole by the classic filter ``filt``."""
    flat = data.reshape(-1)
    pieces = [flat[start:start + chunk_elements]
              for start in range(0, flat.size, chunk_elements)]
    return f.create_dataset_from_chunks(
        name, [filt.encode(np.pad(p, (0, chunk_elements - p.size))) for p in pieces],
        shape=data.shape, dtype="float64", chunk_elements=chunk_elements,
        filter_id=filt.filter_id, actual_elements_per_chunk=[p.size for p in pieces])


class TestFileBasics:
    def test_write_read_roundtrip_no_filter(self, tmp_path, sample_data):
        path = tmp_path / "plain.h5z"
        # ten 512-element chunks, the last one short
        pieces = np.array_split(sample_data.reshape(-1), range(512, sample_data.size, 512))
        with H5LiteFile(path, "w") as f:
            f.attrs["time"] = 1.25
            info = f.create_dataset_from_chunks(
                "level_0/data", [p.tobytes() for p in pieces], shape=sample_data.shape,
                dtype="float64", chunk_elements=512, filter_id="none",
                actual_elements_per_chunk=[p.size for p in pieces])
        assert info.nchunks == 10 and info.valid_elements == sample_data.size
        with H5LiteFile(path, "r") as f:
            assert f.attrs["time"] == 1.25
            assert f.total_stored_bytes() == sample_data.nbytes
            back = np.frombuffer(b"".join(f.read_chunk_payloads("level_0/data", range(10))))
        np.testing.assert_array_equal(back.reshape(sample_data.shape), sample_data)

    def test_multiple_datasets_and_names(self, tmp_path, sample_data):
        path = tmp_path / "multi.h5z"
        with H5LiteFile(path, "w") as f:
            _raw(f, "a", sample_data)
            _raw(f, "grp/b", sample_data * 2, attrs={"field": "density"})
        with H5LiteFile(path, "r") as f:
            assert f.dataset_names() == ["a", "grp/b"]
            assert "a" in f and "missing" not in f
            assert f.datasets["grp/b"].attrs["field"] == "density"
            assert f.read_chunk_payload("grp/b", 0) == (sample_data * 2).tobytes()

    def test_duplicate_dataset_rejected(self, tmp_path, sample_data):
        with H5LiteFile(tmp_path / "dup.h5z", "w") as f:
            _raw(f, "x", sample_data)
            with pytest.raises(ValueError, match="already exists"):
                _raw(f, "x", sample_data)

    def test_write_whose_body_raises_leaves_no_file(self, tmp_path, sample_data):
        path = tmp_path / "torn.h5z"
        with pytest.raises(RuntimeError, match="mid-write"):
            with H5LiteFile(path, "w") as f:
                _raw(f, "x", sample_data)
                raise RuntimeError("mid-write")
        assert not path.exists()
        # a read-mode body raising must of course leave the file alone
        with H5LiteFile(path, "w") as f:
            _raw(f, "x", sample_data)
        with pytest.raises(RuntimeError):
            with H5LiteFile(path, "r"):
                raise RuntimeError("reader bug")
        assert path.exists()

    def test_read_missing_dataset(self, tmp_path, sample_data):
        path = tmp_path / "m.h5z"
        with H5LiteFile(path, "w") as f:
            _raw(f, "x", sample_data)
        with H5LiteFile(path, "r") as f:
            with pytest.raises(KeyError):
                f.read_chunk_payloads("y", [0])
            with pytest.raises(IndexError, match="out of range"):
                f.read_chunk_payloads("x", [1])

    def test_write_to_readonly_rejected(self, tmp_path, sample_data):
        path = tmp_path / "ro.h5z"
        with H5LiteFile(path, "w") as f:
            _raw(f, "x", sample_data)
        with H5LiteFile(path, "r") as f:
            with pytest.raises(ValueError, match="read-only"):
                _raw(f, "y", sample_data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.h5z"
        path.write_bytes(b"not a file" * 10)
        with pytest.raises(ValueError):
            H5LiteFile(path, "r")

    def test_empty_dataset_rejected(self, tmp_path):
        with H5LiteFile(tmp_path / "e.h5z", "w") as f:
            with pytest.raises(ValueError, match="no chunks"):
                f.create_dataset_from_chunks("x", [], shape=(0,), dtype="float64",
                                             chunk_elements=1, filter_id="none",
                                             actual_elements_per_chunk=[])

    def test_bad_chunk_size_rejected(self, tmp_path):
        with H5LiteFile(tmp_path / "c.h5z", "w") as f:
            for bad in (0, -4):
                with pytest.raises(ValueError, match="chunk_elements must be >= 1"):
                    f.create_dataset_from_chunks("x", [b""], shape=(1,), dtype="float64",
                                                 chunk_elements=bad, filter_id="none",
                                                 actual_elements_per_chunk=[1])


class TestFilters:
    def test_sz_classic_roundtrip(self, tmp_path, sample_data):
        path = tmp_path / "sz.h5z"
        eb_abs = 1e-3 * (sample_data.max() - sample_data.min())
        filt = ClassicSZFilter(SZ1DCompressor(eb_abs, mode="abs"))
        with H5LiteFile(path, "w") as f:
            info = _sz_store(f, "x", sample_data, filt)
        with H5LiteFile(path, "r") as f:
            payloads = f.read_chunk_payloads("x", range(info.nchunks))
        # each chunk decodes whole, its zero tail included; the valid prefix is the data
        back = np.concatenate([filt.decode(p, 1024) for p in payloads])[:sample_data.size]
        assert np.max(np.abs(back - sample_data.reshape(-1))) <= eb_abs * (1 + 1e-9)

    def test_sz_classic_keeps_each_chunks_reconstruction(self, sample_data, tmp_path):
        """One reconstruction per filter call, each what the chunk decodes to."""
        filt = ClassicSZFilter(SZ1DCompressor(1e-3))
        with H5LiteFile(tmp_path / "c.h5z", "w") as f:
            info = _sz_store(f, "x", sample_data, filt)
        with H5LiteFile(tmp_path / "c.h5z", "r") as f:
            payloads = f.read_chunk_payloads("x", range(info.nchunks))
        assert len(filt.reconstructions) == info.nchunks == int(np.ceil(sample_data.size / 1024))
        for payload, recon in zip(payloads, filt.reconstructions):
            np.testing.assert_array_equal(filt.decode(payload, 1024), recon)

    def test_nocompression_is_the_raw_bytes(self):
        filt = NoCompressionFilter()
        payload = filt.encode(np.arange(100.0))
        assert len(payload) == 800
        np.testing.assert_array_equal(filt.decode(payload, 100), np.arange(100.0))


class TestChunking:
    def test_amrex_chunk_default(self):
        assert amrex_chunk_elements() == 1024
        assert amrex_chunk_elements(smallest_box_elements=500) == 500
        assert amrex_chunk_elements(smallest_box_elements=10**6) == 1024

    def test_file_size_reflects_compression(self, tmp_path, sample_data):
        p1, p2 = tmp_path / "raw.h5z", tmp_path / "comp.h5z"
        with H5LiteFile(p1, "w") as f:
            _raw(f, "x", sample_data)
        with H5LiteFile(p2, "w") as f:
            _sz_store(f, "x", sample_data, ClassicSZFilter(SZ1DCompressor(1e-3)))
        assert p2.stat().st_size < p1.stat().st_size
