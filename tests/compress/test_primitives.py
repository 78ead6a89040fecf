"""Tests for the compression primitives: error bounds, SZ_L/R's Lorenzo,
regression, lossless framing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.errorbound import ErrorBound
from repro.compress.lossless import (
    pack_array,
    pack_arrays,
    pack_sections,
    unpack_array,
    unpack_arrays,
    unpack_sections,
    zlib_compress,
    zlib_decompress,
)
from repro.compress import regression
from repro.compress import sz_lr


class TestErrorBound:
    def test_absolute(self):
        eb = ErrorBound.absolute(0.5)
        assert eb.resolve(np.array([0, 100.0])) == 0.5

    def test_relative(self):
        eb = ErrorBound.relative(1e-2)
        assert eb.resolve(np.array([0.0, 50.0])) == pytest.approx(0.5)

    def test_relative_with_explicit_range(self):
        assert ErrorBound.relative(1e-3).resolve(value_range=200.0) == pytest.approx(0.2)

    def test_relative_constant_field(self):
        eb = ErrorBound.relative(1e-2)
        assert eb.resolve(np.full(10, 3.0)) == pytest.approx(1e-2)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ErrorBound(1e-3, "bogus")

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            ErrorBound(-1.0)
        with pytest.raises(ValueError):
            ErrorBound(float("nan"))

    def test_coerce(self):
        assert ErrorBound.coerce(1e-3).mode == "rel"
        eb = ErrorBound.absolute(2.0)
        assert ErrorBound.coerce(eb) is eb

    def test_rel_needs_data_or_range(self):
        with pytest.raises(ValueError):
            ErrorBound.relative(1e-3).resolve()


class TestLorenzo:
    """SZ_L/R's Lorenzo pair: ``_lorenzo`` differences each region of each
    stacked array, ``_prefix_sum`` undoes it."""

    @staticmethod
    def _deltas(stack, block):
        segments, _ = sz_lr._region_plan(stack.shape[1:], (block,) * (stack.ndim - 1))
        return sz_lr._lorenzo(stack.copy(), segments)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.sampled_from([2, 4, 6]),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(deadline=None)
    def test_prefix_sum_inverts_lorenzo(self, shape, block, members, seed):
        q = np.random.default_rng(seed).integers(-10 ** 6, 10 ** 6, (members,) + tuple(shape))
        remainder_at = sz_lr._flat_plan(tuple(shape), (block,) * len(shape)).remainder_at
        restored = sz_lr._prefix_sum(self._deltas(q, block), remainder_at)
        np.testing.assert_array_equal(restored, q)

    def test_each_regions_first_cell_is_its_value(self):
        q = np.random.default_rng(0).integers(-1000, 1000, (2, 7, 9, 5))
        deltas = self._deltas(q, 6)
        for corner in [(0, 0, 0), (6, 0, 0), (0, 6, 0), (6, 6, 0)]:
            np.testing.assert_array_equal(deltas[(slice(None),) + corner],
                                          q[(slice(None),) + corner])

    def test_a_plane_leaves_nothing_inside_a_region(self):
        """Lorenzo predicts a multilinear ramp exactly: only the cells on a
        region's leading faces carry a difference."""
        i, j, k = np.meshgrid(*[np.arange(12)] * 3, indexing="ij")
        q = (3 * i - 5 * j + 7 * k)[None]
        deltas = self._deltas(q, 6)
        for lo in [(0, 0, 0), (6, 6, 6), (0, 6, 0)]:
            inside = (0,) + tuple(slice(a + 1, a + 6) for a in lo)
            assert not deltas[inside].any()


class TestRegression:
    def test_fits_exact_planes(self):
        i, j, k = np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij")
        plane = 2.0 + 0.5 * i - 0.25 * j + 3.0 * k
        blocks = np.stack([plane, plane * 2])
        coeffs = regression.fit_blocks(blocks)
        model = regression.RegressionModel(coeffs, (6, 6, 6))
        preds = regression.predict_blocks(model)
        np.testing.assert_allclose(preds, blocks, atol=1e-9)

    def test_quantised_coefficients_error_small(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(4, 6, 6, 6))
        model, preds = regression.fit_and_predict(blocks, eb=1e-3)
        raw_coeffs = regression.fit_blocks(blocks)
        # quantised prediction stays close to the unquantised one
        raw_model = regression.RegressionModel(raw_coeffs, (6, 6, 6))
        raw_preds = regression.predict_blocks(raw_model)
        assert np.max(np.abs(preds - raw_preds)) < 1e-2

    def test_coefficients_float32_representable(self):
        rng = np.random.default_rng(3)
        blocks = rng.normal(size=(3, 5, 5, 5)) * 100
        model, _ = regression.fit_and_predict(blocks, eb=1e-2)
        np.testing.assert_array_equal(
            model.coefficients, model.coefficients.astype(np.float32).astype(np.float64))


class TestLossless:
    def test_zlib_roundtrip(self):
        payload = b"hello world" * 100
        assert zlib_decompress(zlib_compress(payload)) == payload

    def test_sections_roundtrip(self):
        sections = {"a": b"123", "b": b"", "meta": b"{}"}
        back = unpack_sections(pack_sections(sections))
        assert back == sections

    def test_sections_bad_magic(self):
        with pytest.raises(ValueError):
            unpack_sections(b"XXXX" + b"\x00" * 16)

    def test_pack_array_roundtrip(self):
        for arr in [np.arange(10, dtype=np.int64), np.zeros((3, 4), dtype=np.float32),
                    np.array(5.0), np.zeros(0, dtype=np.uint32)]:
            back = unpack_array(pack_array(arr))
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)

    def test_pack_arrays_roundtrip(self):
        a = np.arange(5, dtype=np.uint32)
        b = np.array([1, 2, 3], dtype=np.uint8)
        back = unpack_arrays(pack_arrays(a, b))
        assert len(back) == 2
        np.testing.assert_array_equal(back[0], a)
        np.testing.assert_array_equal(back[1], b)

    def test_pack_arrays_content_with_separator_bytes(self):
        # arrays containing 0x7C ("|") bytes must round-trip fine
        a = np.full(100, 0x7C7C7C7C, dtype=np.uint32)
        b = np.full(17, 124, dtype=np.uint8)
        back = unpack_arrays(pack_arrays(a, b))
        np.testing.assert_array_equal(back[0], a)
        np.testing.assert_array_equal(back[1], b)
