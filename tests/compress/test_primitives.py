"""Tests for the compression primitives: error bounds, quantiser, Lorenzo,
regression, lossless framing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compress.errorbound import ErrorBound
from repro.compress.lorenzo import (
    lorenzo_decode,
    lorenzo_encode,
    lorenzo_inverse,
    lorenzo_transform,
    prequantize,
    postquantize,
)
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
from repro.compress.quantizer import QuantizedBlock, dequantize, quantize
from repro.compress import regression


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


class TestQuantizer:
    def test_roundtrip_within_bound(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(scale=0.1, size=1000)
        block = quantize(errors, eb=1e-3)
        recovered = dequantize(block)
        assert np.all(np.abs(recovered - errors) <= 1e-3 * (1 + 1e-12))

    def test_outliers_recovered_exactly(self):
        errors = np.array([0.0, 1e6, -1e6, 0.01])
        block = quantize(errors, eb=1e-3, radius=16)
        assert block.num_outliers == 2
        recovered = dequantize(block)
        np.testing.assert_allclose(recovered[[1, 2]], [1e6, -1e6])

    def test_zero_code_reserved_for_outliers(self):
        errors = np.array([0.0, -1e9])
        block = quantize(errors, eb=1.0, radius=4)
        assert block.codes[0] != 0
        assert block.codes[1] == 0

    def test_invalid_eb(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(3), eb=0.0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(3), eb=1.0, radius=1)

    @given(hnp.arrays(np.float64, st.integers(1, 200),
                      elements=st.floats(-1e6, 1e6, allow_nan=False)),
           st.floats(1e-6, 1.0))
    def test_property_bound(self, errors, eb):
        block = quantize(errors, eb=eb)
        recovered = dequantize(block)
        assert np.all(np.abs(recovered - errors) <= eb * (1 + 1e-9))


class TestLorenzo:
    def test_transform_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        q = rng.integers(-1000, 1000, size=(7, 9, 5))
        np.testing.assert_array_equal(lorenzo_inverse(lorenzo_transform(q)), q)

    def test_prequantize_bound(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=1000) * 50
        eb = 1e-2
        recon = postquantize(prequantize(data, eb), eb)
        assert np.max(np.abs(recon - data)) <= eb

    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(9, 6, 4))
        deltas, recon = lorenzo_encode(data, 1e-3)
        decoded = lorenzo_decode(deltas, 1e-3)
        np.testing.assert_array_equal(decoded, recon)
        assert np.max(np.abs(recon - data)) <= 1e-3

    def test_transform_first_element_is_value(self):
        q = np.array([[5, 7], [9, 13]])
        d = lorenzo_transform(q)
        assert d[0, 0] == 5

    def test_invalid_eb(self):
        with pytest.raises(ValueError):
            prequantize(np.zeros(3), 0.0)

    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
                      elements=st.integers(-10**6, 10**6)))
    def test_property_roundtrip(self, q):
        np.testing.assert_array_equal(lorenzo_inverse(lorenzo_transform(q)), q)


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

    def test_model_nbytes(self):
        model = regression.RegressionModel(np.zeros((10, 4)), (6, 6, 6))
        assert model.nbytes == 10 * 4 * 4

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
