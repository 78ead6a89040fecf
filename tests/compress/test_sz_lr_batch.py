"""One predictor pass per call: the batched SZ_L/R against a per-array reference.

The reference below is the encoder as it was before arrays were stacked — one
array and one corner region at a time, the design matrix and its
pseudo-inverse rebuilt on every fit.  The shipped encoder must produce the
same bytes and the same reconstructions however the arrays of a call are
grouped, and the shipped decoder must read what the reference wrote.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import regression
from repro.compress import sz_lr
from repro.compress.sz_lr import SZLRCompressor


# ----------------------------------------------------------------------
# the reference: per array, per region, nothing memoised
# ----------------------------------------------------------------------
def _ref_region_slices(shape, block_size):
    per_axis = []
    for n, b in zip(shape, block_size):
        full = (n // b) * b
        segments = []
        if full > 0:
            segments.append((0, full))
        if n - full > 0:
            segments.append((full, n))
        per_axis.append(segments)
    for combo in itertools.product(*per_axis):
        yield tuple(slice(s, e) for s, e in combo)


def _ref_split(region, block_shape):
    grid = tuple(s // b for s, b in zip(region.shape, block_shape))
    interleaved = tuple(v for pair in zip(grid, block_shape) for v in pair)
    ndim = region.ndim
    axes = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
    return np.ascontiguousarray(region.reshape(interleaved).transpose(axes)
                                .reshape((-1,) + block_shape))


def _ref_merge(blocks, region_shape, block_shape):
    grid = tuple(s // b for s, b in zip(region_shape, block_shape))
    ndim = len(region_shape)
    order = [a for i in range(ndim) for a in (i, ndim + i)]
    return np.ascontiguousarray(blocks.reshape(grid + block_shape)
                                .transpose(order).reshape(region_shape))


def _ref_design(block_shape):
    coords = np.meshgrid(*[np.arange(s, dtype=np.float64) - (s - 1) / 2.0
                           for s in block_shape], indexing="ij")
    columns = [np.ones(int(np.prod(block_shape)))]
    columns.extend(c.ravel() for c in coords)
    return np.stack(columns, axis=1)


def _ref_fit_and_predict(blocks, eb):
    block_shape = blocks.shape[1:]
    coeffs = blocks.reshape(blocks.shape[0], -1) @ np.linalg.pinv(_ref_design(block_shape)).T
    quantised = regression.quantize_coefficients(coeffs, eb, block_shape)
    model = regression.RegressionModel(coefficients=quantised, block_shape=block_shape)
    return model, regression.predict_blocks(model)


def _ref_encode_array(data, abs_eb, block_size, radius):
    """One array -> (codes, selection, anchors, lorenzo outliers, regression
    outliers, regression coefficients, reconstruction)."""
    ndim = data.ndim
    codes_parts, selection, anchors, lor_out, reg_out, reg_coeffs = [], [], [], [], [], []
    reconstruction = np.empty_like(data)
    for region_sl in _ref_region_slices(data.shape, block_size):
        region = data[region_sl]
        block_shape = tuple(min(b, s) for b, s in zip(block_size, region.shape))
        blocks = _ref_split(region, block_shape)

        q = np.rint(region / (2.0 * abs_eb)).astype(np.int64)
        deltas = q.copy()
        for axis in range(ndim):
            prepend_shape = list(deltas.shape)
            prepend_shape[axis] = 1
            deltas = np.diff(deltas, axis=axis,
                             prepend=np.zeros(prepend_shape, dtype=np.int64))
        corner = (0,) * ndim
        anchor = np.int64(deltas[corner])
        deltas[corner] = 0
        recon_lorenzo = q * (2.0 * abs_eb)
        lorenzo_bits = float(np.sum(2.0 * np.log2(1.0 + np.abs(deltas)) + 1.0)) + 64.0

        model, preds = _ref_fit_and_predict(blocks, abs_eb)
        residuals = blocks - preds
        reg_raw = np.rint(residuals / (2.0 * abs_eb)).astype(np.int64)
        reg_recon_err = reg_raw * (2.0 * abs_eb)
        reg_outlier_mask = (np.abs(reg_raw) >= radius) | \
            (np.abs(reg_recon_err - residuals) > abs_eb * (1 + 1e-12))
        recon_regression = preds + np.where(reg_outlier_mask, residuals, reg_recon_err)
        regression_bits = float(
            np.sum(2.0 * np.log2(1.0 + np.abs(np.where(reg_outlier_mask, 0, reg_raw))) + 1.0)
            + 64.0 * reg_outlier_mask.sum()
            + 32.0 * (ndim + 1) * blocks.shape[0])

        use_regression = bool(regression_bits < lorenzo_bits)
        selection.append(use_regression)
        if use_regression:
            codes = np.where(reg_outlier_mask, 0, reg_raw + radius).astype(np.uint32)
            codes_parts.append(codes.reshape(codes.shape[0], -1).ravel())
            reg_out.append(residuals[reg_outlier_mask])
            reg_coeffs.append(model.coefficients)
            reconstruction[region_sl] = _ref_merge(recon_regression, region.shape, block_shape)
        else:
            lor_outlier_mask = np.abs(deltas) >= radius
            codes = np.where(lor_outlier_mask, 0, deltas + radius).astype(np.uint32)
            codes_parts.append(codes.ravel())
            anchors.append(anchor)
            lor_out.append(deltas[lor_outlier_mask])
            reconstruction[region_sl] = recon_lorenzo

    def cat(parts, empty):
        return np.concatenate(parts) if parts else empty

    return (np.concatenate(codes_parts),
            np.asarray(selection, dtype=np.uint8),
            np.asarray(anchors, dtype=np.int64),
            cat(lor_out, np.zeros(0, np.int64)),
            cat(reg_out, np.zeros(0, np.float64)),
            cat(reg_coeffs, np.zeros((0, ndim + 1), np.float64)),
            reconstruction)


def _ref_compress_many(comp, arrays, shared_encoding, value_range, codec):
    """The reference's payload and reconstructions.  Only the predictor is
    the reference's: the container is written by the compressor's own
    ``_serialize`` from the per-array results put end to end."""
    input_dtype = str(np.asarray(arrays[0]).dtype)
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if value_range is None:
        value_range = (max(float(a.max()) for a in arrays)
                       - min(float(a.min()) for a in arrays))
    abs_eb = comp.error_bound.resolve(value_range=value_range)
    block_size = comp._block_size_for(arrays[0].ndim)
    per_array = [_ref_encode_array(a, abs_eb, block_size, comp.radius) for a in arrays]
    side = {name: np.concatenate([e[1 + k] for e in per_array])
            for k, name in enumerate(sz_lr._SIDE)}
    counts = np.asarray([[len(e[1 + k]) for k in range(len(sz_lr._SIDE))] + [e[0].size]
                         for e in per_array], dtype=np.int64)
    payload, _ = comp._serialize([a.shape for a in arrays], [e[0] for e in per_array],
                                 side, counts, abs_eb, shared_encoding, input_dtype, codec=codec)
    return payload, [e[6] for e in per_array], abs_eb


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: extents below, equal to, and not a multiple of the block sizes 4 and 6
EXTENTS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13]
KINDS = ["smooth", "noisy", "constant", "outliers", "spiked_plane"]


def _field(kind, shape, rng):
    grids = np.meshgrid(*[np.linspace(0.0, 2.0, s) for s in shape], indexing="ij")
    smooth = sum(np.sin((k + 1.3) * g + rng.uniform(0, 3)) for k, g in enumerate(grids))
    if kind == "smooth":
        return smooth + 0.4 * grids[0]
    if kind == "noisy":
        return smooth + 0.3 * rng.standard_normal(shape)
    if kind == "constant":
        return np.full(shape, rng.uniform(-5, 5))
    if kind == "spiked_plane":
        # a plane the regression fits, and one cell it cannot: the case that
        # stores regression outliers (raw float64 residuals)
        out = sum(rng.uniform(0.5, 2.0) * s * g for s, g in zip(shape, grids))
        out = out + 0.05 * rng.standard_normal(shape)
        out.reshape(-1)[rng.integers(0, out.size)] += rng.uniform(20, 60)
        return out
    spikes = rng.random(shape) < 0.2
    return smooth + spikes * rng.standard_normal(shape) * 50.0


@st.composite
def calls(draw):
    ndim = draw(st.integers(1, 3))
    block_size = draw(st.sampled_from([4, 6, (4, 6, 3)[:ndim], (6, 2, 5)[:ndim]]))
    pool = draw(st.lists(st.tuples(*[st.sampled_from(EXTENTS)] * ndim),
                         min_size=1, max_size=3))
    shapes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=len(shapes), max_size=len(shapes)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrays = [_field(kind, shape, rng) for kind, shape in zip(kinds, shapes)]
    return {
        "arrays": arrays,
        "block_size": block_size,
        # a small radius turns the spikes (and rough residuals) into outliers
        "radius": draw(st.sampled_from([4, 64, 32768])),
        "error_bound": draw(st.sampled_from([1e-2, 1e-3])),
        "shared": draw(st.booleans()),
        "carried": draw(st.booleans()),
        "given_range": draw(st.booleans()),
    }


def _compressor(call):
    return SZLRCompressor(call["error_bound"], block_size=call["block_size"],
                          radius=call["radius"])


@given(calls())
@settings(max_examples=150, deadline=None)
def test_batched_encoder_equals_per_array_reference(call):
    arrays = call["arrays"]
    value_range = None
    if call["given_range"]:
        value_range = float(max(a.max() for a in arrays) - min(a.min() for a in arrays))
    codec = None
    if call["carried"]:
        # a table from an earlier chunk: covers this call's symbols or not
        earlier = _compressor(call)
        earlier.compress_many([a + 0.01 for a in arrays], value_range=value_range)
        codec = earlier.last_shared_codec

    comp = _compressor(call)
    buffer, recons = comp.compress_many_with_reconstruction(
        arrays, shared_encoding=call["shared"], value_range=value_range, codec=codec)
    ref_payload, ref_recons, abs_eb = _ref_compress_many(
        _compressor(call), arrays, call["shared"], value_range, codec)

    assert buffer.payload == ref_payload
    decoded = comp.decompress_many(buffer)
    assert len(recons) == len(ref_recons) == len(decoded) == len(arrays)
    for original, recon, ref_recon, dec in zip(arrays, recons, ref_recons, decoded):
        assert recon.shape == original.shape
        np.testing.assert_array_equal(recon, ref_recon)
        np.testing.assert_array_equal(dec, recon)
        assert np.max(np.abs(dec - original)) <= abs_eb * (1 + 1e-9)


@given(calls())
@settings(max_examples=60, deadline=None)
def test_reference_payloads_decode_through_the_batched_decoder(call):
    payload, ref_recons, _ = _ref_compress_many(
        _compressor(call), call["arrays"], call["shared"], None, None)
    decoded = _compressor(call).decompress_many(payload)
    for dec, ref_recon in zip(decoded, ref_recons):
        np.testing.assert_array_equal(dec, ref_recon)


def test_regression_outliers_are_stored_alike():
    """The rare stream: a regression region with outliers, in a stack."""
    rng = np.random.default_rng(3)
    arrays = [_field("spiked_plane", (12, 12, 12), rng) for _ in range(12)]
    comp = SZLRCompressor(1e-3, block_size=6, radius=64)
    _, side, _, _ = comp._encode_batch(arrays, comp.error_bound.resolve(value_range=100.0))
    assert side["regression_outliers"].size > 0
    buffer, recons = comp.compress_many_with_reconstruction(arrays, value_range=100.0)
    ref_payload, ref_recons, _ = _ref_compress_many(comp, arrays, True, 100.0, None)
    assert buffer.payload == ref_payload
    for recon, ref_recon, dec in zip(recons, ref_recons, comp.decompress_many(buffer)):
        np.testing.assert_array_equal(recon, ref_recon)
        np.testing.assert_array_equal(dec, recon)


def test_grouping_does_not_change_an_arrays_streams():
    """An array compresses to the same reconstruction alone or in a stack."""
    rng = np.random.default_rng(7)
    arrays = [_field(kind, (13, 9, 6), rng) for kind in KINDS * 2]
    vrange = float(max(a.max() for a in arrays) - min(a.min() for a in arrays))
    comp = SZLRCompressor(1e-3, block_size=4, radius=64)
    _, together = comp.compress_many_with_reconstruction(arrays, value_range=vrange)
    for array, recon in zip(arrays, together):
        _, alone = comp.compress_many_with_reconstruction([array], value_range=vrange)
        np.testing.assert_array_equal(alone[0], recon)


# ----------------------------------------------------------------------
# the regression module under the batch
# ----------------------------------------------------------------------
def test_one_fit_per_shape_group_and_region(monkeypatch):
    calls_seen = []
    real = regression.fit_and_predict

    def counting(blocks, eb):
        calls_seen.append(blocks.shape)
        return real(blocks, eb)

    monkeypatch.setattr(regression, "fit_and_predict", counting)
    rng = np.random.default_rng(0)
    # 16/8 unit blocks with block size 6: 16 -> two segments, 8 -> two segments
    shapes = [(16, 16, 16)] * 5 + [(16, 8, 16)] * 3 + [(16, 16, 16)] * 2 + [(6, 6, 6)]
    arrays = [_field("noisy", s, rng) for s in shapes]
    SZLRCompressor(1e-3, block_size=6).compress_many(arrays)
    assert len(calls_seen) == 8 + 8 + 1          # regions per distinct shape
    # every array of a shape went into the same calls
    assert sum(s[0] for s in calls_seen if s[1:] == (6, 6, 6)) == 7 * 8 + 3 * 4 + 1


def test_memoised_fit_matrix_is_read_only_and_keyed_by_shape():
    first = regression._fit_matrix((4, 4, 4))
    assert first.flags.writeable is False
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    other = regression._fit_matrix((4, 4, 2))
    assert other is not first and other.shape == (4, 32)
    assert regression._fit_matrix((4, 4, 4)) is first
    for shape in [(4, 4, 4), (4, 4, 2), (6,), (3, 5)]:
        np.testing.assert_array_equal(regression._design_matrix(shape), _ref_design(shape))
        np.testing.assert_array_equal(regression._fit_matrix(shape),
                                      np.linalg.pinv(_ref_design(shape)))


@pytest.mark.parametrize("block_shape", [(6,), (4, 3), (6, 6, 6), (1, 4, 2)])
def test_prediction_does_not_depend_on_the_batch(block_shape):
    """A block's plane is the same alone or among a thousand: the decoder
    stacks other blocks than the encoder did."""
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((1000, len(block_shape) + 1)) * 100
    together = regression.predict_blocks(regression.RegressionModel(coeffs, block_shape))
    assert together.shape == (1000,) + block_shape
    for lo, hi in [(0, 1), (17, 18), (3, 5), (500, 1000)]:
        part = regression.predict_blocks(regression.RegressionModel(coeffs[lo:hi], block_shape))
        np.testing.assert_array_equal(part, together[lo:hi])
    design = _ref_design(block_shape)
    np.testing.assert_allclose(together.reshape(1000, -1), coeffs @ design.T,
                               rtol=0, atol=1e-12 * np.abs(coeffs).max() * 8)


# ----------------------------------------------------------------------
# refusals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value_range", [None, 1.0])
def test_empty_member_is_refused_up_front(value_range):
    comp = SZLRCompressor(1e-3)
    for arrays in ([np.zeros((0, 4))], [np.ones((4, 4)), np.zeros((4, 0))]):
        with pytest.raises(ValueError, match="cannot compress an empty array"):
            comp.compress_many(arrays, value_range=value_range)


def test_mixed_dimensions_are_refused():
    with pytest.raises(ValueError, match="same number of dimensions"):
        SZLRCompressor(1e-3).compress_many([np.ones((4, 4)), np.ones((4, 4, 4))])
