"""One predictor pass per call: the batched SZ_L/R against its references.

The reference encoder below is the encoder as it was before arrays were
stacked — one array and one corner region at a time, the design matrix and its
pseudo-inverse rebuilt on every fit.  The shipped encoder must produce the
same bytes and the same reconstructions however the arrays of a call are
grouped, and the shipped decoder must read what the reference wrote.

The reference decoder is the decoder as it was before it worked in whole-chunk
passes — one (shape group, region) at a time, a cursor per array and side
stream.  The shipped decoder must return the same bits.
"""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import container as ctn
from repro.compress import regression
from repro.compress import sz_lr
from repro.compress.base import BOUND_SLACK, stored_dtype
from repro.compress.sz_lr import SZLRCompressor
from repro.errors import CorruptFileError


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


def _from_blocks(blocks, region):
    """``(m * nblocks,) + block_shape`` -> ``(m,) + region.shape``: the inverse
    of ``sz_lr._to_blocks``."""
    ndim = len(region.shape)
    axes = (0,) + tuple(a for i in range(ndim) for a in (1 + i, 1 + ndim + i))
    return (blocks.reshape((-1,) + region.grid + region.block_shape)
            .transpose(axes).reshape((-1,) + region.shape))


def _ref_design(block_shape):
    coords = np.meshgrid(*[np.arange(s, dtype=np.float64) - (s - 1) / 2.0
                           for s in block_shape], indexing="ij")
    columns = [np.ones(int(np.prod(block_shape)))]
    columns.extend(c.ravel() for c in coords)
    return np.stack(columns, axis=1)


def _ref_fit_and_predict(blocks, eb):
    block_shape = blocks.shape[1:]
    # the fixed-order product the shipped fit uses (a BLAS product's rounding
    # depends on the batch: test_fit_does_not_depend_on_the_batch)
    coeffs = np.einsum("ij,kj->ik", blocks.reshape(blocks.shape[0], -1),
                       np.linalg.pinv(_ref_design(block_shape)))
    quantised = regression.quantize_coefficients(coeffs, eb, block_shape)
    model = regression.RegressionModel(coefficients=quantised, block_shape=block_shape)
    return model, regression.predict_blocks(model)


def _ref_encode_array(data, abs_eb, block_size, radius):
    """One array -> (codes, selection, anchors, lorenzo outliers, regression
    outliers, regression coefficients, reconstruction, SZ blocks of the
    regions whose Lorenzo estimate is above regression's floor).

    Both paths are evaluated for every region; the floor (a bit per cell plus
    the coefficients) is only checked against, never used to skip."""
    ndim = data.ndim
    codes_parts, selection, anchors, lor_out, reg_out, reg_coeffs = [], [], [], [], [], []
    trial_blocks = 0
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
        floor = region.size + 32.0 * (ndim + 1) * blocks.shape[0]
        assert regression_bits >= floor
        trial_blocks += blocks.shape[0] if lorenzo_bits > floor else 0

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
            reconstruction,
            trial_blocks)


def _frame(comp, shapes, codes, side, counts, abs_eb, shared, dtype="float64"):
    """A standalone buffer of the given streams: the compressor's own record
    of them, wrapped with its recipe and the shapes (as ``compress_many`` does)."""
    recipe = comp.recipe(abs_eb, dtype, shared)
    record, _ = comp._serialize(shapes, codes, side, counts, recipe)
    return comp.standalone(record, recipe, shapes).payload


def _one_call(comp, arrays, **options):
    """``compress_many`` with its reconstructions: one chunk's standalone
    buffer and the reconstruction of each array."""
    ((record, recons, recipe, _),) = comp.compress_many_with_reconstruction([arrays], **options)
    return comp.standalone(record, recipe, [r.shape for r in recons]), recons


def _ref_compress_many(comp, arrays, shared_encoding, value_range):
    """The reference's payload and reconstructions.  Only the predictor is
    the reference's: the record is written by the compressor's own
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
    payload = _frame(comp, [a.shape for a in arrays], [e[0] for e in per_array],
                     side, counts, abs_eb, shared_encoding, input_dtype)
    return payload, [e[6] for e in per_array], abs_eb


# ----------------------------------------------------------------------
# the reference decoder: per shape group and region, cursors into the streams
# (the shipped decoder of the parent commit, kept verbatim)
# ----------------------------------------------------------------------
def _ref_decode_batch(self, shapes, abs_eb, codes, side, counts):
    """Invert :meth:`_encode_batch` from the same region plan, one stack
    per shape; ``side`` and ``counts`` are the stored concatenations."""
    radius = self.radius
    two_eb = 2.0 * abs_eb
    starts = np.cumsum(counts[:, :len(sz_lr._SIDE)], axis=0) - counts[:, :len(sz_lr._SIDE)]
    out: list = [None] * len(shapes)

    def fill_outliers(values: np.ndarray, stored: np.ndarray, name: str,
                      cursor: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite the cells of ``values`` whose ``stored`` code is 0
        from the ``name`` stream (one row per entry of ``rows``): array
        ``rows[i]`` reads on from its cursor, which moves past what it read."""
        outlier = stored == 0
        per_row = outlier.sum(axis=1)
        first = np.cumsum(per_row) - per_row
        start = cursor[rows]
        cursor[rows] = start + per_row
        values[outlier] = side[name][
            np.repeat(start - first, per_row) + np.arange(per_row.sum())]

    for shape, members in sz_lr._group_by_shape(shapes).items():
        _, regions = sz_lr._region_plan(shape, self._block_size_for(len(shape)))
        stack_codes = np.stack([codes[i] for i in members])
        at_selection, at_anchor, at_lorenzo, at_regression, at_coeff = \
            starts[members].T.copy()
        values = np.empty((len(members),) + shape, dtype=np.float64)
        cell = 0
        for region in regions:
            region_codes = stack_codes[:, cell:cell + region.volume]
            cell += region.volume
            use_regression = side["selection"][at_selection].astype(bool)
            at_selection += 1

            own = np.flatnonzero(~use_regression)
            stored = region_codes[own]
            lor = np.subtract(stored, radius, dtype=np.int64)
            fill_outliers(lor, stored, "lorenzo_outliers", at_lorenzo, own)
            lor[:, 0] = side["anchors"][at_anchor[own]]
            at_anchor[own] += 1
            lor = lor.reshape((-1,) + region.shape)
            for axis in range(1, lor.ndim):
                np.cumsum(lor, axis=axis, out=lor)
            values[(own,) + region.slices] = lor * two_eb

            own = np.flatnonzero(use_regression)
            if own.size:
                stored = region_codes[own]
                errors = np.subtract(stored, radius, dtype=np.int64) * two_eb
                fill_outliers(errors, stored, "regression_outliers", at_regression, own)
                rows = at_coeff[own][:, None] + np.arange(region.nblocks)
                at_coeff[own] += region.nblocks
                preds = regression.predict_blocks(regression.RegressionModel(
                    coefficients=side["regression_coeffs"][rows.ravel()],
                    block_shape=region.block_shape))
                values[(own,) + region.slices] = _from_blocks(
                    preds + errors.reshape(preds.shape), region)
        for row, index in enumerate(members):
            out[index] = values[row]
    return out


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
#: extents below, equal to, and not a multiple of the block sizes 4 and 6
EXTENTS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13]
KINDS = ["smooth", "noisy", "constant", "outliers", "spiked_plane", "rough_plane"]


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
    if kind == "rough_plane":
        # noise Lorenzo amplifies and a plane fit does not, plus spikes: regions
        # that choose regression *and* store outliers, next to ones that do not
        out = sum(rng.uniform(0.5, 2.0) * s * g for s, g in zip(shape, grids))
        out = out + 0.5 * rng.standard_normal(shape)
        return out + (rng.random(shape) < 0.01) * rng.uniform(20, 60)
    spikes = rng.random(shape) < 0.2
    return smooth + spikes * rng.standard_normal(shape) * 50.0


@st.composite
def calls(draw):
    ndim = draw(st.integers(1, 3))
    block_size = draw(st.sampled_from([4, 6, (4, 6, 3)[:ndim], (6, 2, 5)[:ndim]]))
    if draw(st.booleans()):
        pool = draw(st.lists(st.tuples(*[st.sampled_from(EXTENTS)] * ndim),
                             min_size=1, max_size=3))
        shapes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    else:
        # a call that pools: three shapes k * block + r (one r per axis), so
        # their full-block regions and their remainder regions share block
        # shapes, and every block shape's fit mixes shape groups
        sizes = (block_size,) * ndim if isinstance(block_size, int) else block_size
        rest = [draw(st.integers(0, b - 1)) for b in sizes]
        multiples = draw(st.lists(st.tuples(*[st.integers(1, 3 if ndim == 1 else 2)] * ndim),
                                  min_size=3, max_size=3, unique=True))
        pool = [tuple(k * b + r for k, b, r in zip(ks, sizes, rest)) for ks in multiples]
        shapes = draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=4))))
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
    comp = _compressor(call)
    buffer, recons = _one_call(comp, arrays, shared_encoding=call["shared"],
                               value_range=value_range)
    ref_payload, ref_recons, abs_eb = _ref_compress_many(
        _compressor(call), arrays, call["shared"], value_range)

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
        _compressor(call), call["arrays"], call["shared"], None)
    decoded = _compressor(call).decompress_many(payload)
    for dec, ref_recon in zip(decoded, ref_recons):
        np.testing.assert_array_equal(dec, ref_recon)


@pytest.mark.parametrize("block_size", [6, (4, 6, 5)])
def test_a_pooled_call_equals_the_reference(monkeypatch, block_size):
    """Three shapes whose regions share block shapes, so each block shape's
    one fit mixes shape groups; regression wins several regions of one array
    and both outlier streams are stored."""
    comp = SZLRCompressor(1e-3, block_size=block_size, radius=64)
    sizes = comp._block_size_for(3)
    pool = [tuple(k * b + r for k, b, r in zip(ks, sizes, (1, 3, 2)))
            for ks in [(1, 1, 1), (2, 1, 1), (1, 2, 2)]]
    kinds = ["rough_plane", "outliers", "rough_plane", "noisy", "rough_plane", "outliers",
             "spiked_plane"]
    rng = np.random.default_rng(21)
    arrays = [_field(kind, pool[i % 3], rng) for i, kind in enumerate(kinds)]
    fitted = []
    real = regression.fit_and_predict
    monkeypatch.setattr(regression, "fit_and_predict",
                        lambda blocks, eb: fitted.append(blocks.shape[1:]) or real(blocks, eb))
    buffer, recons = _one_call(comp, arrays, value_range=100.0)
    regions = [r.block_shape for shape in pool for r in sz_lr._region_plan(shape, sizes)[1]]
    assert len(regions) == 3 * len(set(regions))       # every block shape in all three
    assert len(fitted) == len(set(fitted)) and set(fitted) <= set(regions)
    assert tuple(sizes) in fitted              # full blocks of all three shapes, one fit
    _, side, counts, _ = comp._encode_batch(arrays, comp.error_bound.resolve(value_range=100.0))
    assert side["lorenzo_outliers"].size and side["regression_outliers"].size
    per_array = np.split(side["selection"], np.cumsum(counts[:, 0])[:-1])
    assert max(int(chosen.sum()) for chosen in per_array) >= 2
    ref_payload, ref_recons, _ = _ref_compress_many(comp, arrays, True, 100.0)
    assert buffer.payload == ref_payload
    assert _bits(recons) == _bits(ref_recons)


@pytest.mark.parametrize("block_size", [6, (4, 6, 5)])
def test_unit_blocks_of_the_workload_equal_the_reference(monkeypatch, block_size):
    """The data the writer hands the encoder: unit blocks with extents 16 and 8
    on each axis (eight shapes; 27 block shapes under block size 6, nine under
    (4, 6, 5)), rough enough that nearly every region is tried, regression
    wins some of them, and both outlier streams are stored."""
    rng = np.random.default_rng(9)
    shapes = [(a, b, c) for a in (16, 8) for b in (16, 8) for c in (16, 8)] * 2
    arrays = [_field("rough_plane" if i % 2 and i % 5 else "outliers", shape, rng)
              for i, shape in enumerate(shapes)]
    comp = SZLRCompressor(1e-3, block_size=block_size, radius=64)
    sizes = comp._block_size_for(3)
    regions = [r for shape in set(shapes) for r in sz_lr._region_plan(shape, sizes)[1]]
    assert len({r.block_shape for r in regions}) == (27 if block_size == 6 else 9)
    fitted = []
    real = regression.fit_and_predict
    monkeypatch.setattr(regression, "fit_and_predict",
                        lambda blocks, eb: fitted.append(blocks.shape[1:]) or real(blocks, eb))
    buffer, recons = _one_call(comp, arrays, value_range=10.0)
    ref_payload, ref_recons, abs_eb = _ref_compress_many(comp, arrays, True, 10.0)
    assert buffer.payload == ref_payload
    assert _bits(recons) == _bits(ref_recons)
    # one fit per block shape, and every block shape has a tried region
    assert sorted(fitted) == sorted({r.block_shape for r in regions})
    tried = sum(_ref_encode_array(a, abs_eb, sizes, 64)[7] for a in arrays)
    assert tried >= 0.9 * sum(r.nblocks for shape in shapes
                              for r in sz_lr._region_plan(shape, sizes)[1])
    _, side, _, _ = comp._encode_batch(arrays, abs_eb)
    assert 0 < side["selection"].sum() < side["selection"].size
    assert side["lorenzo_outliers"].size and side["regression_outliers"].size


def test_regression_outliers_are_stored_alike():
    """The rare stream: a regression region with outliers, in a stack."""
    rng = np.random.default_rng(3)
    arrays = [_field("spiked_plane", (12, 12, 12), rng) for _ in range(12)]
    comp = SZLRCompressor(1e-3, block_size=6, radius=64)
    _, side, _, _ = comp._encode_batch(arrays, comp.error_bound.resolve(value_range=100.0))
    assert side["regression_outliers"].size > 0
    buffer, recons = _one_call(comp, arrays, value_range=100.0)
    ref_payload, ref_recons, _ = _ref_compress_many(comp, arrays, True, 100.0)
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
    ((_, together, _, _),) = comp.compress_many_with_reconstruction([arrays], value_range=vrange)
    for array, recon in zip(arrays, together):
        ((_, alone, _, _),) = comp.compress_many_with_reconstruction([[array]], value_range=vrange)
        np.testing.assert_array_equal(alone[0], recon)


def _successive_calls(comp, chunks, shared_encoding, value_range):
    """The reference for a batch of chunks: each chunk predicted on its own and
    serialised with the table of the chunk before it handed in (what the
    filter's one call per chunk did before the batch door)."""
    abs_eb = comp.error_bound.resolve(value_range=value_range)
    out, codec = [], None
    for arrays in chunks:
        codes, side, counts, recons = comp._encode_batch(
            [np.asarray(a, dtype=np.float64) for a in arrays], abs_eb)
        recipe = comp.recipe(abs_eb, stored_dtype(arrays[0]), shared_encoding)
        record, codec = comp._serialize([a.shape for a in arrays], codes, side, counts,
                                        recipe, codec=codec)
        out.append((record, recons, recipe))
    return out


@given(calls(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_batch_of_chunks_equals_one_call_per_chunk(call, data):
    arrays = call["arrays"]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(arrays) - 1), max_size=3))
                  if len(arrays) > 1 else [])
    chunks = [arrays[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(arrays)])]
    value_range = float(max(a.max() for a in arrays) - min(a.min() for a in arrays))
    comp = _compressor(call)
    together = comp.compress_many_with_reconstruction(
        chunks, shared_encoding=call["shared"],
        value_range=None if call["given_range"] else value_range)
    one_by_one = _successive_calls(_compressor(call), chunks, call["shared"], value_range)
    assert len(together) == len(chunks)
    for (record, recons, recipe, _), (ref_record, ref_recons, ref_recipe) in zip(
            together, one_by_one):
        assert record == ref_record and recipe == ref_recipe
        assert _bits(recons) == _bits(ref_recons)


def test_the_carried_table_is_rebuilt_mid_batch_and_carried_on(monkeypatch):
    """A chunk with a symbol the carried table lacks builds its own table, and
    the chunks after it are handed that one — as successive calls did."""
    from repro.compress.huffman import HuffmanCodec

    rng = np.random.default_rng(12)
    calm = [_field("smooth", (8, 8, 8), rng) for _ in range(2)]
    wild = [_field("outliers", (8, 8, 8), rng) for _ in range(2)]
    chunks = [calm, wild, [wild[0] + 1e-6, calm[0]]]
    built = []
    real = HuffmanCodec.from_multiple
    monkeypatch.setattr(HuffmanCodec, "from_multiple",
                        staticmethod(lambda codes: built.append(1) or real(codes)))
    comp = SZLRCompressor(1e-3, block_size=6, radius=64)
    together = comp.compress_many_with_reconstruction(chunks, value_range=100.0)
    assert len(built) == 2                      # chunk 0 builds, chunk 1 rebuilds, 2 reuses
    del built[:]
    one_by_one = _successive_calls(SZLRCompressor(1e-3, block_size=6, radius=64),
                                   chunks, True, 100.0)
    assert len(built) == 2
    assert [r for r, *_ in together] == [r for r, *_ in one_by_one]


def test_a_flat_list_of_arrays_is_not_a_list_of_chunks():
    comp = SZLRCompressor(1e-3)
    arrays = [np.ones((4, 4, 4)), np.zeros((4, 4, 4))]
    with pytest.raises(TypeError, match="lists of arrays"):
        comp.compress_many_with_reconstruction(arrays)
    with pytest.raises(ValueError, match="at least one array"):
        comp.compress_many_with_reconstruction([arrays, []])


def test_a_chunk_of_mixed_dtypes_is_refused_before_anything_is_encoded(monkeypatch):
    """A chunk decodes through one dtype: a float64 array beside a float32 one
    came back cast to float32, 3e-5 off at a bound of 1e-9."""
    rng = np.random.default_rng(6)
    a32 = rng.standard_normal((8, 8, 8)).astype(np.float32)
    a64 = 1e3 + rng.standard_normal((8, 8, 8))
    comp = SZLRCompressor(1e-9, mode="abs")
    encoded = []
    real = SZLRCompressor._encode_batch
    monkeypatch.setattr(SZLRCompressor, "_encode_batch",
                        lambda self, *args: encoded.append(1) or real(self, *args))
    with pytest.raises(ValueError, match="float32 and float64"):
        comp.compress_many_with_reconstruction([[a64], [a32, a64]])
    assert encoded == []
    # chunks of one dtype each may differ from one another, and each holds the
    # bound in its own dtype: float32's cast too, below its spacing (1e-9) and above it
    for eb in (1e-9, 1e-3):
        comp = SZLRCompressor(eb, mode="abs")
        for (record, _, recipe, _), array in zip(
                comp.compress_many_with_reconstruction([[a32], [a64]]), [a32, a64]):
            (decoded,) = comp.decompress_many(comp.standalone(record, recipe, [array.shape]))
            assert decoded.dtype == array.dtype
            assert np.max(np.abs(decoded.astype(np.float64) - array)) <= eb * (1 + BOUND_SLACK)



# ----------------------------------------------------------------------
# the whole-chunk decoder against the per-region reference
# ----------------------------------------------------------------------
def _unwrapped(payload):
    """``(recipe, shapes, record)`` of a standalone buffer."""
    cont = ctn.unpack_container(payload)
    return cont.meta, [tuple(shape) for shape in cont.meta["shapes"]], cont.sections["record"]


def _decode_job(comp, payloads, select=None):
    """The records of standalone buffers of one recipe, parsed and decoded as
    one job, each array cast to the recipe's dtype (as ``decompress_many``)."""
    recipe, shapes, records = zip(*map(_unwrapped, payloads))
    assert all(dict(r, shapes=None) == dict(recipe[0], shapes=None) for r in recipe)
    parsed = [comp.parse_record(record, s, recipe[0]) for record, s in zip(records, shapes)]
    for arrays in comp.decode_parsed(parsed, recipe[0], select):
        yield [a.astype(recipe[0]["dtype"]) for a in arrays]


def _deserialize(comp, payload):
    """``(meta, codes per array, side streams, counts)``: parse, then the entropy pass."""
    recipe, shapes, record = _unwrapped(payload)
    shapes, pairs, side, counts = comp.parse_record(record, shapes, recipe)
    return dict(recipe, shapes=shapes), ctn.decode_huffman([pairs])[0], side, counts


def _bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _decode_both(comp, payload):
    meta, codes, side, counts = _deserialize(comp, payload)
    args = ([tuple(shape) for shape in meta["shapes"]], float(meta["abs_eb"]),
            codes, side, counts)
    return comp._decode_batch(*args), _ref_decode_batch(comp, *args), side


@given(calls())
@settings(max_examples=150, deadline=None)
def test_whole_chunk_decoder_equals_per_region_reference(call):
    comp = _compressor(call)
    buffer = comp.compress_many(call["arrays"], shared_encoding=call["shared"])
    decoded, reference, _ = _decode_both(comp, buffer.payload)
    assert [a.shape for a in decoded] == [a.shape for a in call["arrays"]]
    assert [a.dtype for a in decoded] == [a.dtype for a in reference]
    assert _bits(decoded) == _bits(reference)


@st.composite
def consistent_streams(draw):
    """Streams no encoder wrote but every decoder must read alike: the choice
    drawn per (array, region), zero codes sprinkled over both paths, values
    large enough that the Lorenzo sums wrap around int64."""
    ndim = draw(st.integers(1, 3))
    block_size = draw(st.sampled_from([4, 6, (4, 6, 3)[:ndim], (6, 2, 5)[:ndim]]))
    radius = draw(st.sampled_from([4, 64, 32768]))
    pool = draw(st.lists(st.tuples(*[st.sampled_from(EXTENTS)] * ndim),
                         min_size=1, max_size=3))
    shapes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    comp = SZLRCompressor(1e-3, block_size=block_size, radius=radius)
    magnitude = draw(st.sampled_from([2 ** 10, 2 ** 40, 2 ** 62]))
    codes, side, counts = [], {name: [] for name in sz_lr._SIDE}, []
    for shape in shapes:
        _, regions = sz_lr._region_plan(shape, comp._block_size_for(ndim))
        array_codes = rng.integers(0, 2 * radius, math.prod(shape)).astype(np.uint32)
        array_codes[rng.random(array_codes.size) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = 0
        chosen = rng.random(len(regions)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        held = np.zeros(5, dtype=np.int64)
        cell = 0
        for region, regression_chosen in zip(regions, chosen):
            zeros = int((array_codes[cell:cell + region.volume] == 0).sum())
            cell += region.volume
            mine = {"selection": np.array([regression_chosen], dtype=np.uint8)}
            if regression_chosen:
                mine["regression_outliers"] = rng.standard_normal(zeros) * 1e3
                mine["regression_coeffs"] = (rng.standard_normal((region.nblocks, ndim + 1))
                                             * 100).astype(np.float32).astype(np.float64)
            else:
                mine["anchors"] = rng.integers(-magnitude, magnitude, 1)
                mine["lorenzo_outliers"] = rng.integers(-magnitude, magnitude, zeros)
            for column, name in enumerate(sz_lr._SIDE):
                if name in mine:
                    side[name].append(mine[name])
                    held[column] += len(mine[name])
        codes.append(array_codes)
        counts.append(held.tolist() + [array_codes.size])
    empty = {"selection": np.zeros(0, np.uint8), "anchors": np.zeros(0, np.int64),
             "lorenzo_outliers": np.zeros(0, np.int64),
             "regression_outliers": np.zeros(0, np.float64),
             "regression_coeffs": np.zeros((0, ndim + 1), np.float64)}
    side = {name: np.concatenate(parts + [empty[name]]) for name, parts in side.items()}
    return comp, shapes, draw(st.sampled_from([1e-3, 0.25, 7.0])), codes, side, \
        np.asarray(counts, dtype=np.int64)


@given(consistent_streams())
@settings(max_examples=150, deadline=None)
def test_whole_chunk_decoder_equals_reference_on_any_consistent_streams(streams):
    comp, *args = streams
    with np.errstate(over="ignore"):
        assert _bits(comp._decode_batch(*args)) == _bits(_ref_decode_batch(comp, *args))


@pytest.mark.parametrize("block_size", [6, (6, 4, 5)])
def test_mixed_choices_and_both_outlier_streams_in_one_group(block_size):
    """The hard case as the encoder writes it: arrays of one shape that choose
    differently region by region, outliers on the Lorenzo and the regression path."""
    rng = np.random.default_rng(11)
    shapes = [(13, 9, 8)] * 6 + [(8, 8, 8)] * 3 + [(13, 9, 8)] * 2
    kinds = ["rough_plane", "outliers", "noisy", "rough_plane", "smooth", "outliers",
             "rough_plane", "outliers", "constant", "noisy", "rough_plane"]
    arrays = [_field(kind, shape, rng) for kind, shape in zip(kinds, shapes)]
    comp = SZLRCompressor(1e-3, block_size=block_size, radius=64)
    buffer = comp.compress_many(arrays, value_range=100.0)
    decoded, reference, side = _decode_both(comp, buffer.payload)
    assert side["lorenzo_outliers"].size and side["regression_outliers"].size
    nregions = len(sz_lr._region_plan((13, 9, 8), comp._block_size_for(3))[1])
    first_group = side["selection"][:6 * nregions].reshape(6, nregions)
    assert (first_group.min(axis=0) < first_group.max(axis=0)).any()   # mixed within a region
    assert _bits(decoded) == _bits(reference)


def test_flat_plane_equals_predict_blocks_for_every_block_shape():
    """The decoder evaluates a plane per cell from the flat plan's block index
    and centred coordinates; ``predict_blocks`` is what the encoder subtracted."""
    rng = np.random.default_rng(5)
    block_shapes = [bs for ndim in (1, 2, 3)
                    for bs in itertools.product(range(1, 9), repeat=ndim)]
    assert len(block_shapes) == 8 + 64 + 512
    for block_shape in block_shapes:
        ndim = len(block_shape)
        shape = tuple(2 * b for b in block_shape)            # 2^ndim blocks, one region
        comp = SZLRCompressor(1e-3, block_size=block_shape, radius=64)
        (region,) = sz_lr._region_plan(shape, block_shape)[1]
        coeffs = (rng.standard_normal((region.nblocks, ndim + 1)) * 100).astype(np.float32)
        side = {"selection": np.ones(1, np.uint8), "anchors": np.zeros(0, np.int64),
                "lorenzo_outliers": np.zeros(0, np.int64),
                "regression_outliers": np.zeros(0, np.float64),
                "regression_coeffs": coeffs.astype(np.float64)}
        codes = rng.integers(1, 128, region.volume).astype(np.uint32)
        counts = np.array([[1, 0, 0, 0, region.nblocks, region.volume]], dtype=np.int64)
        (decoded,) = comp._decode_batch([shape], 0.25, [codes], side, counts)
        planes = regression.predict_blocks(
            regression.RegressionModel(side["regression_coeffs"], block_shape))
        errors = (codes.astype(np.int64) - 64) * 0.5
        expected = _from_blocks(planes + errors.reshape(planes.shape), region)[0]
        assert decoded.tobytes() == expected.tobytes(), block_shape


def test_flat_plan_is_read_only_and_built_once_per_shape_and_block_size():
    sz_lr._flat_plan.cache_clear()
    plan = sz_lr._flat_plan((16, 8, 13), (6, 6, 6))
    tables = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
    tables = [t for t in tables if isinstance(t, np.ndarray)] + list(plan.centred)
    assert len(tables) == 6 + 3
    for table in tables:
        assert table.flags.writeable is False
        with pytest.raises(ValueError):
            table[...] = 0
    assert sz_lr._flat_plan((16, 8, 13), (6, 6, 6)) is plan
    assert sz_lr._flat_plan((16, 8, 13), (4, 4, 4)) is not plan
    # the tables are permutations of the cells / cover regions and blocks
    cells = 16 * 8 * 13
    for name in ("lorenzo_source", "regression_source"):
        np.testing.assert_array_equal(np.sort(getattr(plan, name)), np.arange(cells))
    assert plan.region_volume.sum() == cells and plan.region_of_cell.max() == 7

    rng = np.random.default_rng(2)
    arrays = [_field("noisy", (16, 8, 13), rng) for _ in range(3)] + \
        [_field("smooth", (8, 8, 8), rng) for _ in range(2)]
    comp = SZLRCompressor(1e-3, block_size=6)
    buffer = comp.compress_many(arrays)
    before = sz_lr._flat_plan.cache_info().misses
    comp.decompress_many(buffer)
    comp.decompress_many(buffer)
    assert sz_lr._flat_plan.cache_info().misses == before + 1     # (8, 8, 8) only, once


def _unit_block_chunk(per_shape, rng):
    """One rank chunk: unit blocks over the eight 16/8 shape combinations."""
    shapes = [(a, b, c) for a in (16, 8) for b in (16, 8) for c in (16, 8)] * per_shape
    return [_field("noisy" if i % 3 else "spiked_plane", shape, rng)
            for i, shape in enumerate(shapes)]


@pytest.mark.parametrize("per_shape", [2, 4])
def test_one_reconstruction_pass_per_job_and_one_plan_per_shape(monkeypatch, per_shape):
    """A ``decode_parsed`` call reconstructs its job's records in one
    ``_decode_batch``, which takes one pass (one flat plan) per distinct
    shape of the job — however many records share it."""
    rng = np.random.default_rng(4)
    tight = SZLRCompressor(1e-3, mode="abs", block_size=6, radius=64)
    arrays = _unit_block_chunk(per_shape, rng)
    buffers = [tight.compress_many(arrays[k::3]) for k in range(3)]
    assert 0 < sum(_deserialize(tight, b.payload)[2]["selection"].sum() for b in buffers[:3])

    passes, plans = [], []
    real_decode, real_plan = SZLRCompressor._decode_batch, sz_lr._flat_plan

    def decode(self, shapes, *args):
        del plans[:]
        out = real_decode(self, shapes, *args)
        passes.append((len(shapes), sorted(plans)))
        return out

    monkeypatch.setattr(sz_lr, "_flat_plan", lambda shape, bs: plans.append(shape)
                        or real_plan(shape, bs))
    monkeypatch.setattr(SZLRCompressor, "_decode_batch", decode)
    together = list(_decode_job(tight, [b.payload for b in buffers]))
    assert passes == [(len(arrays), sorted({a.shape for a in arrays}))]
    monkeypatch.undo()
    for buffer, got in zip(buffers, together, strict=True):
        assert _bits(got) == _bits(tight.decompress_many(buffer))


# ----------------------------------------------------------------------
# the regression module under the batch
# ----------------------------------------------------------------------
def test_one_fit_per_block_shape_per_call(monkeypatch):
    calls_seen = []
    real = regression.fit_and_predict

    def counting(blocks, eb):
        calls_seen.append(blocks.shape)
        return real(blocks, eb)

    monkeypatch.setattr(regression, "fit_and_predict", counting)
    rng = np.random.default_rng(0)
    # 16/8 unit blocks with block size 6: 16 -> segments 12 + 4, 8 -> 6 + 2; the
    # eight block shapes of (16, 16, 16) are {6, 4}^3, four of (16, 8, 16)'s
    # {6, 4} x {6, 2} x {6, 4} are among them, and (6, 6, 6) is
    shapes = [(16, 16, 16)] * 5 + [(16, 8, 16)] * 3 + [(16, 16, 16)] * 2 + [(6, 6, 6)]
    arrays = [_field("noisy", s, rng) for s in shapes]
    comp = SZLRCompressor(1e-3, block_size=6)
    comp.compress_many(arrays)
    assert len(calls_seen) == 8 + 4                 # distinct block shapes of the call
    assert len({s[1:] for s in calls_seen}) == len(calls_seen)
    # every block of a block shape went into its one call, whatever its array's shape
    assert sum(s[0] for s in calls_seen if s[1:] == (6, 6, 6)) == 7 * 8 + 3 * 4 + 1
    # ... and of every chunk of the call: a dataset's rank chunks share the fits
    whole = list(calls_seen)
    del calls_seen[:]
    comp.compress_many_with_reconstruction([arrays[:4], arrays[4:9], arrays[9:]])
    assert calls_seen == whole
    del calls_seen[:]
    for chunk in (arrays[:4], arrays[4:9], arrays[9:]):
        comp.compress_many(chunk)
    assert len(calls_seen) == 8 + (8 + 4) + 8       # one call per chunk: per chunk


# ----------------------------------------------------------------------
# regression is fitted only where its floor lies below the Lorenzo estimate
# ----------------------------------------------------------------------
def _fitted_blocks(monkeypatch):
    """The SZ blocks each ``fit_and_predict`` call is handed."""
    seen = []
    real = regression.fit_and_predict
    monkeypatch.setattr(regression, "fit_and_predict",
                        lambda blocks, eb: seen.append(blocks.shape[0]) or real(blocks, eb))
    return seen


@pytest.mark.parametrize("kind", ["constant", "smooth"])
def test_regions_under_the_floor_are_not_fitted(monkeypatch, kind):
    rng = np.random.default_rng(8)
    shapes = [(16, 16, 16), (8, 16, 8), (16, 16, 16), (6, 6, 6), (13, 9, 8)]
    arrays = [_field(kind, shape, rng) for shape in shapes]
    comp = SZLRCompressor(1e-3, block_size=6, radius=64)
    fitted = _fitted_blocks(monkeypatch)
    buffer = comp.compress_many(arrays, value_range=10.0)
    payload, _, abs_eb = _ref_compress_many(comp, arrays, True, 10.0)
    assert buffer.payload == payload
    tried = sum(_ref_encode_array(a, abs_eb, (6, 6, 6), 64)[7] for a in arrays)
    assert sum(fitted) == tried
    if kind == "constant":
        assert fitted == []
    else:
        every_block = sum(r.nblocks for s in shapes for r in sz_lr._region_plan(s, (6, 6, 6))[1])
        assert 0 < tried < every_block


def _from_lorenzo_deltas(deltas):
    """The quantised field whose Lorenzo differences are ``deltas``."""
    values = deltas.copy()
    for axis in range(values.ndim):
        np.cumsum(values, axis=axis, out=values)
    return values


def test_a_row_exactly_on_the_floor_is_lorenzo_and_never_fitted(monkeypatch):
    """One 6³ block: regression's floor is 216 cells + 4 × 32 coefficient bits
    = 344.  Lorenzo costs 216 + 64 (anchor) + 2 more per delta of magnitude 1,
    so 32 such deltas sit exactly on the floor and 33 lie above it."""
    rng = np.random.default_rng(13)
    abs_eb = 1e-2

    def with_unit_deltas(k):
        deltas = np.zeros(216, dtype=np.int64)
        deltas[1 + rng.choice(215, k, replace=False)] = rng.choice([-1, 1], k)
        deltas[0] = 40                                              # the anchor
        return _from_lorenzo_deltas(deltas.reshape(6, 6, 6)) * (2 * abs_eb)

    i, j, k = np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij")
    arrays = [with_unit_deltas(32), with_unit_deltas(33), 2.0 + 0.3 * i - 0.7 * j + 0.11 * k,
              np.full((6, 6, 6), 1.5), with_unit_deltas(32)]
    comp = SZLRCompressor(abs_eb, mode="abs", block_size=6, radius=64)
    fitted = _fitted_blocks(monkeypatch)
    _, side, _, _ = comp._encode_batch(arrays, abs_eb)
    assert fitted == [2]                        # the 33-delta row and the plane, in one fit
    selection = side["selection"].tolist()
    assert selection[2] == 1 and selection[0] == selection[3] == selection[4] == 0
    buffer = comp.compress_many(arrays)
    payload, _, _ = _ref_compress_many(comp, arrays, True, None)
    assert buffer.payload == payload
    assert [e[7] for e in (_ref_encode_array(a, abs_eb, (6, 6, 6), 64) for a in arrays)] == \
        [0, 1, 1, 0, 0]


@pytest.mark.parametrize("shapes", [[(8,), (6,), (8,)], [(8, 7), (6, 6)],
                                    [(8, 8, 8), (6, 6, 6), (8, 8, 8)]])
def test_a_call_that_fits_nothing_stores_typed_empty_regression_streams(monkeypatch, shapes):
    fitted = _fitted_blocks(monkeypatch)
    arrays = [np.full(shape, 3.25) for shape in shapes]
    ndim = len(shapes[0])
    comp = SZLRCompressor(1e-3, block_size=6)
    _, side, counts, recons = comp._encode_batch(arrays, 1e-3)
    assert fitted == [] and not side["selection"].any()
    assert (side["regression_outliers"].shape, side["regression_outliers"].dtype) == \
        ((0,), np.float64)
    assert (side["regression_coeffs"].shape, side["regression_coeffs"].dtype) == \
        ((0, ndim + 1), np.float64)
    assert not counts[:, 3:5].any()
    buffer = comp.compress_many(arrays, value_range=1.0)
    assert _bits(comp.decompress_many(buffer)) == _bits(recons)


@given(st.integers(1, 6), st.integers(1, 300), st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       st.sampled_from([1, 2 ** 10, 2 ** 62]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_residual_bits_are_at_least_one_per_cell(rows, cols, zeros, magnitude, seed):
    """The inequality the floor rests on: every term is >= 1, and a float sum
    of k terms >= 1 rounds to >= k (k is exact and rounding is monotone)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-magnitude, magnitude, (rows, cols), endpoint=True)
    values[rng.random((rows, cols)) < zeros] = 0
    assert (np.sum(sz_lr._residual_terms(np.abs(values)), axis=1) >= cols).all()


def test_residual_term_table_is_the_expression_at_and_past_its_edge():
    """The table is built by the expression it stands for; below its edge it
    is looked up, at and past it computed — bit for bit the same either way,
    |int64 min| (which ``np.abs`` leaves negative) included."""
    edge = sz_lr._BITS.size

    def expression(values):
        return 2.0 * np.log2(1.0 + np.abs(values)) + 1.0

    assert sz_lr._BITS.tobytes() == expression(np.arange(edge)).tobytes()
    values = np.array([0, 1, edge - 2, edge - 1, edge, edge + 1, 3 * edge, 2 ** 40,
                       2 ** 62, 2 ** 63 - 1, -2 ** 63, -(edge - 1), -edge, -(edge + 1)])
    with np.errstate(invalid="ignore"):
        expected = expression(values)
        got = sz_lr._residual_terms(np.abs(values))
        assert got.tobytes() == expected.tobytes()
        # inside a larger pass, and summed per row as the estimate does
        rows = np.resize(values, (5, 7 * values.size)) * np.array([[1], [-1], [1], [0], [-1]])
        assert sz_lr._residual_terms(np.abs(rows)).tobytes() == expression(rows).tobytes()
        assert np.sum(sz_lr._residual_terms(np.abs(rows)), axis=1).tobytes() == \
            np.sum(expression(rows), axis=1).tobytes()


def test_a_row_of_a_column_slice_sums_as_its_contiguous_copy():
    """The Lorenzo estimates are row sums over column slices of one pass; each
    must add as today's per-region contiguous copy, which adds as a per-array
    ``np.sum``."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        m, cells = int(rng.integers(1, 30)), int(rng.integers(1, 3000))
        terms = sz_lr._residual_terms(rng.integers(0, 2 ** 20, (m, cells)))
        lo = int(rng.integers(0, cells))
        hi = int(rng.integers(lo + 1, cells + 1))
        window = terms[:, lo:hi]
        assert window.sum(axis=1).tobytes() == np.ascontiguousarray(window).sum(axis=1).tobytes()
        assert window.sum(axis=1).tobytes() == \
            np.array([np.sum(row.copy()) for row in window]).tobytes()


def test_a_multi_array_buffer_reports_its_cells():
    """``original_shape`` of a multi-array buffer is its cell count, whatever
    the dtype."""
    cube = np.random.default_rng(0).standard_normal((10, 10, 10)).astype(np.float32)
    buffer = SZLRCompressor(1e-3).compress_many([cube, cube])
    assert (buffer.original_shape, buffer.original_nbytes) == ((2000,), 8000)


# ----------------------------------------------------------------------
# the slab prefix sum against the segmented cumsum it replaced
# ----------------------------------------------------------------------
def _segmented_cumsum(values, remainder_at):
    """The decoder's inverse Lorenzo before the slab pass: ``np.cumsum`` per
    axis, then the running value in front of the remainder subtracted."""
    for axis, full in enumerate(remainder_at, start=1):
        np.cumsum(values, axis=axis, out=values)
        if full:
            lead = (slice(None),) * axis
            values[lead + (slice(full, None),)] -= values[lead + (slice(full - 1, full),)]
    return values


@given(st.integers(1, 3), st.sampled_from([4, 6]), st.integers(1, 4),
       st.sampled_from([2 ** 10, 2 ** 40, 2 ** 62]), st.data())
@settings(max_examples=150, deadline=None)
def test_slab_prefix_sum_equals_the_segmented_cumsum(ndim, block, members, magnitude, data):
    """Bit for bit, through int64 wrap-around (each segment's first cell an
    anchor near ±2**62) and over remainder segments one cell thick (extents
    5, 9, 13 under block 4; 7, 13 under block 6)."""
    shape = tuple(data.draw(st.lists(st.sampled_from(EXTENTS), min_size=ndim, max_size=ndim)))
    remainder_at = sz_lr._flat_plan(shape, (block,) * ndim).remainder_at
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.integers(-magnitude, magnitude, (members,) + shape, dtype=np.int64)
    starts = [[0] + ([r] if r else []) for r in remainder_at]
    for corner in itertools.product(*starts):
        values[(slice(None),) + corner] = rng.choice([2 ** 62 - 3, -2 ** 62 + 5], members)
    expected = _segmented_cumsum(values.copy(), remainder_at)
    got = values.copy()
    assert sz_lr._prefix_sum(got, remainder_at) is got
    assert got.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("block_shape", [(6,), (4, 3), (6, 6, 6), (4, 4, 4), (1, 4, 2),
                                         (2, 6, 6)])
def test_fit_does_not_depend_on_the_batch(block_shape):
    """A block's unquantised coefficients are the same alone or among
    thousands: a block shares its fit call with its whole dataset, and a flip
    at a grid boundary of the quantiser would change the stored bytes."""
    rng = np.random.default_rng(2)
    blocks = rng.standard_normal((3000,) + block_shape) * 1e3 + 5e3
    together = regression.fit_blocks(blocks)
    assert together.shape == (3000, len(block_shape) + 1)
    for lo, hi in [(0, 1), (17, 18), (3, 5), (100, 107), (1, 3000), (7, 1500)]:
        assert regression.fit_blocks(blocks[lo:hi]).tobytes() == together[lo:hi].tobytes()
    flat = blocks.reshape(3000, -1)
    np.testing.assert_allclose(together, flat @ np.linalg.pinv(_ref_design(block_shape)).T,
                               rtol=1e-12, atol=1e-9)


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


# ----------------------------------------------------------------------
# malformed payloads: every length disagreement is a ValueError
# ----------------------------------------------------------------------
def _honest_parts():
    """Shapes, codes, streams and counts of a chunk that uses every stream."""
    rng = np.random.default_rng(9)
    shapes = [(13, 9, 8)] * 3 + [(8, 8, 8)] * 2
    kinds = ["rough_plane", "outliers", "noisy", "rough_plane", "outliers"]
    arrays = [_field(kind, shape, rng) for kind, shape in zip(kinds, shapes)]
    comp = SZLRCompressor(1e-3, block_size=6, radius=64)
    abs_eb = comp.error_bound.resolve(value_range=100.0)
    codes, side, counts, _ = comp._encode_batch(arrays, abs_eb)
    assert all(side[name].size for name in sz_lr._SIDE)
    return comp, shapes, codes, side, counts, abs_eb


def _decode_parts(comp, shapes, codes, side, counts, abs_eb, shared=True):
    return comp.decompress_many(_frame(comp, shapes, codes, side, counts, abs_eb, shared))


def test_honest_parts_decode():
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    for shared in (True, False):
        decoded = _decode_parts(comp, shapes, codes, side, counts, abs_eb, shared)
        assert [a.shape for a in decoded] == shapes


@pytest.mark.parametrize("name", sz_lr._SIDE[1:])
@pytest.mark.parametrize("change", ["one short", "one over"])
def test_side_stream_of_the_wrong_length_is_refused(name, change):
    """Every side stream's length is implied by the shapes, the selection and
    the stored outlier counts: one value more or less leaves the side blob
    short or long."""
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    stream = side[name]
    side[name] = stream[:-1] if change == "one short" else np.concatenate([stream, stream[:1]])
    with pytest.raises(CorruptFileError, match="side streams"):
        _decode_parts(comp, shapes, codes, side, counts, abs_eb)


@pytest.mark.parametrize("change", ["one short", "one over"])
def test_selection_of_the_wrong_length_is_refused(change):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    meta, codes, side, counts = _deserialize(
        comp, _frame(comp, shapes, codes, side, counts, abs_eb, True))
    selection = side["selection"]
    side["selection"] = selection[:-1] if change == "one short" else np.append(selection, 0)
    with pytest.raises(ValueError, match="selection"):
        comp._decode_batch(shapes, abs_eb, codes, side, counts)


@pytest.mark.parametrize("shared", [True, False])
def test_fewer_shapes_than_code_streams_is_refused(shared):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    meta, codes, side, counts = _deserialize(
        comp, _frame(comp, shapes, codes, side, counts, abs_eb, shared))
    with pytest.raises(ValueError, match="cells per array"):
        comp._decode_batch(shapes[:-1], abs_eb, codes, side, counts)
    with pytest.raises(ValueError, match="cells per array"):
        comp._decode_batch([], abs_eb, [], side, counts[:0])


def test_shapes_that_disagree_with_the_codes_are_refused():
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    swapped = [shapes[-1]] + shapes[1:-1] + [shapes[0]]          # same total, other split
    for bad in (swapped, [(13, 9, -8)] + shapes[1:], [(13 * 9 * 8,)] + shapes[1:]):
        with pytest.raises(ValueError, match="cells per array|mixed dimension"):
            comp._decode_batch(bad, abs_eb, codes, side, counts)


@pytest.mark.parametrize("column", range(6))
def test_counts_row_that_lies_is_refused(column):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    lying = counts.copy()
    lying[0, column] += 1
    lying[1, column] -= 1                                        # the totals still agree
    with pytest.raises(ValueError, match="counts|cells per array"):
        comp._decode_batch(shapes, abs_eb, codes, side, lying)


def test_hostile_shape_never_reaches_the_plan_cache(monkeypatch):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, [(10 ** 6,) * 3] + shapes[1:], codes, side, counts, abs_eb, True)
    planned = []
    for name in ("_region_plan", "_flat_plan"):
        monkeypatch.setattr(sz_lr, name, lambda *args, **kwargs: planned.append(args))
    with pytest.raises(CorruptFileError, match="fewer code bits"):
        comp.decompress_many(payload)
    assert planned == []


# ----------------------------------------------------------------------
# a damaged or incomplete buffer is a CorruptFileError naming what is wrong
# ----------------------------------------------------------------------
def _without(payload, *, section=None, meta_key=None):
    cont = ctn.unpack_container(payload)
    sections = {k: v for k, v in cont.sections.items() if k != section}
    meta = {k: v for k, v in cont.meta.items() if k != meta_key}
    return ctn.pack_container(cont.codec, meta, sections)


@pytest.mark.parametrize("shared", [True, False])
def test_payload_without_its_record_is_corrupt(shared):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, shared)
    assert len(comp.decompress_many(payload)) == len(shapes)
    with pytest.raises(CorruptFileError, match="record"):
        comp.decompress_many(_without(payload, section="record"))


@pytest.mark.parametrize("key", ["shared", "shapes", "abs_eb", "dtype", "block_size",
                                 "radius"])
def test_payload_missing_a_meta_key_is_corrupt(key):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, True)
    with pytest.raises(CorruptFileError, match=key):
        comp.decompress_many(_without(payload, meta_key=key))


@pytest.mark.parametrize("shared", [True, False])
def test_every_byte_of_the_record_is_checked(shared):
    """One CRC32 covers the record: a flip or a cut anywhere is refused."""
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, shared)
    record = ctn.unpack_container(payload).sections["record"]
    cont = ctn.unpack_container(payload)
    for at in range(0, len(record), max(1, len(record) // 97)):
        flipped = bytearray(record)
        flipped[at] ^= 0x10
        for damaged in (bytes(flipped), record[:at]):
            with pytest.raises(CorruptFileError):
                comp.decompress_many(ctn.pack_container(cont.codec, cont.meta,
                                                        {"record": damaged}))


def test_a_record_read_against_other_shapes_fails_its_checksum():
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, True)
    cont = ctn.unpack_container(payload)
    swapped = [shapes[-1]] + shapes[1:-1] + [shapes[0]]          # same cells, same count
    meta = dict(cont.meta, shapes=[list(shape) for shape in swapped])
    with pytest.raises(CorruptFileError, match="checksum"):
        comp.decompress_many(ctn.pack_container(cont.codec, meta, cont.sections))


def test_decode_records_equals_decompress_many_one_at_a_time():
    rng = np.random.default_rng(9)
    comp = SZLRCompressor(1e-3, mode="abs", block_size=6)
    buffers = [comp.compress_many([_field(kind, shape, rng) for shape in shapes])
               for kind, shapes in (("noisy", [(16, 8, 13)] * 3),
                                    ("smooth", [(8, 8, 8), (5, 4, 3)]),
                                    ("spiked_plane", [(16, 16, 16)]))]
    together = list(_decode_job(comp, [b.payload for b in buffers]))
    assert list(comp.decode_parsed([], comp.recipe(1e-3))) == []
    for buffer, arrays in zip(buffers, together, strict=True):
        assert _bits(arrays) == _bits(comp.decompress_many(buffer))


@st.composite
def decode_jobs(draw):
    """A decode job of 1-4 buffers under one recipe (bound, dtype, SLE on or
    off): each buffer's unit blocks wanted whole or by an ascending selection."""
    block_size = draw(st.sampled_from([4, 6]))
    radius = draw(st.sampled_from([64, 32768]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shared = draw(st.booleans())
    comp = SZLRCompressor(draw(st.sampled_from([1e-3, 1e-2])), mode="abs",
                          block_size=block_size, radius=radius)
    chunks, selects = [], []
    for _ in range(draw(st.integers(1, 4))):
        shapes = draw(st.lists(st.tuples(*[st.sampled_from([16, 8, 5])] * 3),
                               min_size=1, max_size=5))
        kinds = draw(st.lists(st.sampled_from(["noisy", "outliers", "smooth", "rough_plane"]),
                              min_size=len(shapes), max_size=len(shapes)))
        chunks.append([_field(kind, shape, rng).astype(dtype)
                       for kind, shape in zip(kinds, shapes)])
        selects.append(draw(st.one_of(st.none(), st.sets(st.integers(0, len(shapes) - 1),
                                                          min_size=1).map(sorted))))
    # the decoder: the job's block size and radius, its bound from the recipe
    return (SZLRCompressor(1e-3, block_size=block_size, radius=radius),
            _one_recipe(comp, chunks, shared), selects)


def _one_recipe(comp, chunks, shared):
    """The standalone buffers of ``chunks`` compressed as a dataset's are, in one
    call and so under one recipe (a float32 grid follows the call's largest value)."""
    return [comp.standalone(record, recipe, [r.shape for r in recons]).payload
            for record, recons, recipe, _ in comp.compress_many_with_reconstruction(
                chunks, shared_encoding=shared)]


@given(decode_jobs())
@settings(max_examples=60, deadline=None)
def test_a_job_decodes_as_its_buffers_do_one_at_a_time(job):
    comp, buffers, selects = job
    together = list(_decode_job(comp, buffers, selects))
    alone = [next(_decode_job(comp, [b], [s])) for b, s in zip(buffers, selects)]
    assert len(together) == len(alone) == len(buffers)
    for got, want in zip(together, alone):
        assert _bits(got) == _bits(want)
        assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
    if all(select is None for select in selects):
        assert [_bits(got) for got in _decode_job(comp, buffers)] == \
            [_bits(comp.decompress_many(b)) for b in buffers]


def test_a_damaged_record_mid_job_fails_the_call_before_anything_is_yielded():
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    good = _frame(comp, shapes, codes, side, counts, abs_eb, True)
    # outlier counts moved between two arrays (same totals): the parse passes,
    # the reconstruction finds them disagreeing with the codes
    has = int(np.flatnonzero(counts[:, 2])[0])
    lying = counts.copy()
    lying[has, 2] -= 1
    lying[(has + 1) % len(shapes), 2] += 1
    bad = _frame(comp, shapes, codes, side, lying, abs_eb, True)
    job = _decode_job(comp, [good, bad, good])
    with pytest.raises(CorruptFileError, match="counts disagree"):
        next(job)


# ----------------------------------------------------------------------
# selected decode: a unit block alone is what it is in its chunk
# ----------------------------------------------------------------------
@st.composite
def unit_block_chunks(draw):
    """A job's chunks as AMRIC hands them over — unit blocks of 16/8 cells per
    axis, compressed under one recipe (one dtype, SLE on or off) — each with a non-empty ascending
    selection of its blocks (or ``None``: all)."""
    comp = SZLRCompressor(1e-3, mode="abs", block_size=draw(st.sampled_from([4, 6])),
                          radius=draw(st.sampled_from([64, 32768])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chunks, selects = [], []
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shared = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        shapes = draw(st.lists(st.tuples(*[st.sampled_from([16, 8])] * 3),
                               min_size=1, max_size=6))
        kinds = draw(st.lists(st.sampled_from(["noisy", "outliers", "constant", "rough_plane"]),
                              min_size=len(shapes), max_size=len(shapes)))
        chunks.append([_field(kind, shape, rng).astype(dtype)
                       for kind, shape in zip(kinds, shapes)])
        selects.append(draw(st.one_of(st.none(), st.sets(st.integers(0, len(shapes) - 1),
                                                          min_size=1).map(sorted))))
    return comp, list(zip(_one_recipe(comp, chunks, shared), selects))


@given(unit_block_chunks())
@settings(max_examples=80, deadline=None)
def test_selected_arrays_equal_the_same_entries_of_the_full_decode(job):
    comp, chunks = job
    payloads, selects = zip(*chunks)
    _selected_equal_full(comp, payloads, selects)


def _selected_equal_full(comp, payloads, selects):
    together = list(_decode_job(comp, payloads, selects))
    for payload, select, got in zip(payloads, selects, together, strict=True):
        full = comp.decompress_many(payload)
        want = full if select is None else [full[index] for index in select]
        assert _bits(got) == _bits(want)
        assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
        if select is not None:                  # ... and alone, as in the batch
            assert _bits(next(_decode_job(comp, [payload], [select]))) == _bits(want)


def test_a_sync_less_payload_is_refused_before_any_decode(monkeypatch):
    """A record's streams read without their sync offsets (as a hand-built
    stream comes) have no lanes: corrupt, whole or selected."""
    from repro.compress.huffman import HuffmanCodec

    rng = np.random.default_rng(4)
    comp = SZLRCompressor(1e-3, block_size=4)
    arrays = [_field(kind, (8, 8, 8), rng) for kind in ("noisy", "outliers", "constant", "noisy")]
    payload = comp.compress_many(arrays).payload

    def parse_dropping_sync(record, *args, parse=ctn.parse_record):
        pairs, side = parse(record, *args)
        for _, encoded in pairs:
            encoded.sync = None
        return pairs, side

    monkeypatch.setattr(ctn, "parse_record", parse_dropping_sync)
    monkeypatch.setattr(HuffmanCodec, "_decode_lanes",
                        mock.Mock(side_effect=AssertionError("a lane pass ran")))
    for select in (None, [1, 3]):
        with pytest.raises(CorruptFileError, match="no sync offsets"):
            list(_decode_job(comp, [payload], [select]))


def test_a_selection_per_record_or_none_at_all():
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, True)
    with pytest.raises(ValueError):
        list(_decode_job(comp, [payload, payload], [[0]]))


def test_selection_decodes_only_the_selected_streams(monkeypatch):
    from repro.compress.huffman import HuffmanCodec

    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    seen = []
    decode = HuffmanCodec.decode
    monkeypatch.setattr(HuffmanCodec, "decode",
                        lambda self, enc: seen.append(enc.nsymbols) or decode(self, enc))
    for shared in (True, False):
        payload = _frame(comp, shapes, codes, side, counts, abs_eb, shared)
        del seen[:]
        (got,) = _decode_job(comp, [payload], [[1, 4]])
        assert seen == [math.prod(shapes[1]) + math.prod(shapes[4])]
        assert [a.shape for a in got] == [shapes[1], shapes[4]]


def _refused_before_any_decode(monkeypatch, comp, payload, select, match):
    """The call raises ``ValueError`` with no entropy pass and no reconstruction."""
    reached = []
    monkeypatch.setattr(ctn, "decode_huffman", lambda *a, **k: reached.append("huffman"))
    monkeypatch.setattr(SZLRCompressor, "_decode_batch",
                        lambda *a, **k: reached.append("reconstruct"))
    with pytest.raises(ValueError, match=match):
        list(_decode_job(comp, [payload], [select]))
    assert reached == []


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("select", [[], [2, 1], [1, 1], [-1], [0, 5], [5], [0.0], [[0]]],
                         ids=["empty", "unsorted", "duplicate", "negative", "past the end",
                              "only past the end", "not integers", "nested"])
def test_hostile_selection_is_refused(monkeypatch, shared, select):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, shared)
    _refused_before_any_decode(monkeypatch, comp, payload, select, "selection")


@pytest.mark.parametrize("column", [2, 3])
@pytest.mark.parametrize("claim", [1, -1, -10 ** 6], ids=["over", "under", "negative"])
def test_an_outlier_count_misclaimed_by_an_unselected_array_is_refused(
        monkeypatch, column, claim):
    """The two outlier counts are all a record stores per array besides its
    code bits; a wrong one leaves the side streams short, long or negative."""
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    lying = counts.copy()
    lying[3, column] += claim                   # array 3 is not selected below
    payload = _frame(comp, shapes, codes, side, lying, abs_eb, True)
    _refused_before_any_decode(monkeypatch, comp, payload, [0, 1],
                               "side streams|negative outlier count")


def test_stream_bits_that_disagree_with_the_codes_are_refused(monkeypatch):
    from repro.compress.huffman import HuffmanCodec

    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    encode = HuffmanCodec.encode
    calls = []

    def lying(self, data):
        calls.append(1)
        encoded = encode(self, data)
        return dataclasses.replace(encoded, nbits=10 ** 12) if len(calls) == 5 else encoded

    monkeypatch.setattr(HuffmanCodec, "encode", lying)
    payload = _frame(comp, shapes, codes, side, counts, abs_eb, True)
    monkeypatch.undo()
    _refused_before_any_decode(monkeypatch, comp, payload, [0], "bytes of codes")


def test_fewer_shapes_than_streams_is_refused_under_selection(monkeypatch):
    comp, shapes, codes, side, counts, abs_eb = _honest_parts()
    payload = _frame(comp, shapes[:-1], codes, side, counts, abs_eb, True)
    _refused_before_any_decode(monkeypatch, comp, payload, [0], "holds 5 blocks")
