"""End-to-end tests for the SZ-family compressors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    SZ1DCompressor,
    SZInterpCompressor,
    SZLRCompressor,
    psnr,
)
from repro.compress import container as ctn
from repro.compress import registry
from repro.compress.base import DEFAULT_RADIUS
from repro.compress.errorbound import ErrorBound
from repro.errors import CorruptFileError
from repro.testing import make_rough, make_smooth


class SZInterpLinearCompressor(SZInterpCompressor):
    """SZ_Interp in its linear-interpolation mode, held to the same contract."""

    def __init__(self, error_bound, **options):
        super().__init__(error_bound, cubic=False, **options)


ALL_COMPRESSORS = [SZLRCompressor, SZInterpCompressor, SZInterpLinearCompressor,
                   SZ1DCompressor]


@pytest.mark.parametrize("cls", ALL_COMPRESSORS)
class TestCommonContract:
    """Every compressor honours the same contract."""

    def test_reconstruction_matches_decompress(self, cls, smooth_field):
        comp = cls(1e-3)
        buf, recon = comp.compress_with_reconstruction(smooth_field)
        decoded = comp.decompress(buf)
        np.testing.assert_array_equal(recon, decoded)

    def test_error_bound_holds(self, cls, smooth_field):
        comp = cls(1e-3)
        buf, recon = comp.compress_with_reconstruction(smooth_field)
        abs_eb = buf.meta["abs_eb"]
        assert np.max(np.abs(recon - smooth_field)) <= abs_eb * (1 + 1e-9)

    def test_error_bound_holds_rough(self, cls, rough_field):
        comp = cls(1e-2)
        buf, recon = comp.compress_with_reconstruction(rough_field)
        abs_eb = buf.meta["abs_eb"]
        assert np.max(np.abs(recon - rough_field)) <= abs_eb * (1 + 1e-9)

    def test_absolute_bound_mode(self, cls, smooth_field):
        comp = cls(ErrorBound.absolute(0.01))
        buf, recon = comp.compress_with_reconstruction(smooth_field)
        assert np.max(np.abs(recon - smooth_field)) <= 0.01 * (1 + 1e-9)

    def test_achieves_compression(self, cls, smooth_field):
        comp = cls(1e-3)
        buf = comp.compress(smooth_field)
        assert buf.compression_ratio > 2.0

    def test_empty_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(1e-3).compress(np.zeros((0, 3)))

    def test_a_bound_that_is_not_positive_is_refused(self, cls):
        for value in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="positive finite"):
                cls(value, mode="abs")

    def test_constant_field(self, cls):
        data = np.full((12, 12, 12), 7.5)
        comp = cls(1e-3)
        buf, recon = comp.compress_with_reconstruction(data)
        assert np.max(np.abs(recon - data)) <= buf.meta["abs_eb"]
        assert buf.compression_ratio > 20

    def test_float32_input_roundtrip(self, cls):
        data = make_smooth((14, 14, 14)).astype(np.float32)
        comp = cls(1e-3)
        buf, recon = comp.compress_with_reconstruction(data)
        decoded = comp.decompress(buf)
        assert decoded.dtype == np.float32
        assert decoded.shape == data.shape

    def test_buffer_metadata(self, cls, smooth_field):
        buf = cls(1e-3).compress(smooth_field)
        assert buf.original_nbytes == smooth_field.nbytes
        assert buf.codec == cls.name
        assert buf.compressed_nbytes > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, cls, bad):
        """No bound covers NaN/Inf: a relative one would resolve to NaN and an
        absolute one quantise the cell to garbage, so either is refused."""
        data = make_smooth((12, 12, 12))
        data[3, 4, 5] = bad
        for bound in (1e-3, ErrorBound.absolute(0.01)):
            with pytest.raises(ValueError, match=f"{cls.name} .*non-finite"):
                cls(bound).compress(data)


SPATIAL = [SZLRCompressor, SZInterpCompressor, SZ1DCompressor]


@pytest.mark.parametrize("cls", SPATIAL)
class TestMagnitudeContract:
    """Quantisation codes ``rint(x / (2·eb))`` are int64: a magnitude whose
    codes would leave it is refused by name, where the cast used to wrap and
    the reconstruction miss the bound by ~1e300 with only RuntimeWarnings."""

    FIELD = np.random.default_rng(0).standard_normal((24, 24, 24))

    def test_codes_past_int64_are_refused(self, cls):
        with pytest.raises(ValueError, match=rf"{cls.name} cannot quantise magnitude "
                                             r"\S+e\+300 at error bound 0\.001"):
            cls(ErrorBound.absolute(1e-3)).compress(self.FIELD * 1e300)

    def test_a_magnitude_the_codes_hold_still_round_trips(self, cls):
        data = self.FIELD * 1e15
        comp = cls(ErrorBound.absolute(4.0))         # codes up to ~2**49
        buffer, recon = comp.compress_with_reconstruction(data)
        assert np.max(np.abs(recon - data)) <= 4.0 * (1 + 1e-9)
        np.testing.assert_array_equal(comp.decompress(buffer), recon)

    def test_repro_write_holds_an_absolute_bound_and_refuses_past_it(self, cls, tmp_path):
        import repro
        from repro.apps import nyx_run

        hierarchy = nyx_run(coarse_shape=(16, 16, 16), nranks=2, max_grid_size=8,
                            seed=1).hierarchy
        # the absolute bound is honoured: every dataset within 1e-3 of its input
        report = repro.write(hierarchy, None, compressor=cls.name, error_bound=1e-3,
                             error_bound_mode="abs")
        assert max(record.max_error for record in report.records) <= 1e-3 * (1 + 1e-9)
        for level in hierarchy.levels:
            for fab in level.multifab:
                fab.data *= 1e295                    # |x| up to ~1.7e300
        path = tmp_path / "huge.h5z"
        with pytest.raises(ValueError, match=f"{cls.name} cannot quantise magnitude"):
            repro.write(hierarchy, str(path), compressor=cls.name, error_bound=1e-3,
                        error_bound_mode="abs")
        assert not path.exists()


class TestErrorBoundScaling:
    @pytest.mark.parametrize("cls", SPATIAL)
    def test_smaller_bound_higher_psnr_lower_cr(self, cls, smooth_field):
        loose = cls(1e-2)
        tight = cls(1e-4)
        b1, r1 = loose.compress_with_reconstruction(smooth_field)
        b2, r2 = tight.compress_with_reconstruction(smooth_field)
        assert psnr(smooth_field, r2) > psnr(smooth_field, r1)
        assert b2.compression_ratio < b1.compression_ratio


class TestSZLRSpecifics:
    def test_non_multiple_shapes(self):
        """Shapes with residue regions (e.g. 8 with block 6) round-trip exactly."""
        data = make_smooth((8, 8, 8))
        comp = SZLRCompressor(1e-3, block_size=6)
        buf, recon = comp.compress_with_reconstruction(data)
        np.testing.assert_array_equal(comp.decompress(buf), recon)

    def test_various_block_sizes(self):
        data = make_smooth((16, 16, 16))
        for bs in (4, 6, 8):
            comp = SZLRCompressor(1e-3, block_size=bs)
            buf, recon = comp.compress_with_reconstruction(data)
            assert np.max(np.abs(recon - data)) <= buf.meta["abs_eb"] * (1 + 1e-9)
            np.testing.assert_array_equal(comp.decompress(buf), recon)

    def test_anisotropic_block_size(self):
        data = make_smooth((12, 10, 8))
        comp = SZLRCompressor(1e-3, block_size=(6, 5, 4))
        buf, recon = comp.compress_with_reconstruction(data)
        np.testing.assert_array_equal(comp.decompress(buf), recon)

    def test_block_size_dim_mismatch(self):
        with pytest.raises(ValueError):
            SZLRCompressor(1e-3, block_size=(6, 6)).compress(make_smooth((8, 8, 8)))

    def test_2d_and_1d_inputs(self):
        for shape in [(50,), (20, 30)]:
            data = make_smooth(shape)
            comp = SZLRCompressor(1e-3)
            buf, recon = comp.compress_with_reconstruction(data)
            np.testing.assert_array_equal(comp.decompress(buf), recon)
            assert recon.shape == shape

    def test_compress_many_shared_roundtrip(self):
        arrays = [make_smooth((8, 8, 8), seed=s) for s in range(4)]
        comp = SZLRCompressor(1e-3)
        ((record, recons, recipe),) = comp.compress_many_with_reconstruction(
            [arrays], shared_encoding=True)
        decs = comp.decompress_many(comp.standalone(record, recipe, [a.shape for a in arrays]))
        assert len(decs) == 4
        for r, d in zip(recons, decs):
            np.testing.assert_array_equal(r, d)

    def test_compress_many_individual_roundtrip(self):
        arrays = [make_smooth((8, 8, 8), seed=s) for s in range(3)]
        comp = SZLRCompressor(1e-3)
        ((record, recons, recipe),) = comp.compress_many_with_reconstruction(
            [arrays], shared_encoding=False)
        decs = comp.decompress_many(comp.standalone(record, recipe, [a.shape for a in arrays]))
        for r, d in zip(recons, decs):
            np.testing.assert_array_equal(r, d)

    def test_shared_encoding_smaller_for_many_small_blocks(self):
        """Unit SLE's premise: shared table < per-block tables for many small blocks."""
        rng = np.random.default_rng(0)
        base = make_rough((32, 32, 32), seed=5)
        arrays = [base[i:i + 8, j:j + 8, k:k + 8].copy()
                  for i in range(0, 32, 8) for j in range(0, 32, 8) for k in range(0, 32, 8)]
        comp = SZLRCompressor(1e-3)
        vrange = float(base.max() - base.min())
        shared = comp.compress_many(arrays, shared_encoding=True, value_range=vrange)
        individual = comp.compress_many(arrays, shared_encoding=False, value_range=vrange)
        assert shared.compressed_nbytes < individual.compressed_nbytes

    def test_compress_many_error_bound_uses_global_range(self):
        arrays = [np.full((6, 6, 6), 0.0), np.full((6, 6, 6), 100.0)]
        comp = SZLRCompressor(1e-3)
        ((_, _, recipe),) = comp.compress_many_with_reconstruction([arrays])
        assert recipe["abs_eb"] == pytest.approx(0.1)

    def test_decompress_single_on_multi_buffer_raises(self):
        comp = SZLRCompressor(1e-3)
        buf = comp.compress_many([make_smooth((6, 6, 6)), make_smooth((6, 6, 6), seed=2)])
        with pytest.raises(ValueError):
            comp.decompress(buf)

    def test_empty_array_list_rejected(self):
        with pytest.raises(ValueError):
            SZLRCompressor(1e-3).compress_many([])


class TestSZInterpSpecifics:
    def test_invalid_anchor_stride(self):
        with pytest.raises(ValueError):
            SZInterpCompressor(1e-3, anchor_stride=3)

    def test_small_arrays(self):
        for shape in [(5, 5, 5), (3, 17, 2), (33,)]:
            data = make_smooth(shape)
            comp = SZInterpCompressor(1e-3, anchor_stride=8)
            buf, recon = comp.compress_with_reconstruction(data)
            np.testing.assert_array_equal(comp.decompress(buf), recon)
            assert np.max(np.abs(recon - data)) <= buf.meta["abs_eb"] * (1 + 1e-9)

    def test_linear_mode(self):
        data = make_smooth((20, 20, 20))
        comp = SZInterpCompressor(1e-3, cubic=False)
        buf, recon = comp.compress_with_reconstruction(data)
        np.testing.assert_array_equal(comp.decompress(buf), recon)

    def test_interp_beats_lr_on_smooth_global_data(self):
        """The paper's WarpX observation: global interpolation wins on smooth fields."""
        data = make_smooth((48, 48, 48), noise=0.0)
        interp = SZInterpCompressor(1e-4).compress(data)
        lr = SZLRCompressor(1e-4).compress(data)
        assert interp.compression_ratio > lr.compression_ratio


class TestSZ1DSpecifics:
    def test_chunked_roundtrip_and_overhead(self):
        data = make_rough((16, 16, 16))
        comp = SZ1DCompressor(1e-3)
        whole = comp.compress(data)
        records, recon = comp.compress_chunked(data, 512)
        assert len(records) == int(np.ceil(data.size / 512))
        flat = data.reshape(-1)
        bound = max(comp.resolve_eb(flat[i:i + 512]) for i in range(0, flat.size, 512))
        assert np.max(np.abs(recon - data)) <= bound * (1 + 1e-9)
        chunked_total = sum(len(record) for record in records)
        # the small-chunk penalty the paper describes: chunked is strictly larger
        assert chunked_total > whole.compressed_nbytes

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            SZ1DCompressor(1e-3).compress_chunked(np.zeros(10), 1)

    def test_nd_input_flattened(self):
        data = make_smooth((6, 7, 8))
        comp = SZ1DCompressor(1e-3)
        buf, recon = comp.compress_with_reconstruction(data)
        assert recon.shape == data.shape
        np.testing.assert_array_equal(comp.decompress(buf), recon)

    @pytest.mark.parametrize("dropped", ["abs_eb", "radius", "shape", "dtype", "anchor",
                                         "outliers"])
    def test_record_missing_a_piece_names_it(self, dropped):
        """Every key and section the encoder writes is read through
        ``required``: a record that lost one is corrupt, never a KeyError or
        a silent scalar decode."""
        comp = SZ1DCompressor(1e-3)
        record, _ = comp.encode_record(make_smooth((6, 7, 8)))
        cont = ctn.unpack_container(record)
        cont.meta.pop(dropped, None)
        cont.sections.pop(dropped, None)
        damaged = ctn.pack_container(cont.codec, cont.meta, cont.sections)
        with pytest.raises(CorruptFileError, match=f"sz_1d .* is missing '{dropped}'"):
            comp.decode_record(damaged, (6, 7, 8))


@pytest.mark.parametrize("cls", ALL_COMPRESSORS)
def test_values_past_the_radius_round_trip_within_bound(cls):
    """A prediction error the quantisation codes cannot hold (radius 4) is
    stored as an outlier and still reads back within the bound."""
    data = make_smooth((12, 12, 12))
    data[3, 4, 5], data[8, 1, 2], data[11, 11, 11] = 1e6, -1e6, 5e5
    comp = cls(1e-3, mode="abs", radius=4)
    buf, recon = comp.compress_with_reconstruction(data)
    assert np.max(np.abs(recon - data)) <= 1e-3 * (1 + 1e-9)
    np.testing.assert_array_equal(comp.decompress(buf), recon)


@pytest.mark.parametrize("cls", ALL_COMPRESSORS)
@pytest.mark.parametrize("radius", [1, DEFAULT_RADIUS + 1, 2 ** 32])
def test_a_radius_outside_two_to_32768_is_refused(cls, radius):
    """``2 * radius`` codes must fit one 16-bit Huffman table; a stored recipe
    naming such a radius is corrupt."""
    with pytest.raises(ValueError, match="radius"):
        cls(1e-3, radius=radius)
    recipe = dict(cls(1e-3).recipe(1e-3), radius=radius)
    with pytest.raises(CorruptFileError, match="radius"):
        registry.codec_from_recipe(recipe)


class TestPropertyBased:
    @given(st.integers(0, 10000), st.sampled_from([1e-2, 1e-3, 1e-4]))
    @settings(max_examples=10)
    def test_szlr_bound_property(self, seed, eb):
        data = make_rough((10, 11, 9), seed=seed)
        comp = SZLRCompressor(eb)
        buf, recon = comp.compress_with_reconstruction(data)
        assert np.max(np.abs(recon - data)) <= buf.meta["abs_eb"] * (1 + 1e-9)
        np.testing.assert_array_equal(comp.decompress(buf), recon)

    @given(st.integers(0, 10000), st.sampled_from([1e-2, 1e-3]))
    @settings(max_examples=10)
    def test_szinterp_bound_property(self, seed, eb):
        data = make_rough((9, 13, 10), seed=seed)
        comp = SZInterpCompressor(eb, anchor_stride=8)
        buf, recon = comp.compress_with_reconstruction(data)
        assert np.max(np.abs(recon - data)) <= buf.meta["abs_eb"] * (1 + 1e-9)
        np.testing.assert_array_equal(comp.decompress(buf), recon)
