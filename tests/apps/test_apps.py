"""Tests for the synthetic Nyx / WarpX applications and the run presets."""

import numpy as np
import pytest

from repro.apps import (
    RUN_PRESETS,
    NyxSimulation,
    WarpXSimulation,
    build_run,
    nyx_run,
    warpx_run,
)
from repro.apps.base import build_two_level_hierarchy
from repro.apps.fields import (
    add_halos,
    gaussian_random_field,
    lognormal_field,
    small_scale_detail,
    wakefield_component,
)


class TestFieldGenerators:
    def test_grf_statistics(self):
        f = gaussian_random_field((32, 32, 32), slope=3.0, seed=0)
        assert f.shape == (32, 32, 32)
        assert abs(f.mean()) < 1e-10
        assert f.std() == pytest.approx(1.0, rel=1e-6)

    def test_grf_reproducible(self):
        a = gaussian_random_field((16, 16, 16), seed=5)
        b = gaussian_random_field((16, 16, 16), seed=5)
        np.testing.assert_array_equal(a, b)
        c = gaussian_random_field((16, 16, 16), seed=6)
        assert not np.array_equal(a, c)

    def test_grf_slope_controls_smoothness(self):
        rough = gaussian_random_field((32, 32, 32), slope=1.0, seed=1)
        smooth = gaussian_random_field((32, 32, 32), slope=4.0, seed=1)
        # smoother field has smaller mean cell-to-cell increments
        def roughness(f):
            return np.mean(np.abs(np.diff(f, axis=0)))
        assert roughness(smooth) < roughness(rough)

    def test_grf_invalid_shape(self):
        with pytest.raises(ValueError):
            gaussian_random_field((1, 8, 8))

    def test_lognormal_positive(self):
        f = lognormal_field((16, 16, 16), sigma=1.5, seed=2)
        assert np.all(f > 0)

    def test_add_halos_increases_peaks(self):
        base = np.ones((24, 24, 24))
        spiked = add_halos(base, n_halos=5, amplitude=10.0, seed=3)
        assert spiked.max() > base.max() + 5
        assert spiked.shape == base.shape

    def test_small_scale_detail_band_limited(self):
        d = small_scale_detail((32, 32, 32), amplitude=2.0, seed=4)
        assert d.shape == (32, 32, 32)
        assert d.std() == pytest.approx(2.0, rel=0.2)

    def test_wakefield_components_differ(self):
        ex = wakefield_component((16, 16, 64), 0, seed=0)
        ey = wakefield_component((16, 16, 64), 1, seed=0)
        assert ex.shape == (16, 16, 64)
        assert not np.allclose(ex, ey)

    def test_wakefield_pulse_localised(self):
        f = wakefield_component((8, 8, 128), 0, pulse_centre=0.25, noise=0.0)
        energy = np.sum(f ** 2, axis=(0, 1))
        assert np.argmax(energy) < 64  # pulse sits in the first half


class TestBuildHierarchy:
    def test_density_target_respected(self):
        fields = {"rho": lognormal_field((32, 32, 32), sigma=1.2, seed=1)}
        h = build_two_level_hierarchy(fields, "rho", target_fine_density=0.03,
                                      nranks=2, max_grid_size=16, blocking_factor=4)
        assert h.nlevels == 2
        assert h[1].density() < 0.15  # clustered boxes over-cover only mildly
        assert h.is_properly_nested()

    def test_validation(self):
        fields = {"rho": np.ones((8, 8, 8))}
        with pytest.raises(KeyError):
            build_two_level_hierarchy(fields, "missing", 0.05)
        with pytest.raises(ValueError):
            build_two_level_hierarchy(fields, "rho", 1.5)
        with pytest.raises(ValueError):
            build_two_level_hierarchy({}, "rho", 0.05)
        with pytest.raises(ValueError):
            build_two_level_hierarchy({"a": np.ones((4, 4, 4)), "b": np.ones((5, 5, 5))},
                                      "a", 0.05)

    def test_fine_level_has_subgrid_detail(self):
        fields = {"rho": lognormal_field((32, 32, 32), sigma=1.0, seed=3)}
        h = build_two_level_hierarchy(fields, "rho", target_fine_density=0.05,
                                      detail_amplitude=0.2, nranks=2, seed=3)
        fine = h[1].multifab.to_global("rho", h[1].domain)
        # the fine data is not a pure piecewise-constant upsample: within a
        # refined coarse cell the two fine cells differ somewhere
        diffs = np.abs(fine[0::2, :, :] - fine[1::2, :, :])
        assert diffs.max() > 0


class TestNyx:
    @pytest.fixture(scope="class")
    def sim(self):
        return nyx_run(coarse_shape=(32, 32, 32), nranks=2, target_fine_density=0.03, seed=7)

    def test_fields_present(self, sim):
        h = sim.hierarchy
        assert h.component_names == NyxSimulation.field_names
        assert h.nlevels == 2

    def test_density_positive_and_skewed(self, sim):
        h = sim.hierarchy
        rho = h[0].multifab.to_global("baryon_density", h[0].domain)
        assert np.all(rho > 0)
        assert rho.max() / np.median(rho) > 10  # long high-density tail

    def test_fine_density_near_target(self, sim):
        h = sim.hierarchy
        assert 0.005 < h[1].density() < 0.12

    def test_temperature_correlates_with_density(self, sim):
        h = sim.hierarchy
        rho = h[0].multifab.to_global("baryon_density", h[0].domain).ravel()
        temp = h[0].multifab.to_global("temperature", h[0].domain).ravel()
        corr = np.corrcoef(np.log(rho), np.log(temp))[0, 1]
        assert corr > 0.5

    def test_advance_changes_fields_and_grids(self, sim):
        # use a fresh instance to avoid mutating the class-scoped fixture
        local = nyx_run(coarse_shape=(32, 32, 32), nranks=2, seed=9)
        before = local.hierarchy[0].multifab.to_global("baryon_density", local.hierarchy[0].domain)
        local.advance()
        after = local.hierarchy[0].multifab.to_global("baryon_density", local.hierarchy[0].domain)
        assert local.step == 1
        assert not np.allclose(before, after)

    def test_run_generator(self):
        local = nyx_run(coarse_shape=(24, 24, 24), nranks=2, seed=3)
        hierarchies = list(local.run(2))
        assert len(hierarchies) == 2
        assert hierarchies[0].step == 0


class TestWarpX:
    @pytest.fixture(scope="class")
    def sim(self):
        return warpx_run(coarse_shape=(16, 16, 128), nranks=2, target_fine_density=0.03, seed=5)

    def test_fields_present(self, sim):
        h = sim.hierarchy
        assert h.component_names == WarpXSimulation.field_names

    def test_elongated_domain(self, sim):
        h = sim.hierarchy
        shape = h[0].domain.shape
        assert shape[2] > shape[0]

    def test_smoothness_vs_nyx(self, sim):
        """WarpX data must be much smoother (more compressible) than Nyx data."""
        from repro.compress import SZLRCompressor

        warpx_field = sim.hierarchy[0].multifab.to_global("Ex", sim.hierarchy[0].domain)
        nyx = nyx_run(coarse_shape=(16, 16, 128), nranks=2, seed=5)
        nyx_field = nyx.hierarchy[0].multifab.to_global("baryon_density", nyx.hierarchy[0].domain)
        cr_warpx = SZLRCompressor(1e-3).compress(warpx_field).compression_ratio
        cr_nyx = SZLRCompressor(1e-3).compress(nyx_field).compression_ratio
        assert cr_warpx > 2 * cr_nyx

    def test_pulse_moves(self):
        local = warpx_run(coarse_shape=(16, 16, 128), nranks=2, seed=1)
        h0 = local.hierarchy
        centre0 = np.mean([b.lo[2] for b in h0[1].boxarray]) if h0.nlevels > 1 else None
        for _ in range(3):
            local.advance()
        h1 = local.hierarchy
        centre1 = np.mean([b.lo[2] for b in h1[1].boxarray]) if h1.nlevels > 1 else None
        assert centre0 is not None and centre1 is not None
        assert centre1 != centre0


class TestPresetsAndDriver:
    def test_all_presets_exist(self):
        assert set(RUN_PRESETS) == {"warpx_1", "warpx_2", "warpx_3", "nyx_1", "nyx_2", "nyx_3"}

    def test_preset_metadata_matches_table1(self):
        p = RUN_PRESETS["warpx_3"]
        assert p.paper_coarse_shape == (1024, 1024, 8192)
        assert p.paper_nranks == 4096
        assert p.paper_data_gb == pytest.approx(624.0)
        assert p.error_bound_amric == pytest.approx(1e-4)
        n = RUN_PRESETS["nyx_1"]
        assert n.error_bound_amrex == pytest.approx(1e-2)
        assert n.paper_fine_density == pytest.approx(0.014)

    def test_build_run_by_name_and_unknown(self):
        sim = build_run("nyx_1", coarse_shape=(16, 16, 16))
        assert isinstance(sim, NyxSimulation)
        sim2 = build_run("warpx_1", coarse_shape=(8, 8, 64))
        assert isinstance(sim2, WarpXSimulation)
        with pytest.raises(KeyError):
            build_run("nyx_99")
