"""Tests for repro.amr.hierarchy, regrid, and upsample."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.hierarchy import AmrHierarchy, AmrLevel
from repro.amr.multifab import MultiFab
from repro.amr.regrid import cluster_tags
from repro.amr.upsample import covered_mask, upsample_array


def make_two_level(coarse_shape=(16, 16, 16), ratio=2, fine_boxes=None,
                   components=("density",), nranks=2):
    """A small hand-built two-level hierarchy used across the test suite."""
    coarse_domain = Box.from_shape(coarse_shape)
    coarse_ba = BoxArray.decompose(coarse_domain, 8)
    coarse_dm = DistributionMapping.round_robin(len(coarse_ba), nranks)
    coarse_mf = MultiFab(coarse_ba, components, coarse_dm)

    if fine_boxes is None:
        fine_boxes = [Box((4, 4, 4), (11, 11, 11)).refine(ratio)]
    fine_ba = BoxArray(fine_boxes)
    fine_dm = DistributionMapping.round_robin(len(fine_ba), nranks)
    fine_mf = MultiFab(fine_ba, components, fine_dm)

    levels = [
        AmrLevel(0, coarse_domain, coarse_ba, coarse_mf),
        AmrLevel(1, coarse_domain.refine(ratio), fine_ba, fine_mf),
    ]
    return AmrHierarchy(levels, [ratio])


class TestAmrLevel:
    def test_density(self):
        h = make_two_level()
        assert h[0].density() == pytest.approx(1.0)
        assert h[1].density() == pytest.approx((16 ** 3) / (32 ** 3))

    def test_box_outside_domain_rejected(self):
        domain = Box.from_shape((8, 8, 8))
        ba = BoxArray([Box((0, 0, 0), (9, 7, 7))])
        mf = MultiFab(ba, ["x"])
        with pytest.raises(ValueError):
            AmrLevel(0, domain, ba, mf)

    def test_mismatched_fab_count_rejected(self):
        domain = Box.from_shape((8, 8, 8))
        ba = BoxArray.decompose(domain, 4)
        mf = MultiFab(BoxArray.decompose(domain, 8), ["x"])
        with pytest.raises(ValueError):
            AmrLevel(0, domain, ba, mf)


class TestAmrHierarchy:
    def test_basic_structure(self):
        h = make_two_level()
        assert h.nlevels == 2
        assert h.ref_ratios == (2,)
        assert h.component_names == ("density",)
        assert h.is_properly_nested()

    def test_wrong_ratio_count(self):
        h = make_two_level()
        with pytest.raises(ValueError):
            AmrHierarchy(h.levels, [2, 2])

    def test_wrong_fine_domain(self):
        h = make_two_level()
        bad_fine = AmrLevel(1, h[0].domain.refine(4), h[1].boxarray, h[1].multifab)
        with pytest.raises(ValueError):
            AmrHierarchy([h[0], bad_fine], [2])

    def test_component_mismatch_rejected(self):
        h = make_two_level()
        other_mf = MultiFab(h[1].boxarray, ["other"])
        bad = AmrLevel(1, h[1].domain, h[1].boxarray, other_mf)
        with pytest.raises(ValueError):
            AmrHierarchy([h[0], bad], [2])

    def test_covered_cells_and_redundancy(self):
        h = make_two_level()
        # fine level covers the coarse region (4..11)^3 => 8^3 coarse cells
        assert h.covered_cells(0) == 8 ** 3
        assert h.covered_cells(1) == 0

    def test_densities_list(self):
        h = make_two_level()
        dens = h.densities()
        assert len(dens) == 2
        assert dens[0] == pytest.approx(1.0)

    def test_single_level_helper(self):
        h = AmrHierarchy.single_level((16, 16, 16), ["a", "b"], max_grid_size=8, nranks=4)
        assert h.nlevels == 1
        assert h[0].num_cells == 16 ** 3
        assert h.ncomp == 2

    def test_value_range(self):
        h = make_two_level()
        domain = h[0].domain
        h[0].multifab.set_from_global("density", np.full(domain.shape, 2.0), domain)
        for fab in h[1].multifab:
            fab.component(0)[...] = -1.0
        assert h.value_range("density") == pytest.approx(3.0)

    def test_nbytes_and_cells(self):
        h = make_two_level()
        assert h.num_cells == 16 ** 3 + 16 ** 3
        assert h.nbytes == h.num_cells * 8


class TestRegrid:
    def test_cluster_tags_covers_all_tags(self):
        rng = np.random.default_rng(3)
        tags = np.zeros((32, 32, 32), dtype=bool)
        tags[5:12, 8:20, 3:9] = True
        tags[20:28, 2:6, 20:30] = True
        ba = cluster_tags(tags, max_grid_size=16)
        assert ba.is_disjoint()
        mask = ba.coverage_mask(Box.from_shape(tags.shape))
        assert np.all(mask[tags])  # every tag covered

    def test_cluster_tags_empty(self):
        ba = cluster_tags(np.zeros((8, 8, 8), dtype=bool))
        assert len(ba) == 0

    def test_cluster_respects_max_grid_size(self):
        tags = np.ones((40, 40, 8), dtype=bool)
        ba = cluster_tags(tags, max_grid_size=16)
        for b in ba:
            assert all(s <= 16 for s in b.shape)


class TestUpsample:
    def test_upsample_array(self):
        a = np.arange(8).reshape(2, 2, 2).astype(float)
        up = upsample_array(a, 2)
        assert up.shape == (4, 4, 4)
        assert np.all(up[0:2, 0:2, 0:2] == a[0, 0, 0])
        assert np.all(up[2:4, 2:4, 2:4] == a[1, 1, 1])

    def test_upsample_identity(self):
        a = np.random.default_rng(0).normal(size=(3, 3, 3))
        np.testing.assert_array_equal(upsample_array(a, 1), a)

    def test_covered_mask(self):
        h = make_two_level()
        mask = covered_mask(h, 0)
        assert mask.sum() == 8 ** 3
        assert covered_mask(h, 1).sum() == 0
