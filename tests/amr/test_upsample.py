"""Direct coverage for :mod:`repro.amr.upsample` (the conservative stencils).

``average_down`` / ``fill_covered_from_finer`` are the shared stencil both
the reader's refill stage and the analysis layer depend on; these tests pin
the conservation invariants (block means preserved exactly, upsample →
average_down is the identity) and the covered-cell bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.hierarchy import AmrHierarchy, AmrLevel
from repro.amr.multifab import MultiFab
from repro.amr.upsample import (
    average_down,
    covered_mask,
    fill_covered_from_finer,
    upsample_array,
)


def two_level_hierarchy(coarse_shape=(8, 8, 8), fine_lo=(4, 4, 4),
                        fine_hi=(11, 11, 11), ratio=2, seed=0):
    """A small hand-built hierarchy with one fine box and dense random data."""
    rng = np.random.default_rng(seed)
    names = ("f",)
    coarse_domain = Box.from_shape(coarse_shape)
    coarse_ba = BoxArray.decompose(coarse_domain, 8)
    coarse_mf = MultiFab(coarse_ba, names,
                         DistributionMapping.knapsack([b.size for b in coarse_ba], 2))
    coarse_mf.set_from_global("f", rng.normal(size=coarse_shape), coarse_domain)
    fine_ba = BoxArray([Box(fine_lo, fine_hi)])
    fine_mf = MultiFab(fine_ba, names,
                       DistributionMapping.knapsack([b.size for b in fine_ba], 2))
    fine_domain = coarse_domain.refine(ratio)
    for fab in fine_mf:
        fab.set_component(0, rng.normal(size=fab.box.shape))
    levels = [AmrLevel(0, coarse_domain, coarse_ba, coarse_mf),
              AmrLevel(1, fine_domain, fine_ba, fine_mf)]
    return AmrHierarchy(levels, [ratio])


class TestUpsampleAverageDown:
    def test_upsample_repeats_values(self):
        a = np.arange(8.0).reshape(2, 2, 2)
        up = upsample_array(a, 3)
        assert up.shape == (6, 6, 6)
        assert np.all(up[0:3, 0:3, 0:3] == a[0, 0, 0])
        assert np.all(up[3:6, 3:6, 3:6] == a[1, 1, 1])

    def test_ratio_one_is_identity_copy(self):
        a = np.arange(4.0).reshape(2, 2)
        up = upsample_array(a, 1)
        down = average_down(a, 1)
        assert np.array_equal(up, a) and np.array_equal(down, a)
        down[0, 0] = 99.0
        assert a[0, 0] == 0.0  # copy, not a view

    @pytest.mark.parametrize("ratio", [2, 4])
    def test_average_down_inverts_upsample_exactly(self, ratio):
        a = np.random.default_rng(1).normal(size=(4, 6, 2))
        assert np.allclose(average_down(upsample_array(a, ratio), ratio), a)

    def test_average_down_is_conservative(self):
        a = np.random.default_rng(2).normal(size=(8, 8))
        down = average_down(a, 2)
        # total mass is preserved: each coarse cell is the exact block mean
        assert np.isclose(down.sum() * 4, a.sum())
        assert np.isclose(down[0, 0], a[0:2, 0:2].mean())

    @settings(max_examples=200, deadline=None)
    @given(ratio=st.sampled_from([2, 3, 4, 8]), data=st.data(),
           coarse=st.lists(st.integers(1, 5), min_size=1, max_size=3))
    def test_a_sub_box_averages_to_the_whole_arrays_cells(self, ratio, data, coarse):
        """Bit for bit: a refilled box read averages its slice of a fine level
        down, a whole read averages the level, and both must agree."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fine = rng.normal(size=[ratio * n for n in coarse]) \
            * 10.0 ** rng.integers(-3, 12, size=[ratio * n for n in coarse])
        lo = [data.draw(st.integers(0, n - 1)) for n in coarse]
        hi = [data.draw(st.integers(a, n - 1)) for a, n in zip(lo, coarse)]
        sub = tuple(slice(ratio * a, ratio * (b + 1)) for a, b in zip(lo, hi))
        cells = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        whole = average_down(fine, ratio)
        part = average_down(fine[sub], ratio)
        assert part.tobytes() == whole[cells].tobytes()
        np.testing.assert_allclose(whole[cells], fine[sub].reshape(
            [d for n in part.shape for d in (n, ratio)]).mean(
                axis=tuple(range(1, 2 * part.ndim, 2))), rtol=0, atol=1e-12 * np.abs(fine).max())

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="ratio"):
            upsample_array(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError, match="ratio"):
            average_down(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError, match="not divisible"):
            average_down(np.zeros((3, 4)), 2)


class TestCoveredRefill:
    def test_covered_mask_matches_fine_boxes(self):
        h = two_level_hierarchy()
        mask = covered_mask(h, 0)
        expected = np.zeros((8, 8, 8), dtype=bool)
        expected[2:6, 2:6, 2:6] = True     # fine box (4..11) coarsened by 2
        assert np.array_equal(mask, expected)
        assert not covered_mask(h, 1).any()  # finest level is never covered

    def test_refill_restores_conservative_averages(self):
        h = two_level_hierarchy()
        # wipe the covered coarse cells, as the §3.1 preprocessing would
        mask = covered_mask(h, 0)
        comp = h[0].multifab.component_index("f")
        kept = {}
        for i, fab in enumerate(h[0].multifab):
            kept[i] = fab.component(comp).copy()
            local = mask[fab.box.slices(origin=h[0].domain.lo)]
            fab.component(comp)[local] = 0.0
        fill_covered_from_finer(h)
        fine_global = h[1].multifab.to_global("f", h[1].domain)
        for i, fab in enumerate(h[0].multifab):
            got = fab.component(comp)
            local = mask[fab.box.slices(origin=h[0].domain.lo)]
            # uncovered cells are untouched
            assert np.array_equal(got[~local], kept[i][~local])
            # covered cells hold the exact mean of their 2^3 fine children
            full = average_down(
                fine_global[fab.box.refine(2).slices(origin=h[1].domain.lo)], 2)
            assert np.allclose(got[local], full[local])

    def test_refill_cascades_through_intermediate_levels(self):
        # three levels: the middle level is refilled from the finest first,
        # then the coarse level sees the cascaded values
        names = ("f",)
        d0 = Box.from_shape((4, 4, 4))
        ba0 = BoxArray([d0])
        mf0 = MultiFab(ba0, names, DistributionMapping.knapsack([d0.size], 1))
        b1 = Box((2, 2, 2), (5, 5, 5))
        ba1 = BoxArray([b1])
        mf1 = MultiFab(ba1, names, DistributionMapping.knapsack([b1.size], 1))
        b2 = Box((4, 4, 4), (11, 11, 11))
        ba2 = BoxArray([b2])
        mf2 = MultiFab(ba2, names, DistributionMapping.knapsack([b2.size], 1))
        rng = np.random.default_rng(3)
        fine = rng.normal(size=b2.shape)
        mf2[0].set_component(0, fine)
        h = AmrHierarchy([AmrLevel(0, d0, ba0, mf0),
                          AmrLevel(1, d0.refine(2), ba1, mf1),
                          AmrLevel(2, d0.refine(4), ba2, mf2)], [2, 2])
        fill_covered_from_finer(h)
        # the coarse cell (1,1,1) is covered through both interfaces: its
        # value must equal the mean of the corresponding 4^3 finest cells
        assert np.isclose(h[0].multifab[0].component(0)[1, 1, 1],
                          average_down(fine, 4)[0, 0, 0])
