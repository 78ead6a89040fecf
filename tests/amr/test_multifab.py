"""Tests for repro.amr.multifab and repro.amr.distribution."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.multifab import FArrayBox, MultiFab


class TestFArrayBox:
    def test_allocation_shape(self):
        fab = FArrayBox(Box.from_shape((4, 5, 6)), ncomp=3)
        assert fab.data.shape == (3, 4, 5, 6)
        assert fab.nbytes == 3 * 4 * 5 * 6 * 8

    def test_array_is_allocated_zero_filled(self):
        fab = FArrayBox(Box.from_shape((4, 5, 6)), ncomp=3, dtype=np.float32)
        assert (fab.shape, fab.nbytes, fab.dtype) == ((4, 5, 6), 3 * 4 * 5 * 6 * 4, np.float32)
        assert fab.data.dtype == np.float32 and not fab.data.any()
        assert fab.data is fab.data                     # one array, zero-filled
        given = np.ones((1, 2, 2))
        assert FArrayBox(Box.from_shape((2, 2)), data=given).data is given

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            FArrayBox(Box.empty(3))

    def test_bad_ncomp(self):
        with pytest.raises(ValueError):
            FArrayBox(Box.from_shape((2, 2, 2)), ncomp=0)

    def test_component_view_is_writable(self):
        fab = FArrayBox(Box.from_shape((2, 2, 2)), ncomp=2)
        fab.component(1)[...] = 5.0
        assert np.all(fab.data[1] == 5.0)
        assert np.all(fab.data[0] == 0.0)

    def test_set_component_shape_check(self):
        fab = FArrayBox(Box.from_shape((2, 2, 2)))
        with pytest.raises(ValueError):
            fab.set_component(0, np.zeros((3, 3, 3)))

    def test_copy_is_deep(self):
        fab = FArrayBox(Box.from_shape((2, 2, 2)))
        clone = fab.copy()
        clone.data[...] = 7.0
        assert np.all(fab.data == 0.0)

    def test_min_max(self):
        fab = FArrayBox(Box.from_shape((2, 2, 2)), ncomp=2)
        fab.set_component(1, np.arange(8, dtype=float).reshape(2, 2, 2))
        assert fab.max() == 7.0
        assert fab.min(0) == 0.0
        assert fab.max(1) == 7.0


class TestDistributionMapping:
    def test_round_robin(self):
        dm = DistributionMapping.round_robin(7, 3)
        assert dm.rank_of_box == [0, 1, 2, 0, 1, 2, 0]

    def test_knapsack_balances(self):
        sizes = [100, 1, 1, 1, 1, 100, 50, 50]
        dm = DistributionMapping.knapsack(sizes, 2)
        loads = [sum(s for s, r in zip(sizes, dm.rank_of_box) if r == rank)
                 for rank in range(2)]
        assert abs(loads[0] - loads[1]) <= 50
        assert sum(loads) == sum(sizes)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            DistributionMapping([0, 5], 2)
        with pytest.raises(ValueError):
            DistributionMapping.round_robin(3, 0)


class TestMultiFab:
    @pytest.fixture
    def mf(self):
        ba = BoxArray.decompose(Box.from_shape((8, 8, 8)), 4)
        dm = DistributionMapping.round_robin(len(ba), 2)
        return MultiFab(ba, ["density", "temperature"], dm)

    def test_structure(self, mf):
        assert mf.ncomp == 2
        assert mf.nboxes == 8
        assert mf.component_index("temperature") == 1
        with pytest.raises(KeyError):
            mf.component_index("missing")

    def test_duplicate_component_names_rejected(self):
        ba = BoxArray.decompose(Box.from_shape((4, 4, 4)), 4)
        with pytest.raises(ValueError):
            MultiFab(ba, ["a", "a"])

    def test_global_roundtrip(self, mf):
        domain = Box.from_shape((8, 8, 8))
        rng = np.random.default_rng(0)
        field = rng.normal(size=domain.shape)
        mf.set_from_global("density", field, domain)
        back = mf.to_global("density", domain)
        np.testing.assert_array_equal(back, field)

    def test_value_range(self, mf):
        domain = Box.from_shape((8, 8, 8))
        mf.set_from_global("density", np.linspace(-2, 6, 512).reshape(8, 8, 8), domain)
        assert mf.min("density") == pytest.approx(-2)
        assert mf.max("density") == pytest.approx(6)
        assert mf.value_range("density") == pytest.approx(8)

    def test_copy_is_deep(self, mf):
        domain = Box.from_shape((8, 8, 8))
        mf.set_from_global("density", np.ones(domain.shape), domain)
        clone = mf.copy()
        clone[0].data[...] = -99.0
        assert mf[0].data.max() >= 0

    def test_distribution_length_mismatch(self):
        ba = BoxArray.decompose(Box.from_shape((8, 8, 8)), 4)
        dm = DistributionMapping.round_robin(3, 2)
        with pytest.raises(ValueError):
            MultiFab(ba, ["x"], dm)
