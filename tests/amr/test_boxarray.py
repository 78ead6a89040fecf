"""Tests for repro.amr.boxarray."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray


@pytest.fixture
def simple_array():
    return BoxArray([
        Box((0, 0, 0), (3, 3, 3)),
        Box((4, 0, 0), (7, 3, 3)),
        Box((0, 4, 0), (3, 7, 3)),
    ])


class TestBasics:
    def test_len_and_iteration(self, simple_array):
        assert len(simple_array) == 3
        assert sum(1 for _ in simple_array) == 3

    def test_empty_boxes_dropped(self):
        ba = BoxArray([Box.empty(3), Box.from_shape((2, 2, 2))])
        assert len(ba) == 1

    def test_mixed_dim_rejected(self):
        with pytest.raises(ValueError):
            BoxArray([Box.from_shape((2, 2)), Box.from_shape((2, 2, 2))])

    def test_num_cells(self, simple_array):
        assert simple_array.num_cells == 3 * 64

    def test_is_disjoint(self, simple_array):
        assert simple_array.is_disjoint()
        overlapping = BoxArray([Box((0, 0, 0), (3, 3, 3)), Box((2, 2, 2), (5, 5, 5))])
        assert not overlapping.is_disjoint()

    def test_equality(self, simple_array):
        same = BoxArray(list(simple_array.boxes))
        assert simple_array == same


class TestTransforms:
    def test_refine_coarsen(self, simple_array):
        refined = simple_array.refine(2)
        assert refined.num_cells == simple_array.num_cells * 8
        assert refined.coarsen(2) == simple_array

    def test_max_size(self):
        ba = BoxArray([Box.from_shape((16, 16, 16))])
        chopped = ba.max_size(8)
        assert len(chopped) == 8
        assert chopped.num_cells == 16 ** 3

    def test_grow(self, simple_array):
        grown = simple_array.grow(1)
        assert all(g.size > b.size for g, b in zip(grown, simple_array))


class TestGeometry:
    def test_intersections(self, simple_array):
        probe = Box((2, 2, 0), (5, 5, 3))
        hits = simple_array.intersections(probe)
        assert len(hits) == 3
        covered = sum(b.size for _, b in hits)
        assert covered == probe.size - 2 * 2 * 4  # corner (4..5,4..5) uncovered

    def test_complement_in_full_cover(self):
        ba = BoxArray([Box.from_shape((4, 4, 4))])
        assert ba.complement_in(Box.from_shape((4, 4, 4))) == []

    def test_complement_in_partial(self, simple_array):
        domain = Box.from_shape((8, 8, 4))
        rest = simple_array.complement_in(domain)
        covered = simple_array.num_cells
        assert sum(b.size for b in rest) == domain.size - covered
        for piece in rest:
            assert not simple_array.intersects(piece)

    def test_contains_box(self, simple_array):
        assert simple_array.contains_box(Box((0, 0, 0), (7, 3, 3)))
        assert not simple_array.contains_box(Box((0, 0, 0), (7, 7, 3)))

    def test_coverage_mask(self, simple_array):
        domain = Box.from_shape((8, 8, 4))
        mask = simple_array.coverage_mask(domain)
        assert mask.shape == domain.shape
        assert mask.sum() == simple_array.num_cells

    def test_covered_fraction(self, simple_array):
        domain = Box.from_shape((8, 8, 4))
        frac = simple_array.covered_fraction(domain)
        assert frac == pytest.approx(simple_array.num_cells / domain.size)


class TestDecompose:
    def test_decompose_covers_domain(self):
        domain = Box.from_shape((20, 12, 8))
        ba = BoxArray.decompose(domain, 8)
        assert ba.num_cells == domain.size
        assert ba.is_disjoint()
        for b in ba:
            assert all(s <= 8 for s in b.shape)

    @given(st.tuples(st.integers(4, 24), st.integers(4, 24), st.integers(4, 24)),
           st.integers(3, 9))
    def test_decompose_property(self, shape, max_size):
        domain = Box.from_shape(shape)
        ba = BoxArray.decompose(domain, max_size)
        assert ba.num_cells == domain.size
        assert ba.is_disjoint()

    @given(st.tuples(st.integers(4, 16), st.integers(4, 16), st.integers(4, 16)),
           st.integers(3, 8), st.integers(2, 6))
    def test_complement_partition_property(self, shape, max_size, probe_side):
        """complement + intersections exactly partition any probe box."""
        domain = Box.from_shape(shape)
        ba = BoxArray.decompose(domain, max_size)
        # drop every other box so there is something uncovered
        ba = BoxArray(list(ba.boxes)[::2])
        probe = Box.from_shape((probe_side,) * 3, lo=(1, 1, 1))
        inter = sum(b.size for _, b in ba.intersections(probe))
        comp = sum(b.size for b in ba.complement_in(probe))
        assert inter + comp == probe.size
