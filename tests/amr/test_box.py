"""Unit and property tests for repro.amr.box."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box, bounding_box


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
class TestConstruction:
    def test_from_shape_origin(self):
        b = Box.from_shape((4, 5, 6))
        assert b.lo == (0, 0, 0)
        assert b.hi == (3, 4, 5)
        assert b.shape == (4, 5, 6)
        assert b.size == 120

    def test_from_shape_with_lo(self):
        b = Box.from_shape((2, 2), lo=(10, -3))
        assert b.lo == (10, -3)
        assert b.hi == (11, -2)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            Box.from_shape((0, 4))

    def test_mismatched_dims_raise(self):
        with pytest.raises(ValueError):
            Box((0, 0), (1, 1, 1))

    def test_invalid_hi_raises(self):
        with pytest.raises(ValueError):
            Box((0, 0), (-5, 3))

    def test_empty_box(self):
        e = Box.empty(3)
        assert e.is_empty()
        assert e.size == 0
        assert e.shape == (0, 0, 0)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            Box((), ())

    def test_coordinates_coerced_to_python_ints(self):
        # every sequence flavour normalises to the same hashable box
        ref = Box((1, -2, 3), (4, 5, 6))
        for lo, hi in (([1, -2, 3], [4, 5, 6]),
                       (np.array([1, -2, 3]), np.array([4, 5, 6], dtype=np.int32)),
                       ((np.int64(1), -2.0, 3), range(4, 7))):
            b = Box(lo, hi)
            assert b == ref and hash(b) == hash(ref)
            assert all(type(v) is int for v in b.lo + b.hi)

    def test_scalar_coordinates_rejected(self):
        # a bare scalar has no dimension to broadcast to
        for scalar in (3, np.int64(3), 3.0):
            with pytest.raises(ValueError, match="explicit dimension"):
                Box(scalar, (1, 1))

    def test_scalar_arguments_broadcast(self):
        b = Box((0, 0, 0), (3, 3, 3))
        for two in (2, np.int64(2), 2.0):
            assert b.grow(two) == Box((-2, -2, -2), (5, 5, 5))
            assert b.refine(two) == Box((0, 0, 0), (7, 7, 7))
            assert b.shift(two).lo == (2, 2, 2)
        with pytest.raises(ValueError, match="3-dimensional"):
            b.shift((1, 1))

    def test_non_integer_coordinates_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            Box((0, None), (1, 1))
        with pytest.raises((TypeError, ValueError)):
            Box((0, "x"), (1, 1))

    def test_frozen(self):
        b = Box.from_shape((2, 2))
        with pytest.raises(Exception):
            b.lo = (1, 1)  # type: ignore[misc]


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
class TestQueries:
    def test_contains_box(self):
        outer = Box.from_shape((10, 10, 10))
        inner = Box((2, 2, 2), (5, 5, 5))
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(Box.empty(3))

    def test_equality_and_hash(self):
        a = Box((0, 0), (3, 3))
        b = Box((0, 0), (3, 3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Box((0, 0), (2, 3))


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------
class TestAlgebra:
    def test_intersection_overlapping(self):
        a = Box((0, 0), (5, 5))
        b = Box((3, 3), (8, 8))
        inter = a.intersection(b)
        assert inter == Box((3, 3), (5, 5))

    def test_intersection_disjoint_is_empty(self):
        a = Box((0, 0), (2, 2))
        b = Box((5, 5), (7, 7))
        assert a.intersection(b).is_empty()
        assert not a.intersects(b)

    def test_intersection_touching_edges(self):
        a = Box((0, 0), (2, 2))
        b = Box((2, 0), (4, 2))
        inter = a.intersection(b)
        assert inter == Box((2, 0), (2, 2))  # shared face of cells

    def test_bounding_union(self):
        a = Box((0, 0), (1, 1))
        b = Box((4, 4), (5, 5))
        assert a.bounding_union(b) == Box((0, 0), (5, 5))

    def test_shift(self):
        b = Box((0, 0, 0), (1, 1, 1)).shift((2, -1, 0))
        assert b == Box((2, -1, 0), (3, 0, 1))

    def test_grow(self):
        b = Box((2, 2), (4, 4)).grow(1)
        assert b == Box((1, 1), (5, 5))

    def test_refine_coarsen_roundtrip(self):
        b = Box((1, 2, 3), (4, 5, 6))
        assert b.refine(2).coarsen(2) == b

    def test_refine_shape(self):
        b = Box.from_shape((4, 4, 4))
        r = b.refine(2)
        assert r.shape == (8, 8, 8)
        assert r.lo == (0, 0, 0)

    def test_coarsen_negative_lo_floor(self):
        # AMReX coarsening floors toward -inf
        b = Box((-3, -3), (1, 1))
        c = b.coarsen(2)
        assert c.lo == (-2, -2)
        assert c.hi == (0, 0)

    @pytest.mark.parametrize("lo, hi, ratio", [
        ((-7, -1, -8), (-1, 0, 7), 2),                    # negative, zero-crossing
        ((-5, 0, 1), (4, 2, 11), (3, 1, 4)),              # per-axis ratios
        ((2 ** 53 + 1, -(2 ** 53) - 3, -(2 ** 60) - 1),   # beyond float64's integers
         (2 ** 53 + 3, -(2 ** 53) - 1, 2 ** 60 + 1), 2),
        ((3 ** 40, -(3 ** 40)), (3 ** 40 + 1, 3 ** 40), 3),
    ])
    def test_coarsen_is_the_mathematical_floor(self, lo, hi, ratio):
        from fractions import Fraction
        from math import floor

        c = Box(lo, hi).coarsen(ratio)
        ratios = ratio if isinstance(ratio, tuple) else (ratio,) * len(lo)
        assert c.lo == tuple(floor(Fraction(l, r)) for l, r in zip(lo, ratios))
        assert c.hi == tuple(floor(Fraction(h, r)) for h, r in zip(hi, ratios))
        assert all(type(v) is int for v in c.lo + c.hi)

    def test_refine_coarsen_roundtrip_beyond_float_precision(self):
        b = Box((2 ** 53 + 1, -(2 ** 62) - 1), (2 ** 53 + 5, -(2 ** 62) + 1))
        for ratio in (2, 3, (4, 7)):
            assert b.refine(ratio).coarsen(ratio) == b

    def test_refine_invalid_ratio(self):
        with pytest.raises(ValueError):
            Box.from_shape((2, 2)).refine(0)
        with pytest.raises(ValueError):
            Box.from_shape((2, 2)).coarsen(0)

    def test_difference_no_overlap(self):
        a = Box((0, 0), (2, 2))
        b = Box((10, 10), (12, 12))
        assert a.difference(b) == [a]

    def test_difference_full_cover(self):
        a = Box((1, 1), (2, 2))
        b = Box((0, 0), (5, 5))
        assert a.difference(b) == []

    def test_difference_partial_covers_exactly(self):
        a = Box((0, 0, 0), (7, 7, 7))
        b = Box((2, 2, 2), (5, 5, 5))
        pieces = a.difference(b)
        # pieces must be disjoint, not overlap b, and together with b cover a
        total = sum(p.size for p in pieces)
        assert total == a.size - b.size
        for p in pieces:
            assert not p.intersects(b)
            assert a.contains(p)
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not p.intersects(q)

    def test_split_covers_and_respects_max(self):
        b = Box.from_shape((10, 7, 5))
        parts = b.split((4, 4, 4))
        assert sum(p.size for p in parts) == b.size
        for p in parts:
            assert all(s <= 4 for s in p.shape)
            assert b.contains(p)

    def test_slices_extract(self):
        arr = np.arange(6 * 6).reshape(6, 6)
        b = Box((2, 3), (4, 5))
        sub = arr[b.slices()]
        assert sub.shape == (3, 3)
        assert sub[0, 0] == arr[2, 3]

    def test_slices_with_origin(self):
        arr = np.arange(6 * 6).reshape(6, 6)
        b = Box((12, 13), (13, 14))
        sub = arr[b.slices(origin=(10, 10))]
        assert sub.shape == (2, 2)
        assert sub[0, 0] == arr[2, 3]

    def test_cells_iteration(self):
        b = Box((0, 0), (1, 2))
        cells = list(b.cells())
        assert len(cells) == b.size
        assert (0, 0) in cells and (1, 2) in cells

    def test_bounding_box_helper(self):
        boxes = [Box((0, 0), (1, 1)), Box((5, 2), (6, 3))]
        assert bounding_box(boxes) == Box((0, 0), (6, 3))
        with pytest.raises(ValueError):
            bounding_box([])


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
box_coords = st.integers(min_value=-20, max_value=20)


@st.composite
def boxes_3d(draw, max_extent=8):
    lo = tuple(draw(box_coords) for _ in range(3))
    shape = tuple(draw(st.integers(1, max_extent)) for _ in range(3))
    return Box.from_shape(shape, lo=lo)


class TestBoxProperties:
    @given(boxes_3d(), boxes_3d())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(boxes_3d(), boxes_3d())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if not inter.is_empty():
            assert a.contains(inter)
            assert b.contains(inter)

    @given(boxes_3d())
    def test_intersection_with_self_is_identity(self, a):
        assert a.intersection(a) == a

    @given(boxes_3d(), st.integers(2, 4))
    def test_refine_coarsen_roundtrip(self, a, ratio):
        assert a.refine(ratio).coarsen(ratio) == a

    @given(boxes_3d(), st.integers(2, 4))
    def test_refine_scales_size(self, a, ratio):
        assert a.refine(ratio).size == a.size * ratio ** 3

    @given(boxes_3d(), boxes_3d())
    def test_difference_partition(self, a, b):
        pieces = a.difference(b)
        overlap = a.intersection(b)
        assert sum(p.size for p in pieces) == a.size - overlap.size
        for p in pieces:
            assert not p.intersects(b)

    @given(boxes_3d(max_extent=6), st.integers(2, 5))
    def test_split_partition(self, a, m):
        parts = a.split(m)
        assert sum(p.size for p in parts) == a.size
        for i, p in enumerate(parts):
            assert all(s <= m for s in p.shape)
            for q in parts[i + 1:]:
                assert not p.intersects(q)

    @given(boxes_3d(), boxes_3d(), boxes_3d())
    def test_bounding_union_contains_all(self, a, b, c):
        u = a.bounding_union(b).bounding_union(c)
        for x in (a, b, c):
            assert u.contains(x)
