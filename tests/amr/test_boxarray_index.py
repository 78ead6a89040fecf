"""The array-backed :class:`BoxArray` index against the per-box loops it replaced.

The references below are the pre-index implementations verbatim: one
``Box.intersection`` per box of the array, in index order.  Every geometric
query must return exactly what they return — same hits, same overlap boxes,
same order — in 1-3 D, for negative coordinates, touching / nested / disjoint
boxes, an empty query box and an empty array.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray


# ----------------------------------------------------------------------
# references: plain Box loops
# ----------------------------------------------------------------------
def ref_intersections(ba, box):
    out = []
    for i, b in enumerate(ba.boxes):
        overlap = box.intersection(b)
        if not overlap.is_empty():
            out.append((i, overlap))
    return out


def ref_intersects(ba, box):
    return any(box.intersects(b) for b in ba.boxes)


def ref_coverage_mask(ba, box):
    mask = np.zeros(box.shape, dtype=bool)
    for _, overlap in ref_intersections(ba, box):
        mask[overlap.slices(origin=box.lo)] = True
    return mask


def ref_covered_fraction(ba, domain):
    if domain.size == 0:
        return 0.0
    return sum(o.size for _, o in ref_intersections(ba, domain)) / domain.size


def ref_complement_in(ba, box):
    remaining = [box] if not box.is_empty() else []
    for b in ba.boxes:
        next_remaining = []
        for piece in remaining:
            next_remaining.extend(piece.difference(b))
        remaining = next_remaining
        if not remaining:
            break
    return remaining


def ref_is_disjoint(ba):
    boxes = ba.boxes
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            if a.intersects(b):
                return False
    return True


# ----------------------------------------------------------------------
# strategies: small coordinates so touching / nested / equal boxes are common
# ----------------------------------------------------------------------
@st.composite
def boxes(draw, ndim, allow_empty=False):
    lo = tuple(draw(st.integers(-6, 6)) for _ in range(ndim))
    least = 0 if allow_empty else 1
    shape = tuple(draw(st.integers(least, 5)) for _ in range(ndim))
    return Box(lo, tuple(l + s - 1 for l, s in zip(lo, shape)))


@st.composite
def array_and_query(draw):
    ndim = draw(st.integers(1, 3))
    members = draw(st.lists(boxes(ndim), min_size=0, max_size=8))
    return BoxArray(members), draw(boxes(ndim, allow_empty=True))


class TestAgainstBoxLoops:
    @given(array_and_query())
    def test_queries_equal_the_reference(self, case):
        ba, query = case
        got = ba.intersections(query)
        assert got == ref_intersections(ba, query)
        assert [i for i, _ in got] == sorted(i for i, _ in got)
        assert all(type(i) is int for i, _ in got)
        assert ba.intersects(query) == ref_intersects(ba, query)
        assert np.array_equal(ba.coverage_mask(query),
                              ref_coverage_mask(ba, query))
        assert ba.covered_fraction(query) == ref_covered_fraction(ba, query)
        # same pieces in the same order: the writer's block layout hangs on it
        assert ba.complement_in(query) == ref_complement_in(ba, query)
        assert ba.contains_box(query) == (not ref_complement_in(ba, query))

    @given(array_and_query())
    def test_is_disjoint_equals_the_double_loop(self, case):
        ba, _ = case
        assert ba.is_disjoint() == ref_is_disjoint(ba)

    def test_touching_nested_and_disjoint_boxes(self):
        ba = BoxArray([Box((0, 0), (3, 3)),       # its top row lies in the query
                       Box((5, 5), (6, 6)),       # nested inside it
                       Box((-4, -4), (-1, -1)),   # diagonal neighbour of box 0
                       Box((20, 20), (21, 21))])  # far away
        query = Box((-1, 3), (8, 8))
        assert ba.intersections(query) == [(0, Box((0, 3), (3, 3))),
                                           (1, Box((5, 5), (6, 6)))]
        assert ba.intersections(Box((-1, -1), (0, 0))) == [
            (0, Box((0, 0), (0, 0))), (2, Box((-1, -1), (-1, -1)))]
        assert not ba.intersects(Box((4, 0), (4, 4)))      # the gap between boxes

    def test_single_box_and_its_own_query(self):
        only = Box((-3, 2, 0), (1, 4, 0))
        ba = BoxArray([only])
        assert ba.intersections(only) == [(0, only)]
        assert ba.covered_fraction(only) == 1.0
        assert ba.is_disjoint()

    def test_empty_query_and_empty_array(self):
        ba = BoxArray([Box((0, 0), (3, 3))])
        assert ba.intersections(Box.empty(2)) == []
        assert not ba.intersects(Box.empty(2))
        assert ba.covered_fraction(Box.empty(2)) == 0.0
        empty = BoxArray([])
        for query in (Box((0,), (4,)), Box((0, 0, 0), (1, 1, 1)), Box.empty(2)):
            assert empty.intersections(query) == []
            assert not empty.intersects(query)
            assert not empty.coverage_mask(query).any()
        assert empty.is_disjoint()

    def test_dimension_mismatch_raises(self):
        ba = BoxArray([Box((0, 0), (3, 3))])
        for query in (Box((0,), (1,)), Box((0, 0, 0), (1, 1, 1))):
            with pytest.raises(ValueError, match="different dimensions"):
                ba.intersections(query)
            with pytest.raises(ValueError, match="different dimensions"):
                ba.intersects(query)

    def test_coordinate_past_int64_names_the_box(self):
        huge = Box((0, 0, 0), (2 ** 70, 7, 7))
        for bad in (huge, Box((-2 ** 63 - 1, 0, 0), (0, 7, 7))):
            ba = BoxArray([Box((0, 0, 0), (7, 7, 7)), bad])
            for query in (ba.intersections, ba.intersects, ba.coverage_mask):
                with pytest.raises(ValueError, match="int64") as err:
                    query(Box((0, 0, 0), (3, 3, 3)))
                assert repr(bad) in str(err.value)
            assert ba._corners is None
        # the query box itself may lie anywhere
        assert BoxArray([Box((0, 0, 0), (7, 7, 7))]).intersections(huge) == \
            [(0, Box((0, 0, 0), (7, 7, 7)))]


class TestIndexLifetime:
    def test_built_on_first_query_and_reused(self):
        ba = BoxArray([Box((0, 0), (3, 3)), Box((4, 0), (7, 3))])
        assert ba._corners is None                 # construction builds nothing
        ba.intersections(Box((2, 2), (5, 5)))
        lo, hi = ba._corners
        assert lo.dtype == hi.dtype == np.int64 and lo.shape == hi.shape == (2, 2)
        ba.intersects(Box((0, 0), (0, 0)))
        ba.coverage_mask(Box((0, 0), (9, 9)))
        ba.is_disjoint()
        assert ba._corners[0] is lo and ba._corners[1] is hi

    def test_transform_results_index_their_own_boxes(self):
        ba = BoxArray([Box((0, 0), (7, 7)), Box((8, 0), (15, 7))])
        ba.intersects(Box((0, 0), (0, 0)))
        for derived in (ba.refine(2), ba.coarsen(2), ba.max_size(4), ba.grow(1)):
            assert derived._corners is None
            query = Box((3, 3), (9, 9))
            assert derived.intersections(query) == ref_intersections(derived, query)
            assert derived._corners[0] is not ba._corners[0]
            assert derived._corners[0].tolist() == [list(b.lo) for b in derived]
        # and the source's index still describes the source
        assert ba._corners[1].tolist() == [[7, 7], [15, 7]]
