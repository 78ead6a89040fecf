"""Tests for §3.1 pre-processing: redundancy removal, truncation, reorganisation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.baselines.tac import tac_compress
from repro.core.adaptive import residue_block_shapes, select_sz_block_size
from repro.core.preprocess import (
    arrange_blocks,
    hierarchy_layouts,
    level_layout,
    pack_blocks,
    unpack_blocks,
)


def _pack(blocks, mode):
    arrangement = arrange_blocks([b.shape for b in blocks], mode=mode)
    return pack_blocks(blocks, arrangement), arrangement


def _layout(hierarchy, level, unit_block_size=16, remove_redundancy=True):
    return hierarchy_layouts(hierarchy, unit_block_size, remove_redundancy)[level]


class TestRedundancyRemoval:
    def test_coarse_level_loses_covered_cells(self, nyx_hierarchy):
        layout = _layout(nyx_hierarchy, 0)
        covered = nyx_hierarchy.covered_cells(0)
        assert layout.removed_cells == covered
        assert layout.kept_cells == nyx_hierarchy[0].num_cells - covered
        assert 0 < layout.removed_cells / layout.total_cells < 1

    def test_finest_level_keeps_everything(self, nyx_hierarchy):
        layout = _layout(nyx_hierarchy, 1)
        assert layout.removed_cells == 0
        assert layout.kept_cells == nyx_hierarchy[1].num_cells

    def test_removal_disabled(self, nyx_hierarchy):
        layout = _layout(nyx_hierarchy, 0, remove_redundancy=False)
        assert layout.removed_cells == 0
        assert layout.kept_cells == nyx_hierarchy[0].num_cells

    def test_kept_blocks_disjoint_from_fine(self, nyx_hierarchy):
        layout = _layout(nyx_hierarchy, 0)
        fine_coarsened = nyx_hierarchy[1].boxarray.coarsen(nyx_hierarchy.ref_ratios[0])
        for i in range(layout.nblocks):
            assert not fine_coarsened.intersects(layout.box(i))

    def test_unit_blocks_respect_size_and_ownership(self, nyx_hierarchy):
        layout = _layout(nyx_hierarchy, 0, unit_block_size=8)
        dm = nyx_hierarchy[0].multifab.distribution
        for i in range(layout.nblocks):
            assert all(s <= 8 for s in layout.shapes[i])
            assert layout.rank[i] == dm[layout.box_index[i]]
            # the block must live inside its parent box
            assert nyx_hierarchy[0].boxarray[layout.box_index[i]].contains(layout.box(i))

    def test_views_match_source(self, nyx_hierarchy):
        layout = _layout(nyx_hierarchy, 1)
        level = nyx_hierarchy[1]
        comp = level.multifab.component_index("baryon_density")
        for i, arr in enumerate(layout.views(level, "baryon_density")[:5]):
            fab = level.multifab[layout.box_index[i]]
            np.testing.assert_array_equal(
                arr, fab.component(comp)[layout.box(i).slices(origin=fab.box.lo)])


@st.composite
def _levels(draw, with_finer):
    """Disjoint boxes with their ranks, and with ``with_finer`` a finer
    level's disjoint boxes (refinement ratio 2)."""
    def disjoint(extent, most):
        boxes = []
        for _ in range(draw(st.integers(1, most))):
            lo = tuple(draw(st.integers(0, extent - 1)) for _ in range(3))
            box = Box(lo, tuple(v + draw(st.integers(0, 7)) for v in lo))
            if not any(box.intersects(other) for other in boxes):
                boxes.append(box)
        return boxes

    boxes = disjoint(16, 6)
    ranks = draw(st.lists(st.integers(0, 3), min_size=len(boxes), max_size=len(boxes)))
    return boxes, ranks, disjoint(32, 4) if with_finer else None


def _row_of_boxes(shapes, ranks, unit_block_size=10 ** 6, finer=None):
    """A level of boxes side by side along the first axis, 100 cells apart."""
    los = [(100 * i, 0, 0) for i in range(len(shapes))]
    his = [tuple(l + n - 1 for l, n in zip(lo, shape)) for lo, shape in zip(los, shapes)]
    return level_layout(los, his, ranks, unit_block_size, finer=finer)


class TestLevelLayout:
    """One record per level: §3.1's blocks in §3.3's storage order."""

    @pytest.mark.parametrize("with_finer", [False, True])
    @given(data=st.data(), unit_block_size=st.integers(1, 9))
    def test_blocks_are_the_reference_grouped_by_rank(self, reference_blocks, with_finer,
                                                      data, unit_block_size):
        boxes, ranks, fine = data.draw(_levels(with_finer))
        covered = BoxArray(fine).coarsen(2) if fine else None
        want = sorted(reference_blocks(boxes, ranks, unit_block_size, covered),
                      key=lambda b: b.rank)                                 # stable
        layout = level_layout([b.lo for b in boxes], [b.hi for b in boxes], ranks,
                              unit_block_size,
                              finer=([b.lo for b in fine], [b.hi for b in fine], 2)
                              if fine else None)
        assert [layout.box(i) for i in range(layout.nblocks)] == [b.box for b in want]
        assert layout.box_index.tolist() == [b.box_index for b in want]
        assert layout.rank.tolist() == [b.rank for b in want]
        assert layout.sizes.tolist() == [b.size for b in want]
        total = sum(box.size for box in boxes)
        assert (layout.total_cells, layout.removed_cells) == \
            (total, total - sum(b.size for b in want))
        # offsets recounted: back to back, or from chunk j * (largest rank)
        per_rank = {}
        for b in want:
            per_rank[b.rank] = per_rank.get(b.rank, 0) + b.size
        chunk = max(per_rank.values(), default=0)
        stream, aligned, filled, offset = [], [], dict.fromkeys(per_rank, 0), 0
        for b in want:
            stream.append(offset)
            aligned.append(list(per_rank).index(b.rank) * chunk + filled[b.rank])
            offset += b.size
            filled[b.rank] += b.size
        assert layout.stream_offsets.tolist() == stream
        assert layout.rank_offsets.tolist() == aligned
        assert (layout.ranks, layout.rank_elements, layout.chunk_elements) == \
            (list(per_rank), list(per_rank.values()), chunk)

    def test_chunk_is_the_largest_rank(self):
        layout = _row_of_boxes([(10, 10, 10), (10, 20, 20), (10, 10, 25)], [0, 1, 2])
        assert layout.ranks == [0, 1, 2]
        assert layout.rank_elements == [1000, 4000, 2500]
        assert layout.chunk_elements == 4000

    def test_naive_padding_counts(self):
        """A naive global chunk pads every smaller rank up to the largest."""
        layout = _row_of_boxes([(10, 10, 10), (10, 20, 20), (10, 10, 25)], [0, 1, 2])
        padded = len(layout.ranks) * layout.chunk_elements - layout.kept_cells
        assert padded == 3000 + 0 + 1500
        even = _row_of_boxes([(1, 1, 100), (1, 1, 100)], [0, 1])
        assert len(even.ranks) * even.chunk_elements == even.kept_cells
        skewed = _row_of_boxes([(1, 1, 100), (1, 1, 300)], [0, 1])
        padded = len(skewed.ranks) * skewed.chunk_elements - skewed.kept_cells
        assert padded / skewed.kept_cells == pytest.approx(200 / 400)

    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=50))
    def test_padding_nonnegative_property(self, sizes):
        layout = _row_of_boxes([(1, 1, n) for n in sizes], list(range(len(sizes))))
        assert layout.chunk_elements == max(sizes)
        assert len(layout.ranks) * layout.chunk_elements >= layout.kept_cells

    def test_refuses_empty_or_negative_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            level_layout([], [], [], 4)
        with pytest.raises(ValueError, match="empty"):
            _row_of_boxes([(4, 4, 0)], [0])                 # hi = lo - 1
        with pytest.raises(ValueError, match="empty"):
            level_layout([(0, 0, 0)], [(-5, -5, -5)], [0], 4)
        with pytest.raises(ValueError, match="ranks"):
            _row_of_boxes([(4, 4, 4)], [-1])
        with pytest.raises(ValueError, match="unit_block_size"):
            _row_of_boxes([(4, 4, 4)], [0], unit_block_size=0)
        with pytest.raises(ValueError, match="ratio"):
            _row_of_boxes([(4, 4, 4)], [0], finer=([(0, 0, 0)], [(1, 1, 1)], 0))

    def test_a_level_the_finer_one_covers_stores_nothing(self):
        layout = _row_of_boxes([(4, 4, 4)], [0], finer=([(0, 0, 0)], [(7, 7, 7)], 2))
        assert (layout.nblocks, layout.ranks, layout.chunk_elements) == (0, [], 0)
        assert layout.removed_cells == layout.total_cells == 64

    def test_interleaved_ranks_store_stably_by_rank(self):
        """Ranks interleave across box indices and boxes cut into several
        blocks: stored order groups by rank and keeps the cut order within a
        rank; rank-aligned offsets restart at each chunk, stream-aligned ones
        run back to back."""
        shapes = [(4, 4, 4), (2, 2, 3), (4, 2, 2), (2, 2, 2), (3, 2, 2)]
        ranks = [2, 0, 1, 0, 2]
        layout = _row_of_boxes(shapes, ranks, unit_block_size=2)
        # box 0 cuts into 8 blocks, 1 into 2, 2 into 2, 3 into 1, 4 into 2
        assert layout.box_index.tolist() == [1, 1, 3, 2, 2] + [0] * 8 + [4, 4]
        assert layout.box(0) == Box((100, 0, 0), (101, 1, 1))
        assert layout.box(1) == Box((100, 0, 2), (101, 1, 2))
        assert layout.sizes.tolist() == [8, 4, 8, 8, 8] + [8] * 8 + [8, 4]
        assert layout.ranks == [0, 1, 2]
        assert layout.rank_runs == [slice(0, 3), slice(3, 5), slice(5, 15)]
        assert layout.rank_elements == [20, 16, 76] and layout.chunk_elements == 76
        assert layout.rank_offsets.tolist() == \
            [0, 8, 12] + [76, 84] + [152 + 8 * i for i in range(9)] + [224]
        assert layout.stream_offsets.tolist() == \
            np.concatenate([[0], np.cumsum(layout.sizes)[:-1]]).tolist()
        assert layout.stream_offsets[-1] + layout.sizes[-1] == layout.kept_cells == 112

    def test_layout_arrays_are_read_only(self):
        """A series shares one layout among the steps of a geometry: a stray
        in-place write must raise, not corrupt every step.  The caller's own
        arrays stay writable."""
        los = np.array([(0, 0, 0), (4, 0, 0)])
        his = los + 3
        layout = level_layout(los, his, [0, 1], 2, finer=([(0, 0, 0)], [(3, 3, 3)], 2))
        for name in ("lo", "hi", "sizes", "box_index", "rank", "box_lo",
                     "rank_offsets", "stream_offsets"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(layout, name)[...] = 0
        los[0, 0] = -1
        assert layout.box_lo[0, 0] == 0

    def test_placements_and_hits_address_the_blocks(self, nyx_hierarchy):
        layout = hierarchy_layouts(nyx_hierarchy, 8, True)[0]
        level = nyx_hierarchy[0]
        for view, (box, where), index in zip(layout.views(level, "baryon_density"),
                                             layout.placements, range(layout.nblocks)):
            fab = level.multifab[box]
            assert view.shape == layout.shapes[index]
            assert np.shares_memory(view, fab.data)
            assert fab.box.contains(layout.box(index))
        query = Box((3, 5, 7), (20, 11, 30))
        hits = layout.hits(query)
        assert [i for i, _, _ in hits] == [
            i for i in range(layout.nblocks) if layout.box(i).intersects(query)]
        for i, where, part in hits:
            overlap = layout.box(i).intersection(query)
            assert where == overlap.slices(origin=query.lo)
            assert part == overlap.slices(origin=layout.box(i).lo)


class TestTACReadsTheLayout:
    @pytest.mark.parametrize("fixture, level", [("nyx_hierarchy", None), ("nyx_hierarchy", 0),
                                                ("warpx_hierarchy", None)])
    def test_one_partition_per_kept_unit_block(self, request, reference_blocks, fixture,
                                               level):
        """TAC compresses every unit block that survives redundancy removal
        once, padded to the partition cube, within the global bound."""
        h = request.getfixturevalue(fixture)
        blocks = [b for i in (range(h.nlevels) if level is None else [level])
                  for b in reference_blocks(
                      list(h[i].boxarray), h[i].multifab.distribution.rank_of_box, 16,
                      h[i + 1].boxarray.coarsen(h.ref_ratios[i]) if i + 1 < h.nlevels
                      else None)]
        field = h.component_names[0]
        stats = tac_compress(h, field, 1e-3, partition_size=16, level=level)
        assert stats.extra["partitions"] == len(blocks)
        assert stats.original_nbytes == 8 * sum(b.size for b in blocks)
        assert stats.max_error <= 1e-3 * h.value_range(field) * (1 + 1e-9)


class TestPacking:
    def _blocks(self, n=7, shape=(8, 8, 8), seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape) for _ in range(n)]

    def test_cluster_roundtrip(self):
        blocks = self._blocks(10)
        packed, arrangement = _pack(blocks, "cluster")
        back = unpack_blocks(packed, arrangement)
        assert len(back) == 10
        for a, b in zip(blocks, back):
            np.testing.assert_array_equal(a, b)

    def test_linear_roundtrip_with_mixed_shapes(self):
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=(8, 8, 8)), rng.normal(size=(8, 8, 4)),
                  rng.normal(size=(4, 8, 8))]
        packed, arrangement = _pack(blocks, "linear")
        back = unpack_blocks(packed, arrangement)
        for a, b in zip(blocks, back):
            np.testing.assert_array_equal(a, b)

    def test_cluster_is_more_cubic_than_linear(self):
        blocks = self._blocks(27)
        cluster, _ = _pack(blocks, "cluster")
        linear, _ = _pack(blocks, "linear")
        def aspect(shape):
            return max(shape) / min(shape)
        assert aspect(cluster.shape) < aspect(linear.shape)
        assert cluster.size >= 27 * 512
        assert linear.shape[2] == 27 * 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _pack([], "cluster")
        with pytest.raises(ValueError):
            _pack([], "linear")


class TestAdaptiveBlockSize:
    def test_equation_1(self):
        # unit mod 6 <= 2  -> 4
        assert select_sz_block_size(8) == 4     # 8 mod 6 == 2
        assert select_sz_block_size(12) == 4    # 12 mod 6 == 0
        assert select_sz_block_size(32) == 4    # 32 mod 6 == 2
        # unit mod 6 > 2   -> 6
        assert select_sz_block_size(16) == 6    # 16 mod 6 == 4
        assert select_sz_block_size(22) == 6    # 22 mod 6 == 4
        # very large unit blocks -> 6 regardless
        assert select_sz_block_size(64) == 6
        assert select_sz_block_size(128) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            select_sz_block_size(0)

    def test_residue_block_shapes_unit8_block6(self):
        """Figure 8a: an 8³ unit block under 6³ truncation leaves thin residues."""
        shapes = residue_block_shapes(8, 6)
        assert (6, 6, 6) in shapes
        assert (6, 6, 2) in shapes
        assert (2, 2, 2) in shapes
        assert len(shapes) == 8
        # total volume preserved
        assert sum(a * b * c for a, b, c in shapes) == 8 ** 3

    def test_residue_block_shapes_unit8_block4(self):
        """Figure 8b: with 4³ blocks there are no thin residues."""
        shapes = residue_block_shapes(8, 4)
        assert set(shapes) == {(4, 4, 4)}
        assert len(shapes) == 8
