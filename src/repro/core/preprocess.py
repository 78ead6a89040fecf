"""Compression-oriented pre-processing of AMR data (§3.1 of the paper).

Three steps, all operating on one AMR level at a time:

1. **Redundancy removal** — coarse regions covered by the next finer level are
   dropped.  The covered regions are found with box intersections against the
   finer level's (coarsened) box array; their position never needs to be
   stored because it is implied by the finer level's box positions.
2. **Uniform truncation** — the remaining (irregular) per-box regions are cut
   into unit blocks of at most ``unit_block_size`` per side so the compressor
   sees a collection of equal-ish 3D cubes instead of arbitrary box shapes.
3. **Reorganisation** — SZ_L/R consumes the unit blocks as an ordered list
   (linearised along the scan order, the cheapest arrangement); SZ_Interp
   consumes a single 3D array, so the blocks are packed into a compact,
   cube-like cluster (or a linear stack, for the Figure 5 comparison).

Steps 1-2 plus the §3.3 storage order — rank by rank, one chunk per rank sized
to the largest rank — are one record per level, :class:`LevelLayout`, built
by :func:`level_layout` from the level's boxes, their ranks and the next finer
level's boxes: the writer builds it from the hierarchy, the reader from the
plotfile header, and both place every block by it.  The baselines and the
studies that compress blocks outside a plotfile read the same record
(:func:`hierarchy_layouts`, then :meth:`LevelLayout.views`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, overlaps
from repro.amr.hierarchy import AmrHierarchy, AmrLevel

__all__ = [
    "LevelLayout",
    "level_layout",
    "level_layouts",
    "hierarchy_layouts",
    "arrange_blocks",
    "pack_blocks",
    "unpack_blocks",
    "PackedArrangement",
]


# ----------------------------------------------------------------------
# steps 1-2 as stored: one layout record per level
# ----------------------------------------------------------------------
#: the most cells a level may hold: every size, offset and corner the layout
#: derives from its boxes then stays exact in int64
_MAX_CELLS = 1 << 62


@dataclass(eq=False)
class LevelLayout:
    """One level's unit blocks as every dataset of the level stores them.

    Redundancy removal and truncation (§3.1) decide which blocks exist; §3.3
    stores them rank by rank — one chunk per participating rank, each
    ``chunk_elements`` long, the largest rank's cell count — and within a
    rank in the order truncation cut them.  Block ``i`` of that stored order
    is ``[lo[i], hi[i]]``, cut from level box ``box_index[i]`` on ``rank[i]``,
    and every field-major dataset (AMRIC, series step, ``nocomp``) holds it
    at element ``rank_offsets[i]``: chunk ``j`` starts at ``j *
    chunk_elements`` and holds the blocks of ``rank_runs[j]`` back to back,
    padded past the rank's cells.  Arrays are int64 and read-only: a series
    shares one layout among all the steps of a geometry.
    """

    lo: np.ndarray                 #: (n, ndim) lower corners, stored order
    hi: np.ndarray                 #: (n, ndim) upper corners
    sizes: np.ndarray              #: (n,) cells per block
    box_index: np.ndarray          #: (n,) the level box each block was cut from
    rank: np.ndarray               #: (n,) the rank that owns it
    box_lo: np.ndarray             #: (nboxes, ndim) the level boxes' lower corners
    ranks: List[int]               #: participating ranks, ascending: one chunk each
    rank_elements: List[int]       #: the cells each of them stores
    rank_runs: List[slice]         #: per participating rank, the run of its blocks
    chunk_elements: int            #: ``max(rank_elements)``; 0 when no block survived
    rank_offsets: np.ndarray       #: (n,) element offset in the level's datasets
    covered: BoxArray              #: the finer level's boxes coarsened to this level
    total_cells: int               #: the level's cells before redundancy removal

    @property
    def nblocks(self) -> int:
        return len(self.lo)

    @property
    def kept_cells(self) -> int:
        return sum(self.rank_elements)

    @property
    def removed_cells(self) -> int:
        return self.total_cells - self.kept_cells

    @cached_property
    def shapes(self) -> List[Tuple[int, ...]]:
        """Per block, its shape."""
        return [tuple(s) for s in (self.hi - self.lo + 1).tolist()]

    @cached_property
    def chunk_of(self) -> List[int]:
        """Per block, the chunk that holds it: its rank's."""
        return np.searchsorted(self.ranks, self.rank).tolist()

    @cached_property
    def placements(self) -> List[Tuple[int, Tuple[slice, ...]]]:
        """Per block, ``(box index, slices)``: where it lies in its box's fab."""
        start = self.lo - self.box_lo[self.box_index]
        stop = start + self.hi - self.lo + 1
        return [(box, tuple(map(slice, a, b)))
                for box, a, b in zip(self.box_index.tolist(), start.tolist(), stop.tolist())]

    def box(self, index: int) -> Box:
        return Box(tuple(self.lo[index].tolist()), tuple(self.hi[index].tolist()))

    def views(self, level: AmrLevel, component: str) -> List[np.ndarray]:
        """Every block's data, stored order: views of ``component`` in the
        level's fabs (no copy)."""
        comp = level.multifab.component_index(component)
        fabs = level.multifab.fabs
        return [fabs[box].data[comp][where] for box, where in self.placements]

    def hits(self, query: Box) -> List[Tuple[int, Tuple[slice, ...], Tuple[slice, ...]]]:
        """The blocks ``query`` meets, ascending, each with its overlap's
        slices in an array over ``query`` and in the block — one array
        comparison (:func:`~repro.amr.boxarray.overlaps`), no :class:`Box`
        per block."""
        index, lo, hi = overlaps(self.lo, self.hi, query)
        stop, own = hi + 1, self.lo[index]
        return [(i, tuple(map(slice, a, b)), tuple(map(slice, c, d)))
                for i, a, b, c, d in zip(index.tolist(), (lo - query.lo).tolist(),
                                         (stop - query.lo).tolist(), (lo - own).tolist(),
                                         (stop - own).tolist())]


def _int64(values, what: str) -> np.ndarray:
    try:                               # a copy: a layout freezes the arrays it keeps
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what}: a value lies outside the int64 range") from None


def _corners(los, his, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """A box list's corners as two ``(n, ndim)`` int64 arrays, checked."""
    lo, hi = _int64(los, what), _int64(his, what)
    if lo.ndim != 2 or lo.shape != hi.shape or not lo.size:
        raise ValueError(f"{what}: expected a non-empty list of boxes of one dimension")
    if (hi < lo).any():
        raise ValueError(f"{what}: box {int(np.flatnonzero((hi < lo).any(axis=1))[0])} "
                         "is empty")
    # counted in floats: an int64 extent could wrap before it is checked
    cells = np.prod(hi.astype(np.float64) - lo + 1.0, axis=1).sum()
    if cells >= _MAX_CELLS:
        raise ValueError(f"{what}: {cells:.3g} cells, more than a level may hold")
    return lo, hi


def level_layout(los: Sequence, his: Sequence, ranks: Sequence[int], unit_block_size: int,
                 finer: Optional[Tuple[Sequence, Sequence, int]] = None) -> LevelLayout:
    """The :class:`LevelLayout` of one level.

    ``los`` / ``his`` are its boxes' corners and ``ranks`` their owners;
    ``finer`` — the next finer level's corners and the refinement ratio to it
    — drops the cells those cover (``None``: nothing is dropped).  Geometry
    that cannot describe a level (no box, an empty box, a coordinate past
    int64, more than 2**62 cells) raises :class:`ValueError`.
    """
    box_lo, box_hi = _corners(los, his, "level boxes")
    nboxes, ndim = box_lo.shape
    owner = _int64(ranks, "box ranks")
    if owner.shape != (nboxes,) or (owner < 0).any():
        raise ValueError(f"{nboxes} boxes need as many non-negative ranks")
    if unit_block_size < 1:
        raise ValueError("unit_block_size must be >= 1")
    covered = BoxArray([])
    region_box, region_lo, region_hi = np.arange(nboxes), box_lo, box_hi
    if finer is not None:
        fine_lo, fine_hi = _corners(finer[0], finer[1], "finer boxes")
        ratio = _int64(finer[2], "refinement ratio")
        if ratio < 1:
            raise ValueError(f"refinement ratio must be >= 1, got {ratio}")
        covered = BoxArray([Box(tuple(lo), tuple(hi)) for lo, hi
                            in zip((fine_lo // ratio).tolist(), (fine_hi // ratio).tolist())])
        # step 1: every box minus what the finer level covers
        pieces = [(index, piece) for index, (lo, hi)
                  in enumerate(zip(box_lo.tolist(), box_hi.tolist()))
                  for piece in covered.complement_in(Box(tuple(lo), tuple(hi)))]
        region_box = np.array([index for index, _ in pieces], dtype=np.int64)
        region_lo = np.array([p.lo for _, p in pieces], dtype=np.int64).reshape(-1, ndim)
        region_hi = np.array([p.hi for _, p in pieces], dtype=np.int64).reshape(-1, ndim)
    # step 2: cut every region into blocks of at most ``side`` cells a side, in
    # the order Box.split cuts them (C order over the axes)
    side = min(unit_block_size, _MAX_CELLS)
    counts = (region_hi - region_lo) // side + 1
    per_region = counts.prod(axis=1)
    region = np.repeat(np.arange(len(per_region)), per_region)
    rest = np.arange(len(region)) - np.repeat(np.cumsum(per_region) - per_region, per_region)
    step = np.empty((len(region), ndim), dtype=np.int64)
    for axis in reversed(range(ndim)):
        rest, step[:, axis] = np.divmod(rest, counts[region, axis])
    lo = region_lo[region] + step * side
    hi = lo + np.minimum(side - 1, region_hi[region] - lo)
    # §3.3: stored rank by rank, each rank's blocks in the order they were cut
    order = np.argsort(owner[region_box[region]], kind="stable")
    lo, hi, box_index = lo[order], hi[order], region_box[region][order]
    rank = owner[box_index]
    sizes = (hi - lo + 1).prod(axis=1)
    ranks_, starts = np.unique(rank, return_index=True)
    bounds = starts.tolist() + [len(rank)]
    runs = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    rank_elements = np.add.reduceat(sizes, starts) if len(starts) else sizes[:0]
    chunk_elements = int(rank_elements.max(initial=0))
    # each block's offset back to back, restarted at its rank's chunk
    packed = np.cumsum(sizes) - sizes
    rank_offsets = packed + np.repeat(
        np.arange(len(starts)) * chunk_elements - packed[starts], np.diff(bounds))
    for array in (lo, hi, sizes, box_index, rank, box_lo, rank_offsets):
        array.setflags(write=False)
    return LevelLayout(
        lo=lo, hi=hi, sizes=sizes, box_index=box_index, rank=rank, box_lo=box_lo,
        ranks=ranks_.tolist(), rank_elements=rank_elements.tolist(), rank_runs=runs,
        chunk_elements=chunk_elements, rank_offsets=rank_offsets, covered=covered,
        total_cells=int((box_hi - box_lo + 1).prod(axis=1).sum()))


def level_layouts(levels: Sequence[Tuple[Sequence, Sequence, Sequence[int]]],
                  ref_ratios: Sequence[int], unit_block_size: int,
                  remove_redundancy: bool) -> List[LevelLayout]:
    """:func:`level_layout` of every level, given each level's ``(los, his,
    ranks)`` coarse to fine: with ``remove_redundancy`` every level but the
    finest drops what the next one covers."""
    return [level_layout(los, his, ranks, unit_block_size,
                         finer=(levels[i + 1][0], levels[i + 1][1], ref_ratios[i])
                         if remove_redundancy and i + 1 < len(levels) else None)
            for i, (los, his, ranks) in enumerate(levels)]


def hierarchy_layouts(hierarchy: AmrHierarchy, unit_block_size: int,
                      remove_redundancy: bool) -> List[LevelLayout]:
    """:func:`level_layouts` of a hierarchy in memory (the writers' side)."""
    return level_layouts(
        [([b.lo for b in lvl.boxarray], [b.hi for b in lvl.boxarray],
          lvl.multifab.distribution.rank_of_box) for lvl in hierarchy.levels],
        hierarchy.ref_ratios, unit_block_size, remove_redundancy)


# ----------------------------------------------------------------------
# step 3: reorganisation for SZ_Interp
# ----------------------------------------------------------------------
@dataclass
class PackedArrangement:
    """How a list of unit blocks is packed into one 3D array: a function of
    their shapes and positions alone (:func:`arrange_blocks`), so a reader
    derives it from the level layout instead of reading it back."""

    mode: str                                  #: "cluster" or "linear"
    unit_shape: Tuple[int, int, int]           #: the padded per-block cell shape
    grid_shape: Tuple[int, int, int]           #: blocks along each axis of the packing
    block_shapes: List[Tuple[int, ...]]        #: original (pre-padding) shapes
    slot_of_block: List[int] = field(default_factory=list)  #: packing slot per block

    def __post_init__(self) -> None:
        if not self.slot_of_block:
            self.slot_of_block = list(range(len(self.block_shapes)))

    @property
    def nblocks(self) -> int:
        return len(self.block_shapes)

    @property
    def packed_shape(self) -> Tuple[int, int, int]:
        return tuple(g * u for g, u in zip(self.grid_shape, self.unit_shape))


def _slot_corner(slot: int, grid_shape, unit_shape):
    gi = slot // (grid_shape[1] * grid_shape[2])
    gj = (slot // grid_shape[2]) % grid_shape[1]
    gk = slot % grid_shape[2]
    return (gi * unit_shape[0], gj * unit_shape[1], gk * unit_shape[2])


def pack_blocks(blocks: Sequence[np.ndarray], arrangement: PackedArrangement) -> np.ndarray:
    """The packed array of ``blocks`` under ``arrangement``: each block
    edge-padded to the unit shape in its slot, empty slots at the blocks' mean."""
    us = arrangement.unit_shape
    fill_value = float(np.mean([float(b.mean()) for b in blocks]))
    packed = np.full(arrangement.packed_shape, fill_value, dtype=np.float64)
    for slot, block in zip(arrangement.slot_of_block, blocks):
        corner = _slot_corner(slot, arrangement.grid_shape, us)
        # pad the block (edge mode) to the unit shape so interpolation does not
        # see artificial discontinuities inside a slot
        packed[corner[0]:corner[0] + us[0], corner[1]:corner[1] + us[1],
               corner[2]:corner[2] + us[2]] = np.pad(
                   block, [(0, us[d] - block.shape[d]) for d in range(3)], mode="edge")
    return packed


def _spatial_slots(positions: Sequence[Tuple[int, ...]]
                   ) -> Tuple[Tuple[int, int, int], List[int]] | None:
    """Grid shape + slot per block when the blocks' positions form a regular grid.

    Keeping spatial neighbours adjacent in the packed cube is what makes the
    clustered arrangement interpolation-friendly; when the positions do not
    tile a complete grid the caller falls back to a compact generic packing.
    """
    if not positions or len(set(positions)) != len(positions):
        return None
    axes = []
    for d in range(3):
        axes.append(sorted({p[d] for p in positions}))
    grid_shape = tuple(len(a) for a in axes)
    if int(np.prod(grid_shape)) != len(positions):
        return None
    index_of = [{v: i for i, v in enumerate(a)} for a in axes]
    slots = []
    for p in positions:
        gi, gj, gk = (index_of[d][p[d]] for d in range(3))
        slots.append((gi * grid_shape[1] + gj) * grid_shape[2] + gk)
    return grid_shape, slots


def arrange_blocks(shapes: Sequence[Tuple[int, ...]],
                   positions: Sequence[Tuple[int, ...]] | None = None,
                   mode: str = "cluster") -> PackedArrangement:
    """Where each block of ``shapes`` goes in the packed array (§3.1).

    ``"linear"`` stacks the blocks along the last axis.  ``"cluster"`` packs
    them into a compact cube-like grid (Figure 4 bottom): when ``positions``
    (the blocks' lower corners in the level's index space) form a complete
    rectangular grid the packing reproduces the blocks' spatial arrangement,
    so the global interpolation sees real neighbours; otherwise the blocks
    fill the most cube-like grid in (position-sorted) order.
    """
    n = len(shapes)
    if n == 0:
        raise ValueError("cannot pack an empty block list")
    unit_shape = tuple(int(max(shape[d] for shape in shapes)) for d in range(3))
    shapes = [tuple(shape) for shape in shapes]
    if mode == "linear":
        return PackedArrangement("linear", unit_shape, (1, 1, n), shapes)
    if mode != "cluster":
        raise ValueError(f"unknown block arrangement {mode!r}")
    slots = None
    if positions is not None and len(positions) == n:
        positions = [tuple(int(v) for v in p) for p in positions]
        spatial = _spatial_slots(positions)
        if spatial is not None:
            return PackedArrangement("cluster", unit_shape, spatial[0], shapes, spatial[1])
        # sort by spatial position so nearby blocks land in nearby slots
        slots = [0] * n
        for slot, block_index in enumerate(sorted(range(n), key=positions.__getitem__)):
            slots[block_index] = slot
    gx = int(np.ceil(n ** (1.0 / 3.0)))
    gy = int(np.ceil(np.sqrt(n / gx)))
    gz = int(np.ceil(n / (gx * gy)))
    return PackedArrangement("cluster", unit_shape, (gx, gy, gz), shapes, slots or [])


def unpack_blocks(packed: np.ndarray, arrangement: PackedArrangement) -> List[np.ndarray]:
    """Invert :func:`pack_blocks`."""
    us = arrangement.unit_shape
    gs = arrangement.grid_shape
    out: List[np.ndarray] = []
    for index, shape in enumerate(arrangement.block_shapes):
        corner = _slot_corner(arrangement.slot_of_block[index], gs, us)
        slot = packed[corner[0]:corner[0] + us[0],
                      corner[1]:corner[1] + us[1],
                      corner[2]:corner[2] + us[2]]
        out.append(np.ascontiguousarray(slot[tuple(slice(0, s) for s in shape)]))
    return out
