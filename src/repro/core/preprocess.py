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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.hierarchy import AmrHierarchy, AmrLevel

__all__ = [
    "UnitBlock",
    "PreprocessedLevel",
    "kept_regions_for_level",
    "truncate_regions",
    "preprocess_level",
    "pack_blocks_cluster",
    "pack_blocks_linear",
    "unpack_blocks",
    "PackedArrangement",
]


@dataclass
class UnitBlock:
    """One truncated unit block: where it lives and which box it came from."""

    box: Box                  #: region in the level's index space
    box_index: int            #: index of the originating AMR box
    rank: int                 #: owning MPI rank

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.box.shape

    @property
    def size(self) -> int:
        return self.box.size


@dataclass
class PreprocessedLevel:
    """The §3.1 output for one level: kept regions truncated into unit blocks."""

    level: int
    unit_blocks: List[UnitBlock]
    removed_cells: int            #: redundant coarse cells dropped
    total_cells: int              #: cells of the level before removal

    @property
    def kept_cells(self) -> int:
        return sum(b.size for b in self.unit_blocks)

    @property
    def removed_fraction(self) -> float:
        if self.total_cells == 0:
            return 0.0
        return self.removed_cells / self.total_cells

    def blocks_on_rank(self, rank: int) -> List[UnitBlock]:
        return [b for b in self.unit_blocks if b.rank == rank]


# ----------------------------------------------------------------------
# step 1: redundancy removal
# ----------------------------------------------------------------------
def kept_regions_for_level(hierarchy: AmrHierarchy, level: int,
                           remove_redundancy: bool = True) -> List[List[Box]]:
    """Per box of ``level``: the disjoint sub-boxes that survive redundancy removal.

    With ``remove_redundancy`` off (or on the finest level) every box survives
    whole.
    """
    lvl = hierarchy[level]
    if not remove_redundancy or level >= hierarchy.nlevels - 1:
        return [[box] for box in lvl.boxarray]
    ratio = hierarchy.ref_ratios[level]
    finer_coarsened = hierarchy[level + 1].boxarray.coarsen(ratio)
    kept: List[List[Box]] = []
    for box in lvl.boxarray:
        kept.append(finer_coarsened.complement_in(box))
    return kept


# ----------------------------------------------------------------------
# step 2: uniform truncation
# ----------------------------------------------------------------------
def truncate_regions(kept: Sequence[Sequence[Box]], distribution,
                     unit_block_size: int) -> List[UnitBlock]:
    """Cut every kept region into unit blocks of at most ``unit_block_size`` per side."""
    if unit_block_size < 1:
        raise ValueError("unit_block_size must be >= 1")
    out: List[UnitBlock] = []
    for box_index, regions in enumerate(kept):
        rank = distribution[box_index]
        for region in regions:
            for unit in region.split(unit_block_size):
                out.append(UnitBlock(box=unit, box_index=box_index, rank=rank))
    return out


def preprocess_level(hierarchy: AmrHierarchy, level: int, unit_block_size: int,
                     remove_redundancy: bool = True) -> PreprocessedLevel:
    """Run steps 1–2 for one level."""
    lvl = hierarchy[level]
    kept = kept_regions_for_level(hierarchy, level, remove_redundancy)
    blocks = truncate_regions(kept, lvl.multifab.distribution, unit_block_size)
    total = lvl.num_cells
    kept_cells = sum(b.size for b in blocks)
    return PreprocessedLevel(level=level, unit_blocks=blocks,
                             removed_cells=total - kept_cells, total_cells=total)


def extract_block_data(level: AmrLevel, component: str,
                       blocks: Sequence[UnitBlock]) -> List[np.ndarray]:
    """Pull the field data of each unit block out of the level's fabs.

    Returns views into the fab storage (no gather copy); consumers that need
    contiguous memory copy at their own boundary, and none of them write.
    """
    comp = level.multifab.component_index(component)
    out: List[np.ndarray] = []
    for block in blocks:
        fab = level.multifab[block.box_index]
        out.append(fab.component(comp)[block.box.slices(origin=fab.box.lo)])
    return out


# ----------------------------------------------------------------------
# step 3: reorganisation for SZ_Interp
# ----------------------------------------------------------------------
@dataclass
class PackedArrangement:
    """How a list of unit blocks was packed into one 3D array."""

    mode: str                                  #: "cluster" or "linear"
    unit_shape: Tuple[int, int, int]           #: the padded per-block cell shape
    grid_shape: Tuple[int, int, int]           #: blocks along each axis of the packing
    block_shapes: List[Tuple[int, ...]]        #: original (pre-padding) shapes
    fill_value: float
    slot_of_block: List[int] = field(default_factory=list)  #: packing slot per block

    def __post_init__(self) -> None:
        if not self.slot_of_block:
            self.slot_of_block = list(range(len(self.block_shapes)))

    @property
    def nblocks(self) -> int:
        return len(self.block_shapes)


def _slot_corner(slot: int, grid_shape, unit_shape):
    gi = slot // (grid_shape[1] * grid_shape[2])
    gj = (slot // grid_shape[2]) % grid_shape[1]
    gk = slot % grid_shape[2]
    return (gi * unit_shape[0], gj * unit_shape[1], gk * unit_shape[2])


def _pack(blocks: Sequence[np.ndarray], grid_shape: Tuple[int, int, int],
          mode: str, slot_of_block: List[int] | None = None
          ) -> Tuple[np.ndarray, PackedArrangement]:
    if not blocks:
        raise ValueError("cannot pack an empty block list")
    unit_shape = tuple(int(max(b.shape[d] for b in blocks)) for d in range(3))
    fill_value = float(np.mean([float(b.mean()) for b in blocks]))
    packed = np.full((grid_shape[0] * unit_shape[0],
                      grid_shape[1] * unit_shape[1],
                      grid_shape[2] * unit_shape[2]), fill_value, dtype=np.float64)
    if slot_of_block is None:
        slot_of_block = list(range(len(blocks)))
    shapes: List[Tuple[int, ...]] = []
    for index, block in enumerate(blocks):
        corner = _slot_corner(slot_of_block[index], grid_shape, unit_shape)
        # pad the block (edge mode) to the unit shape so interpolation does not
        # see artificial discontinuities inside a slot
        padded = np.pad(block, [(0, unit_shape[d] - block.shape[d]) for d in range(3)],
                        mode="edge")
        packed[corner[0]:corner[0] + unit_shape[0],
               corner[1]:corner[1] + unit_shape[1],
               corner[2]:corner[2] + unit_shape[2]] = padded
        shapes.append(tuple(block.shape))
    arrangement = PackedArrangement(mode=mode, unit_shape=unit_shape,
                                    grid_shape=grid_shape, block_shapes=shapes,
                                    fill_value=fill_value,
                                    slot_of_block=list(slot_of_block))
    return packed, arrangement


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


def pack_blocks_cluster(blocks: Sequence[np.ndarray],
                        positions: Sequence[Tuple[int, ...]] | None = None
                        ) -> Tuple[np.ndarray, PackedArrangement]:
    """Pack unit blocks into a compact cube-like cluster (§3.1, Figure 4 bottom).

    When ``positions`` (the blocks' lower corners in the level's index space)
    are provided and form a complete rectangular grid, the packing reproduces
    the blocks' spatial arrangement so the global interpolation sees real
    neighbours; otherwise the blocks are packed into the most cube-like grid
    in (position-sorted) order.
    """
    n = len(blocks)
    if n == 0:
        raise ValueError("cannot pack an empty block list")
    if positions is not None and len(positions) == n:
        spatial = _spatial_slots([tuple(int(v) for v in p) for p in positions])
        if spatial is not None:
            grid_shape, slots = spatial
            return _pack(blocks, grid_shape, "cluster", slots)
    gx = int(np.ceil(n ** (1.0 / 3.0)))
    gy = int(np.ceil(np.sqrt(n / gx)))
    gz = int(np.ceil(n / (gx * gy)))
    slots = None
    if positions is not None and len(positions) == n:
        # sort by spatial position so nearby blocks land in nearby slots
        ranked = sorted(range(n), key=lambda i: tuple(int(v) for v in positions[i]))
        slots = [0] * n
        for slot, block_index in enumerate(ranked):
            slots[block_index] = slot
    return _pack(blocks, (gx, gy, gz), "cluster", slots)


def pack_blocks_linear(blocks: Sequence[np.ndarray],
                       positions: Sequence[Tuple[int, ...]] | None = None
                       ) -> Tuple[np.ndarray, PackedArrangement]:
    """Stack unit blocks along the last axis (the cheap linear arrangement)."""
    n = len(blocks)
    if n == 0:
        raise ValueError("cannot pack an empty block list")
    return _pack(blocks, (1, 1, n), "linear")


def unpack_blocks(packed: np.ndarray, arrangement: PackedArrangement) -> List[np.ndarray]:
    """Invert :func:`pack_blocks_cluster` / :func:`pack_blocks_linear`."""
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
