"""HDF5 filter-side modifications (§3.3 Solution 2).

The global chunk size of a level's shared dataset is the **largest per-rank
contribution** (:class:`~repro.core.preprocess.LevelLayout` decides it);
smaller ranks either pad (naive) or pass their actual size to the filter
(AMRIC: each chunk's :class:`ChunkPlan`).  :class:`AMRICLevelFilter` is an :class:`~repro.h5lite.filters.Filter`
whose ``encode`` understands AMRIC's pre-processed chunk contents: the chunk
is a field-major rank buffer made of 3D unit blocks, and the filter compresses
it with 3D SZ (SLE or clustered-interpolation) instead of treating it as a
flat stream.

A chunk's payload is a lean record (format v2, DESIGN.md §5): it holds only
what the level layout cannot give.  The blocks a chunk holds — shapes,
positions, the clustered arrangement — are the writer's :class:`ChunkPlan`,
which :func:`chunk_plan` derives from the layout on both sides; the codec
recipe (codec, resolved bound, block size, SLE, ...) is stored once per
dataset (what :meth:`AMRICLevelFilter.encode` returns beside the records, the
dataset's ``codec`` attribute).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.container import recipe_context
from repro.compress.registry import codec_from_recipe, resolve_codec
from repro.core.config import AMRICConfig
from repro.core.preprocess import LevelLayout, arrange_blocks, pack_blocks, unpack_blocks
from repro.errors import CorruptFileError, required
from repro.h5lite.filters import Filter

__all__ = ["ChunkPlan", "chunk_plan", "AMRICLevelFilter"]


@dataclass
class ChunkPlan:
    """Block structure of one chunk (= one rank's field data)."""

    block_shapes: List[Tuple[int, ...]]         #: unit-block shapes, in buffer order
    #: unit-block lower corners in the level's index space (lets the clustered
    #: SZ_Interp arrangement keep spatial neighbours adjacent)
    block_positions: Optional[List[Tuple[int, ...]]] = None
    field: str = ""
    value_range: float = 0.0                    #: field value range (for the relative bound)

    @property
    def nelements(self) -> int:
        return int(sum(math.prod(s) for s in self.block_shapes))


def chunk_plan(layout: LevelLayout, chunk: int, padded: bool = False, field: str = "",
               value_range: float = 0.0) -> ChunkPlan:
    """The blocks chunk ``chunk`` of a level's datasets holds, in stored order:
    what the writer tells the filter and what the reader decodes against.

    A ``padded`` chunk (the naive filter, ``modify_filter`` off) is encoded
    whole: its zero tail is one more pseudo block and the chunk keeps no
    block positions.
    """
    run = layout.rank_runs[chunk]
    shapes = layout.shapes[run]
    positions = [tuple(p) for p in layout.lo[run].tolist()]
    tail = layout.chunk_elements - layout.rank_elements[chunk]
    if padded and tail:
        shapes, positions = shapes + [(1, 1, tail)], None
    return ChunkPlan(shapes, positions, field, value_range)


def _packed_context(recipe: dict, arrangement) -> bytes:
    """What a packed record's checksum covers besides the packed shape: the
    recipe and where each block sits, so a record read under another recipe
    or against another chunk's blocks fails."""
    return recipe_context(recipe, sorted(recipe), "AMRIC recipe") + np.asarray(
        [list(shape) + [slot] for shape, slot in zip(
            arrangement.block_shapes, arrangement.slot_of_block)], dtype="<i8").tobytes()


class AMRICLevelFilter(Filter):
    """The modified compression filter: 3D-aware, actual-size-aware.

    A writing filter holds only the config it writes under: :meth:`encode`
    is one pure call over a dataset's chunks, each with its
    :class:`ChunkPlan` (what its rank actually holds, §3.3), that rebuilds
    the 3D unit blocks of every flat chunk, compresses them with the
    configured SZ algorithm and returns the records, the reconstructions and
    the recipe.  A reader builds the filter with :meth:`reading` from that
    recipe and hands it each chunk's plan.
    """

    filter_id = "amric_3d"

    def __init__(self, config: Optional[AMRICConfig] = None):
        #: the settings it writes under (the config validated them)
        self.config = config or AMRICConfig()
        #: what a reading filter decodes under (the dataset's ``codec`` attribute)
        self.recipe: Optional[dict] = None

    @classmethod
    def reading(cls, recipe: dict) -> "AMRICLevelFilter":
        """The filter that decodes a dataset stored under ``recipe``."""
        filt = cls()
        filt.recipe = dict(recipe)
        return filt

    # ------------------------------------------------------------------
    def encode(self, chunks: Sequence[np.ndarray], plans: Sequence[ChunkPlan],
               ) -> Tuple[List[bytes], List[List[np.ndarray]], dict]:
        """``(records, reconstructions, recipe)`` of a dataset's chunks, in
        write order: one record and one list of block reconstructions per
        chunk, and the recipe the dataset stores once (its chunks share one:
        one field, one value range).

        A chunk's plan names the cells it holds, a prefix of the chunk (the
        rest is the padding of the global chunk size).  Consecutive chunks of
        one ``(field, value_range)`` scope go to a multi-array codec in one
        call: predicted together, serialised in order, the shared Huffman
        table carried from chunk to chunk.  A single-array codec encodes
        chunk by chunk.
        """
        blocks = []
        for chunk, plan in zip(chunks, plans, strict=True):
            chunk = np.asarray(chunk, dtype=np.float64).reshape(-1)
            if chunk.size < plan.nelements:
                raise ValueError(f"chunk holds {chunk.size} cells, "
                                 f"its plan {plan.nelements}")
            # rebuild the 3D unit blocks from the flat (field-major) chunk prefix
            ends = itertools.accumulate(math.prod(shape) for shape in plan.block_shapes)
            blocks.append([chunk[end - math.prod(shape):end].reshape(shape)
                           for shape, end in zip(plan.block_shapes, ends)])
        spec = resolve_codec(self.config.compressor)
        encode = self._encode_unit_blocks if spec.supports_many else self._encode_packed
        records, reconstructions, recipes = zip(*encode(spec, plans, blocks))
        return list(records), list(reconstructions), recipes[-1]

    def _encode_unit_blocks(self, spec, plans, blocks):
        """Multi-array (unit-block) codecs compress the blocks directly, which
        is what unit SLE (§3.2 Solution 1) relies on: one codec call per run
        of chunks of one scope, ``(record, reconstructions, recipe)`` per chunk."""
        from repro.core.adaptive import select_sz_block_size

        cfg = self.config
        block_size = (select_sz_block_size(cfg.unit_block_size, base_block_size=cfg.sz_block_size)
                      if cfg.adaptive_block_size else cfg.sz_block_size)
        comp = spec.create(cfg.error_bound_obj, block_size=block_size)
        out = []
        for scope, run in itertools.groupby(
                zip(plans, blocks), key=lambda item: (item[0].field, item[0].value_range)):
            # the carried table is only valid within one SLE plan — chunks of
            # the same field with the same quantisation grid; a different
            # field (or bound) has a different symbol distribution
            out.extend(comp.compress_many_with_reconstruction(
                [chunk_blocks for _, chunk_blocks in run], shared_encoding=cfg.use_sle,
                value_range=scope[1]))
        return out

    def _encode_packed(self, spec, plans, blocks):
        """Single-array codecs see one packed 3D arrangement of each chunk's
        blocks: ``(record, reconstructions, recipe)`` per chunk."""
        cfg = self.config
        out = []
        for plan, chunk_blocks in zip(plans, blocks):
            arrangement = arrange_blocks(plan.block_shapes, plan.block_positions,
                                         cfg.interp_arrangement)
            abs_eb = cfg.error_bound_obj.resolve(value_range=plan.value_range)
            comp = spec.create(abs_eb, mode="abs", anchor_stride=cfg.interp_anchor_stride)
            recipe = dict(comp.recipe(abs_eb), arrangement=cfg.interp_arrangement)
            record, packed_recon = comp.encode_record(
                pack_blocks(chunk_blocks, arrangement), _packed_context(recipe, arrangement))
            out.append((record, unpack_blocks(packed_recon, arrangement), recipe))
        return out

    # ------------------------------------------------------------------
    def decode(self, payload: bytes, chunk_elements: int,
               plan: Optional[ChunkPlan] = None) -> np.ndarray:
        """The flat chunk: every block of ``plan``, in stored order."""
        if plan is None:
            raise ValueError("an AMRIC chunk decodes against its ChunkPlan "
                             "(chunk_plan of the level layout)")
        sizes = [math.prod(shape) for shape in plan.block_shapes]
        ends = list(itertools.accumulate(sizes))
        if not 0 < ends[-1] <= chunk_elements:
            raise ValueError(f"AMRIC chunk plan: holds {ends[-1]} cells, "
                             f"the chunk has {chunk_elements}")
        (blocks,) = self.decode_blocks(
            [self.parse(payload, plan)], chunk_elements,
            [[(end - size, size) for end, size in zip(ends, sizes)]], [range(len(sizes))])
        out = np.zeros(chunk_elements, dtype=np.float64)
        np.concatenate([block.reshape(-1) for block in blocks.values()], out=out[:ends[-1]])
        return out

    @cached_property
    def _codec(self):
        """The decoder of the recipe (a :class:`CorruptFileError` names a bad one)."""
        if self.recipe is None:
            raise ValueError("an AMRIC chunk decodes under its dataset's recipe "
                             "(AMRICLevelFilter.reading) against its ChunkPlan")
        return codec_from_recipe(self.recipe)

    def parse(self, payload: bytes, plan: ChunkPlan):
        """A record checked against its chunk's plan short of the entropy pass
        (another place's fails its block count or checksum: ``CorruptFileError``);
        a single-array codec's comes with the packed arrangement it decodes into."""
        comp = self._codec
        if resolve_codec(comp.name).supports_many:
            return comp.parse_record(payload, plan.block_shapes, self.recipe)
        mode = required(self.recipe, "arrangement", "AMRIC recipe")
        if mode not in ("cluster", "linear"):
            raise CorruptFileError(f"AMRIC recipe: unknown block arrangement {mode!r}")
        arrangement = arrange_blocks(plan.block_shapes, plan.block_positions, mode)
        return arrangement, comp.parse_record(payload, arrangement.packed_shape,
                                              _packed_context(self.recipe, arrangement))

    def decode_blocks(self, records: Sequence[object], chunk_elements: int,
                      layouts: Sequence[Sequence[Tuple[int, int]]],
                      wanted: Sequence[Sequence[int]],
                      stored: Optional[Sequence[int]] = None,
                      ) -> List[Dict[int, np.ndarray]]:
        """The unit blocks of a job's parsed records (:meth:`parse`), each in
        its 3D shape.  A multi-array codec gets the job as one batch with the ``wanted``
        ordinals: the records share its entropy pass and only those blocks
        are decoded, each to what it is in the whole chunk.  A single-array
        codec's packed arrangement decodes whole: every block ``layouts``
        places comes back.  (``stored`` is unused: a plan names its chunk's cells.)
        """
        comp = self._codec
        if resolve_codec(comp.name).supports_many:
            decoded = comp.decode_parsed(records, self.recipe, [list(want) for want in wanted])
            return [dict(zip(want, blocks)) for want, blocks in zip(wanted, decoded)]
        return [dict(enumerate(unpack_blocks(comp.decode_parsed(parsed), arrangement)
                               [:len(layout)]))
                for (arrangement, parsed), layout in zip(records, layouts, strict=True)]
