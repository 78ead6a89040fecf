"""HDF5 filter-side modifications (§3.3 Solution 2).

The global chunk size of a level's shared dataset is the **largest per-rank
contribution** (:class:`~repro.core.preprocess.LevelLayout` decides it);
smaller ranks either pad (naive) or pass their actual size to the filter
(AMRIC).  :class:`AMRICLevelFilter` is an :class:`~repro.h5lite.filters.Filter`
whose ``encode`` understands AMRIC's pre-processed chunk contents: the chunk
is a field-major rank buffer made of 3D unit blocks, and the filter compresses
it with 3D SZ (SLE or clustered-interpolation) instead of treating it as a
flat stream.

A chunk's payload is a lean record (format v2, DESIGN.md §5): it holds only
what the level layout cannot give.  The blocks a chunk holds — shapes,
positions, the clustered arrangement — are the writer's :class:`ChunkPlan`,
which :func:`chunk_plan` derives from the layout on both sides; the codec
recipe (codec, resolved bound, block size, SLE, ...) is stored once per
dataset (:attr:`AMRICLevelFilter.recipe`, the dataset's ``codec`` attribute).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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

    The writer queues one :class:`ChunkPlan` per upcoming chunk (in write
    order) and hands the chunks to ``encode_many`` (``encode`` is its batch
    of one); the filter consumes the plans, rebuilds the 3D unit blocks from
    each flat chunk, compresses them with the configured SZ algorithm and
    emits one record per chunk, leaving the dataset's :attr:`recipe`.  A
    reader builds the filter with :meth:`reading` from that recipe and hands
    it each chunk's plan.
    """

    filter_id = "amric_3d"

    def __init__(self, config: Optional[AMRICConfig] = None):
        #: the settings it writes under (the config validated them)
        self.config = config = config or AMRICConfig()
        self._bound = config.error_bound_obj          # rel: per plan's range
        #: one shared Huffman table carried across the chunks (= ranks) of the
        #: same SLE plan instead of rebuilt per chunk; a chunk whose symbols
        #: the table misses rebuilds it, and the rebuilt table is carried on
        self._shared_codec = None
        self._codec_scope = None      # (field, value_range) the cached table belongs to
        self._many_codec = None       # cached multi-array codec (the filter's bound)
        self._packed_codec = None     # cached single-array codec (absolute bound)
        self._packed_codec_eb: Optional[float] = None
        self._pending_plans: List[ChunkPlan] = []
        #: what the chunk encoded last was written under (a dataset stores it
        #: once); what a reading filter decodes under
        self.recipe: Optional[dict] = None
        #: reconstructions of the blocks of every encoded chunk (encode order),
        #: kept so the writer can compute PSNR without re-reading the file
        self.last_reconstructions: List[List[np.ndarray]] = []

    @classmethod
    def reading(cls, recipe: dict) -> "AMRICLevelFilter":
        """The filter that decodes a dataset stored under ``recipe``."""
        filt = cls()
        filt.recipe = dict(recipe)
        return filt

    # ------------------------------------------------------------------
    def queue_plan(self, plan: ChunkPlan) -> None:
        self._pending_plans.append(plan)

    def _sz_block_size_for(self) -> int:
        from repro.core.adaptive import select_sz_block_size

        cfg = self.config
        if not cfg.adaptive_block_size:
            return cfg.sz_block_size
        return select_sz_block_size(cfg.unit_block_size, base_block_size=cfg.sz_block_size)

    # ------------------------------------------------------------------
    def encode(self, chunk: np.ndarray, actual_elements: Optional[int] = None) -> bytes:
        (payload,) = self.encode_many([chunk], [actual_elements])
        return payload

    def encode_many(self, chunks: Sequence[np.ndarray],
                    actual_elements: Sequence[Optional[int]]) -> List[bytes]:
        """Encode a dataset's chunks, in write order, one queued plan each.

        Consecutive chunks of one ``(field, value_range)`` scope go to a
        multi-array codec in one call: predicted together, serialised in
        order, the shared Huffman table carried from chunk to chunk.  A
        single-array codec encodes chunk by chunk.  Reconstructions stay per
        chunk; :attr:`recipe` is the last chunk's (a dataset's chunks share
        one: one field, one value range).
        """
        if len(self._pending_plans) < len(chunks):
            raise RuntimeError("AMRICLevelFilter.encode called without a queued ChunkPlan")
        plans = self._pending_plans[:len(chunks)]
        del self._pending_plans[:len(chunks)]
        chunks = [np.asarray(chunk, dtype=np.float64).reshape(-1) for chunk in chunks]
        blocks = []
        for chunk, plan, actual in zip(chunks, plans, actual_elements, strict=True):
            if actual is not None and actual != plan.nelements:
                raise ValueError(f"chunk plan expects {plan.nelements} valid elements, "
                                 f"writer passed {actual}")
            # rebuild the 3D unit blocks from the flat (field-major) chunk prefix
            ends = itertools.accumulate(math.prod(shape) for shape in plan.block_shapes)
            blocks.append([chunk[end - math.prod(shape):end].reshape(shape)
                           for shape, end in zip(plan.block_shapes, ends)])

        spec = resolve_codec(self.config.compressor)
        if spec.supports_many:
            encoded = self._encode_unit_blocks(spec, plans, blocks)
        else:
            encoded = [self._encode_packed(spec, plan, chunk_blocks)
                       for plan, chunk_blocks in zip(plans, blocks)]
        self.recipe = encoded[-1][2]
        self.last_reconstructions.extend(recons for _, recons, _ in encoded)
        return [record for record, _, _ in encoded]

    def _encode_unit_blocks(self, spec, plans, blocks):
        """Multi-array (unit-block) codecs compress the blocks directly, which
        is what unit SLE (§3.2 Solution 1) relies on: one codec call per run
        of chunks of one scope, ``(record, reconstructions, recipe)`` per chunk."""
        if self._many_codec is None:
            self._many_codec = spec.create(self._bound, block_size=self._sz_block_size_for())
        comp = self._many_codec
        out = []
        for scope, run in itertools.groupby(
                zip(plans, blocks), key=lambda item: (item[0].field, item[0].value_range)):
            # the carried table is only valid within one SLE plan — chunks of
            # the same field with the same quantisation grid; a different
            # field (or bound) has a different symbol distribution
            if self._codec_scope != scope:
                self._shared_codec = None
                self._codec_scope = scope
            results = comp.compress_many_with_reconstruction(
                [chunk_blocks for _, chunk_blocks in run], shared_encoding=self.config.use_sle,
                value_range=scope[1], codec=self._shared_codec, framed=False)
            self._shared_codec = comp.last_shared_codec
            out.extend((buffer.payload, recons, buffer.meta["recipe"])
                       for buffer, recons in results)
        return out

    def _encode_packed(self, spec, plan: ChunkPlan, blocks: List[np.ndarray]):
        """Single-array codecs see one packed 3D arrangement of a chunk's
        blocks: ``(record, reconstructions, recipe)``."""
        cfg = self.config
        arrangement = arrange_blocks(plan.block_shapes, plan.block_positions,
                                     cfg.interp_arrangement)
        abs_eb = self._bound.resolve(value_range=plan.value_range)
        if self._packed_codec is None or self._packed_codec_eb != abs_eb:
            self._packed_codec = spec.create(
                abs_eb, mode="abs", anchor_stride=cfg.interp_anchor_stride)
            self._packed_codec_eb = abs_eb
        recipe = dict(self._packed_codec.recipe(abs_eb), arrangement=cfg.interp_arrangement)
        record, packed_recon = self._packed_codec.encode_record(
            pack_blocks(blocks, arrangement), _packed_context(recipe, arrangement))
        return record, unpack_blocks(packed_recon, arrangement), recipe

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
            [payload], chunk_elements, [[(end - size, size) for end, size in zip(ends, sizes)]],
            [range(len(sizes))], [plan])
        out = np.zeros(chunk_elements, dtype=np.float64)
        np.concatenate([block.reshape(-1) for block in blocks.values()], out=out[:ends[-1]])
        return out

    def decode_blocks(self, payloads: Sequence[bytes], chunk_elements: int,
                      layouts: Sequence[Sequence[Tuple[int, int]]],
                      wanted: Sequence[Sequence[int]],
                      plans: Optional[Sequence[ChunkPlan]] = None,
                      stored: Optional[Sequence[int]] = None,
                      ) -> List[Dict[int, np.ndarray]]:
        """The unit blocks of a job's chunks, each in its 3D shape.

        Each record is decoded against its chunk's plan (a record of another
        place fails its block count or checksum: ``CorruptFileError``).  A
        multi-array codec gets the job as one batch with the ``wanted``
        ordinals: the records share its entropy pass and only those blocks
        are decoded, each to what it is in the whole chunk.  A single-array
        codec's packed arrangement decodes whole: every block ``layouts``
        places comes back.  (``stored`` is unused: a plan names its chunk's cells.)
        """
        if self.recipe is None or plans is None:
            raise ValueError("an AMRIC chunk decodes under its dataset's recipe "
                             "(AMRICLevelFilter.reading) against its ChunkPlan")
        recipe = self.recipe
        comp = codec_from_recipe(recipe)
        if resolve_codec(comp.name).supports_many:
            # (a chunk wanted whole — every ordinal, ascending — needs no narrowing)
            select = [list(want) if len(want) < len(plan.block_shapes) else None
                      for want, plan in zip(wanted, plans, strict=True)]
            decoded = comp.decode_records(payloads, [plan.block_shapes for plan in plans],
                                          recipe, select)
            return [dict(zip(want, blocks)) for want, blocks in zip(wanted, decoded)]
        mode = required(recipe, "arrangement", "AMRIC recipe")
        if mode not in ("cluster", "linear"):
            raise CorruptFileError(f"AMRIC recipe: unknown block arrangement {mode!r}")
        out: List[Dict[int, np.ndarray]] = []
        for payload, plan, layout in zip(payloads, plans, layouts, strict=True):
            arrangement = arrange_blocks(plan.block_shapes, plan.block_positions, mode)
            blocks = unpack_blocks(comp.decode_record(
                payload, arrangement.packed_shape, _packed_context(recipe, arrangement)),
                arrangement)
            out.append(dict(enumerate(blocks[:len(layout)])))
        return out
