"""HDF5 filter-side modifications (§3.3 Solution 2).

The global chunk size of a level's shared dataset is the **largest per-rank
contribution** (:class:`~repro.core.preprocess.LevelLayout` decides it);
smaller ranks either pad (naive) or pass their actual size to the filter
(AMRIC).  :class:`AMRICLevelFilter` is an :class:`~repro.h5lite.filters.Filter`
whose ``encode`` understands AMRIC's pre-processed chunk contents: the chunk
is a field-major rank buffer made of 3D unit blocks, and the filter compresses
it with 3D SZ (SLE or clustered-interpolation) instead of treating it as a
flat stream.  The block structure travels inside the compressed payload so a
chunk is self-describing, mirroring how the real AMRIC feeds its modified
H5Z-SZ filter the metadata it needs.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.container import required
from repro.compress.errorbound import ErrorBound
from repro.compress.registry import create_codec, resolve_codec
from repro.core.preprocess import (
    PackedArrangement,
    pack_blocks_cluster,
    pack_blocks_linear,
    unpack_blocks,
)
from repro.h5lite.filters import Filter

__all__ = ["ChunkPlan", "AMRICLevelFilter"]


@dataclass
class ChunkPlan:
    """Block structure of one chunk (= one rank's field data)."""

    field: str
    block_shapes: List[Tuple[int, int, int]]   #: unit-block shapes, in buffer order
    value_range: float                          #: field value range (for the relative bound)
    #: unit-block lower corners in the level's index space (lets the clustered
    #: SZ_Interp arrangement keep spatial neighbours adjacent)
    block_positions: Optional[List[Tuple[int, int, int]]] = None

    @property
    def nelements(self) -> int:
        return int(sum(int(np.prod(s)) for s in self.block_shapes))

    def to_json(self) -> dict:
        return {"field": self.field, "block_shapes": [list(s) for s in self.block_shapes],
                "value_range": self.value_range,
                "block_positions": ([list(p) for p in self.block_positions]
                                    if self.block_positions is not None else None)}

    @staticmethod
    def from_json(obj: dict) -> "ChunkPlan":
        positions = obj.get("block_positions")
        return ChunkPlan(field=obj["field"],
                         block_shapes=[tuple(s) for s in obj["block_shapes"]],
                         value_range=float(obj["value_range"]),
                         block_positions=([tuple(p) for p in positions]
                                          if positions is not None else None))


class AMRICLevelFilter(Filter):
    """The modified compression filter: 3D-aware, actual-size-aware.

    The writer queues one :class:`ChunkPlan` per upcoming chunk (in write
    order) and hands the chunks to ``encode_many`` (``encode`` is its batch
    of one); the filter consumes the plans, rebuilds the 3D unit blocks from
    each flat chunk, compresses them with the configured SZ algorithm and
    emits one self-describing payload per chunk.  ``decode`` needs no side
    information.
    """

    filter_id = "amric_3d"

    def __init__(self, compressor: str = "sz_lr", error_bound: float = 1e-3,
                 error_bound_mode: str = "rel", use_sle: bool = True,
                 adaptive_block_size: bool = True, sz_block_size: int = 6,
                 interp_arrangement: str = "cluster", interp_anchor_stride: int = 16,
                 unit_block_size: int = 16):
        resolve_codec(compressor)        # unknown names fail fast with ValueError
        self.compressor = compressor
        self.error_bound = float(error_bound)
        self._bound = ErrorBound(self.error_bound, error_bound_mode)   # rel: per plan's range
        self.use_sle = bool(use_sle)
        self.adaptive_block_size = bool(adaptive_block_size)
        self.sz_block_size = int(sz_block_size)
        self.interp_arrangement = interp_arrangement
        self.interp_anchor_stride = int(interp_anchor_stride)
        self.unit_block_size = int(unit_block_size)
        #: one shared Huffman table carried across the chunks (= ranks) of the
        #: same SLE plan instead of rebuilt per chunk; a chunk whose symbols
        #: the table misses rebuilds it, and the rebuilt table is carried on
        self._shared_codec = None
        self._codec_scope = None      # (field, value_range) the cached table belongs to
        self._many_codec = None       # cached multi-array codec (the filter's bound)
        self._packed_codec = None     # cached single-array codec (absolute bound)
        self._packed_codec_eb: Optional[float] = None
        self._pending_plans: List[ChunkPlan] = []
        #: reconstructions of the blocks of every encoded chunk (encode order),
        #: kept so the writer can compute PSNR without re-reading the file
        self.last_reconstructions: List[List[np.ndarray]] = []

    # ------------------------------------------------------------------
    def queue_plan(self, plan: ChunkPlan) -> None:
        self._pending_plans.append(plan)

    def _sz_block_size_for(self) -> int:
        from repro.core.adaptive import select_sz_block_size

        if not self.adaptive_block_size:
            return self.sz_block_size
        return select_sz_block_size(self.unit_block_size, base_block_size=self.sz_block_size)

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
        single-array codec encodes chunk by chunk.  Headers and
        reconstructions stay per chunk.
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

        spec = resolve_codec(self.compressor)
        if spec.supports_many:
            encoded = self._encode_unit_blocks(spec, plans, blocks)
        else:
            encoded = [self._encode_packed(spec, plan, chunk_blocks)
                       for plan, chunk_blocks in zip(plans, blocks)]
        payloads = []
        for chunk, plan, (body, recons, arrangement) in zip(chunks, plans, encoded):
            header = json.dumps({
                "mode": spec.name,
                "plan": plan.to_json(),
                "chunk_elements": int(chunk.size),
                "error_bound": self.error_bound,
                "use_sle": self.use_sle,
                "sz_block_size": self._sz_block_size_for(),
                "interp_anchor_stride": self.interp_anchor_stride,
                "arrangement": arrangement,
            }).encode("utf-8")
            payload = struct.pack("<Q", len(header)) + header + body
            self.last_reconstructions.append(recons)
            payloads.append(payload)
        return payloads

    def _encode_unit_blocks(self, spec, plans, blocks):
        """Multi-array (unit-block) codecs compress the blocks directly, which
        is what unit SLE (§3.2 Solution 1) relies on: one codec call per run
        of chunks of one scope, ``(body, reconstructions, None)`` per chunk."""
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
                [chunk_blocks for _, chunk_blocks in run], shared_encoding=self.use_sle,
                value_range=scope[1], codec=self._shared_codec)
            self._shared_codec = comp.last_shared_codec
            out.extend((buffer.payload, recons, None) for buffer, recons in results)
        return out

    def _encode_packed(self, spec, plan: ChunkPlan, blocks: List[np.ndarray]):
        """Single-array codecs see one packed 3D arrangement of a chunk's
        blocks: ``(body, reconstructions, arrangement header)``."""
        if self.interp_arrangement == "cluster":
            packed, arrangement = pack_blocks_cluster(blocks, positions=plan.block_positions)
        else:
            packed, arrangement = pack_blocks_linear(blocks)
        abs_eb = self._bound.resolve(value_range=plan.value_range)
        if self._packed_codec is None or self._packed_codec_eb != abs_eb:
            self._packed_codec = spec.create(
                abs_eb, mode="abs", anchor_stride=self.interp_anchor_stride)
            self._packed_codec_eb = abs_eb
        buffer, packed_recon = self._packed_codec.compress_with_reconstruction(packed)
        return buffer.payload, unpack_blocks(packed_recon, arrangement), {
            "mode": arrangement.mode,
            "unit_shape": list(arrangement.unit_shape),
            "grid_shape": list(arrangement.grid_shape),
            "block_shapes": [list(s) for s in arrangement.block_shapes],
            "fill_value": arrangement.fill_value,
            "slot_of_block": list(arrangement.slot_of_block),
        }

    # ------------------------------------------------------------------
    def decode(self, payload: bytes, chunk_elements: int) -> np.ndarray:
        """The flat chunk: every block of the payload, in stored order."""
        sizes = [math.prod(shape) for shape in _block_shapes(_parse_payload(payload)[0])]
        ends = list(itertools.accumulate(sizes))
        if not 0 < ends[-1] <= chunk_elements:
            raise ValueError(f"AMRIC chunk payload: holds {ends[-1]} cells, "
                             f"the chunk has {chunk_elements}")
        (blocks,) = self.decode_blocks(
            [payload], chunk_elements, [[(end - size, size) for end, size in zip(ends, sizes)]],
            [range(len(sizes))])
        out = np.zeros(chunk_elements, dtype=np.float64)
        np.concatenate([block.reshape(-1) for block in blocks.values()], out=out[:ends[-1]])
        return out

    def decode_blocks(self, payloads: Sequence[bytes], chunk_elements: int,
                      layouts: Sequence[Sequence[Tuple[int, int]]],
                      wanted: Sequence[Sequence[int]]) -> List[Dict[int, np.ndarray]]:
        """The unit blocks of a job's chunks, each in its 3D shape.

        A payload must hold exactly the blocks its layout places (else it
        belongs to another dataset or chunk: ``ValueError``).  Payloads of one
        multi-array codec recipe go to the codec as one batch with their
        ``wanted`` ordinals: they share its entropy pass and only those blocks
        are decoded, each to what it is in the whole chunk.  A single-array
        codec's packed arrangement decodes whole: every block comes back.
        """
        out: List[Dict[int, np.ndarray]] = [{} for _ in payloads]
        batches: Dict[Tuple[str, float, int], List[Tuple[int, bytes]]] = {}
        for index, (payload, layout) in enumerate(zip(payloads, layouts)):
            header, body = _parse_payload(payload)
            held = [math.prod(shape) for shape in _block_shapes(header)]
            if held != [size for _, size in layout]:
                raise ValueError(
                    f"AMRIC chunk payload {index} of the job holds {len(held)} blocks "
                    f"of {sum(held)} cells, its place in the dataset {len(layout)} "
                    f"of {sum(size for _, size in layout)}")
            spec = resolve_codec(_need(header, "mode"))
            if spec.supports_many:
                recipe = (spec.name, _need(header, "error_bound"), _need(header, "sz_block_size"))
                batches.setdefault(recipe, []).append((index, body))
                continue
            arr = _need(header, "arrangement")
            arrangement = PackedArrangement(
                mode=_need(arr, "mode"), unit_shape=tuple(_need(arr, "unit_shape")),
                grid_shape=tuple(_need(arr, "grid_shape")),
                block_shapes=[tuple(s) for s in _need(arr, "block_shapes")],
                fill_value=float(_need(arr, "fill_value")),
                slot_of_block=list(arr.get("slot_of_block", [])))
            comp = spec.create(_need(header, "error_bound"), mode="abs",
                               anchor_stride=_need(header, "interp_anchor_stride"))
            out[index] = dict(enumerate(unpack_blocks(comp.decompress(body), arrangement)))
        for (name, error_bound, block_size), members in batches.items():
            comp = resolve_codec(name).create(error_bound, block_size=block_size)
            # (a chunk wanted whole — every ordinal, ascending — needs no narrowing)
            select = [list(wanted[index]) if len(wanted[index]) < len(layouts[index]) else None
                      for index, _ in members]
            decoded = comp.decompress_batch([body for _, body in members], select)
            for (index, _), blocks in zip(members, decoded):
                out[index] = dict(zip(wanted[index], blocks))
        return out


def _parse_payload(payload: bytes) -> Tuple[dict, bytes]:
    """``(header, codec body)`` of one self-describing chunk payload."""
    if len(payload) < 8:
        raise ValueError("AMRIC chunk payload: shorter than its header length")
    (header_len,) = struct.unpack_from("<Q", payload, 0)
    if header_len > len(payload) - 8:
        raise ValueError("AMRIC chunk payload: header runs past the payload")
    header = json.loads(bytes(payload[8:8 + header_len]).decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("AMRIC chunk payload: header is not a JSON object")
    return header, payload[8 + header_len:]


def _need(mapping: dict, key: str):
    return required(mapping, key, "AMRIC chunk header")


def _block_shapes(header: dict) -> List[list]:
    """The unit-block shapes a chunk header says its payload holds, in stored order."""
    plan = _need(header, "plan")
    shapes = plan.get("block_shapes") if isinstance(plan, dict) else None
    if not (isinstance(shapes, list) and shapes and all(
            isinstance(shape, list) and all(isinstance(n, int) and n > 0 for n in shape)
            for shape in shapes)):
        raise ValueError("AMRIC chunk header: block_shapes is not a list of positive extents")
    return shapes
