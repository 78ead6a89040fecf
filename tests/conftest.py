"""Shared pytest configuration.

Registers a hypothesis profile suited to a numerics-heavy suite: no per-example
deadline (numpy warm-up and O(n^2) geometric checks are fine but not
microsecond-fast) and a bounded number of examples so the full suite stays
quick.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# §3.1 from the amr primitives alone: the reference of the layout record
# ----------------------------------------------------------------------
def unit_blocks_by_box(boxes, ranks, unit_block_size, covered=None):
    """Every box minus what ``covered`` (a ``BoxArray`` at the boxes' level,
    or None) covers — ``BoxArray.complement_in`` — cut by ``Box.split``, in box
    order: one ``(box, box_index, rank, size)`` record per unit block."""
    return [SimpleNamespace(box=unit, box_index=index, rank=ranks[index], size=unit.size)
            for index, box in enumerate(boxes)
            for region in (covered.complement_in(box) if covered is not None else [box])
            for unit in region.split(unit_block_size)]


@pytest.fixture(scope="session")
def reference_blocks():
    """:func:`unit_blocks_by_box` (a function: what ``LevelLayout`` must hold)."""
    return unit_blocks_by_box


# ----------------------------------------------------------------------
# the parent's chunk door, kept as the reference of the block door
# ----------------------------------------------------------------------
class ParentChunkDoor:
    """The read path as it was before blocks became the unit of decode and of
    cache: every chunk a request touches is fetched and decoded *whole and on
    its own* by its filter's ``decode``, held by chunk index, and blocks are
    re-sliced out of the flat chunks (``gather``); hits are selected by the
    per-slot ``Box`` scan.  ``read_field`` / ``read`` built on it are what the
    block door's answers must equal element for element.

    Its slots are derived apart from the reader's layout record: the header's
    hierarchy (``template_from_header``), its unit blocks
    (:func:`unit_blocks_by_box`) grouped by rank, and offsets counted here —
    one chunk per rank from ``j * chunk_elements``, its blocks back to back.
    """

    def __init__(self, handle):
        from repro.core.header import template_from_header

        self.handle = handle
        header = handle.header
        self.structure = template_from_header(header)
        self.remove_redundancy = header.remove_redundancy
        self.datasets = {}
        stored = handle._file.datasets
        for level in range(self.structure.nlevels):
            lvl, finer = self.structure[level], level + 1 < self.structure.nlevels
            covered = self.structure[level + 1].boxarray.coarsen(
                self.structure.ref_ratios[level]) \
                if header.remove_redundancy and finer else None
            blocks = sorted(unit_blocks_by_box(
                list(lvl.boxarray), lvl.multifab.distribution.rank_of_box,
                header.unit_block_size, covered), key=lambda b: b.rank)      # stable
            for name in header.components:
                info = stored.get(f"level_{level}/{name}")
                if not blocks or info is None:
                    continue
                slots, offset, chunk, rank = [], 0, -1, None
                for block in blocks:
                    if block.rank != rank:
                        chunk, rank = chunk + 1, block.rank
                        offset = chunk * info.chunk_elements
                    slots.append(SimpleNamespace(block=block, chunk=chunk, offset=offset,
                                                 size=block.size))
                    offset += block.size
                self.datasets[level, name] = SimpleNamespace(
                    name=info.name, chunk_elements=info.chunk_elements,
                    nchunks=info.nchunks, filter_id=info.filter_id, slots=slots,
                    recipe=info.attrs.get("codec"))
        self.held = {}                          # (dataset, chunk) -> flat chunk
        self.decoded = 0

    def chunks(self, dplan, indices):
        from repro.core.filter_mod import AMRICLevelFilter, ChunkPlan
        from repro.core.reader import _decode_filter

        filt = _decode_filter(dplan.filter_id, dplan.recipe)
        out = {}
        for index in indices:
            key = (dplan.name, index)
            if key not in self.held:
                payload = self.handle._file.read_chunk_payload(dplan.name, index)
                if dplan.filter_id == AMRICLevelFilter.filter_id:
                    # an AMRIC record decodes against the blocks its chunk holds
                    blocks = [slot.block.box for slot in dplan.slots if slot.chunk == index]
                    decoded = filt.decode(payload, dplan.chunk_elements, ChunkPlan(
                        [box.shape for box in blocks], [box.lo for box in blocks]))
                else:
                    decoded = filt.decode(payload, dplan.chunk_elements)
                self.held[key] = np.asarray(decoded, dtype=np.float64).reshape(-1)
                self.decoded += 1
            out[index] = self.held[key]
        return out

    @staticmethod
    def chunks_for(dplan, slots):
        return sorted({slot.chunk for slot in slots})

    @staticmethod
    def gather(slot, chunks, chunk_elements):
        """One block's elements from its rank's decoded chunk."""
        local = slot.offset - slot.chunk * chunk_elements
        return chunks[slot.chunk][local:local + slot.size]

    def dataset(self, level, name):
        return self.datasets.get((level, name))

    def read_field(self, name, level=0, box=None, refill=True, fill_value=0.0,
                   max_level=None):
        from repro.amr.upsample import average_down

        structure = self.structure
        query = structure[level].domain if box is None else box
        out = np.full(query.shape, fill_value, dtype=np.float64)
        if query.is_empty():
            return out
        dplan = self.dataset(level, name)
        if dplan is not None:
            hit = [slot for slot in dplan.slots if slot.block.box.intersects(query)]
            if hit:
                chunks = self.chunks(dplan, self.chunks_for(dplan, hit))
                for slot in hit:
                    data = self.gather(slot, chunks, dplan.chunk_elements) \
                        .reshape(slot.block.box.shape)
                    overlap = slot.block.box.intersection(query)
                    out[overlap.slices(origin=query.lo)] = \
                        data[overlap.slices(origin=slot.block.box.lo)]
        if (refill and self.remove_redundancy and level < structure.nlevels - 1
                and (max_level is None or level + 1 <= max_level)):
            ratio = structure.ref_ratios[level]
            for fine_box in structure[level + 1].boxarray:
                overlap = fine_box.coarsen(ratio).intersection(query)
                if overlap.is_empty():
                    continue
                fine = self.read_field(name, level + 1, overlap.refine(ratio),
                                       refill, fill_value, max_level)
                out[overlap.slices(origin=query.lo)] = average_down(fine, ratio)
        return out

    def read(self):
        from repro.amr.upsample import fill_covered_from_finer
        from repro.core.header import template_from_header

        structure = template_from_header(self.handle.header)
        for (level_index, field), dplan in self.datasets.items():
            chunks = self.chunks(dplan, range(dplan.nchunks))
            level = structure[level_index]
            comp = level.multifab.component_index(field)
            for slot in dplan.slots:
                fab = level.multifab[slot.block.box_index]
                fab.component(comp)[slot.block.box.slices(origin=fab.box.lo)] = \
                    self.gather(slot, chunks, dplan.chunk_elements) \
                    .reshape(slot.block.box.shape)
        if self.remove_redundancy:
            fill_covered_from_finer(structure)
        return structure


@pytest.fixture(scope="session")
def parent_chunk_door():
    """:class:`ParentChunkDoor` (a class: one instance per open handle)."""
    return ParentChunkDoor


# ----------------------------------------------------------------------
# execution backends, passed as the instances the library takes
# ----------------------------------------------------------------------
@pytest.fixture
def backend(request):
    """The backend an indirect ``backend`` parameter names — None (inline),
    ``"serial"`` or ``"shm"`` (a 2-worker shared-memory pool) — built as the
    instance every ``backend=`` takes.  The test owns it; it is closed after."""
    from repro.parallel.backend import SerialBackend, SharedMemoryBackend

    if request.param is None:
        yield None
        return
    with (SharedMemoryBackend(max_workers=2) if request.param == "shm"
          else SerialBackend()) as instance:
        yield instance
