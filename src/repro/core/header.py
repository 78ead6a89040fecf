"""Self-describing plotfile headers (the format layer of the read redesign).

Reading a plotfile needs to know which boxes, ranks and unit blocks each
stored chunk corresponds to.  This module serialises exactly that structure —
boxes, refinement ratios, distribution mapping, field names, preprocessing
parameters, codec name and options — into a versioned JSON header that
travels inside the H5Lite superblock
(:attr:`~repro.h5lite.file.H5LiteFile.header`), so any consumer can rebuild
each level's unit-block layout (:func:`~repro.core.preprocess.level_layouts`)
and, for a full read, the zero-filled output hierarchy
(:func:`template_from_header`) from the file alone, and decode lazily or in
full.  Every writer commits one; the reader rejects a file without it.

Versioning and compatibility rules (DESIGN.md §5):

* ``format`` must equal :data:`FORMAT_NAME` and ``version`` must equal
  :data:`FORMAT_VERSION`: version 2 stores AMRIC chunks as lean records
  decoded against the layout this header implies; version 3 stores every
  codec's Huffman sync offsets as lane-length residuals, one per 64 symbols;
  version 4 stores series-step chunks as the same records, with a flag for
  raw or deflated codes, and keeps only ``modify_filter`` in
  ``codec_options``.
  No older reader is kept, so any other version is refused by number (never
  a silently garbled hierarchy).
* Unknown *extra* keys are ignored, so older readers tolerate additive
  evolution within a major version.
* Every structural field is validated on parse; a corrupt or truncated
  header raises :class:`~repro.errors.CorruptFileError` (a ``ValueError``)
  with a message naming the bad field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.hierarchy import AmrHierarchy, AmrLevel
from repro.amr.multifab import MultiFab
from repro.errors import CorruptFileError, required

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "CHUNK_ALIGNMENT_RANK",
    "CHUNK_ALIGNMENT_BOX_MAJOR",
    "LevelStructure",
    "PlotfileHeader",
    "build_header",
    "template_from_header",
]

FORMAT_NAME = "amric-plotfile"
FORMAT_VERSION = 4

#: one chunk per participating rank: the field-major layout every AMRIC,
#: series and ``nocomp`` file stores (:class:`~repro.core.preprocess.LevelLayout`)
CHUNK_ALIGNMENT_RANK = "rank"
#: box-major field-interleaved level datasets (the AMReX-original baseline)
CHUNK_ALIGNMENT_BOX_MAJOR = "box_major"

_ALIGNMENTS = (CHUNK_ALIGNMENT_RANK, CHUNK_ALIGNMENT_BOX_MAJOR)


_RECORD = "plotfile header"


def _intvect(value, context: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value or \
            not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise CorruptFileError(
            f"malformed plotfile header: {context} must be a non-empty list of ints")
    return tuple(int(v) for v in value)


@dataclass(frozen=True)
class LevelStructure:
    """The stored structure of one AMR level: domain, boxes, distribution."""

    level: int
    domain_lo: Tuple[int, ...]
    domain_hi: Tuple[int, ...]
    box_los: Tuple[Tuple[int, ...], ...]
    box_his: Tuple[Tuple[int, ...], ...]
    rank_of_box: Tuple[int, ...]
    nranks: int

    @property
    def nboxes(self) -> int:
        return len(self.box_los)

    def domain(self) -> Box:
        return Box(self.domain_lo, self.domain_hi)

    def boxes(self) -> List[Box]:
        return [Box(lo, hi) for lo, hi in zip(self.box_los, self.box_his)]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "domain": [list(self.domain_lo), list(self.domain_hi)],
            "boxes": [[list(lo), list(hi)]
                      for lo, hi in zip(self.box_los, self.box_his)],
            "rank_of_box": list(self.rank_of_box),
            "nranks": self.nranks,
        }

    @staticmethod
    def from_json(obj: dict, index: int) -> "LevelStructure":
        ctx = f"levels[{index}]"
        if not isinstance(obj, dict):
            raise CorruptFileError(f"malformed plotfile header: {ctx} must be an object")
        level = required(obj, "level", _RECORD, int, ctx)
        domain = required(obj, "domain", _RECORD, (list, tuple), ctx)
        if len(domain) != 2:
            raise CorruptFileError(f"malformed plotfile header: {ctx}['domain'] must be [lo, hi]")
        boxes = required(obj, "boxes", _RECORD, (list, tuple), ctx)
        if not boxes:
            raise CorruptFileError(f"malformed plotfile header: {ctx} has no boxes")
        box_los, box_his = [], []
        for b, entry in enumerate(boxes):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise CorruptFileError(
                    f"malformed plotfile header: {ctx}['boxes'][{b}] must be [lo, hi]")
            box_los.append(_intvect(entry[0], f"{ctx}.boxes[{b}].lo"))
            box_his.append(_intvect(entry[1], f"{ctx}.boxes[{b}].hi"))
        rank_of_box = _intvect(required(obj, "rank_of_box", _RECORD, (list, tuple), ctx),
                               f"{ctx}.rank_of_box")
        nranks = required(obj, "nranks", _RECORD, int, ctx)
        if len(rank_of_box) != len(box_los):
            raise CorruptFileError(
                f"malformed plotfile header: {ctx} has {len(box_los)} boxes but "
                f"{len(rank_of_box)} rank assignments")
        if nranks < 1 or any(r < 0 or r >= nranks for r in rank_of_box):
            raise CorruptFileError(
                f"malformed plotfile header: {ctx} rank assignments escape [0, {nranks})")
        return LevelStructure(
            level=level,
            domain_lo=_intvect(domain[0], f"{ctx}.domain.lo"),
            domain_hi=_intvect(domain[1], f"{ctx}.domain.hi"),
            box_los=tuple(box_los), box_his=tuple(box_his),
            rank_of_box=rank_of_box, nranks=nranks)


@dataclass(frozen=True)
class PlotfileHeader:
    """Everything needed to open a plotfile without the producing simulation."""

    version: int
    method: str                               #: producing writer ("amric", "nocomp", ...)
    codec: str                                #: codec registry name ("none" when raw)
    error_bound: float
    error_bound_mode: str
    unit_block_size: int
    remove_redundancy: bool
    chunk_alignment: str                      #: one of the CHUNK_ALIGNMENT_* constants
    components: Tuple[str, ...]
    ref_ratios: Tuple[int, ...]
    time: float
    step: int
    levels: Tuple[LevelStructure, ...]
    codec_options: Dict[str, object] = field(default_factory=dict)

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def geometry(self) -> tuple:
        """Exactly what the level layouts are a function of, hashable, as
        :func:`~repro.core.preprocess.level_layouts` takes it."""
        return (tuple((lvl.box_los, lvl.box_his, lvl.rank_of_box) for lvl in self.levels),
                self.ref_ratios, self.unit_block_size, self.remove_redundancy)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": self.version,
            "method": self.method,
            "codec": self.codec,
            "error_bound": self.error_bound,
            "error_bound_mode": self.error_bound_mode,
            "unit_block_size": self.unit_block_size,
            "remove_redundancy": self.remove_redundancy,
            "chunk_alignment": self.chunk_alignment,
            "components": list(self.components),
            "ref_ratios": list(self.ref_ratios),
            "time": self.time,
            "step": self.step,
            "levels": [lvl.to_json() for lvl in self.levels],
            "codec_options": dict(self.codec_options),
        }

    @staticmethod
    def from_json(obj) -> "PlotfileHeader":
        if not isinstance(obj, dict):
            raise CorruptFileError(
                f"malformed plotfile header: expected an object, got {type(obj).__name__}")
        fmt = obj.get("format")
        if fmt != FORMAT_NAME:
            raise CorruptFileError(
                f"malformed plotfile header: format is {fmt!r}, expected {FORMAT_NAME!r}")
        version = required(obj, "version", _RECORD, int, "header")
        if version != FORMAT_VERSION:
            raise CorruptFileError(
                f"plotfile format version {version} is not supported by this reader, "
                f"which reads version {FORMAT_VERSION} only"
                + ("; rewrite the file with this repro" if version < FORMAT_VERSION
                   else "; upgrade repro to read this file"))
        components = required(obj, "components", _RECORD, (list, tuple), "header")
        if not components or not all(isinstance(c, str) for c in components):
            raise CorruptFileError(
                "malformed plotfile header: components must be a non-empty list of names")
        levels_json = required(obj, "levels", _RECORD, (list, tuple), "header")
        if not levels_json:
            raise CorruptFileError("malformed plotfile header: no levels recorded")
        levels = tuple(LevelStructure.from_json(lvl, i)
                       for i, lvl in enumerate(levels_json))
        ref_ratios_json = required(obj, "ref_ratios", _RECORD, (list, tuple), "header")
        ref_ratios = tuple(int(r) for r in ref_ratios_json) if ref_ratios_json else ()
        if len(ref_ratios) != len(levels) - 1:
            raise CorruptFileError(
                f"malformed plotfile header: {len(levels)} levels need "
                f"{len(levels) - 1} ref_ratios, got {len(ref_ratios)}")
        chunk_alignment = required(obj, "chunk_alignment", _RECORD, str, "header")
        if chunk_alignment not in _ALIGNMENTS:
            raise CorruptFileError(
                f"malformed plotfile header: unknown chunk_alignment "
                f"{chunk_alignment!r}; expected one of {_ALIGNMENTS}")
        unit_block_size = required(obj, "unit_block_size", _RECORD, int, "header")
        if unit_block_size < 1:
            raise CorruptFileError("malformed plotfile header: unit_block_size must be >= 1")
        codec_options = obj.get("codec_options", {})
        if not isinstance(codec_options, dict):
            raise CorruptFileError("malformed plotfile header: codec_options must be an object")
        return PlotfileHeader(
            version=version,
            method=required(obj, "method", _RECORD, str, "header"),
            codec=required(obj, "codec", _RECORD, str, "header"),
            error_bound=required(obj, "error_bound", _RECORD, float, "header"),
            error_bound_mode=required(obj, "error_bound_mode", _RECORD, str, "header"),
            unit_block_size=unit_block_size,
            remove_redundancy=bool(required(obj, "remove_redundancy", _RECORD, bool, "header")),
            chunk_alignment=chunk_alignment,
            components=tuple(components),
            ref_ratios=ref_ratios,
            time=required(obj, "time", _RECORD, float, "header"),
            step=required(obj, "step", _RECORD, int, "header"),
            levels=levels,
            codec_options=dict(codec_options))


# ----------------------------------------------------------------------
# building / reconstructing
# ----------------------------------------------------------------------
def _level_structure(level: AmrLevel) -> LevelStructure:
    dm = level.multifab.distribution
    return LevelStructure(
        level=int(level.level),
        domain_lo=tuple(int(v) for v in level.domain.lo),
        domain_hi=tuple(int(v) for v in level.domain.hi),
        box_los=tuple(tuple(int(v) for v in b.lo) for b in level.boxarray),
        box_his=tuple(tuple(int(v) for v in b.hi) for b in level.boxarray),
        rank_of_box=tuple(int(r) for r in dm.rank_of_box),
        nranks=int(dm.nranks))


def build_header(hierarchy: AmrHierarchy, *, method: str, codec: str,
                 error_bound: float, error_bound_mode: str = "rel",
                 unit_block_size: int = 1, remove_redundancy: bool = False,
                 chunk_alignment: str = CHUNK_ALIGNMENT_RANK,
                 codec_options: Optional[Dict[str, object]] = None) -> PlotfileHeader:
    """Serialise one hierarchy's structure + codec configuration into a header."""
    if chunk_alignment not in _ALIGNMENTS:
        raise ValueError(
            f"chunk_alignment must be one of {_ALIGNMENTS}, got {chunk_alignment!r}")
    return PlotfileHeader(
        version=FORMAT_VERSION,
        method=str(method), codec=str(codec),
        error_bound=float(error_bound), error_bound_mode=str(error_bound_mode),
        unit_block_size=int(unit_block_size),
        remove_redundancy=bool(remove_redundancy),
        chunk_alignment=chunk_alignment,
        components=tuple(hierarchy.component_names),
        ref_ratios=tuple(hierarchy.ref_ratios),
        time=float(hierarchy.time), step=int(hierarchy.step),
        levels=tuple(_level_structure(lvl) for lvl in hierarchy.levels),
        codec_options=dict(codec_options or {}))


def header_from_config(hierarchy: AmrHierarchy, config, method: str = "amric"
                       ) -> PlotfileHeader:
    """The AMRIC writer's header: structure, codec and bound, and whether each
    chunk records its rank's own size (``modify_filter``); what a dataset's
    records decode under is its own ``codec`` recipe."""
    return build_header(
        hierarchy, method=method, codec=config.compressor,
        error_bound=config.error_bound, error_bound_mode=config.error_bound_mode,
        unit_block_size=config.unit_block_size,
        remove_redundancy=config.remove_redundancy,
        codec_options={"modify_filter": config.modify_filter})


def template_from_header(header: PlotfileHeader) -> AmrHierarchy:
    """Rebuild a zero-filled hierarchy with the stored structure.

    The result is the hierarchy a full read places decoded blocks into —
    same boxes, same distribution, same refinement ratios as the written
    hierarchy — reconstructed from the file alone.  Structural
    inconsistencies (boxes escaping domains, broken nesting chains) surface as
    :class:`ValueError` from the AMR constructors, never as a silently wrong
    hierarchy.
    """
    levels: List[AmrLevel] = []
    for lvl in header.levels:
        ba = BoxArray(lvl.boxes())
        dm = DistributionMapping(list(lvl.rank_of_box), lvl.nranks)
        mf = MultiFab(ba, header.components, dm)
        levels.append(AmrLevel(level=lvl.level, domain=lvl.domain(),
                               boxarray=ba, multifab=mf))
    return AmrHierarchy(levels, header.ref_ratios,
                        time=header.time, step=header.step)
