"""The series manifest: a versioned, validated JSON index.

The manifest lives in the series journal (:mod:`repro.stream.journal`): its
genesis record carries the series-wide configuration and every step record
one :class:`SeriesStepRecord`.  The JSON records, per step: path, simulation
time/step, and per ``level_<l>/<field>`` dataset the stream mode (key or
delta), the reference step of a delta stream, both candidate sizes (what the
step *would* have cost as a keyframe) and the quality record.

Validation mirrors the plotfile header's rules: unknown *extra* keys are
ignored (additive evolution within a major version), and a newer major
version or a missing or mistyped structural field raises
:class:`~repro.errors.CorruptFileError`, so a corrupt manifest fails loudly
instead of mis-resolving a delta chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CorruptFileError, required

__all__ = [
    "SERIES_FORMAT_NAME",
    "SERIES_FORMAT_VERSION",
    "FieldGrid",
    "SeriesDatasetRecord",
    "SeriesStepRecord",
    "SeriesIndex",
]

SERIES_FORMAT_NAME = "amric-series"
SERIES_FORMAT_VERSION = 1

_MODES = ("key", "delta")


_RECORD = "series index"


@dataclass(frozen=True)
class FieldGrid:
    """One field's fixed quantisation grid, shared by every step of the series."""

    eb_abs: float                 #: absolute grid half-spacing (|x - x̂| <= eb_abs)
    offset: float                 #: grid origin (the field's minimum at step 0)

    def to_json(self) -> dict:
        return {"eb_abs": self.eb_abs, "offset": self.offset}

    @staticmethod
    def from_json(obj, context: str) -> "FieldGrid":
        if not isinstance(obj, dict):
            raise CorruptFileError(f"malformed series index: {context} must be an object")
        eb = required(obj, "eb_abs", _RECORD, float, context)
        if eb <= 0:
            raise CorruptFileError(f"malformed series index: {context}.eb_abs must be > 0")
        return FieldGrid(eb_abs=eb, offset=required(obj, "offset", _RECORD, float, context))


@dataclass
class SeriesDatasetRecord:
    """How one ``level_<l>/<field>`` dataset was stored at one step."""

    name: str
    mode: str                     #: "key" (self-contained) or "delta"
    ref: Optional[int]            #: step index the delta references (None for key)
    stored_bytes: int
    raw_bytes: int
    key_bytes: int                #: key candidate as compared: its records, sized (DESIGN §6)
    delta_bytes: Optional[int]    #: delta candidate (None: not tabled); mode "delta" iff smaller
    psnr: float

    @property
    def delta_saved_bytes(self) -> int:
        """Bytes the delta candidate saved over the key one, both as compared."""
        return self.key_bytes - self.delta_bytes if self.mode == "delta" else 0

    def to_json(self) -> dict:
        return {
            "name": self.name, "mode": self.mode, "ref": self.ref,
            "stored_bytes": self.stored_bytes, "raw_bytes": self.raw_bytes,
            "key_bytes": self.key_bytes, "delta_bytes": self.delta_bytes,
            "psnr": self.psnr,
        }

    @staticmethod
    def from_json(obj, context: str) -> "SeriesDatasetRecord":
        if not isinstance(obj, dict):
            raise CorruptFileError(f"malformed series index: {context} must be an object")
        mode = required(obj, "mode", _RECORD, str, context)
        if mode not in _MODES:
            raise CorruptFileError(
                f"malformed series index: {context} has unknown mode {mode!r}; "
                f"expected one of {_MODES}")
        ref = obj.get("ref")
        if mode == "delta":
            if not isinstance(ref, int) or isinstance(ref, bool) or ref < 0:
                raise CorruptFileError(
                    f"malformed series index: {context} is a delta stream but has "
                    f"no valid reference step (got {ref!r})")
        else:
            ref = None
        delta_bytes = obj.get("delta_bytes")
        if delta_bytes is not None:
            delta_bytes = required(obj, "delta_bytes", _RECORD, int, context)
        return SeriesDatasetRecord(
            name=required(obj, "name", _RECORD, str, context), mode=mode, ref=ref,
            stored_bytes=required(obj, "stored_bytes", _RECORD, int, context),
            raw_bytes=required(obj, "raw_bytes", _RECORD, int, context),
            key_bytes=required(obj, "key_bytes", _RECORD, int, context),
            delta_bytes=delta_bytes,
            psnr=required(obj, "psnr", _RECORD, float, context))


@dataclass
class SeriesStepRecord:
    """One step of the series: where it lives and how it was encoded."""

    index: int                    #: position in the series (0-based, dense)
    step: int                     #: the simulation's step counter
    time: float
    path: str                     #: plotfile path relative to the series directory
    kind: str                     #: "key" when every dataset is self-contained
    datasets: List[SeriesDatasetRecord] = field(default_factory=list)

    @property
    def stored_bytes(self) -> int:
        return sum(d.stored_bytes for d in self.datasets)

    @property
    def raw_bytes(self) -> int:
        return sum(d.raw_bytes for d in self.datasets)

    @property
    def key_bytes(self) -> int:
        return sum(d.key_bytes for d in self.datasets)

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(self.stored_bytes, 1)

    @property
    def delta_saved_bytes(self) -> int:
        return sum(d.delta_saved_bytes for d in self.datasets)

    def dataset(self, name: str) -> Optional[SeriesDatasetRecord]:
        for d in self.datasets:
            if d.name == name:
                return d
        return None

    def to_json(self) -> dict:
        return {
            "index": self.index, "step": self.step, "time": self.time,
            "path": self.path, "kind": self.kind,
            "datasets": [d.to_json() for d in self.datasets],
        }

    @staticmethod
    def from_json(obj, position: int) -> "SeriesStepRecord":
        ctx = f"steps[{position}]"
        if not isinstance(obj, dict):
            raise CorruptFileError(f"malformed series index: {ctx} must be an object")
        index = required(obj, "index", _RECORD, int, ctx)
        if index != position:
            raise CorruptFileError(
                f"malformed series index: {ctx} records index {index} — the "
                "step list must be dense and ordered")
        kind = required(obj, "kind", _RECORD, str, ctx)
        if kind not in _MODES:
            raise CorruptFileError(
                f"malformed series index: {ctx} has unknown kind {kind!r}")
        datasets_json = required(obj, "datasets", _RECORD, (list, tuple), ctx)
        datasets = [SeriesDatasetRecord.from_json(d, f"{ctx}.datasets[{i}]")
                    for i, d in enumerate(datasets_json)]
        for d in datasets:
            if d.ref is not None and d.ref >= index:
                raise CorruptFileError(
                    f"malformed series index: {ctx} dataset {d.name!r} references "
                    f"step {d.ref}, which is not earlier than {index}")
        return SeriesStepRecord(
            index=index, step=required(obj, "step", _RECORD, int, ctx),
            time=required(obj, "time", _RECORD, float, ctx),
            path=required(obj, "path", _RECORD, str, ctx), kind=kind,
            datasets=datasets)


@dataclass
class SeriesIndex:
    """The whole manifest: series-wide configuration plus the step list."""

    version: int
    codec: str
    error_bound: float
    error_bound_mode: str
    keyframe_interval: int
    unit_block_size: int
    remove_redundancy: bool
    components: Tuple[str, ...]
    field_grids: Dict[str, FieldGrid] = field(default_factory=dict)
    steps: List[SeriesStepRecord] = field(default_factory=list)

    @property
    def nsteps(self) -> int:
        return len(self.steps)

    @property
    def stored_bytes(self) -> int:
        return sum(s.stored_bytes for s in self.steps)

    @property
    def raw_bytes(self) -> int:
        return sum(s.raw_bytes for s in self.steps)

    @property
    def key_bytes(self) -> int:
        """Bytes of the same series keyframe-only, as the key candidates are sized."""
        return sum(s.key_bytes for s in self.steps)

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(self.stored_bytes, 1)

    @property
    def delta_saved_bytes(self) -> int:
        return sum(s.delta_saved_bytes for s in self.steps)

    def times(self) -> List[float]:
        return [s.time for s in self.steps]

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "format": SERIES_FORMAT_NAME,
            "version": self.version,
            "codec": self.codec,
            "error_bound": self.error_bound,
            "error_bound_mode": self.error_bound_mode,
            "keyframe_interval": self.keyframe_interval,
            "unit_block_size": self.unit_block_size,
            "remove_redundancy": self.remove_redundancy,
            "components": list(self.components),
            "field_grids": {name: grid.to_json()
                            for name, grid in self.field_grids.items()},
            "steps": [s.to_json() for s in self.steps],
        }

    @staticmethod
    def from_json(obj) -> "SeriesIndex":
        if not isinstance(obj, dict):
            raise CorruptFileError(
                f"malformed series index: expected an object, got {type(obj).__name__}")
        fmt = obj.get("format")
        if fmt != SERIES_FORMAT_NAME:
            raise CorruptFileError(
                f"malformed series index: format is {fmt!r}, expected "
                f"{SERIES_FORMAT_NAME!r}")
        version = required(obj, "version", _RECORD, int, "index")
        if version < 1 or version > SERIES_FORMAT_VERSION:
            raise CorruptFileError(
                f"series index version {version} is not supported by this reader "
                f"(supports 1..{SERIES_FORMAT_VERSION}); upgrade repro to read it")
        components = required(obj, "components", _RECORD, (list, tuple), "index")
        if not components or not all(isinstance(c, str) for c in components):
            raise CorruptFileError(
                "malformed series index: components must be a non-empty list of names")
        grids_json = required(obj, "field_grids", _RECORD, dict, "index")
        field_grids = {str(name): FieldGrid.from_json(g, f"field_grids[{name!r}]")
                       for name, g in grids_json.items()}
        for name in components:
            if name not in field_grids:
                raise CorruptFileError(
                    f"malformed series index: component {name!r} has no "
                    "quantisation grid")
        steps_json = required(obj, "steps", _RECORD, (list, tuple), "index")
        steps = [SeriesStepRecord.from_json(s, i) for i, s in enumerate(steps_json)]
        keyframe_interval = required(obj, "keyframe_interval", _RECORD, int, "index")
        if keyframe_interval < 1:
            raise CorruptFileError(
                "malformed series index: keyframe_interval must be >= 1")
        return SeriesIndex(
            version=version,
            codec=required(obj, "codec", _RECORD, str, "index"),
            error_bound=required(obj, "error_bound", _RECORD, float, "index"),
            error_bound_mode=required(obj, "error_bound_mode", _RECORD, str, "index"),
            keyframe_interval=keyframe_interval,
            unit_block_size=required(obj, "unit_block_size", _RECORD, int, "index"),
            remove_redundancy=bool(required(obj, "remove_redundancy", _RECORD, bool, "index")),
            components=tuple(components),
            field_grids=field_grids,
            steps=steps)

    @staticmethod
    def load(directory: str) -> "SeriesIndex":
        """Parse and validate one series directory's manifest, from its journal."""
        from repro.stream.journal import load_journal

        return load_journal(directory)[0]
