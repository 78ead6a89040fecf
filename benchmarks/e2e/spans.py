"""Span recorder and wrapper table: per-layer timing taken from outside ``src/``.

The benchmark attributes time to layers without touching the program: for the
traced pass only, the public callables named in :data:`TARGETS` are replaced
by wrappers that record into a :class:`Recorder`, and put back afterwards.
Two wrapper kinds exist:

``span``
    Records ``(name, start, end, parent)`` through a stack, so a layer's
    *self* time is its duration minus what its child spans (and leaves)
    cover.
``leaf``
    Accumulate-only (count, total ns, optional weight such as symbols).  For
    callables invoked hundreds of times per operation (``Box.intersects``,
    ``HuffmanCodec.decode``) a full span per call would make the wrapper the
    layer; a leaf costs two clock reads.  A leaf called from inside another
    leaf (``intersects`` -> ``intersection``) is not counted twice.

Spans stay in memory; the caller reads the totals when the traced section
ends.  (The module is not called ``trace`` so it cannot shadow the stdlib
module of that name on ``sys.path``.)
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Recorder", "self_times", "Target", "TARGETS",
           "resolve_targets", "installed"]

#: (name, start_ns, end_ns, parent index or -1)
Span = Tuple[str, int, int, int]


def self_times(spans: Sequence[Span],
               leaf_ns: Optional[Dict[int, int]] = None) -> List[int]:
    """Per-span self time: duration minus the part its children cover.

    Children of one span are sequential and nested inside it (one thread, one
    stack), so the covered part is the sum of the direct children's durations
    plus ``leaf_ns[index]``, the time leaves accumulated while the span was
    innermost.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    for index, ns in (leaf_ns or {}).items():
        own[index] -= ns
    return own


class Recorder:
    """In-memory spans plus leaf accumulators for one traced section."""

    def __init__(self) -> None:
        self.spans: List[List] = []
        self.leaves: Dict[str, List[int]] = {}    #: name -> [calls, ns, weight]
        self.leaf_ns: Dict[int, int] = {}         #: span index -> leaf ns inside it
        self._stack: List[int] = []
        self._in_leaf = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap_span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_leaf(self, name: str, fn: Callable,
                  weight: Optional[Callable[..., int]] = None) -> Callable:
        acc = self.leaves.setdefault(name, [0, 0, 0])

        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._in_leaf = False
                acc[0] += 1
                acc[1] += elapsed
                if weight is not None:
                    acc[2] += weight(*args, **kwargs)
                if self._stack:
                    top = self._stack[-1]
                    self.leaf_ns[top] = self.leaf_ns.get(top, 0) + elapsed
        wrapper.__wrapped__ = fn
        return wrapper

    # -- totals ---------------------------------------------------------
    def count(self, name: str) -> int:
        if name in self.leaves:
            return self.leaves[name][0]
        return sum(1 for s in self.spans if s[0] == name)

    def total_s(self, name: str) -> float:
        """Inclusive seconds under ``name`` (a leaf's accumulated time)."""
        if name in self.leaves:
            return self.leaves[name][1] / 1e9
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def self_s(self, name: str) -> float:
        own = self_times(self.spans, self.leaf_ns)
        return sum(t for s, t in zip(self.spans, own) if s[0] == name) / 1e9

    def weight(self, name: str) -> int:
        return self.leaves[name][2] if name in self.leaves else 0

    def covered_s(self) -> float:
        """Seconds inside any top-level span (for ``trace.unattributed_frac``)."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0) / 1e9


# ----------------------------------------------------------------------
# the wrapper table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module.attribute`` records as ``name``.

    ``attribute`` is ``function`` or ``Class.method``.  ``weight`` (leaves
    only) maps the call's arguments to a work count added per call.
    """

    name: str
    module: str
    attribute: str
    kind: str = "span"
    weight: Optional[Callable[..., int]] = None


def _symbols_in(_codec, data) -> int:
    return int(getattr(data, "size", len(data)))


def _symbols_out(_codec, encoded) -> int:
    return int(encoded.nsymbols)


_CTN = "repro.compress.container"
_HUF = "repro.compress.huffman"
_RDR = "repro.core.reader"
_STG = "repro.core.stages"

TARGETS: Tuple[Target, ...] = (
    # write stages / read stages (the facade calls these by module global)
    Target("core.stages.plan", _STG, "plan_write"),
    Target("core.stages.pack", _STG, "pack_dataset"),
    Target("core.stages.encode", _STG, "encode_job"),
    Target("core.stages.commit", _STG, "commit_dataset"),
    Target("core.stages.commit", _STG, "dataset_record"),
    Target("core.reader.scan", _RDR, "scan_plotfile"),
    Target("h5lite.source.fetch", _RDR, "make_decode_job"),
    Target("core.reader.decode", _RDR, "decode_job"),
    Target("core.reader.place", _RDR, "place_dataset"),
    Target("amr.upsample.refill", "repro.amr.upsample", "fill_covered_from_finer"),
    # the chunk filter and the codec under it
    Target("core.filter_mod.encode", "repro.core.filter_mod", "AMRICLevelFilter.encode"),
    Target("core.filter_mod.decode", "repro.core.filter_mod", "AMRICLevelFilter.decode"),
    Target("compress.sz_lr.encode", "repro.compress.sz_lr",
           "SZLRCompressor.compress_many_with_reconstruction"),
    Target("compress.sz_lr.decode", "repro.compress.sz_lr",
           "SZLRCompressor.decompress_many"),
    Target("compress.regression.fit", "repro.compress.regression", "fit_and_predict"),
    Target("compress.regression.predict", "repro.compress.regression", "predict_blocks"),
    Target("compress.temporal.encode", "repro.series.writer", "temporal_encode_job"),
    # entropy stage
    Target("compress.huffman.build", _HUF, "HuffmanCodec.from_multiple"),
    Target("compress.huffman.build", _HUF, "HuffmanCodec.from_data"),
    Target("compress.huffman.encode", _HUF, "HuffmanCodec.encode", "leaf", _symbols_in),
    Target("compress.huffman.decode", _HUF, "HuffmanCodec.decode", "leaf", _symbols_out),
    # container framing + zlib
    Target("compress.container.pack", _CTN, "pack_container"),
    Target("compress.container.pack", _CTN, "pack_huffman"),
    Target("compress.container.pack", _CTN, "pack_huffman_individual"),
    Target("compress.container.pack", _CTN, "pack_zarray"),
    Target("compress.container.pack", _CTN, "pack_zbytes"),
    Target("compress.container.unpack", _CTN, "unpack_container"),
    Target("compress.container.unpack", _CTN, "unpack_huffman"),
    Target("compress.container.unpack", _CTN, "unpack_huffman_individual"),
    Target("compress.container.unpack", _CTN, "unpack_zarray"),
    Target("compress.container.unpack", _CTN, "unpack_zbytes"),
    # file layer
    Target("h5lite.file.open", "repro.h5lite.file", "H5LiteFile.__init__"),
    Target("h5lite.file.write", "repro.h5lite.file", "H5LiteFile.create_dataset_from_chunks"),
    Target("h5lite.file.write", "repro.h5lite.file", "H5LiteFile.close"),
    # geometry
    Target("amr.box.intersect", "repro.amr.box", "Box.intersects", "leaf"),
    Target("amr.box.intersect", "repro.amr.box", "Box.intersection", "leaf"),
    # series / journal
    Target("series.writer.append", "repro.series.writer", "SeriesWriter.append"),
    Target("series.writer.append", "repro.series.writer", "SeriesWriter.close"),
    Target("stream.journal.append", "repro.stream.journal", "SeriesJournal.append_step"),
    Target("series.reader.open", "repro.series.reader", "SeriesHandle.__init__"),
    Target("series.reader.time_slice", "repro.series.reader", "SeriesHandle.time_slice"),
    Target("series.reader.read_step", "repro.series.reader", "SeriesHandle.read"),
)

#: modules that bind targets with ``from x import f``; loaded before the
#: alias scan so no such binding is missed
_CALLERS = ("repro.facade", "repro.core.pipeline", "repro.compress.temporal",
            "repro.series.reader", "repro.service.engine")


def _owner_of(target: Target):
    """``(namespace object, attribute name, raw attribute)`` or raise."""
    try:
        owner = importlib.import_module(target.module)
        *path, leaf = target.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[leaf]
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(
            f"trace target {target.module}.{target.attribute} "
            f"(layer {target.name}) does not resolve: {exc!r}") from exc
    return owner, leaf, raw


def resolve_targets(targets: Sequence[Target] = TARGETS) -> List[Tuple[Target, object, str, object]]:
    """Resolve every target now; a missing name fails loudly, before any run."""
    for module in _CALLERS:
        importlib.import_module(module)
    return [(t, *_owner_of(t)) for t in targets]


def _repro_globals() -> Iterator[Tuple[object, str, object]]:
    """``(module, name, value)`` for every global of every loaded ``repro`` module."""
    for modname, module in list(sys.modules.items()):
        if module is not None and modname.startswith("repro"):
            for key, value in list(vars(module).items()):
                yield module, key, value


@contextmanager
def installed(recorder: Recorder,
              targets: Sequence[Target] = TARGETS) -> Iterator[Recorder]:
    """Install the wrappers for the duration of the block, then remove them.

    Module-level functions are patched where they are defined *and* in every
    loaded module that imported them by name, since a ``from x import f``
    binding does not see a patch of ``x.f``.  Removal scans again, so a
    module first imported inside the block does not keep a wrapper.
    """
    patched: List[Tuple[object, str, object]] = []    # (namespace, key, original raw)
    wrappers: Dict[int, Tuple[object, object]] = {}   # id(wrapper) -> (wrapper, original fn)
    try:
        for target, owner, leaf, raw in resolve_targets(targets):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if target.kind == "leaf":
                wrapper = recorder.wrap_leaf(target.name, fn, target.weight)
            else:
                wrapper = recorder.wrap_span(target.name, fn)
            wrappers[id(wrapper)] = (wrapper, fn)
            if isinstance(owner, type):
                sites = [(owner, leaf)]
            else:
                sites = [(module, key) for module, key, value in _repro_globals()
                         if value is fn]
            for namespace, key in sites:
                patched.append((namespace, key, vars(namespace)[key]))
                setattr(namespace, key,
                        type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod))
                        else wrapper)
        yield recorder
    finally:
        for namespace, key, original in reversed(patched):
            setattr(namespace, key, original)
        for module, key, value in _repro_globals():
            if id(value) in wrappers:
                setattr(module, key, wrappers[id(value)][1])
