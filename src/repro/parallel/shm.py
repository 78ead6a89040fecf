"""Shared-memory job transport for the pooled execution backend.

A plain process pool round-trips every chunk array through pickle: the
parent serialises each :class:`~repro.core.stages.EncodeJob`'s packed buffer
into the IPC pipe, the worker deserialises it, and the result arrays make the
same trip back — three full copies plus framing per direction, which is where
a process pool's speedup goes.  This module replaces that round trip for
the *bulk* payloads (ndarrays and raw ``bytes``) with
``multiprocessing.shared_memory`` descriptors:

* the parent copies a batch's arrays once into a single shared segment and
  ships ``(segment, offset, shape, dtype)`` descriptors — a few dozen bytes —
  through the pool instead of the arrays;
* workers map the segment and reconstruct zero-copy ndarray *views* onto it
  (the work functions never mutate their inputs, so no defensive copy);
* workers write their result arrays into a fresh per-result segment and ship
  descriptors back; the parent *adopts* the segment — result arrays are
  ndarray views straight over the shared buffer, committed without a copy.
  The segment is unlinked at adoption time and the mapping is released by a
  per-array finalizer once the last view dies, so neither a crash nor a
  long-lived cache can leak ``/dev/shm`` entries.

Which fields ride shared memory is declared by the job/result dataclasses
themselves via a ``_shm_fields`` class attribute naming the bulk fields
(see :class:`~repro.core.stages.EncodeJob` etc.).  Objects without it — and
whole batches whose bulk payload is empty — fall back to plain pickling.
"""

from __future__ import annotations

import copy
import itertools
import os
import secrets
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import resource_tracker, shared_memory
    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None
    HAVE_SHARED_MEMORY = False

__all__ = [
    "HAVE_SHARED_MEMORY",
    "ShmArrayRef",
    "ShmBytesRef",
    "WireResult",
    "WireError",
    "batch_bulk_nbytes",
    "pack_batch",
    "shm_call",
    "adopt_result",
    "segment_prefix",
    "sweep_segments",
    "live_segments",
]

#: every segment this process creates is named ``reproshm<token>_...`` so a
#: crashed run's leftovers are identifiable (and sweepable) by prefix
_SEGMENT_NAMESPACE = "reproshm"
_PROCESS_TOKEN = secrets.token_hex(4)
_SEQUENCE = itertools.count()

#: byte alignment of every array/bytes payload inside a segment
_ALIGN = 64
#: results whose bulk payload is smaller than this are pickled (a shared
#: segment per tiny result would cost more than it saves)
MIN_RESULT_SHM_BYTES = 32 * 1024

# -- worker-process state (set by the pool initializer) -----------------


def segment_prefix(token: Optional[str] = None) -> str:
    """The segment-name prefix of this process (or of ``token``'s owner)."""
    return f"{_SEGMENT_NAMESPACE}{token or _PROCESS_TOKEN}"


def _worker_init(parent_token: str) -> None:
    """Pool initializer: mark this process as a shm worker."""
    global _PARENT_TOKEN
    _PARENT_TOKEN = parent_token


_PARENT_TOKEN = _PROCESS_TOKEN


# ----------------------------------------------------------------------
# the wire format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmArrayRef:
    """One ndarray living in a shared segment: where and what shape."""

    segment: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ShmBytesRef:
    """One raw ``bytes`` payload living in a shared segment."""

    segment: str
    offset: int
    nbytes: int


@dataclass
class WireResult:
    """A worker result whose bulk fields were externalised into ``segment``."""

    obj: object
    segment: str


@dataclass
class WireError:
    """A worker-side exception, carried back in-band so the parent consumes
    every result of the batch (and frees every result segment) before
    re-raising — an exception must never strand a sibling's segment."""

    exc: BaseException


def _shm_fields(obj) -> Tuple[str, ...]:
    return tuple(getattr(type(obj), "_shm_fields", ()))


def _value_nbytes(value) -> int:
    """Aligned bulk bytes of one field value (arrays/bytes, nested in lists)."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return _aligned(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _aligned(len(value))
    if isinstance(value, (list, tuple)):
        return sum(_value_nbytes(v) for v in value)
    return 0


def _aligned(n: int) -> int:
    return (int(n) + _ALIGN - 1) // _ALIGN * _ALIGN


def bulk_nbytes(obj) -> int:
    """Total shared-memory payload of one job/result object."""
    return sum(_value_nbytes(getattr(obj, name)) for name in _shm_fields(obj))


def batch_bulk_nbytes(items: Sequence) -> int:
    return sum(bulk_nbytes(item) for item in items)


# ----------------------------------------------------------------------
# packing (either side)
# ----------------------------------------------------------------------
class _SegmentWriter:
    """Sequential writer into one freshly created shared segment."""

    def __init__(self, name: str, size: int):
        # a stale same-named segment (pid/token collision with a crashed
        # run) must not corrupt this batch: fail rather than attach
        self.shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        self.offset = 0

    @property
    def name(self) -> str:
        return self.shm.name

    def write_array(self, arr: np.ndarray) -> ShmArrayRef:
        arr = np.ascontiguousarray(arr)
        ref = ShmArrayRef(segment=self.name, offset=self.offset,
                          shape=tuple(arr.shape), dtype=arr.dtype.str)
        dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.shm.buf,
                          offset=self.offset)
        dest[...] = arr
        self.offset += _aligned(arr.nbytes)
        return ref

    def write_bytes(self, payload) -> ShmBytesRef:
        view = memoryview(payload)
        ref = ShmBytesRef(segment=self.name, offset=self.offset,
                          nbytes=view.nbytes)
        self.shm.buf[self.offset:self.offset + view.nbytes] = view
        self.offset += _aligned(view.nbytes)
        return ref

    def pack_value(self, value):
        if value is None:
            return None
        if isinstance(value, np.ndarray):
            return self.write_array(value)
        if isinstance(value, (bytes, bytearray, memoryview)):
            return self.write_bytes(value)
        if isinstance(value, list):
            return [self.pack_value(v) for v in value]
        if isinstance(value, tuple):
            return tuple(self.pack_value(v) for v in value)
        return value

    def pack_object(self, obj):
        """A shallow clone of ``obj`` with its bulk fields as descriptors."""
        clone = copy.copy(obj)
        for name in _shm_fields(obj):
            setattr(clone, name, self.pack_value(getattr(obj, name)))
        return clone


def _new_segment_name() -> str:
    return f"{segment_prefix(_PARENT_TOKEN)}_{os.getpid()}_{next(_SEQUENCE)}"


def pack_batch(items: Sequence) -> Tuple[List, Optional["shared_memory.SharedMemory"]]:
    """Parent side: pack a batch's bulk payloads into one shared segment.

    Returns ``(wire items, segment)``; the segment is ``None`` (and the items
    are passed through untouched — the pickled fallback) when the batch
    carries no bulk payload at all.  The caller owns the segment and must
    close+unlink it once the batch has completed.
    """
    total = batch_bulk_nbytes(items)
    if total == 0:
        return list(items), None
    writer = _SegmentWriter(_new_segment_name(), total)
    try:
        return [writer.pack_object(item) for item in items], writer.shm
    except BaseException:
        writer.shm.close()
        writer.shm.unlink()
        raise


# ----------------------------------------------------------------------
# unpacking (worker side)
# ----------------------------------------------------------------------
class _Atlas:
    """Per-task attachments to the segments a wire object references.

    Input segments are mapped for the duration of one task only: the parent
    unlinks the batch segment when the batch completes, and a worker that
    kept it mapped would pin the memory for the pool's lifetime.
    """

    def __init__(self):
        self._segments: Dict[str, "shared_memory.SharedMemory"] = {}

    def segment(self, name: str) -> "shared_memory.SharedMemory":
        shm = self._segments.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            self._segments[name] = shm
        return shm

    def unpack_value(self, value):
        if isinstance(value, ShmArrayRef):
            shm = self.segment(value.segment)
            return np.ndarray(value.shape, dtype=np.dtype(value.dtype),
                              buffer=shm.buf, offset=value.offset)
        if isinstance(value, ShmBytesRef):
            shm = self.segment(value.segment)
            return bytes(shm.buf[value.offset:value.offset + value.nbytes])
        if isinstance(value, list):
            return [self.unpack_value(v) for v in value]
        if isinstance(value, tuple):
            return tuple(self.unpack_value(v) for v in value)
        return value

    def unpack_object(self, obj):
        clone = copy.copy(obj)
        for name in _shm_fields(obj):
            setattr(clone, name, self.unpack_value(getattr(obj, name)))
        return clone

    def close(self) -> None:
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a leaked view pins it
                pass
        self._segments.clear()


def _externalize_result(result):
    """Worker side: move a result's bulk fields into a fresh shared segment.

    Ownership of the segment transfers to the parent (which adopts and
    unlinks it), so it is deregistered from this process's resource tracker —
    otherwise the tracker would complain about, and racily unlink, a segment
    it no longer owns when the worker exits.
    """
    if bulk_nbytes(result) < MIN_RESULT_SHM_BYTES:
        return result                           # pickled fallback: small result
    writer = _SegmentWriter(_new_segment_name(), bulk_nbytes(result))
    try:
        wire = writer.pack_object(result)
    except BaseException:
        writer.shm.close()
        writer.shm.unlink()
        raise
    name = writer.shm.name
    if resource_tracker is not None:
        try:
            resource_tracker.unregister(writer.shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker API moved
            pass
    writer.shm.close()                          # drop the worker's mapping
    return WireResult(obj=wire, segment=name)


def shm_call(task: Tuple) -> object:
    """The function every pool task runs: unpack → work → repack.

    Exceptions from the work function come back as :class:`WireError` (not
    raised), so ``executor.map`` always yields one entry per submitted item
    and the parent can free every sibling result segment before re-raising.
    """
    fn, wire_item = task
    atlas = _Atlas()
    try:
        item = atlas.unpack_object(wire_item)
        result = fn(item)
        return _externalize_result(result)
    except BaseException as exc:
        return WireError(exc=exc)
    finally:
        atlas.close()


# ----------------------------------------------------------------------
# adoption (parent side)
# ----------------------------------------------------------------------
class _AdoptedSegment:
    """A worker result segment now owned by the parent.

    The segment is unlinked immediately (no ``/dev/shm`` entry survives a
    crash from here on); the mapping itself is released when the last
    adopted array view dies, via one :func:`weakref.finalize` per view.
    Arrays handed out are therefore safe for arbitrarily long lifetimes —
    a chunk cache can keep one for hours — without pinning anything but
    their own memory.
    """

    def __init__(self, name: str):
        self.shm = shared_memory.SharedMemory(name=name)
        self._lock = threading.Lock()
        self._live_views = 0
        self._done = False
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double adoption
            pass

    def array(self, ref: ShmArrayRef) -> np.ndarray:
        arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                         buffer=self.shm.buf, offset=ref.offset)
        with self._lock:
            self._live_views += 1
        weakref.finalize(arr, self._release_one)
        return arr

    def bytes(self, ref: ShmBytesRef) -> bytes:
        return bytes(self.shm.buf[ref.offset:ref.offset + ref.nbytes])

    def _release_one(self) -> None:
        with self._lock:
            self._live_views -= 1
            if self._live_views > 0 or self._done:
                return
            self._done = True
        self.shm.close()

    def finish(self) -> None:
        """Close the mapping now if no array view was ever handed out."""
        with self._lock:
            if self._live_views > 0 or self._done:
                return
            self._done = True
        self.shm.close()


def adopt_result(wire):
    """Parent side: rebuild a worker result, committing arrays zero-copy.

    Plain objects (pickled fallback) pass through; :class:`WireError` raises
    the worker's exception; :class:`WireResult` is rebuilt with its arrays as
    views straight over the adopted shared buffer.
    """
    if isinstance(wire, WireError):
        raise wire.exc
    if not isinstance(wire, WireResult):
        return wire
    adopted = _AdoptedSegment(wire.segment)
    try:
        clone = copy.copy(wire.obj)
        for name in _shm_fields(wire.obj):
            setattr(clone, name, _adopt_value(getattr(wire.obj, name), adopted))
        return clone
    finally:
        adopted.finish()


def _adopt_value(value, adopted: _AdoptedSegment):
    if isinstance(value, ShmArrayRef):
        return adopted.array(value)
    if isinstance(value, ShmBytesRef):
        return adopted.bytes(value)
    if isinstance(value, list):
        return [_adopt_value(v, adopted) for v in value]
    if isinstance(value, tuple):
        return tuple(_adopt_value(v, adopted) for v in value)
    return value


# ----------------------------------------------------------------------
# leak control
# ----------------------------------------------------------------------
def live_segments(token: Optional[str] = None) -> List[str]:
    """``/dev/shm`` entries carrying this process's segment prefix."""
    prefix = segment_prefix(token)
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def sweep_segments(token: Optional[str] = None) -> List[str]:
    """Unlink every leftover segment of this run (crash recovery).

    Called by :meth:`SharedMemoryBackend.close` after the pool has shut
    down: a worker killed mid-task can leave a result segment that no
    surviving wire result names, and this sweep is what guarantees the
    backend never leaks ``/dev/shm`` entries past its lifetime.  Segments
    already adopted are unlinked and invisible here; anything still listed
    is orphaned by definition.
    """
    swept = []
    for name in live_segments(token):
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
            swept.append(name)
        except FileNotFoundError:  # pragma: no cover - raced another sweeper
            pass
    return swept
