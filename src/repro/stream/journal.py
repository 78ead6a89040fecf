"""The series journal: the one way a series step is committed.

``series.h5z`` is a whole-manifest snapshot, written once when the writer
finalizes.  Until then a series *is* its journal (``series.journal``): an
append-only file of framed records, one per step, each fsync'd before
:meth:`~repro.series.writer.SeriesWriter.append` returns.

Layout::

    [4s magic b"SJNL"][<I journal format version>]          # 8-byte preamble
    [4s b"SJRC"][<Q payload len>][<I crc32(payload)>][payload]   # record 0
    [4s b"SJRC"][<Q payload len>][<I crc32(payload)>][payload]   # record 1
    ...

Every payload is the unified codec container
(:func:`repro.compress.container.pack_container`, codec ``series_journal``)
whose ``meta`` carries the record JSON.  Record 0 is always a **genesis**
record — the series configuration (a manifest without its step list) plus
``resumed``, the number of steps the generation was written with.  Every
later record is a **step** record holding one
:class:`~repro.series.index.SeriesStepRecord`.  A journal holds every step of
the series from step 0, so a directory is read from its journal alone when
one is present, and from its manifest otherwise; after a crash inside
finalize both are present and hold the same steps.

Crash-recovery invariants:

* a generation is written whole — write-temp + fsync + atomic rename +
  directory fsync — at a series' first step (genesis only) and when a
  finalized series is resumed (genesis plus every manifest step);
* a step commit is a single ``write`` + fsync, so a crash can only tear the
  **tail**: recovery replays complete records and truncates at the first
  record whose header, length, CRC or payload fails to parse;
* records are immutable once written — a reader that has consumed the journal
  up to byte offset *k* only ever needs bytes ``[k:]`` plus a 24-byte head
  probe (:func:`tail_journal`) to learn what is new.

The genesis record's CRC doubles as the journal *generation id*: generations
that hold different steps have different ``resumed`` counts, hence different
CRCs, and a tail reader detecting a CRC change falls back to a full reload.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.compress.container import pack_container, unpack_container
from repro.errors import CorruptFileError
from repro.series.index import SeriesIndex, SeriesStepRecord

__all__ = [
    "JOURNAL_FILENAME",
    "JOURNAL_FORMAT_VERSION",
    "JOURNAL_CODEC",
    "JournalView",
    "JournalTail",
    "SeriesJournal",
    "read_journal",
    "tail_journal",
    "load_live_index",
    "replay_journal",
]

#: journal file name inside a series directory
JOURNAL_FILENAME = "series.journal"
JOURNAL_FORMAT_VERSION = 2
#: codec tag of every record payload (unified container format)
JOURNAL_CODEC = "series_journal"

_PREAMBLE = struct.Struct("<4sI")          # magic, format version
_PREAMBLE_MAGIC = b"SJNL"
_RECORD_HEADER = struct.Struct("<4sQI")    # magic, payload length, crc32(payload)
_RECORD_MAGIC = b"SJRC"
#: offset of the first record header (== preamble size)
GENESIS_OFFSET = _PREAMBLE.size
#: bytes needed to identify a journal generation: preamble + genesis header
HEAD_PROBE_BYTES = _PREAMBLE.size + _RECORD_HEADER.size
#: a record payload larger than this is treated as a torn tail, not a record
_MAX_PAYLOAD_BYTES = 1 << 30


def _frame_record(obj: dict) -> bytes:
    """One complete record: container payload behind a CRC'd length header."""
    payload = pack_container(JOURNAL_CODEC, obj, {})
    return _RECORD_HEADER.pack(_RECORD_MAGIC, len(payload),
                               zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _parse_record(buf: bytes, offset: int) -> Optional[Tuple[dict, int]]:
    """Parse the record at ``offset``; ``None`` means a torn/absent tail."""
    end = offset + _RECORD_HEADER.size
    if end > len(buf):
        return None
    magic, length, crc = _RECORD_HEADER.unpack_from(buf, offset)
    if magic != _RECORD_MAGIC or length > _MAX_PAYLOAD_BYTES:
        return None
    if end + length > len(buf):
        return None
    payload = buf[end:end + length]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        meta = dict(unpack_container(bytes(payload), expect_codec=JOURNAL_CODEC).meta)
    except ValueError:
        return None
    if meta.get("record") == "step" and not isinstance(meta.get("step"), dict):
        return None
    return meta, end + length


def _scan(buf: bytes, offset: int) -> Tuple[List[dict], int]:
    """The step records from ``offset`` up to the first torn or unparsable
    record, and the offset just past the last complete one.

    Unknown record kinds are skipped (additive evolution within a format
    version, like the manifest's extra-key rule).
    """
    steps = []
    while (parsed := _parse_record(buf, offset)) is not None:
        obj, offset = parsed
        if obj.get("record") == "step":
            steps.append(obj["step"])
    return steps, offset


def _fsync_dir(directory: str) -> None:
    # directory fsync is what makes the rename itself durable; some
    # filesystems refuse O_RDONLY fsync on directories — best effort there
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass
class JournalView:
    """One full read of a journal: its generation identity and step records."""

    config: dict                  #: manifest JSON minus its step list
    steps: List[dict] = field(default_factory=list)  #: step record JSON objects
    genesis_crc: int = 0          #: generation id (crc32 of the genesis payload)
    end_offset: int = 0           #: byte offset just past the last complete record
    truncated: bool = False       #: a torn tail followed ``end_offset``


@dataclass
class JournalTail:
    """What :func:`tail_journal` learned without re-reading committed records."""

    #: "ok" (``steps`` holds the new records), "rebuilt" (generation changed —
    #: full reload required) or "gone" (journal removed: series finalized)
    status: str
    steps: List[dict] = field(default_factory=list)
    end_offset: int = 0


def read_journal(path: str) -> JournalView:
    """Scan one journal file, stopping cleanly at a torn tail.

    Raises :class:`~repro.errors.CorruptFileError` for damage that cannot be
    a torn tail — a bad preamble, another format version, a malformed genesis
    record, or fewer steps than the generation was written with (generations
    are written whole and atomically).
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _PREAMBLE.size:
        raise CorruptFileError(f"{path} is too short to be a series journal")
    magic, version = _PREAMBLE.unpack_from(buf, 0)
    if magic != _PREAMBLE_MAGIC:
        raise CorruptFileError(f"{path} is not a series journal (bad magic)")
    if version != JOURNAL_FORMAT_VERSION:
        raise CorruptFileError(
            f"{path}: journal format version {version} is not supported by this "
            f"reader, which reads version {JOURNAL_FORMAT_VERSION} only")
    genesis, offset = _parse_record(buf, GENESIS_OFFSET) or ({}, GENESIS_OFFSET)
    resumed = genesis.get("resumed")
    if genesis.get("record") != "genesis" or not isinstance(genesis.get("config"), dict) \
            or not isinstance(resumed, int) or isinstance(resumed, bool):
        raise CorruptFileError(f"{path} has no complete genesis record")
    steps, end = _scan(buf, offset)
    if len(steps) < resumed:
        raise CorruptFileError(
            f"{path} holds {len(steps)} complete steps, fewer than the {resumed} "
            "its generation was written with — the journal is damaged")
    _, _, genesis_crc = _RECORD_HEADER.unpack_from(buf, GENESIS_OFFSET)
    return JournalView(config=genesis["config"], steps=steps, genesis_crc=genesis_crc,
                       end_offset=end, truncated=end < len(buf))


def tail_journal(path: str, offset: int, genesis_crc: int) -> JournalTail:
    """Read only what a journal grew past ``offset`` — the refresh fast path.

    ``offset``/``genesis_crc`` come from the caller's last
    :class:`JournalView`/:class:`JournalTail`.  The steady-state cost when
    nothing changed is one ``stat`` plus a 24-byte head probe; new records
    cost exactly their own bytes.  A "rebuilt" or "gone" status tells the
    caller to fall back to a full reload (a resume or a finalize happened).
    """
    try:
        size = os.stat(path).st_size
    except FileNotFoundError:
        return JournalTail(status="gone")
    if size < offset:
        return JournalTail(status="rebuilt")
    try:
        with open(path, "rb") as fh:
            head = fh.read(HEAD_PROBE_BYTES)
            if len(head) < HEAD_PROBE_BYTES \
                    or head[:4] != _PREAMBLE_MAGIC \
                    or head[GENESIS_OFFSET:GENESIS_OFFSET + 4] != _RECORD_MAGIC:
                return JournalTail(status="rebuilt")
            _, _, crc = _RECORD_HEADER.unpack_from(head, GENESIS_OFFSET)
            if crc != genesis_crc:
                return JournalTail(status="rebuilt")
            if size == offset:
                return JournalTail(status="ok", end_offset=offset)
            fh.seek(offset)
            buf = fh.read()
    except FileNotFoundError:
        return JournalTail(status="gone")
    # a torn (or still being written) tail stops the scan; the next call retries it
    steps, pos = _scan(buf, 0)
    return JournalTail(status="ok", steps=steps, end_offset=offset + pos)


def load_live_index(directory: str) -> Tuple[SeriesIndex, Optional[JournalView]]:
    """Materialize the current index of a live (or finalized) series.

    A live series is its journal alone: genesis plus every step since step 0.
    Without a journal the series is finalized and its manifest describes it.
    Returns ``(index, view)`` where ``view`` is ``None`` for a finalized
    series.
    """
    path = os.path.join(directory, JOURNAL_FILENAME)
    try:
        view = read_journal(path)
    except FileNotFoundError:
        return SeriesIndex.load(directory), None
    index = SeriesIndex.from_json(dict(view.config, steps=[]))
    replay_journal(index, view, path=path)
    return index, view


def replay_journal(index: SeriesIndex, view: "JournalView | JournalTail", *,
                   path: str = JOURNAL_FILENAME) -> int:
    """Append a journal's step records onto ``index`` (idempotent; in place).

    Mutates ``index.steps`` only by appending — existing
    :class:`~repro.series.index.SeriesStepRecord` objects are never replaced,
    which is what lets a live reader keep its caches across a refresh.  A gap
    — a journal claiming step *k+2* when only *k* steps are known — raises
    :class:`~repro.errors.CorruptFileError`, because it can only mean a
    damaged directory.  Returns the number of steps appended.
    """
    appended = 0
    for obj in view.steps:
        idx = obj.get("index")
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise CorruptFileError(f"{path}: step record with invalid index {idx!r}")
        if idx < index.nsteps:
            continue  # already replayed
        if idx > index.nsteps:
            raise CorruptFileError(
                f"{path}: journal records step {idx} but only "
                f"{index.nsteps} steps are known — the series directory "
                "is damaged (missing commits)")
        index.steps.append(SeriesStepRecord.from_json(obj, idx))
        appended += 1
    return appended


# ----------------------------------------------------------------------
# the writer's handle
# ----------------------------------------------------------------------
class SeriesJournal:
    """The series writer's journal handle.

    Owns the open file descriptor; every mutation is durable when the method
    returns.  :meth:`create` writes a generation atomically; :meth:`resume`
    reopens a live one behind its last complete record; :meth:`append_step`
    is the per-step commit; :meth:`remove` finalizes (the manifest, saved
    just before, now describes the series).
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, JOURNAL_FILENAME)
        self._fh = None
        self.genesis_crc = 0
        self.end_offset = 0

    def create(self, manifest: dict) -> None:
        """Write a fresh generation: the genesis plus one record per step of
        ``manifest`` (a :meth:`~repro.series.index.SeriesIndex.to_json`; a
        finalized series being resumed brings its steps, a new one none).

        Refuses to clobber an existing journal.
        """
        if os.path.exists(self.path):
            raise ValueError(
                f"{self.path!r} already exists; reopen it with resume()")
        config = dict(manifest)
        steps = config.pop("steps", [])
        genesis = _frame_record({"record": "genesis", "resumed": len(steps),
                                 "config": config})
        blob = b"".join([_PREAMBLE.pack(_PREAMBLE_MAGIC, JOURNAL_FORMAT_VERSION), genesis]
                        + [_frame_record({"record": "step", "step": s}) for s in steps])
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.directory)
        self._fh = open(self.path, "ab")
        _, _, self.genesis_crc = _RECORD_HEADER.unpack_from(genesis, 0)
        self.end_offset = len(blob)

    def resume(self, view: JournalView) -> None:
        """Reopen a live journal after a crash: truncate the torn tail that
        followed ``view`` (this journal's :func:`read_journal`), append after it."""
        if view.truncated:
            with open(self.path, "r+b") as fh:
                fh.truncate(view.end_offset)
                fh.flush()
                os.fsync(fh.fileno())
        self._fh = open(self.path, "ab")
        self.genesis_crc = view.genesis_crc
        self.end_offset = view.end_offset

    # -- the per-step commit -------------------------------------------
    def append_step(self, step_json: dict) -> None:
        """Commit one step record: a single write + fsync."""
        if self._fh is None:
            raise ValueError("journal is not open")
        record = _frame_record({"record": "step", "step": step_json})
        self._fh.write(record)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.end_offset += len(record)
        # an in situ writer has no query engine to collect through
        from repro.obs import get_registry

        get_registry().counter("repro_journal_appends_total").inc()

    # -- lifecycle ------------------------------------------------------
    def remove(self) -> None:
        """Finalize: drop the journal (the manifest must already be current)."""
        self.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        _fsync_dir(self.directory)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SeriesJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
