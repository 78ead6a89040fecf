"""The series journal: a series directory's one index.

A series *is* its journal (``series.journal``): an append-only file of
framed records, each fsync'd before the call that wrote it returns.

Layout::

    [4s magic b"SJNL"][<I journal format version>]          # 8-byte preamble
    [4s b"SJRC"][<Q payload len>][<I crc32(payload)>][payload]   # record 0
    [4s b"SJRC"][<Q payload len>][<I crc32(payload)>][payload]   # record 1
    ...

Every payload is one UTF-8 JSON object.  Record 0 is always the **genesis**
record — the series configuration (a manifest without its step list).  A
**step** record holds one :class:`~repro.series.index.SeriesStepRecord`, and
:meth:`~repro.series.writer.SeriesWriter.finalize` appends a **final**
record: a series is finalized exactly when its last complete record is
``final``.  Resuming a finalized series appends its next steps after that
record, exactly as resuming a crashed one does — no record is ever rewritten.

Crash-recovery invariants:

* the genesis is published whole — write-temp + fsync + atomic rename +
  directory fsync — when the series' first step commits;
* every later record is a single ``write`` + fsync, so a crash can only tear
  the **tail**.  A record is a torn tail only when it reaches end of file:
  its declared end is past EOF, or it fails its CRC and no bytes follow it.
  Recovery replays the records before it and truncates it; any other record
  that fails to parse is damage and raises
  :class:`~repro.errors.CorruptFileError`;
* records are immutable once written — a reader that has consumed the journal
  up to byte offset *k* only ever needs bytes ``[k:]`` plus a 24-byte head
  probe (:func:`tail_journal`) to learn what is new.  A journal shorter than
  *k*, or whose genesis CRC changed, is damage too.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import CorruptFileError

if TYPE_CHECKING:
    from repro.series.index import SeriesIndex

__all__ = [
    "JOURNAL_FILENAME",
    "JOURNAL_FORMAT_VERSION",
    "JournalView",
    "JournalTail",
    "SeriesJournal",
    "read_journal",
    "tail_journal",
    "load_journal",
    "replay_journal",
]

#: journal file name inside a series directory
JOURNAL_FILENAME = "series.journal"
JOURNAL_FORMAT_VERSION = 4

_PREAMBLE = struct.Struct("<4sI")          # magic, format version
_PREAMBLE_MAGIC = b"SJNL"
_RECORD_HEADER = struct.Struct("<4sQI")    # magic, payload length, crc32(payload)
_RECORD_MAGIC = b"SJRC"
#: offset of the first record header (== preamble size)
GENESIS_OFFSET = _PREAMBLE.size
#: bytes that identify a journal: preamble + genesis header
HEAD_PROBE_BYTES = _PREAMBLE.size + _RECORD_HEADER.size


def _frame_record(obj: dict) -> bytes:
    """One complete record: a JSON payload behind a CRC'd length header."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _RECORD_HEADER.pack(_RECORD_MAGIC, len(payload),
                               zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _parse_record(buf: bytes, offset: int, path: str) -> Optional[Tuple[dict, int]]:
    """Parse the record at ``offset``; ``None`` means a torn tail or EOF.

    Raises :class:`~repro.errors.CorruptFileError` for a record that fails to
    parse but does not reach end of file, and for one that passes its CRC but
    is not a journal record object.
    """
    end = offset + _RECORD_HEADER.size
    if end > len(buf):
        return None
    magic, length, crc = _RECORD_HEADER.unpack_from(buf, offset)
    if end + length > len(buf):
        return None
    payload = buf[end:end + length]
    if magic != _RECORD_MAGIC or zlib.crc32(payload) & 0xFFFFFFFF != crc:
        if end + length == len(buf):
            return None
        raise CorruptFileError(
            f"{path}: the record at byte {offset} fails its CRC with "
            f"{len(buf) - end - length} bytes after it — the journal is damaged")
    try:
        obj = json.loads(payload)
    except ValueError:
        obj = None
    if not isinstance(obj, dict) or (
            obj.get("record") == "step" and not isinstance(obj.get("step"), dict)):
        raise CorruptFileError(
            f"{path}: the record at byte {offset} passes its CRC but is not a "
            "journal record")
    return obj, end + length


def _scan(buf: bytes, offset: int, path: str) -> Tuple[List[dict], int, bool]:
    """The step records from ``offset`` up to the torn tail or EOF, the offset
    just past the last complete record, and whether that record is ``final``.

    Unknown record kinds are skipped (additive evolution within a format
    version, like the manifest's extra-key rule).
    """
    steps, final = [], False
    while (parsed := _parse_record(buf, offset, path)) is not None:
        obj, offset = parsed
        if obj.get("record") == "step":
            steps.append(obj["step"])
        final = obj.get("record") == "final"
    return steps, offset, final


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
    """One full read of a journal: its identity and step records."""

    config: dict                  #: manifest JSON minus its step list
    steps: List[dict] = field(default_factory=list)  #: step record JSON objects
    genesis_crc: int = 0          #: journal identity (crc32 of the genesis payload)
    end_offset: int = 0           #: byte offset just past the last complete record
    truncated: bool = False       #: a torn tail followed ``end_offset``
    final: bool = False           #: the last complete record is ``final``


@dataclass
class JournalTail:
    """What :func:`tail_journal` learned without re-reading committed records."""

    steps: List[dict] = field(default_factory=list)
    end_offset: int = 0
    final: bool = False           #: the last new record is ``final``


def read_journal(path: str) -> JournalView:
    """Scan one journal file, stopping cleanly at a torn tail.

    Raises :class:`~repro.errors.CorruptFileError` for damage that cannot be
    a torn tail — a bad preamble, another format version, a malformed genesis
    record, or a damaged record with bytes after it.
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
    genesis, offset = _parse_record(buf, GENESIS_OFFSET, path) or ({}, GENESIS_OFFSET)
    if genesis.get("record") != "genesis" or not isinstance(genesis.get("config"), dict):
        raise CorruptFileError(f"{path} has no complete genesis record")
    steps, end, final = _scan(buf, offset, path)
    _, _, genesis_crc = _RECORD_HEADER.unpack_from(buf, GENESIS_OFFSET)
    return JournalView(config=genesis["config"], steps=steps, genesis_crc=genesis_crc,
                       end_offset=end, truncated=end < len(buf), final=final)


def tail_journal(path: str, offset: int, genesis_crc: int) -> JournalTail:
    """Read only what a journal grew past ``offset`` — the refresh fast path.

    ``offset``/``genesis_crc`` come from the caller's last
    :class:`JournalView`/:class:`JournalTail`.  The steady-state cost when
    nothing changed is one ``stat`` plus a 24-byte head probe; new records
    cost exactly their own bytes.  A journal that is gone, shorter than
    ``offset`` or headed by another genesis no longer holds what the caller
    read: :class:`~repro.errors.CorruptFileError`.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(HEAD_PROBE_BYTES)
            if size < offset or len(head) < HEAD_PROBE_BYTES \
                    or head[:4] != _PREAMBLE_MAGIC \
                    or _RECORD_HEADER.unpack_from(head, GENESIS_OFFSET)[2] != genesis_crc:
                raise CorruptFileError(
                    f"{path} no longer holds the {offset} bytes this reader has "
                    "read (it shrank or has another genesis) — committed records "
                    "are immutable, so the journal is damaged")
            fh.seek(offset)
            buf = fh.read()
    except FileNotFoundError:
        raise CorruptFileError(f"{path} vanished under a live reader") from None
    # a torn (or still being written) tail stops the scan; the next call retries it
    steps, pos, final = _scan(buf, 0, path)
    return JournalTail(steps=steps, end_offset=offset + pos, final=final)


def load_journal(directory: str) -> Tuple[SeriesIndex, JournalView]:
    """Materialize a series directory's index from its journal.

    Returns ``(index, view)``; a directory without a journal is not a series
    (:class:`FileNotFoundError`).
    """
    # imported at call time: importing repro.series loads its reader, which
    # imports this module, so an import-time edge back to it is a cycle
    from repro.series.index import SeriesIndex

    path = os.path.join(directory, JOURNAL_FILENAME)
    try:
        view = read_journal(path)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"{directory!r} is not a plotfile series: no {JOURNAL_FILENAME} journal"
        ) from None
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
    from repro.series.index import SeriesStepRecord

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
    returns.  :meth:`create` publishes the genesis atomically; :meth:`resume`
    reopens a journal behind its last complete record; :meth:`append_step` is
    the per-step commit and :meth:`append_final` the finalize.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, JOURNAL_FILENAME)
        self._fh = None
        self.genesis_crc = 0
        self.end_offset = 0

    def create(self, manifest: dict) -> None:
        """Publish a new journal holding the genesis of ``manifest`` (a
        :meth:`~repro.series.index.SeriesIndex.to_json` with no steps yet).

        Refuses to clobber an existing journal.
        """
        if os.path.exists(self.path):
            raise ValueError(
                f"{self.path!r} already exists; reopen it with resume()")
        config = dict(manifest)
        if config.pop("steps", None):
            raise ValueError("a new journal holds no steps; commit them with append_step()")
        genesis = _frame_record({"record": "genesis", "config": config})
        blob = _PREAMBLE.pack(_PREAMBLE_MAGIC, JOURNAL_FORMAT_VERSION) + genesis
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
        """Reopen a journal after a crash or a finalize: truncate the torn tail
        that followed ``view`` (this journal's :func:`read_journal`), append after it."""
        if view.truncated:
            with open(self.path, "r+b") as fh:
                fh.truncate(view.end_offset)
                fh.flush()
                os.fsync(fh.fileno())
        self._fh = open(self.path, "ab")
        self.genesis_crc = view.genesis_crc
        self.end_offset = view.end_offset

    def _append(self, obj: dict) -> None:
        """One record: a single write + fsync."""
        if self._fh is None:
            raise ValueError("journal is not open")
        record = _frame_record(obj)
        self._fh.write(record)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.end_offset += len(record)

    def append_step(self, step_json: dict) -> None:
        """Commit one step record."""
        self._append({"record": "step", "step": step_json})
        # an in situ writer has no query engine to collect through
        from repro.obs import get_registry

        get_registry().counter("repro_journal_appends_total").inc()

    def append_final(self) -> None:
        """Finalize: the series is finalized while this is its last record."""
        self._append({"record": "final"})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SeriesJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
