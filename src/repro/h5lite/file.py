"""The H5Lite container file: groups, attributes and chunked datasets.

On disk a file is::

    [4-byte magic][8-byte superblock offset][chunk payload 0][chunk payload 1]...
    ...[JSON superblock]

The superblock records every dataset's dtype, logical shape, chunk size,
filter id and the (offset, nbytes, actual_elements) of each chunk.  Datasets
are written append-only; the superblock is rewritten on close.  This mirrors
how HDF5's chunked storage behaves for the purposes of the paper: one filter
call per chunk, uniform chunk size per dataset, per-chunk byte ranges on disk.

Besides free-form ``attrs``, the superblock carries an optional first-class
**header section** (:attr:`H5LiteFile.header`): an arbitrary JSON object a
writer can attach to make the file self-describing (the AMRIC plotfile header
of :mod:`repro.core.header` lives there).  A file without one loads with
``header = None``, which the plotfile reader rejects.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CorruptFileError
from repro.h5lite.source import ByteSource, SourceSpec, make_source

__all__ = ["H5LiteFile", "DatasetInfo", "ChunkRecord"]

_MAGIC = b"H5LT"


@dataclass
class ChunkRecord:
    """Location of one stored chunk."""

    offset: int
    nbytes: int
    actual_elements: int


@dataclass
class DatasetInfo:
    """Metadata for one dataset."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    chunk_elements: int
    filter_id: str
    chunks: List[ChunkRecord] = field(default_factory=list)
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def nelements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def valid_elements(self) -> int:
        """The elements the chunks record as data: their padding not counted."""
        return sum(c.actual_elements for c in self.chunks)

    @property
    def stored_nbytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    @property
    def nchunks(self) -> int:
        return len(self.chunks)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "chunk_elements": self.chunk_elements,
            "filter_id": self.filter_id,
            "chunks": [[c.offset, c.nbytes, c.actual_elements] for c in self.chunks],
            "attrs": self.attrs,
        }

    @staticmethod
    def from_json(obj: dict) -> "DatasetInfo":
        return DatasetInfo(
            name=obj["name"],
            shape=tuple(obj["shape"]),
            dtype=obj["dtype"],
            chunk_elements=int(obj["chunk_elements"]),
            filter_id=obj["filter_id"],
            chunks=[ChunkRecord(*c) for c in obj["chunks"]],
            attrs=dict(obj.get("attrs", {})),
        )


class H5LiteFile:
    """A single-file chunked container with a filter pipeline.

    Usage (a writer encodes the chunks, the file stores and returns them)::

        with H5LiteFile(path, "w") as f:
            f.attrs["time"] = 0.5
            f.create_dataset_from_chunks(
                "level_0/data", [my_filter.encode(c) for c in chunks],
                shape=(len(chunks) * 4096,), dtype="float64", chunk_elements=4096,
                filter_id=my_filter.filter_id,
                actual_elements_per_chunk=[c.size for c in chunks])
        with H5LiteFile(path, "r") as f:
            payloads = f.read_chunk_payloads("level_0/data", range(len(chunks)))
    """

    def __init__(self, path: str, mode: str = "r", *,
                 source: SourceSpec = None):
        if mode not in ("r", "w"):
            raise ValueError("mode must be 'r' or 'w'")
        self.path = str(path)
        self.mode = mode
        self.attrs: Dict[str, object] = {}
        #: optional self-description written into the superblock (JSON object);
        #: None for files written before the header section existed
        self.header: Optional[Dict[str, object]] = None
        self.datasets: Dict[str, DatasetInfo] = {}
        self._closed = False
        #: the byte source reads go through (read mode only)
        self.source: Optional[ByteSource] = None
        if mode == "w":
            if source is not None:
                raise ValueError("source= applies to read mode only")
            self._fh = open(self.path, "wb")
            # placeholder header: magic + superblock offset (patched on close)
            self._fh.write(_MAGIC + struct.pack("<Q", 0))
            self._data_offset = self._fh.tell()
        else:
            self._fh = None
            self.source = make_source(self.path, source)
            self._load_superblock()

    # ------------------------------------------------------------------
    # context manager / lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "H5LiteFile":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None and self.mode == "w" and not self._closed:
            # a write whose body raised is incomplete: committing a
            # superblock would leave a file that opens and reads back zeros
            self._fh.close()
            self._closed = True
            os.unlink(self.path)
        else:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        if self.mode == "w":
            superblock_offset = self._fh.tell()
            superblock = json.dumps({
                "attrs": self.attrs,
                "header": self.header,
                "datasets": [d.to_json() for d in self.datasets.values()],
            }).encode("utf-8")
            self._fh.write(superblock)
            self._fh.seek(len(_MAGIC))
            self._fh.write(struct.pack("<Q", superblock_offset))
            self._fh.close()
        else:
            self.source.close()
        self._closed = True

    def _load_superblock(self) -> None:
        """Two bounded ranged reads: the 12-byte preamble, then the superblock.

        The superblock sits at the end of the file, so its size is known from
        the recorded offset and the source's total size — no ``read()``-to-EOF,
        which on a remote source would be an unbounded transfer.  Anything
        that is not a whole superblock raises
        :class:`~repro.errors.CorruptFileError`.
        """
        total = self.source.size()
        header_len = len(_MAGIC) + 8
        if total < header_len:
            raise CorruptFileError(f"{self.path} is truncated: no superblock offset")
        preamble = self.source.read_at(0, header_len)
        if preamble[:4] != _MAGIC:
            raise CorruptFileError(f"{self.path} is not an H5Lite file")
        (superblock_offset,) = struct.unpack_from("<Q", preamble, 4)
        if superblock_offset >= total:
            raise CorruptFileError(
                f"{self.path} has a corrupt or truncated superblock: offset "
                f"{superblock_offset} points past EOF (file is {total} bytes)")
        if superblock_offset < header_len:
            raise CorruptFileError(
                f"{self.path} has a corrupt or truncated superblock: offset "
                f"{superblock_offset} points into the file preamble")
        raw = self.source.read_at(superblock_offset, total - superblock_offset)
        try:
            superblock = json.loads(bytes(raw).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptFileError(
                f"{self.path} has a corrupt or truncated superblock: {exc}") from exc
        try:
            self.attrs = superblock["attrs"]
            self.header = superblock.get("header")
            self.datasets = {d["name"]: DatasetInfo.from_json(d)
                             for d in superblock["datasets"]}
        except (KeyError, TypeError, IndexError) as exc:
            raise CorruptFileError(
                f"{self.path} has a malformed superblock: {exc!r}") from exc

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def create_dataset_from_chunks(self, name: str, payloads: Sequence[bytes], *,
                                   shape: Tuple[int, ...], dtype: str,
                                   chunk_elements: int, filter_id: str,
                                   actual_elements_per_chunk: Sequence[int],
                                   attrs: Optional[Dict[str, object]] = None) -> DatasetInfo:
        """Write a dataset whose chunks are already encoded.

        This is the commit half of every write: the filter ran earlier (on
        this process or another worker — see :mod:`repro.parallel.backend`),
        and this method only appends the pre-encoded chunk payloads and
        records their byte ranges.
        """
        if self.mode != "w":
            raise ValueError("file is open read-only")
        if name in self.datasets:
            raise ValueError(f"dataset {name!r} already exists")
        chunk_elements = int(chunk_elements)
        if chunk_elements < 1:
            raise ValueError("chunk_elements must be >= 1")
        if not payloads:
            raise ValueError("cannot store a dataset with no chunks")
        if len(actual_elements_per_chunk) != len(payloads):
            raise ValueError("actual_elements_per_chunk must have one entry per chunk")
        info = DatasetInfo(name=name, shape=tuple(int(s) for s in shape),
                           dtype=str(dtype), chunk_elements=chunk_elements,
                           filter_id=filter_id, attrs=dict(attrs or {}))
        for payload, actual in zip(payloads, actual_elements_per_chunk):
            offset = self._fh.tell()
            self._fh.write(payload)
            info.chunks.append(ChunkRecord(offset=offset, nbytes=len(payload),
                                           actual_elements=int(actual)))
        self.datasets[name] = info
        return info

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def read_chunk_payloads(self, name: str, indices: Sequence[int]) -> List[bytes]:
        """Raw stored bytes of several chunks, as one batch.

        The batch goes to the byte source as a single :meth:`ByteSource.read_many`
        call, so sources that coalesce (adjacent chunks of one dataset are
        contiguous on disk) turn N chunk reads into one ranged read — the
        difference between N round-trips and one on a high-latency source.
        Payloads come back in ``indices`` order.
        """
        if self.mode != "r":
            raise ValueError("file is open write-only")
        if name not in self.datasets:
            raise KeyError(f"no dataset named {name!r}; have {sorted(self.datasets)}")
        info = self.datasets[name]
        ranges = []
        for index in indices:
            if not 0 <= index < len(info.chunks):
                raise IndexError(
                    f"chunk {index} out of range for dataset {name!r} "
                    f"({len(info.chunks)} chunks)")
            chunk = info.chunks[index]
            ranges.append((chunk.offset, chunk.nbytes))
        try:
            payloads = self.source.read_many(ranges)
        except ValueError as exc:
            # a chunk range past EOF means the data section was cut off;
            # keep the established truncation diagnostics
            raise ValueError(
                f"{self.path} is truncated: a chunk of {name!r} reads past "
                f"EOF ({exc})") from exc
        return list(payloads)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.datasets

    def dataset_names(self) -> List[str]:
        return sorted(self.datasets)

    def total_stored_bytes(self) -> int:
        return sum(d.stored_nbytes for d in self.datasets.values())
