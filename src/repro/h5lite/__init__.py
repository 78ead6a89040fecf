"""A minimal HDF5-like chunked container with a compression-filter pipeline.

The real AMRIC uses HDF5's chunked datasets and user-defined filters
(H5Z-SZ-style).  The properties the paper's contribution actually depends on
are reproduced here exactly:

* a dataset is split into **equal-size chunks** and the compression filter is
  invoked **once per chunk** (the source of AMReX's small-chunk start-up
  penalty);
* the chunk size must be the same across the whole dataset, so in a parallel
  write it must accommodate the largest per-rank contribution — either by
  padding (size overhead) or by telling the filter the *actual* number of
  valid elements (AMRIC's filter modification);
* filters see opaque chunk buffers and return compressed bytes; the file
  records per-chunk compressed sizes so chunks can be located and read back.

The on-disk layout (a JSON superblock plus raw chunk payloads) is intentionally
simple — this is not an HDF5 re-implementation, it is the minimal container
that preserves HDF5's chunk/filter cost structure and round-trips data.
"""

from repro.h5lite.file import H5LiteFile, DatasetInfo
from repro.h5lite.source import (
    ByteSource,
    SourceStats,
    LocalFileSource,
    RangeSource,
    make_source,
)
from repro.h5lite.filters import Filter, NoCompressionFilter
from repro.h5lite.chunking import amrex_chunk_elements

__all__ = [
    "H5LiteFile",
    "DatasetInfo",
    "ByteSource",
    "SourceStats",
    "LocalFileSource",
    "RangeSource",
    "make_source",
    "Filter",
    "NoCompressionFilter",
    "amrex_chunk_elements",
]
