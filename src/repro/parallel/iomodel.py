"""Analytic write-time model combining measured and calibrated quantities.

A benchmark run produces, for every rank, a :class:`RankWorkload` — how many
elements it holds, how many compressor launches its chunking implies, and how
many compressed bytes it produced (measured with the real compressors in this
package, on the scaled-down data, then scaled to the paper's data sizes where
a preset asks for it).  :class:`IOCostModel` turns those into the same
"Prep. + I/O time" breakdown Figures 17/18 plot:

``prep``
    copying data into the write buffer plus AMRIC's pre-processing
    (redundancy removal, truncation, layout change) — modelled as a memory
    copy at ``copy_bandwidth`` over the rank's raw bytes;
``compression``
    ``launches × compressor_startup + bytes / compressor_throughput`` on the
    busiest rank (ranks compress in parallel);
``write``
    compressed bytes over the file system's aggregate bandwidth plus one
    write-latency per chunk and one collective-create per dataset.

The defaults for ``compressor_startup`` (0.03 s) follow §4.4 of the paper;
``compressor_throughput`` is the effective per-core SZ throughput the paper's
platform achieves (hundreds of MB/s).  The benchmarks report both the model
inputs and outputs so the calibration is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.parallel.filesystem import ParallelFileSystem

__all__ = ["RankWorkload", "WriteTimeBreakdown", "IOCostModel"]


@dataclass
class RankWorkload:
    """What one rank contributes to one plotfile write."""

    raw_bytes: int                 #: uncompressed bytes the rank owns
    compressed_bytes: int          #: bytes after compression (== raw for NoComp)
    compressor_launches: int       #: filter invocations on this rank
    padded_bytes: int = 0          #: extra bytes compressed/written due to padding
    chunks_written: int = 1        #: write calls issued by this rank

    def __post_init__(self) -> None:
        for name in ("raw_bytes", "compressed_bytes", "compressor_launches",
                     "padded_bytes", "chunks_written"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


@dataclass
class WriteTimeBreakdown:
    """The per-phase timing Figures 17/18 plot."""

    prep_seconds: float
    compression_seconds: float
    write_seconds: float

    @property
    def io_seconds(self) -> float:
        """Compression + file-system time (the paper folds compression into "I/O time")."""
        return self.compression_seconds + self.write_seconds

    @property
    def total_seconds(self) -> float:
        return self.prep_seconds + self.io_seconds


@dataclass(frozen=True)
class IOCostModel:
    """Calibrated constants + the combining rule."""

    filesystem: ParallelFileSystem = field(default_factory=ParallelFileSystem)
    ranks_per_node: int = 32               #: Summit runs used 32 ranks/node in the paper's setup
    compressor_startup: float = 0.03       #: seconds per compressor launch (§4.4)
    compressor_throughput: float = 250e6   #: bytes/s effective SZ throughput per core
    copy_bandwidth: float = 3e9            #: bytes/s buffer-copy speed (prep phase)
    prep_fixed: float = 0.3                #: seconds of fixed per-write metadata handling

    def nodes_for(self, nranks: int) -> int:
        if nranks < 1:
            raise ValueError("need at least one rank")
        return max(1, (nranks + self.ranks_per_node - 1) // self.ranks_per_node)

    # ------------------------------------------------------------------
    def evaluate(self, workloads: Sequence[RankWorkload], ndatasets: int = 1,
                 compression_enabled: bool = True) -> WriteTimeBreakdown:
        """Combine per-rank workloads into a write-time breakdown.

        Parameters
        ----------
        workloads:
            One entry per rank.
        ndatasets:
            Number of collective dataset creations/writes for the step.
        compression_enabled:
            When False the compression phase is skipped entirely (the NoComp
            bars) even if the workloads carry launch counts.
        """
        if not workloads:
            raise ValueError("need at least one rank workload")
        nranks = len(workloads)
        nodes = self.nodes_for(nranks)

        # prep: the busiest rank copies its raw bytes into the write buffer
        max_raw = max(w.raw_bytes for w in workloads)
        prep = self.prep_fixed + max_raw / self.copy_bandwidth

        # compression: ranks work in parallel; the slowest rank gates the phase
        if compression_enabled:
            compression = max(
                w.compressor_launches * self.compressor_startup
                + (w.raw_bytes + w.padded_bytes) / self.compressor_throughput
                for w in workloads)
        else:
            compression = 0.0

        # write: aggregate compressed (or raw) bytes through the shared FS
        total_bytes = sum(w.compressed_bytes + w.padded_bytes for w in workloads)
        total_writes = sum(w.chunks_written for w in workloads)
        write = self.filesystem.write_seconds(total_bytes, nodes, total_writes)
        write += self.filesystem.dataset_creation_seconds(ndatasets)

        return WriteTimeBreakdown(prep_seconds=prep, compression_seconds=compression,
                                  write_seconds=write)
