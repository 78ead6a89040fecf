"""Simulated parallel environment: MPI ranks, parallel file system, I/O cost model.

The paper's I/O evaluation (Figures 17 and 18) ran on Summit with up to 4096
CPU cores writing to an IBM Spectrum Scale file system through collective
HDF5.  Nothing about the *algorithmic* contribution needs a real machine — the
write-time behaviour is governed by a handful of cost drivers the paper itself
identifies:

* how many times each rank launches the compressor (one filter call per HDF5
  chunk, ~0.03 s fixed start-up each — §4.4),
* how many bytes each rank compresses and at what throughput,
* how many bytes reach the file system and at what aggregate bandwidth,
* how many (collective) dataset creations/writes are issued,
* how much padding a naive global chunk size would add.

:class:`~repro.parallel.mpi_sim.SimComm` provides the rank structure,
:class:`~repro.parallel.filesystem.ParallelFileSystem` the bandwidth model and
:class:`~repro.parallel.iomodel.IOCostModel` combines measured quantities
(from the real compressors in this package) with those calibrated constants to
produce the write-time breakdowns the benchmarks report.
"""

from repro.parallel.mpi_sim import SimComm
from repro.parallel.filesystem import ParallelFileSystem
from repro.parallel.iomodel import IOCostModel, WriteTimeBreakdown, RankWorkload
from repro.parallel.backend import (
    ExecutionBackend,
    SerialBackend,
    SharedMemoryBackend,
    WorkloadTally,
    apportion,
)

__all__ = [
    "SimComm",
    "ParallelFileSystem",
    "IOCostModel",
    "WriteTimeBreakdown",
    "RankWorkload",
    "ExecutionBackend",
    "SerialBackend",
    "SharedMemoryBackend",
    "apportion",
    "WorkloadTally",
]
