"""Parallel file-system bandwidth model (the Summit / Spectrum Scale stand-in).

The model is deliberately simple and fully documented, because every number
the benchmarks print flows through it:

* each node contributes ``per_node_bandwidth`` of write bandwidth until the
  shared file system saturates at ``peak_bandwidth``;
* every write call pays ``write_latency`` seconds (metadata + RPC overhead);
* every collective dataset creation pays ``dataset_create_latency`` seconds
  *for everyone* (all ranks participate in collective writes, which is why
  one-dataset-per-rank writes serialise — §3.3 Challenge 2 of the paper).

Defaults are calibrated so the no-compression write times of the scaled Table
1 runs land in the same decade as Figure 17/18 of the paper; the figure
benchmarks assert the shape (how the methods compare), not absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ParallelFileSystem"]


@dataclass(frozen=True)
class ParallelFileSystem:
    """Aggregate write-bandwidth model."""

    per_node_bandwidth: float = 1.5e9     #: bytes/s one node can push
    peak_bandwidth: float = 12.0e9        #: bytes/s the shared FS saturates at
    write_latency: float = 2e-3           #: seconds per write call
    dataset_create_latency: float = 0.05  #: seconds per collective dataset create

    def __post_init__(self) -> None:
        if self.per_node_bandwidth <= 0 or self.peak_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.write_latency < 0 or self.dataset_create_latency < 0:
            raise ValueError("latencies cannot be negative")

    # ------------------------------------------------------------------
    def aggregate_bandwidth(self, nodes: int) -> float:
        """Effective bandwidth for ``nodes`` writers."""
        if nodes < 1:
            raise ValueError("need at least one node")
        return min(self.per_node_bandwidth * nodes, self.peak_bandwidth)

    def write_seconds(self, nbytes: int, nodes: int, nwrites: int = 1) -> float:
        """Time to land ``nbytes`` on disk from ``nodes`` writers with ``nwrites`` calls."""
        if nbytes < 0 or nwrites < 0:
            raise ValueError("nbytes and nwrites cannot be negative")
        return nbytes / self.aggregate_bandwidth(nodes) + nwrites * self.write_latency

    def dataset_creation_seconds(self, ndatasets: int) -> float:
        """Collective dataset-creation overhead (paid by every rank together)."""
        if ndatasets < 0:
            raise ValueError("ndatasets cannot be negative")
        return ndatasets * self.dataset_create_latency
