"""AMRIC configuration: which compressor, which optimisations are switched on.

Every optimisation the paper introduces has an independent toggle so the
benchmarks can run the ablations DESIGN.md lists (SLE on/off, adaptive block
size on/off, filter modification on/off, redundancy removal on/off).  The
§3.3 field-major layout has no toggle: every AMRIC dataset is one field, and
the box-major side of that ablation is the ``amrex_1d`` baseline writer.

The compressor is any name in the codec registry
(:mod:`repro.compress.registry`) — the config never touches codec classes.
Where the encode jobs run is not configuration: a writer takes an
:class:`~repro.parallel.backend.ExecutionBackend` instance as ``backend=``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compress.errorbound import ErrorBound
from repro.compress.registry import is_registered, available_codecs

__all__ = ["AMRICConfig"]


@dataclass(frozen=True)
class AMRICConfig:
    """Configuration of the AMRIC in situ pipeline."""

    #: which SZ algorithm to use ("sz_lr" or "sz_interp")
    compressor: str = "sz_lr"
    #: error bound (value-range relative by default, like the paper)
    error_bound: float = 1e-3
    error_bound_mode: str = "rel"

    #: §3.1 — remove coarse data covered by the next finer level
    remove_redundancy: bool = True
    #: §3.1 — unit block edge length used for uniform truncation
    unit_block_size: int = 16
    #: §3.1 — reorganisation for SZ_Interp: "cluster" (cube) or "linear"
    interp_arrangement: str = "cluster"

    #: §3.2 Solution 1 — unit Shared Lossless Encoding (one Huffman table)
    use_sle: bool = True
    #: §3.2 Solution 2 — adaptive SZ block size (Equation 1)
    adaptive_block_size: bool = True
    #: base SZ_L/R block size when the adaptive rule is off / chooses the default
    sz_block_size: int = 6

    #: §3.3 Solution 2 — pass per-rank actual sizes to the filter
    modify_filter: bool = True

    #: SZ_Interp anchor stride
    interp_anchor_stride: int = 16

    def __post_init__(self) -> None:
        if not is_registered(self.compressor):
            raise ValueError(
                f"compressor must be a registered codec {available_codecs()}, "
                f"got {self.compressor!r}")
        if self.unit_block_size < 2:
            raise ValueError("unit_block_size must be >= 2")
        if self.sz_block_size < 2:
            raise ValueError("sz_block_size must be >= 2")
        if self.interp_arrangement not in ("cluster", "linear"):
            raise ValueError("interp_arrangement must be 'cluster' or 'linear'")
        # validate the error bound eagerly so bad configs fail fast
        ErrorBound(self.error_bound, self.error_bound_mode)

    # ------------------------------------------------------------------
    @property
    def error_bound_obj(self) -> ErrorBound:
        return ErrorBound(self.error_bound, self.error_bound_mode)

    def with_overrides(self, **kwargs) -> "AMRICConfig":
        """A copy with some fields replaced (used heavily by the ablations)."""
        return replace(self, **kwargs)
