"""AMRIC — the paper's contribution: in situ 3D AMR compression through the filter.

The pieces map one-to-one onto the paper's design sections:

* :mod:`repro.core.preprocess` — §3.1 pre-processing: redundancy removal,
  uniform truncation into unit blocks and their §3.3 rank-by-rank storage
  order (one :class:`~repro.core.preprocess.LevelLayout` per level),
  compressor-specific reorganisation (linear for SZ_L/R, clustered cube for
  SZ_Interp).
* :mod:`repro.core.sle` — §3.2 Solution 1: unit Shared Lossless Encoding.
* :mod:`repro.core.adaptive` — §3.2 Solution 2 (Equation 1): adaptive SZ
  block size.
* :mod:`repro.core.stages` — §3.3 Solution 1: the field-major layout, one
  dataset per level and field (``pack_dataset``).
* :mod:`repro.core.filter_mod` — §3.3 Solution 2: global chunk size with
  per-rank actual sizes passed to the filter.
* :mod:`repro.core.pipeline` / :mod:`repro.core.reader` — the end-to-end
  in situ writer (:class:`AMRICWriter`) and the staged reader
  (:class:`PlotfileHandle`, opened through :func:`repro.open`).
* :mod:`repro.core.header` — the versioned self-describing plotfile header
  that lets the reader rebuild the hierarchy's structure from the file alone.
"""

from repro.core.config import AMRICConfig
from repro.core.pipeline import AMRICWriter, WriteReport, LevelFieldRecord
from repro.core.reader import (
    DecodeJob,
    DecodeResult,
    PlotfileHandle,
    ReadPlan,
    ReadStats,
    decode_job,
    scan_plotfile,
)
from repro.core.header import PlotfileHeader, build_header, template_from_header
from repro.core.adaptive import select_sz_block_size
from repro.core.stages import (
    DatasetPlan,
    EncodeJob,
    EncodeResult,
    WritePlan,
    encode_job,
    pack_dataset,
    plan_write,
)

__all__ = [
    "AMRICConfig",
    "AMRICWriter",
    "PlotfileHandle",
    "PlotfileHeader",
    "build_header",
    "template_from_header",
    "WriteReport",
    "LevelFieldRecord",
    "select_sz_block_size",
    "WritePlan",
    "DatasetPlan",
    "EncodeJob",
    "EncodeResult",
    "plan_write",
    "pack_dataset",
    "encode_job",
    "ReadPlan",
    "ReadStats",
    "DecodeJob",
    "DecodeResult",
    "decode_job",
    "scan_plotfile",
]
