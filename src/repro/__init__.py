"""repro — a reproduction of AMRIC (SC'23).

AMRIC is an in situ lossy compression framework for Adaptive Mesh Refinement
(AMR) applications.  This package re-implements, in pure Python (numpy/scipy),
the full stack the paper depends on:

* :mod:`repro.amr` — an AMReX-like patch-based AMR substrate (boxes, box
  arrays, multi-fabs, hierarchies, regridding, distribution mappings).
* :mod:`repro.compress` — SZ-family error-bounded lossy compressors
  (block Lorenzo/regression ``SZ_L/R``, multi-level interpolation
  ``SZ_Interp``, the 1D baseline codec) plus Huffman/zlib back-ends and
  quality metrics.
* :mod:`repro.h5lite` — a chunked, filter-enabled container file format that
  reproduces the HDF5 chunk/filter semantics AMRIC relies on.
* :mod:`repro.parallel` — a simulated MPI communicator and a calibrated
  parallel-file-system / I/O cost model standing in for Summit.
* :mod:`repro.apps` — synthetic Nyx-like and WarpX-like AMR applications.
* :mod:`repro.core` — AMRIC itself: pre-processing, SZ optimisations
  (unit SLE, adaptive block size), HDF5 filter modifications and the
  end-to-end in situ write/read pipelines.
* :mod:`repro.baselines` — AMReX's original 1D in situ compression, TAC
  and the no-compression writer.
* :mod:`repro.analysis` — rate-distortion sweeps, error slices, reporting.

Quick start (the :mod:`repro.facade` two-verb API)::

    import repro
    from repro.apps import nyx_run

    hierarchy = nyx_run(coarse_shape=(64, 64, 64), seed=7).hierarchy
    report = repro.write(hierarchy, "plotfile.h5z",
                         compressor="sz_lr", error_bound=1e-3)
    print(report.compression_ratio, report.psnr["baryon_density"])

    with repro.open("plotfile.h5z") as plotfile:
        density = plotfile.read_field("baryon_density", level=1)
        restored = plotfile.read()

The same verbs drive the ``python -m repro`` CLI (``info``, ``compress``,
``decompress``, ``verify``).
"""

from repro._version import __version__
from repro.errors import CorruptFileError
from repro.facade import open_plotfile, open_series, write_plotfile, write_series

#: the public two-verb facade: ``repro.open(path)`` / ``repro.write(h, path)``,
#: plus the series verbs ``repro.open_series(dir)`` / ``repro.write_series(...)``
open = open_plotfile  # noqa: A001 - deliberate facade verb
write = write_plotfile

#: ``open`` is deliberately NOT in __all__: ``from repro import *`` must not
#: shadow the builtin in the importing module (repro.open still works)
__all__ = ["__version__", "write", "open_plotfile", "write_plotfile",
           "open_series", "write_series", "ChunkCache", "CorruptFileError"]


def __getattr__(name):
    # repro.ChunkCache resolves lazily: importing it eagerly would drag the
    # whole service stack (engine, servers, socket client) into every
    # `import repro`, defeating the package's deliberate lazy-import pattern
    if name == "ChunkCache":
        from repro.service.cache import ChunkCache

        return ChunkCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
