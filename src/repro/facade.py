"""The two-verb public facade: :func:`repro.open` and :func:`repro.write`.

Everything a consumer needs for plotfile I/O, without importing writer and
reader classes from three packages::

    import repro

    report = repro.write(hierarchy, "plotfile.h5z", error_bound=1e-3)
    with repro.open("plotfile.h5z") as plotfile:
        density = plotfile.read_field("baryon_density", level=1)
        restored = plotfile.read()

``write`` dispatches on ``method`` to the AMRIC writer (default) or the
baseline writers, so studies comparing methods drive every writer through one
call; ``open`` returns a lazy :class:`~repro.core.reader.PlotfileHandle` that
decodes only what is asked for.  The temporal counterparts ``open_series`` /
``write_series`` do the same for multi-step runs (:mod:`repro.series`): a
directory of per-step plotfiles delta-compressed across timesteps, read back
time-indexed.  The ``python -m repro`` CLI (:mod:`repro.cli`) is a thin shell
over these functions.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.amr.hierarchy import AmrHierarchy
from repro.core.config import AMRICConfig
from repro.core.pipeline import AMRICWriter, WriteReport
from repro.core.reader import PlotfileHandle
from repro.parallel.backend import as_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.series.reader import SeriesHandle

__all__ = ["open_plotfile", "write_plotfile", "open_series", "write_series",
           "WRITE_METHODS"]

#: the writer methods :func:`write_plotfile` builds
WRITE_METHODS = ("amric", "amrex_1d", "nocomp")


def open_plotfile(path: str, backend=None, cache=None,
                  source=None) -> PlotfileHandle:
    """Open a plotfile for lazy reading (exported as :func:`repro.open`).

    Plotfiles are self-describing (format v2), so the path is all a read
    needs; a file without the header, or of another format version, is
    rejected with :class:`~repro.errors.CorruptFileError` (a ``ValueError``).
    ``backend`` — None (inline) or an
    :class:`~repro.parallel.backend.ExecutionBackend` instance the caller
    builds and closes — runs the handle's decode jobs.  ``cache`` opts the handle into a shared
    :class:`~repro.service.cache.ChunkCache` so overlapping consumers decode
    each chunk once; by default every handle keeps a private one of the
    default byte budget.
    ``source`` picks the byte source under the file — None (the local file),
    a spec string of RangeSource modifiers (``"latency:50ms,block:64k"``), a
    :class:`~repro.h5lite.source.ByteSource` instance or a factory callable
    (see :func:`repro.h5lite.source.make_source`).
    """
    if not os.path.isfile(path):
        raise ValueError(
            f"cannot open plotfile {path!r}: no such file"
            + (" (it is a directory — open_series reads series directories)"
               if os.path.isdir(path) else ""))
    return PlotfileHandle(path, backend=backend, cache=cache, source=source)


def write_plotfile(hierarchy: AmrHierarchy, path: Optional[str] = None, *,
                   config: Optional[AMRICConfig] = None, method: str = "amric",
                   backend=None, **overrides) -> WriteReport:
    """Write one plotfile (exported as :func:`repro.write`); returns the report.

    Parameters
    ----------
    path:
        Target file; None runs the compression in memory (identical report,
        no file).
    config, **overrides:
        The AMRIC configuration (``method="amric"`` only); keyword overrides
        are applied on top, e.g. ``repro.write(h, p, error_bound=1e-4)``.
    method:
        "amric" (default), "amrex_1d" (the original 1D baseline, honouring
        an ``error_bound``/``chunk_elements`` override) or "nocomp" (one raw
        chunk per rank, as the AMRIC layout stores it: it takes no override,
        and any keyword is a :class:`TypeError`).
    backend:
        None (inline) or an
        :class:`~repro.parallel.backend.ExecutionBackend` instance for the
        AMRIC encode jobs; the caller builds it and closes it.
    """
    as_backend(backend)                     # a name is a TypeError on every path
    if method not in WRITE_METHODS:
        raise ValueError(f"unknown write method {method!r}; "
                         f"expected one of {', '.join(WRITE_METHODS)}")
    if method == "amric":
        cfg = config or AMRICConfig()
        if overrides:
            cfg = cfg.with_overrides(**overrides)
        return AMRICWriter(cfg, backend=backend).write_plotfile(hierarchy, path)
    if config is not None or backend is not None:
        raise ValueError(
            f"method {method!r} accepts neither an AMRIC config nor a backend")
    if method == "amrex_1d":
        from repro.baselines.amrex_1d import AMReXOriginalWriter

        return AMReXOriginalWriter(**overrides).write_plotfile(hierarchy, path)
    from repro.baselines.nocomp import NoCompressionWriter

    return NoCompressionWriter(**overrides).write_plotfile(hierarchy, path)


def open_series(directory: str, cache=None, source=None) -> "SeriesHandle":
    """Open a plotfile series directory (exported as :func:`repro.open_series`).

    Returns a lazy :class:`~repro.series.reader.SeriesHandle`: ``steps()``
    lists the manifest, ``read_field(name, level, box, step=...)`` decodes
    one step's region resolving delta chains chunk by chunk, and
    ``time_slice(name, box)`` extracts a region's evolution across steps.
    ``cache`` shares one :class:`~repro.service.cache.ChunkCache` across the
    series' step handles (and any other handle bound to the same cache).
    ``source`` (a spec string or factory callable) picks the byte source each
    step file is opened through, as in :func:`open_plotfile`.

    A directory still being written opens *live*: the handle reads the
    commit journal, ``refresh()``
    picks up newly committed steps without touching already-decoded state,
    and ``handle.live`` flips to False once the writer finalizes (see
    :mod:`repro.stream`).
    """
    from repro.series.reader import SeriesHandle

    return SeriesHandle(directory, cache=cache, source=source)


def write_series(hierarchies: Iterable[AmrHierarchy], directory: str, *,
                 config: Optional[AMRICConfig] = None,
                 keyframe_interval: int = 8, backend=None,
                 append: bool = False, **overrides) -> List[WriteReport]:
    """Write a sequence of snapshots as one delta-compressed series.

    A thin shell over :class:`~repro.series.writer.SeriesWriter` (exported as
    :func:`repro.write_series`); every ``keyframe_interval``-th dump is
    self-contained, the rest delta-encode against their predecessor when that
    is smaller.  ``hierarchies`` is any iterable of snapshots — a list, or a
    generator like :meth:`~repro.apps.base.SyntheticAMRSimulation.run`, so a
    simulation's dump loop is ``repro.write_series(sim.run(n), directory)``
    and no step is held in memory after it is written.  Returns the per-step
    write reports.

    Each step is committed through the crash-safe journal
    (:mod:`repro.stream`), so concurrent readers and ``subscribe`` clients
    see steps as they land; a ``final`` record closes the journal when the
    last step is in.  An exception leaves the committed prefix live; calling
    again with ``append=True`` on the same directory resumes it.  ``backend``
    is as in :func:`write_plotfile`.
    """
    from repro.series.writer import SeriesWriter

    with SeriesWriter(directory, config=config, keyframe_interval=keyframe_interval,
                      backend=backend, append=append, **overrides) as writer:
        return [writer.append(h) for h in hierarchies]
