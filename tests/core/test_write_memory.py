"""A write holds one level's packed buffers and one job's transients.

Each encode job measures its blocks' error at the codec's door and hands back
records and numbers only (``EncodeResult.error``), so no reconstruction of a
dataset outlives its job and the writer never holds a second float64 copy of
a level.  Measured with tracemalloc on the ``nyx_1`` preset (5.9 MB of
cells): a write peaked at 15.4 MB while every dataset's reconstructions were
kept until the commit loop, and at 11.0 MB once they are not.
"""

import dataclasses
import tracemalloc

import numpy as np

import repro
from repro.apps import build_run
from repro.core import AMRICConfig
from repro.core.stages import encode_job, make_encode_job, pack_dataset, plan_write

#: the write's tracemalloc peak over the hierarchy's cell bytes: 1.86 measured
#: (2.62 with the reconstructions kept)
PEAK_OVER_CELLS = 2.1


def _arrays_in(value):
    """Every ndarray ``value`` holds, through dataclasses, lists, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _arrays_in(getattr(value, item.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)


def test_an_encode_result_holds_no_array():
    hierarchy = build_run("nyx_1").hierarchy
    config = AMRICConfig()
    for dplan in plan_write(hierarchy, config).datasets[:4]:
        result = encode_job(make_encode_job(dplan, pack_dataset(hierarchy[dplan.level], dplan),
                                            config))
        assert list(_arrays_in(result)) == []
        assert result.error.n_elements == dplan.layout.kept_cells


def test_a_write_peaks_near_its_packed_buffers():
    hierarchy = build_run("nyx_1").hierarchy
    cells = sum(fab.data.nbytes for level in hierarchy.levels for fab in level.multifab.fabs)
    repro.write(hierarchy, None)                    # imports and caches out of the way
    tracemalloc.start()
    try:
        repro.write(hierarchy, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_OVER_CELLS * cells, (peak, cells)
