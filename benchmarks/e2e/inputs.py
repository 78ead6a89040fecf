"""Seeded inputs: every byte a workload feeds the program is generated here.

The program under test only ever sees what these functions return — AMR
hierarchies from the scaled Table-1 presets (``nyx_1``: hundreds of small
per-rank streams, CR ~9; ``warpx_1``: elongated boxes, CR ~60) and box-query
streams.  The same ``seed`` gives the same inputs; different seeds give
different data and different queries, so a gain cannot be fitted to one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.hierarchy import AmrHierarchy
from repro.apps import RUN_PRESETS, build_run

__all__ = ["Sizes", "FULL", "TINY", "hierarchy", "series_steps", "queries",
           "probe_boxes", "error_bound"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes: :data:`FULL` is the benchmark, :data:`TINY` its self-test."""

    overrides: Dict[str, Dict[str, object]]     #: preset -> build_run overrides
    series_steps: int
    keyframe_interval: int
    box_edges: Tuple[int, ...]                  #: served box edge lengths (cells)
    probe_edge: int                             #: time_slice probe box edge
    probes: int                                 #: cold time_slices per series round
    cold_cache_bytes: int                       #: serve_cold's cache budget
    traced_requests: Dict[str, int]             #: serve workload -> traced-pass requests


#: the presets as Table 1 scales them; a 1 MiB cold cache is ~17% of nyx_1's
#: 5.9 MB decoded working set
FULL = Sizes(overrides={"nyx_1": {}, "warpx_1": {}}, series_steps=8,
             keyframe_interval=4, box_edges=(8, 16, 24), probe_edge=16, probes=3,
             cold_cache_bytes=1 << 20,
             traced_requests={"serve_warm": 300, "serve_cold": 60})

TINY = Sizes(overrides={"nyx_1": {"coarse_shape": (16, 16, 16), "max_grid_size": 8},
                        "warpx_1": {"coarse_shape": (8, 8, 32), "max_grid_size": 16}},
             series_steps=4, keyframe_interval=2, box_edges=(4, 8), probe_edge=8, probes=2,
             cold_cache_bytes=1 << 16,
             traced_requests={"serve_warm": 25, "serve_cold": 25})


def error_bound(preset: str) -> float:
    """The paper's AMRIC error bound for one preset (value-range relative)."""
    return RUN_PRESETS[preset].error_bound_amric


def hierarchy(preset: str, seed: int, sizes: Sizes = FULL) -> AmrHierarchy:
    """One plotfile dump of ``preset``; ``seed`` offsets the preset's own seed."""
    return build_run(preset, seed=RUN_PRESETS[preset].seed + seed,
                     **sizes.overrides[preset]).hierarchy


def series_steps(seed: int, sizes: Sizes = FULL) -> List[AmrHierarchy]:
    """Consecutive ``nyx_1`` dumps; grids stay fixed between keyframes so the
    temporal codec has delta chains to build (a regrid forces a keyframe)."""
    sim = build_run("nyx_1", seed=RUN_PRESETS["nyx_1"].seed + seed,
                    regrid_interval=sizes.keyframe_interval,
                    **sizes.overrides["nyx_1"])
    return list(sim.run(sizes.series_steps))


def queries(seed: int, domain: Box, fields: Tuple[str, ...],
            sizes: Sizes = FULL) -> Iterator[Tuple[str, Box]]:
    """An endless stream of ``(field, box)`` reads at seeded positions.

    Position is uniform among in-domain placements.  Field and edge cycle
    through every (field, edge) pair in a seeded order instead of being drawn
    per request: the bytes served per cycle are then the same for every seed,
    so ``throughput_MBps`` compares the time a cycle takes, not the luck of
    the draw over a 27x range of box volumes.
    """
    rng = np.random.default_rng([seed, 0xB0C5])
    shape = domain.shape
    cycle = [(name, edge) for name in fields for edge in sizes.box_edges]
    while True:
        for index in rng.permutation(len(cycle)):
            name, edge = cycle[index]
            lo = tuple(int(domain.lo[d] + rng.integers(shape[d] - min(edge, shape[d]) + 1))
                       for d in range(len(shape)))
            hi = tuple(lo[d] + min(edge, shape[d]) - 1 for d in range(len(shape)))
            yield name, Box(lo, hi)


def probe_boxes(seed: int, grids: Sequence[Box], sizes: Sizes = FULL) -> List[Box]:
    """The ``time_slice`` probe regions of one seed, each inside one level-0 grid.

    The seed picks the grids and the placements within them.  A probe that may
    straddle grids touches 1, 2 or 4 ranks' chunks per step depending on where
    it lands, which made the cold ``time_slice`` latency differ 4x between
    seeds; kept inside one grid it decodes one chunk per step for every seed.
    """
    rng = np.random.default_rng([seed, 0x51CE])
    probes = []
    for _ in range(sizes.probes):
        grid = grids[int(rng.integers(len(grids)))]
        edge = tuple(min(sizes.probe_edge, n) for n in grid.shape)
        lo = tuple(int(grid.lo[d] + rng.integers(grid.shape[d] - edge[d] + 1))
                   for d in range(len(edge)))
        probes.append(Box(lo, tuple(lo[d] + edge[d] - 1 for d in range(len(edge)))))
    return probes
