"""Direct coverage for :mod:`repro.amr.regrid` (clustering).

The series subsystem leans on regridding twice: a regrid mid-series changes
the step's geometry (forcing the delta writer's keyframe fallback), and
``regrid_interval`` keeps grids fixed between regrids.  These tests pin
the clustering invariants both behaviours rely on.
"""

import numpy as np

from repro.amr.box import Box
from repro.amr.regrid import cluster_tags
from repro.apps.base import build_two_level_hierarchy


def blob_tags(shape=(32, 32, 32), centre=(8, 8, 8), radius=4.5):
    idx = np.indices(shape)
    dist2 = sum((ax - c) ** 2 for ax, c in zip(idx, centre))
    return dist2 <= radius * radius


class TestClusterTags:
    def test_covers_every_tagged_cell(self):
        tags = blob_tags()
        ba = cluster_tags(tags, max_grid_size=16, blocking_factor=4)
        mask = ba.coverage_mask(Box.from_shape(tags.shape))
        assert np.all(mask[tags]), "a tagged cell escaped the clustering"

    def test_boxes_disjoint_and_bounded(self):
        tags = blob_tags() | blob_tags(centre=(24, 24, 24))
        ba = cluster_tags(tags, max_grid_size=8, blocking_factor=4)
        assert ba.is_disjoint()
        for box in ba:
            assert all(s <= 8 for s in box.shape)

    def test_efficiency_not_degenerate(self):
        tags = blob_tags()
        ba = cluster_tags(tags, max_grid_size=16, blocking_factor=2)
        covered = ba.covered_fraction(Box.from_shape(tags.shape))
        tagged = tags.mean()
        # clustering over-covers, but not absurdly
        assert tagged <= covered <= 12 * tagged

    def test_no_tags_gives_empty_boxarray(self):
        ba = cluster_tags(np.zeros((16, 16), dtype=bool))
        assert len(ba) == 0

    def test_origin_shifts_boxes(self):
        tags = np.zeros((16, 16), dtype=bool)
        tags[2:6, 3:7] = True
        ba0 = cluster_tags(tags, blocking_factor=1)
        ba_shifted = cluster_tags(tags, origin=(10, 20), blocking_factor=1)
        assert [b.shift((10, 20)) for b in ba0] == list(ba_shifted.boxes)


class TestRegridMidSeries:
    """A drifting refinement blob — what forces the series keyframe fallback."""

    @staticmethod
    def _fields(step):
        shape = (24, 24, 24)
        idx = np.indices(shape)
        centre = (6 + 3 * step, 8, 8)
        dist2 = sum((ax - c) ** 2 for ax, c in zip(idx, centre))
        return {"density": np.exp(-dist2 / 18.0) + 0.01}

    def test_moving_blob_changes_the_boxarray(self):
        structures = []
        for step in range(3):
            h = build_two_level_hierarchy(
                self._fields(step), "density", 0.05, max_grid_size=12,
                blocking_factor=4, nranks=2, seed=1, step=step)
            assert h.nlevels == 2 and h.is_properly_nested()
            structures.append(tuple(h[1].boxarray.boxes))
        assert structures[0] != structures[2], \
            "the drifting blob must regrid the fine level"

    def test_fine_boxarray_reuse_freezes_the_grids(self):
        h0 = build_two_level_hierarchy(
            self._fields(0), "density", 0.05, max_grid_size=12,
            blocking_factor=4, nranks=2, seed=1, step=0)
        frozen = h0[1].boxarray
        h1 = build_two_level_hierarchy(
            self._fields(2), "density", 0.05, max_grid_size=12,
            blocking_factor=4, nranks=2, seed=1, step=2,
            fine_boxarray=frozen)
        assert tuple(h1[1].boxarray.boxes) == tuple(frozen.boxes)
        # but the data on the frozen grids still evolved
        a = h0[1].multifab.to_global("density", h0[1].domain)
        b = h1[1].multifab.to_global("density", h1[1].domain)
        assert not np.allclose(a, b)

    def test_simulation_regrid_interval(self):
        from repro.apps.nyx import NyxSimulation

        sim = NyxSimulation(coarse_shape=(24, 24, 24), nranks=2,
                            target_fine_density=0.03, max_grid_size=12,
                            seed=5, regrid_interval=3)
        structures = []
        for h in sim.run(4):
            structures.append(tuple(h[1].boxarray.boxes) if h.nlevels > 1 else ())
        # steps 0-2 share one regrid epoch, step 3 starts the next
        assert structures[0] == structures[1] == structures[2]
