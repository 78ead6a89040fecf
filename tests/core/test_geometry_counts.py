"""Geometry that scales with hits, counted on a many-box hierarchy.

``nyx_1`` at 48^3 with ``max_grid_size=4`` has 1,728 coarse and 24 fine boxes.
Redundancy removal (``BoxArray.complement_in``) and refill
(``fill_covered_from_finer``) select their candidates through the array index,
so a write plus a full read make a number of ``Box`` calls proportional to the
boxes that actually overlap — not to coarse x fine (41,196 ``Box.difference``
per scan and 290,028 ``Box.intersection`` per read before).  The per-box loops
they replaced are kept here as the reference: same file bytes, same hierarchy.
"""

import numpy as np
import pytest

import repro
import repro.core.reader as reader_mod
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.upsample import average_down
from repro.apps import RUN_PRESETS, build_run


def _ref_complement_in(self, box):
    remaining = [box] if not box.is_empty() else []
    for b in self._boxes:
        next_remaining = []
        for piece in remaining:
            next_remaining.extend(piece.difference(b))
        remaining = next_remaining
        if not remaining:
            break
    return remaining


def _ref_fill_covered_from_finer(hierarchy):
    for level_index in range(hierarchy.nlevels - 2, -1, -1):
        coarse = hierarchy[level_index]
        fine = hierarchy[level_index + 1]
        ratio = hierarchy.ref_ratios[level_index]
        for comp in range(hierarchy.ncomp):
            for fine_fab in fine.multifab:
                coarse_box = fine_fab.box.coarsen(ratio)
                averaged = average_down(fine_fab.component(comp), ratio)
                for coarse_fab in coarse.multifab:
                    overlap = coarse_fab.box.intersection(coarse_box)
                    if overlap.is_empty():
                        continue
                    coarse_fab.component(comp)[overlap.slices(origin=coarse_fab.box.lo)] = \
                        averaged[overlap.slices(origin=coarse_box.lo)]


@pytest.fixture(scope="module")
def many_boxes():
    return build_run("nyx_1", coarse_shape=(48, 48, 48), max_grid_size=4).hierarchy


def _write_and_read(hierarchy, path):
    repro.write(hierarchy, path, compressor="sz_lr",
                error_bound=RUN_PRESETS["nyx_1"].error_bound_amric)
    with repro.open(path) as handle:
        return handle.read()


def test_write_and_read_make_box_calls_in_proportion_to_hits(many_boxes, tmp_path,
                                                             monkeypatch):
    coarse, fine = many_boxes[0], many_boxes[1]
    boxes = len(coarse.boxarray) + len(fine.boxarray)
    assert (len(coarse.boxarray), len(fine.boxarray)) == (1728, 24)
    covered = fine.boxarray.coarsen(many_boxes.ref_ratios[0])
    hits = sum(len(coarse.boxarray.intersections(box)) for box in covered)
    assert 0 < hits < boxes

    with monkeypatch.context() as counting:
        calls = {"intersection": 0, "intersects": 0, "difference": 0}
        for name in calls:
            def counted(self, other, _name=name, _original=vars(Box)[name]):
                calls[_name] += 1
                return _original(self, other)
            counting.setattr(Box, name, counted)
        new_path = str(tmp_path / "index.h5z")
        got = _write_and_read(many_boxes, new_path)
    # the write plans once, the read scans once and refills once
    assert 0 < sum(calls.values()) <= 2 * (boxes + hits), calls

    with monkeypatch.context() as old_loops:
        old_loops.setattr(BoxArray, "complement_in", _ref_complement_in)
        old_loops.setattr(reader_mod, "fill_covered_from_finer",
                          _ref_fill_covered_from_finer)
        ref_path = str(tmp_path / "loops.h5z")
        want = _write_and_read(many_boxes, ref_path)
    with open(new_path, "rb") as new, open(ref_path, "rb") as ref:
        assert new.read() == ref.read()
    for want_level, got_level in zip(want.levels, got.levels):
        for want_fab, got_fab in zip(want_level.multifab, got_level.multifab):
            assert want_fab.box == got_fab.box
            np.testing.assert_array_equal(got_fab.data, want_fab.data)
