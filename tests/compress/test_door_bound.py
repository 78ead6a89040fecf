"""The error bound is checked at the codec's door (ROADMAP item 1).

Every encode door — SZ_L/R's ``compress_many_with_reconstruction``, the
standalone ``compress_with_reconstruction`` of SZ_Interp, ``sz_1d`` and
``temporal_delta``, the AMRIC filter's packed blocks, the ``amrex_1d``
writer's chunks and the series' ``temporal_encode_job`` — measures its
reconstruction against its input in the stored dtype (``Compressor.measure``)
and refuses one that misses the bound on any cell with a ``ValueError``
naming the codec, the cell count and the worst error: a write either holds
the bound or does not happen.  A float32 input is quantised on a grid that
leaves room for the cast (``Compressor.grid_eb``), so it is never refused.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps import nyx_run
from repro.compress.base import BOUND_SLACK
from repro.compress.registry import create_codec
from repro.series.writer import TemporalEncodeJob, temporal_encode_job

CODECS = ["sz_lr", "sz_interp", "sz_1d", "temporal_delta"]
EB = 1e-3


def _refusal(codec):
    return re.compile(rf"{codec}: the reconstruction of \d+ cells misses the error bound "
                      rf"[0-9.e+-]+ \(worst error [0-9.e+-]+\)")


def _probe_field():
    """ROADMAP item 1's offset probe: a 24^3 triple-cumsum field (x 1e-2)."""
    rng = np.random.default_rng(0)
    field = rng.standard_normal((24, 24, 24))
    for axis in range(3):
        field = np.cumsum(field, axis=axis)
    return field * 1e-2


def _round_trip(codec, data, eb=EB):
    """The worst error of a standalone buffer's decode, in float64."""
    comp = create_codec(codec, eb, mode="abs")
    buffer, recon = comp.compress_with_reconstruction(data)
    back = comp.decompress(buffer)
    assert back.dtype == np.asarray(data).dtype
    np.testing.assert_array_equal(back, recon.astype(back.dtype))
    return float(np.max(np.abs(back.astype(np.float64) - np.asarray(data, dtype=np.float64))))


@pytest.mark.parametrize("codec", CODECS)
def test_an_offset_the_grid_holds_writes(codec):
    assert _round_trip(codec, _probe_field() + 1e9) <= EB * (1 + BOUND_SLACK)


@pytest.mark.parametrize("codec, offset", [
    ("sz_lr", 1e10), ("sz_1d", 1e10), ("temporal_delta", 1e10), ("sz_interp", 1e11)])
def test_an_offset_past_the_grid_is_refused(codec, offset):
    """At +1e10 a float64 spacing is ~1.9e-6: rint(x / 2eb) * 2eb misses 1e-3 by
    1.4e-6 (SZ_Interp's interpolation lands inside it until +1e11)."""
    with pytest.raises(ValueError, match=_refusal(codec)) as info:
        _round_trip(codec, _probe_field() + offset)
    assert f"of {24 ** 3} cells" in str(info.value)


@settings(max_examples=150, deadline=None)
@given(codec=st.sampled_from(CODECS), dtype=st.sampled_from(["float64", "float32"]),
       shape=st.sampled_from([(300,), (17, 23), (9, 10, 11), (16, 16, 16)]),
       magnitude=st.sampled_from([0.0] + [sign * 10.0 ** k for k in range(-2, 14)
                                          for sign in (1, -1)]),
       eb=st.sampled_from([1e-4, 1e-3, 1e-1]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_write_holds_the_bound_or_is_refused(codec, dtype, shape, magnitude, eb, seed):
    """Codec x dtype x shape x magnitude x bound: a field of a few hundred
    bounds' variation at an offset.  A buffer that is written decodes within
    the bound (:data:`BOUND_SLACK`) on every cell, in its own dtype; one that
    would not is refused by name.  A float32 input is never refused, nor a
    float64 one within 1e6 bounds of zero (its rounding is far below the bound)."""
    rng = np.random.default_rng(seed)
    variation = np.cumsum(rng.standard_normal(int(np.prod(shape)))) * 10 * eb
    data = (magnitude + variation).reshape(shape).astype(dtype)
    try:
        worst = _round_trip(codec, data, eb)
    except ValueError as exc:
        assert _refusal(codec).match(str(exc)), exc
        assert dtype == "float64" and np.max(np.abs(data)) > 1e6 * eb, exc
        return
    assert worst <= eb * (1 + BOUND_SLACK)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("level", [1.0, 1.5, 60.0, 1e4])
def test_smooth_float32_fields_are_written_within_the_bound(codec, level):
    """Near 1 a float32 spacing is ~1e-4 of the bound, yet a cell quantised
    within the bound in float64 could land past it once cast: 2 or 3 in 10 of
    these fields were refused there.  Near 60 and 1e4 the bound happens to sit
    where no cast crosses it; the grid must not cost those either."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        field = np.cumsum(rng.standard_normal((32, 32, 32)), axis=0) * 1e-2
        assert _round_trip(codec, (level + field).astype(np.float32)) <= EB


def test_a_float32_grid_leaves_the_cast_its_room():
    """The grid gives up ``eps · max|x|`` of the bound, at most half of it;
    float64 keeps the bound as it is."""
    comp = create_codec("sz_lr", EB, mode="abs")
    small, large = np.full(4, 60.0), np.full(4, 1e5)
    assert comp.grid_eb(EB, [small], ["float64"]) == EB
    eps = float(np.finfo(np.float32).eps)
    assert EB - 60 * eps * 1.01 < comp.grid_eb(EB, [small], ["float32"]) < EB - 60 * eps
    assert comp.grid_eb(EB, [small, large], ["float64", "float32"]) == EB / 2


def test_a_series_dataset_past_the_grid_is_refused_by_name():
    data = _probe_field().reshape(-1) + 1e10
    job = TemporalEncodeJob(key="level_0/density", data=data, chunk_elements=data.size,
                            actual_sizes=[data.size], owned_sizes=[data.size], eb_abs=EB,
                            offset=0.0)
    with pytest.raises(ValueError, match="series dataset 'level_0/density': "
                       + _refusal("temporal_delta").pattern):
        temporal_encode_job(job)
    job.data = data - 1e10
    assert temporal_encode_job(job).error.max_error <= EB


def test_a_naive_series_chunk_holds_its_zero_tail_to_the_bound_too():
    """The ledger counts the owned cells; the door checks every encoded cell."""
    field = _probe_field().reshape(-1)
    owned = field[:1000]
    data = np.concatenate([owned, field[1000:5000] + 1e10])    # a tail the grid misses
    job = TemporalEncodeJob(key="f", data=data, chunk_elements=data.size,
                            actual_sizes=[data.size], eb_abs=EB, offset=0.0,
                            owned_sizes=[owned.size])
    with pytest.raises(ValueError, match=r"of 4000 cells"):
        temporal_encode_job(job)
    job.data = np.concatenate([owned, np.zeros(4000)])
    assert temporal_encode_job(job).error.n_elements == owned.size


@pytest.mark.parametrize("codec, options", [
    ("sz_lr", dict(compressor="sz_lr", error_bound_mode="abs")),
    ("sz_interp", dict(compressor="sz_interp", error_bound_mode="abs")),
    ("sz_1d", dict(method="amrex_1d"))])      # each chunk against its own relative bound
def test_a_write_past_the_grid_leaves_no_file(tmp_path, codec, options):
    hierarchy = nyx_run(coarse_shape=(16, 16, 16), nranks=2, target_fine_density=0.03,
                        seed=7).hierarchy
    for level in hierarchy.levels:
        for fab in level.multifab.fabs:
            fab.data += 1e11
    path = str(tmp_path / "a.h5z")
    with pytest.raises(ValueError, match=_refusal(codec)):
        repro.write(hierarchy, path, error_bound=EB, **options)
    assert not os.path.exists(path)
