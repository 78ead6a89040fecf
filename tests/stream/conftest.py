"""Shared fixtures of the live-streaming tests: one small simulation run."""

import pytest

from repro.apps.nyx import NyxSimulation

NSTEPS = 7
KEYFRAME_INTERVAL = 3


def make_sim():
    return NyxSimulation(coarse_shape=(16, 16, 16), nranks=2,
                         target_fine_density=0.05, max_grid_size=8, seed=7,
                         drift_rate=0.05, growth_rate=0.02, regrid_interval=3)


@pytest.fixture(scope="session")
def hierarchies():
    return list(make_sim().run(NSTEPS))


@pytest.fixture(scope="session")
def reference_dir(hierarchies, tmp_path_factory):
    """The same snapshots written the plain (non-append) way."""
    from repro import write_series

    path = str(tmp_path_factory.mktemp("stream") / "reference")
    write_series(hierarchies, path, keyframe_interval=KEYFRAME_INTERVAL,
                 error_bound=1e-3)
    return path
