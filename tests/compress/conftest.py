"""Shared fixtures for compression tests: small synthetic 3D fields.

The field generators live in :mod:`repro.testing` so test modules can import
them absolutely (a relative ``from .conftest import ...`` aborts collection
when the test tree is not a package).
"""

import pytest

from repro.compress import huffman
from repro.testing import make_rough, make_smooth  # noqa: F401  (re-export)


@pytest.fixture
def smooth_field():
    return make_smooth()


@pytest.fixture
def rough_field():
    return make_rough()


@pytest.fixture(scope="class", params=["window", "per_bit"])
def peek(request):
    """Run a class's lane passes through one peek each: the byte window (every
    pass counts as large) or the per-bit LUT index (every pass as small).  The
    decoder picks by joined payload size, and most test payloads are small."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(huffman, "_PER_BIT_BYTES", -1 if request.param == "window" else 1 << 62)
        yield request.param
