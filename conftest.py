"""Fixtures shared by the tier-1 suite and the benchmark harness tests."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _empty_parabolic_memo():
    """Start every test with an empty memo of parabolic masks, so that no
    test depends on which root systems the tests before it enumerated."""
    rootsys = sys.modules.get("crlie.rootsys")
    if rootsys is not None:
        rootsys._PARABOLIC_MASKS.clear()
    yield
