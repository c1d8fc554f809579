"""Shared test setup."""

import pytest

from thetapencil import spectral


@pytest.fixture(autouse=True)
def fresh_splits():
    """Each test starts with no shared `UVWSplit`, so a monkeypatched
    builder or method always acts on a split built inside the test."""
    spectral._interned.cache_clear()
    yield
