"""Fixtures shared by every test module."""

import pytest

from gkmhess import maps


@pytest.fixture(autouse=True)
def fresh_twins():
    """maps.plain_twin keeps the twins it has read until cli.main clears
    it; a test that calls it from the library, or that patches what it
    reads, must neither see nor leave a twin of another test."""
    maps.plain_twin.cache_clear()
    yield
    maps.plain_twin.cache_clear()
