"""Fixtures that every test file shares."""

import pytest

from chowmot import chern


@pytest.fixture(autouse=True)
def no_cached_todd_plans():
    """Each test starts and ends with no cached Todd plan.  A plan keeps the
    factor series it was built from, so one built while a test patches
    `chern._todd_factor_series` would otherwise reach every later test."""
    chern._todd_plan.cache_clear()
    yield
    chern._todd_plan.cache_clear()
