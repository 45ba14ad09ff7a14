"""Shared fixtures."""

import pytest

from smtlab import scenario


@pytest.fixture(autouse=True)
def cold_session():
    """Start every test without a kept scenario, so no test reads
    quantities an earlier test computed (``load_scenario`` keeps the last
    scenario it loaded)."""
    scenario._forget()
    yield
    scenario._forget()
