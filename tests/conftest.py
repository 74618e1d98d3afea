"""Shared test settings and fixtures.

Hypothesis examples run without a per-example deadline: the default 200 ms
deadline measures machine load as much as the code, so a busy machine could
fail a correct example. Example counts, strategies and tolerances are set by
each test and are unchanged.
"""

import pytest
from hypothesis import settings

from holoent import adiabatic, holonomy

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


@pytest.fixture
def cf4_steps(monkeypatch):
    """Record the step count of every CF4 propagation level, starting from an empty transfer cache."""
    adiabatic.propagate_single_photon.cache_clear()
    cf4_transfer = adiabatic._cf4_transfer
    steps = []

    def record(schedule, n):
        steps.append(n)
        return cf4_transfer(schedule, n)

    monkeypatch.setattr(adiabatic, "_cf4_transfer", record)
    return steps


@pytest.fixture
def phase_searches(monkeypatch):
    """Record the arguments (f, slopes, start, period, points, margin) of every `_phase_max` call."""
    search = holonomy._phase_max
    calls = []

    def record(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(holonomy, "_phase_max", record)
    monkeypatch.setattr(adiabatic, "_phase_max", record)  # imported by name
    return calls
