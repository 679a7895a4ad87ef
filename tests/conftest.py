"""Shared helpers and fixtures.

The shipped scenario files are the only definition of the shipped scenarios;
``shipped`` loads one, with any field replaced.  The two benchmark scenarios
are expensive enough that the acceptance tests run each of them exactly once
per session.
"""

import dataclasses
import time
from pathlib import Path

import pytest

from trustcbf.cli import load_scenario
from trustcbf.sim import Scenario, metrics, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def shipped(name: str, **changes) -> Scenario:
    """``scenarios/<name>.json`` with the given Scenario fields replaced."""
    return dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"), **changes)


@pytest.fixture(scope="session")
def crossing_adaptive():
    """Adaptive-mode crossing run: (scenario, trace, metrics, wall seconds)."""
    s = shipped("crossing")
    t0 = time.perf_counter()
    trace = run(s)
    wall = time.perf_counter() - t0
    return s, trace, metrics(trace, s), wall


@pytest.fixture(scope="session")
def crossing_fixed():
    s = shipped("crossing", fixed_alpha=True)
    trace = run(s)
    return s, trace, metrics(trace, s)


@pytest.fixture(scope="session")
def stress_runs():
    """Head-on squeeze with the rate floor on and off: {flag: (scenario, trace)}."""
    out = {}
    for flag in (True, False):
        s = shipped("headon_stress", rate_floor=flag)
        out[flag] = (s, run(s))
    return out
