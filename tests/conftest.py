"""Shared helpers and fixtures.

The shipped scenario files are the only definition of the shipped scenarios;
``shipped`` loads one, with any field replaced.  ``ring12_dict`` is the
scenario JSON of a 12-agent antipodal ring.  The two benchmark scenarios
are expensive enough that the acceptance tests run each of them exactly once
per session.
"""

import dataclasses
import math
import time
from pathlib import Path

import pytest

from trustcbf.cli import load_scenario
from trustcbf.sim import Scenario, metrics, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def shipped(name: str, **changes) -> Scenario:
    """``scenarios/<name>.json`` with the given Scenario fields replaced."""
    return dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"), **changes)


def ring12_dict():
    """12 intact unicycles on an antipodal ring of radius 6 m."""
    agents = []
    for k in range(12):
        th = 2.0 * math.pi * k / 12 + 0.01 * k
        x, y = 6.0 * math.cos(th), 6.0 * math.sin(th)
        agents.append({"kind": "Intact", "model": "Unicycle", "start": [x, y, th + math.pi],
                       "target": [-x, -y]})
    return {"agents": agents, "duration": 4.0, "gamma_nominal": 3.0}


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
