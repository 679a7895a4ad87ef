"""Shared helpers and fixtures.

The shipped scenario files are the only definition of the shipped scenarios;
``shipped`` loads one, with any field replaced.  ``ring12_dict`` is the
scenario JSON of a 12-agent antipodal ring, and ``fixed_arc_ring(n)`` that of
an n-agent ring whose neighbors start a fixed arc apart, the work record's
sweep in ``tools/work.py``.  The shipped scenarios and the 12-agent ring are
expensive enough that the tests run each of them exactly once per session.
``tool`` loads a module of ``tools/``, and ``benchmark_workloads`` the module
that writes the benchmark's inputs.  The solvers' oracles live in
``oracles.py``.
"""

import dataclasses
import importlib.util
import json
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


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tool(name: str):
    """``tools/<name>.py``, loaded as a module."""
    return _module(name, SCENARIOS.parent / "tools" / f"{name}.py")


def benchmark_workloads():
    """``perfbench/workloads.py``, the module that writes the benchmark's inputs."""
    return _module("perfbench_workloads", SCENARIOS.parent / "perfbench" / "workloads.py")


fixed_arc_ring = tool("work").fixed_arc_ring


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


@pytest.fixture(scope="session")
def ring12_run(tmp_path_factory):
    """The ``ring12_dict()`` run, loaded from its JSON: (scenario, trace)."""
    path = tmp_path_factory.mktemp("ring12") / "ring12.json"
    path.write_text(json.dumps(ring12_dict()))
    s = load_scenario(path)
    return s, run(s)
