"""Output checks for one benchmark run and the stored reference traces.

A reference holds, for one workload input, the trace array (every record's
px, py, psi, u_ref and u), the emergency-fallback count over intact
agent-steps and the run's min_h.  ``make_reference.py`` writes them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trustcbf.world import AgentKind

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# min_h must match its reference to this absolute tolerance (m^2), so a change
# that only moves the last digits of the trace passes and reports its drift.
MIN_H_TOL = 1e-6

TRACE_COLUMNS = ("px", "py", "psi", "u_ref1", "u_ref2", "u1", "u2")
PSI = TRACE_COLUMNS.index("psi")


def intact_ids(scenario) -> list[int]:
    return [i for i, a in enumerate(scenario.agents) if a.kind is AgentKind.INTACT]


def trace_array(trace) -> np.ndarray:
    """Trace records as an array of shape (records, agents, 7)."""
    return np.array([[(r.px, r.py, r.psi, r.u_ref[0], r.u_ref[1], r.u[0], r.u[1])
                      for r in step] for step in trace.agents], dtype=float)


def fallback_count(trace, scenario) -> tuple[int, int]:
    """(emergency fallbacks, intact agent-steps) over the whole run."""
    ids = intact_ids(scenario)
    fallbacks = sum(1 for step in trace.agents for i in ids if step[i].fallback)
    return fallbacks, len(trace.agents) * len(ids)


def run_problems(trace, scenario) -> list[str]:
    """Invariant violations of one run: non-finite values, commands outside the box."""
    problems = []
    for k, step in enumerate(trace.agents):
        for i, r in enumerate(step):
            values = (r.px, r.py, r.psi, *r.u_ref, *r.u)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"record {k} agent {i}: non-finite trace value")
    for k, step in enumerate(trace.pairs):
        for (i, j), p in step.items():
            values = (p.h, p.alpha, p.rho, p.rho_d, p.rho_theta, p.margin)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"record {k} pair ({i},{j}): non-finite pair value")
    for i in intact_ids(scenario):
        box = scenario.agents[i].box
        for k, step in enumerate(trace.agents):
            if not box.contains(step[i].u):
                problems.append(f"record {k} agent {i}: u_safe {step[i].u} outside its box")
    return problems[:10]


def output_digest(out: Path) -> str:
    """SHA-256 over the bytes of trace.csv and pairs.csv."""
    h = hashlib.sha256()
    for name in ("trace.csv", "pairs.csv"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


@dataclass
class Reference:
    trace: np.ndarray
    fallbacks: int
    agent_steps: int
    min_h: float


def reference_path(key: str) -> Path:
    return REFERENCE_DIR / f"{key}.npz"


def save_reference(key: str, trace, scenario, min_h: float) -> Path:
    fallbacks, agent_steps = fallback_count(trace, scenario)
    path = reference_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, trace=trace_array(trace), fallbacks=fallbacks,
                        agent_steps=agent_steps, min_h=min_h)
    return path


def load_reference(key: str) -> Reference:
    with np.load(reference_path(key)) as z:
        return Reference(trace=z["trace"], fallbacks=int(z["fallbacks"]),
                         agent_steps=int(z["agent_steps"]), min_h=float(z["min_h"]))


def compare_reference(ref: Reference, trace, scenario, min_h: float) -> tuple[float, list[str]]:
    """(trace drift, problems): drift is the max |difference| from the reference
    trace, with headings compared modulo 2 pi; it is reported, not gated."""
    problems = []
    arr = trace_array(trace)
    if arr.shape != ref.trace.shape:
        return math.nan, [f"trace shape {arr.shape} differs from reference {ref.trace.shape}"]
    diff = np.abs(arr - ref.trace)
    diff[..., PSI] = np.abs(np.remainder(arr[..., PSI] - ref.trace[..., PSI] + math.pi,
                                         2.0 * math.pi) - math.pi)
    drift = float(np.max(diff))
    fallbacks, agent_steps = fallback_count(trace, scenario)
    if (fallbacks, agent_steps) != (ref.fallbacks, ref.agent_steps):
        problems.append(f"fallbacks {fallbacks}/{agent_steps} differ from reference "
                        f"{ref.fallbacks}/{ref.agent_steps}")
    if not abs(min_h - ref.min_h) <= MIN_H_TOL:
        problems.append(f"min_h {min_h!r} differs from reference {ref.min_h!r}")
    return drift, problems
