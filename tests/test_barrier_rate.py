"""The paper's safety claim as a conditional invariant: every barrier-rate
violation has a broken assumption behind it.

The claim: when neighbor j's next motion stays inside the estimate ball that
observer i used at step k, and i applied its own safety-QP command (no
fallback), the pair's discrete barrier-rate inequality

    slack = (h_{k+1} - h_k) / dt + alpha_k h_k >= -eps

holds, where h_k and alpha_k are the pair's records at step k (alpha_k is the
rate the step-k QP row enforced).  ``pair_steps`` recomputes, from a finished
run's trace and scenario alone, each pair-step's slack, j's estimate miss
(``world.estimate_misses`` on j's recorded path, the rule ``metrics`` counts
by), both agents' fallbacks, and whether k = 0, the bootstrap step, whose
ball is the speed-bound prior rather than an estimate.

The bound eps.  With g = ||grad h|| = 2 ||p_i - p_j|| at step k (p_i the
observer's barrier point: its look-ahead point for a unicycle), h_{k+1} - h_k
is grad_i h . D_i + grad_j h . D_j plus ||D_i - D_j||^2 >= 0, D the two barrier
points' displacements.  j's displacement is dt v_j with v_j in its ball up to
1e-9, so grad_j h . v_j falls short of the worst-case point's value by at most
1e-9 g.  i's displacement is dt M u exactly for an integrator; for a unicycle
the look-ahead point moves along a chord of its heading circle instead of
the tangent M u, off by at most l (omega dt)^2 / 2, which costs at most
g l omega^2 dt / 2 of slack.  The QP row grad_i h . M u >= -alpha h -
grad_j h . w holds to FEAS_TOL: the QP returns u_ref only when u_ref holds
every row to FEAS_TOL, and any other command holds every row to within the
solvers' rounding bound, far below it.  So

    eps = FEAS_TOL + g (1e-9 + l omega^2 dt / 2)

with l = omega = 0 for an integrator observer; float rounding of the slack,
about 1e-12 here, falls well inside FEAS_TOL.
"""

import json
import math
from pathlib import Path
from typing import NamedTuple

import pytest

from trustcbf import sim
from trustcbf.barriers import eval_barrier
from trustcbf.cli import load_scenario
from trustcbf.solvers import FEAS_TOL
from trustcbf.world import AgentState, Model, estimate_misses

from conftest import benchmark_workloads, fixed_arc_ring


class PairStep(NamedTuple):
    """Pair (i, j) from step k to k + 1: the slack, its bound eps (module
    docstring), whether j's motion left i's estimate ball, whether i or j fell
    back at step k, and whether k is the bootstrap step."""

    i: int
    j: int
    k: int
    slack: float
    eps: float
    miss: bool
    fallback: bool
    bootstrap: bool

    @property
    def attributed(self) -> bool:
        """Whether an assumption of the claim broke on this pair-step."""
        return self.miss or self.fallback or self.bootstrap


def pair_steps(s, trace) -> list[PairStep]:
    """Every pair-step of the run of ``s``, recomputed from its trace."""
    dt = s.dt
    misses = [set(estimate_misses(trace.times, *(trace.agent_column(c, j)
                                                 for c in ("px", "py", "psi")),
                                  spec.model, dt))
              for j, spec in enumerate(s.agents)]
    out = []
    for k in range(len(trace.times) - 1):
        recs, new = trace.agents[k], trace.pairs[k + 1]
        states = [AgentState(id=j, model=spec.model, px=r.px, py=r.py, psi=r.psi)
                  for j, (spec, r) in enumerate(zip(s.agents, recs))]
        for (i, j), old in trace.pairs[k].items():
            slack = (new[(i, j)].h - old.h) / dt + old.alpha * old.h
            me = states[i]
            g = math.hypot(*eval_barrier(me, states[j], s.agents[i].d_min,
                                         s.lookahead).grad_i)
            l, w = (s.lookahead, recs[i].u2) if me.model is Model.UNICYCLE else (0.0, 0.0)
            eps = FEAS_TOL + g * (1e-9 + l * w * w * dt / 2.0)
            out.append(PairStep(i, j, k, slack, eps, k in misses[j],
                                bool(recs[i].fallback or recs[j].fallback), k == 0))
    return out


def test_fixed_arc_ring_of_12_is_the_benchmark_ring12_0():
    assert fixed_arc_ring(12) == benchmark_workloads().ring12_scenario(0)


@pytest.fixture(params=["crossing", "headon", "ring12",
                        "ring12-0", "ring12-1", "ring12-2", "ring12-3",
                        "fixed-arc-16", "fixed-arc-24"])
def finished_run(request, tmp_path):
    """(scenario, trace) of one input: the session's runs, a run of one of
    the benchmark's four ring12 inputs from the scenario file it writes, or
    a run of the fixed-arc ring of 16 or 24 agents."""
    if request.param == "crossing":
        return request.getfixturevalue("crossing_adaptive")[:2]
    if request.param == "headon":
        return request.getfixturevalue("stress_runs")[True]
    if request.param == "ring12":
        return request.getfixturevalue("ring12_run")
    if request.param.startswith("fixed-arc-"):
        path = tmp_path / f"{request.param}.json"
        path.write_text(json.dumps(fixed_arc_ring(int(request.param.rsplit("-", 1)[1]))))
    else:
        path = benchmark_workloads().scenario_file(request.param, tmp_path)
    s = load_scenario(path)
    return s, sim.run(s)


def test_every_barrier_rate_violation_has_a_broken_assumption(finished_run):
    # Fails on crossing and ring12 when pair_geometry takes the estimate
    # ball's center for its worst-case point: clean pair-steps then reach
    # slack -0.086 (crossing) and -0.120 (ring12).
    s, trace = finished_run
    steps = pair_steps(s, trace)
    violations = [p for p in steps if p.slack < -sim.EULER_SLACK_FACTOR * s.dt]
    assert len(violations) == sim.metrics(trace, s)["euler_slack_events"]
    assert all(p.attributed for p in violations)
    clean = [p for p in steps if not p.attributed]
    assert clean
    bad = [p for p in clean if p.slack < -p.eps]
    assert not bad, bad[:5]
