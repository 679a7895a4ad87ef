"""Non-intact agent policies, the run loop, its trace, and metrics.

The scenario a run reads and the records its trace holds are defined in
``trustcbf.schema``; their names stay importable from here.

The update is synchronous: every agent's command for step k is computed from
the same immutable snapshot of step k, then all states advance together by one
Euler step.  One pass over the agents decides and records each of them; only
the commands outlive it.  With no randomness anywhere in the loop, two runs of
the same scenario produce bitwise identical traces.  The loop only decides,
records and steps; it neither counts nor reports.  ``metrics`` computes every
count from the trace, and ``summary`` wraps them in summary.json's object.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from typing import Callable, Optional

from .controller import agent_step, clf_qp_reference
from .dynamics import euler_step, nominal_trajectory
from .schema import (AGENT_FIELDS, CLF_K, DEFAULT_BOX, PAIR_FIELDS, AgentKind, AgentRecord,
                     AgentSpec, Box, PairRecord, Scenario)
from .world import AgentState, WorldSnapshot, estimate_misses, estimate_positions

GOAL_TOL = 0.2

# Slack allowed on the discrete barrier-rate inequality
# (h_new - h_old) / dt >= -alpha_old h_old before a pair-step counts in the
# euler_slack_events of metrics, which reads h and alpha from the trace:
# 5 * dt * (curvature bound 2), which covers the Euler error.  A counted
# pair-step is a real barrier-rate violation, not an integration artifact:
# for instance the neighbor moved outside the estimate ball, or it enforces a
# different barrier (its own look-ahead point).  On ring12-0 that is 1,767 of
# 10,560 checked pair-steps, and 1 of them follows an emergency stop.
EULER_SLACK_FACTOR = 10.0


class Steps(Sequence):
    """A trace's records step by step; ``step(k)`` builds step k when read."""

    __slots__ = ("_times", "_step")

    def __init__(self, times: list, step: Callable[[int], object]):
        self._times, self._step = times, step

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, k):
        steps = range(len(self._times))[k]   # negative from the end; IndexError outside
        return [self._step(x) for x in steps] if isinstance(k, slice) else self._step(steps)


class Trace:
    """Every record of a run, held as two flat float arrays.

    Each agent record is its AgentRecord fields in order, and step k holds
    one record per agent in agent-id order.  Each pair record is its
    PairRecord fields in order, and step k holds one record per key of
    ``pair_keys``, in that order.  ``agents[k]`` reads step k back as a list
    of AgentRecord, ``pairs[k]`` as a dict of PairRecord keyed by (i, j).
    ``metrics`` computes every count from the records.
    """

    def __init__(self, n_agents: int, pair_keys: Sequence[tuple[int, int]]):
        self.times: list[float] = []
        self.agent_data = array("d")
        self.pair_data = array("d")
        self.n_agents = n_agents
        self.pair_keys = tuple(pair_keys)

    @property
    def agents(self) -> Steps:
        return Steps(self.times, self._agent_step)

    @property
    def pairs(self) -> Steps:
        return Steps(self.times, self._pair_step)

    def _agent_step(self, k: int) -> list[AgentRecord]:
        width = AGENT_FIELDS * self.n_agents
        data = self.agent_data[width * k:width * (k + 1)]
        return [AgentRecord(*data[o:o + AGENT_FIELDS - 1], int(data[o + AGENT_FIELDS - 1]))
                for o in range(0, width, AGENT_FIELDS)]

    def _pair_step(self, k: int) -> dict[tuple[int, int], PairRecord]:
        width = PAIR_FIELDS * len(self.pair_keys)
        data = self.pair_data[width * k:width * (k + 1)]
        return {key: PairRecord._make(data[o:o + PAIR_FIELDS])
                for key, o in zip(self.pair_keys, range(0, width, PAIR_FIELDS))}

    def agent_column(self, name: str, i: Optional[int] = None) -> array:
        """Field ``name`` of agent i at every step; with no i, of every agent
        at every step, step by step in agent-id order."""
        offset = AgentRecord._fields.index(name)
        if i is None:
            return self.agent_data[offset::AGENT_FIELDS]
        i = range(self.n_agents)[i]
        return self.agent_data[AGENT_FIELDS * i + offset::AGENT_FIELDS * self.n_agents]

    def pair_column(self, name: str, slot: int) -> array:
        """Field ``name`` of the pair ``pair_keys[slot]`` at every step."""
        offset = PairRecord._fields.index(name)
        slot = range(len(self.pair_keys))[slot]
        return self.pair_data[PAIR_FIELDS * slot + offset::PAIR_FIELDS * len(self.pair_keys)]


def adversary_policy(state: AgentState, snapshot: WorldSnapshot, prey: int,
                     k: float = CLF_K, box: Box = DEFAULT_BOX) -> tuple[float, float]:
    """Chase the prey's current position with an exponentially stabilizing descent.

    This is ``clf_qp_reference`` with the prey's position as the goal, the
    closed-form goal descent (``solvers.solve_min_norm``), so when the box
    cannot deliver the required descent rate (prey far away or fleeing at
    full speed), the command saturates along the pursuit direction instead of
    stopping.
    """
    prey_pos = (snapshot.agents[prey].px, snapshot.agents[prey].py)
    return clf_qp_reference(state, prey_pos, k, box)


def uncooperative_policy(state: AgentState, target: tuple[float, float], speed: float,
                         dt: float, box: Box = DEFAULT_BOX) -> tuple[float, float]:
    """Constant-velocity motion toward ``target``, the agent's own declared
    goal; zero at the target.

    Depends on nothing but the agent's own state and spec, so other agents
    cannot perturb it.  The last step of length ``dt`` onto the target is
    shortened to land exactly instead of overshooting.  The command is
    clipped to ``box``, so a speed the box cannot deliver saturates there,
    and the recorded command is the one applied.  ``Scenario.validate``
    requires every uncooperative agent to declare its goal.
    """
    ex, ey = target[0] - state.px, target[1] - state.py
    dist = math.sqrt(ex * ex + ey * ey)
    if dist < 1e-12:
        return 0.0, 0.0
    v = dist / dt if dist < speed * dt else speed
    scale = v / dist
    return box.clip((scale * ex, scale * ey))


def _start_state(idx: int, spec: AgentSpec) -> AgentState:
    """Agent ``idx`` at t = 0; a start without a heading faces along +x."""
    return AgentState(id=idx, model=spec.model, px=spec.start[0], py=spec.start[1],
                      psi=spec.start[2] if len(spec.start) == 3 else 0.0)


def run(s: Scenario) -> Trace:
    """Simulate the scenario and return the full trace.

    Commands and pair statistics are recorded at every time 0, dt, ..., up to
    floor(duration/dt)*dt inclusive; the final record's commands are computed
    but not applied.  Each step walks the agents once in id order: an intact
    agent's command comes from ``agent_step``, which reads ``s`` itself and
    whose pair records the trace keeps; any other agent's comes from its
    policy, and is its reference too.  Every agent writes its trace row in
    the same pass, and the Euler steps read only the commands.  The loop
    judges no estimate, counts nothing and logs nothing: ``metrics`` counts
    from the trace, and a stop's or a skipped trust update's cause stays
    readable in the trace (fallback code, pair h and unchanged scores).
    """
    s.validate()
    t = 0.0
    agents = tuple(_start_state(idx, spec) for idx, spec in enumerate(s.agents))
    n = len(s.agents)
    intact = [i for i, spec in enumerate(s.agents) if spec.kind is AgentKind.INTACT]
    # Each intact agent's pair records in neighbor-id order; the first step
    # never reads the start records' h.
    start = PairRecord(h=math.nan, alpha=s.trust.alpha0)
    pairs = {i: (start,) * (n - 1) for i in intact}

    steps = int(math.floor(s.duration / s.dt + 1e-9))
    # Each intact agent's keys in neighbor-id order, like its decision's pairs.
    trace = Trace(n, [(i, j) for i in intact for j in range(n) if j != i])
    prev: Optional[WorldSnapshot] = None
    # Each watched agent's motion estimate is built once per step and shared
    # by every observer.
    watched = _watched(intact, n)

    for k in range(steps + 1):
        snap = WorldSnapshot(time=t, agents=agents)
        estimates = estimate_positions(prev, snap, watched, s.trust.v_max)
        trace.times.append(t)
        commands = []   # index == agent id
        for a, spec in zip(agents, s.agents):
            if spec.kind is AgentKind.INTACT:
                d = agent_step(a.id, snap, estimates, pairs[a.id], s)
                u_ref, u, fallback = d.u_ref, d.u_safe, d.fallback.value
                trace.pair_data.fromlist([v for rec in d.pairs for v in rec])
                pairs[a.id] = d.pairs
            else:
                if spec.kind is AgentKind.ADVERSARIAL:
                    u = adversary_policy(a, snap, spec.prey, spec.gain, spec.box)
                else:
                    u = uncooperative_policy(a, spec.target, spec.speed, s.dt, spec.box)
                u_ref, fallback = u, 0
            # The agent's record in AgentRecord field order.
            trace.agent_data.fromlist([a.px, a.py, a.psi, *u_ref, *u, fallback])
            commands.append(u)

        if k == steps:
            break
        prev = snap
        agents = tuple(euler_step(a, u, s.dt, spec.box)
                       for a, u, spec in zip(agents, commands, s.agents))
        t += s.dt
    return trace


def _watched(intact: Sequence[int], n: int) -> list[int]:
    """The ids, of n agents, that some agent of ``intact`` watches, in order."""
    return [j for j in range(n) if any(i != j for i in intact)]


def _distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    dx, dy = p[0] - q[0], p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def _fallbacks(trace: Trace) -> int:
    """Agent-steps of the trace that fell back, whatever the fallback's code."""
    column = trace.agent_column("fallback")
    return len(column) - column.count(0.0)


def metrics(trace: Trace, s: Scenario) -> dict:
    """Summary of a run: the event counts, and per intact agent the worst
    barrier, goal distance, path deviation and reach time.

    ``euler_slack_events`` counts, from the trace's h and alpha columns, the
    pair-steps k >= 1 that broke the barrier-rate inequality by more than the
    Euler slack: (h_k - h_{k-1}) / dt + alpha_{k-1} h_{k-1} below
    -EULER_SLACK_FACTOR * dt.  ``estimate_violations`` counts, from the
    trace's px, py and psi columns, the steps at which a watched agent's
    next motion left the estimate ball its observers used
    (``world.estimate_misses``).
    """
    intact = [i for i, spec in enumerate(s.agents) if spec.kind is AgentKind.INTACT]
    out: dict = {"agents": {}, "min_h": math.inf,
                 "emergency_events": _fallbacks(trace),
                 "estimate_violations": sum(len(estimate_misses(
                     trace.times, *(trace.agent_column(c, j) for c in ("px", "py", "psi")),
                     s.agents[j].model, s.dt)) for j in _watched(intact, len(s.agents))),
                 "euler_slack_events": 0}
    min_hs = dict.fromkeys(intact, math.inf)
    dt, bound = s.dt, -EULER_SLACK_FACTOR * s.dt
    for slot, (i, _) in enumerate(trace.pair_keys):
        h, alpha = trace.pair_column("h", slot), trace.pair_column("alpha", slot)
        min_hs[i] = min(min_hs[i], min(h))
        out["euler_slack_events"] += sum((h1 - h0) / dt + a0 * h0 < bound
                                         for h0, h1, a0 in zip(h, h[1:], alpha))
    for i in intact:
        spec = s.agents[i]
        min_h = min_hs[i]
        out["min_h"] = min(out["min_h"], min_h)

        pos = list(zip(trace.agent_column("px", i), trace.agent_column("py", i)))
        goal_dist = [_distance(p, spec.target) for p in pos]
        reach_time = next((t for t, d in zip(trace.times, goal_dist) if d < GOAL_TOL), math.inf)
        ref = nominal_trajectory(_start_state(i, spec), spec.target, s.gamma_nominal,
                                 s.duration, s.dt)
        out["agents"][i] = {
            "min_h": min_h,
            "final_goal_distance": goal_dist[-1],
            "nominal_deviation": max(_distance(p, r) for p, r in zip(pos, ref)),
            "goal_reach_time": reach_time,
        }
    return out


def summary(trace: Trace, s: Scenario, scenario: str) -> dict:
    """summary.json's object: the run's settings, with ``scenario`` the path
    the run was given, and its ``metrics``."""
    return {
        "config": {"scenario": scenario, "dt": s.dt, "duration": s.duration, "seed": s.seed,
                   "fixed_alpha": s.fixed_alpha, "rho_bar_d": s.trust.rho_bar_d,
                   "alpha0": s.trust.alpha0},
        "metrics": metrics(trace, s),
    }
