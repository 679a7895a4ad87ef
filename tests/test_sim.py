"""Scenario validation, non-intact policies, the run loop, and metrics."""

import dataclasses
import json
import logging
import math
import random
import struct
import sys
import warnings

import numpy as np
import pytest

from trustcbf import sim
from trustcbf.barriers import eval_barrier
from trustcbf.cli import load_scenario
from trustcbf.controller import Fallback
from trustcbf.dynamics import nominal_trajectory
from trustcbf.schema import Box, PairRecord, ValidationError
from trustcbf.sim import (AgentRecord, AgentSpec, Scenario,
                          adversary_policy, metrics, run, uncooperative_policy)
from trustcbf.solvers import QP_RETRY_TOL, Infeasible, QPProblem, solve_qp
from trustcbf.world import (ESTIMATE_RADIUS_FACTOR, AgentKind, AgentState, Model,
                            WorldSnapshot, wrap_angle)

from conftest import ring12_dict, shipped


def spec_intact(x=0.0, y=0.0, psi=0.0, target=(5.0, 0.0)):
    return AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (x, y, psi), target)


def spec_static(x, y):
    return AgentSpec(AgentKind.UNCOOPERATIVE, Model.SINGLE_INTEGRATOR,
                     (x, y), target=(x, y))


def two_agent_scenario(duration=0.5, dt=0.05):
    return Scenario(agents=[spec_intact(), spec_static(3.0, 0.0)],
                    duration=duration, dt=dt)


def test_scenario_validation_rejects_bad_fields():
    with pytest.raises(ValidationError):
        Scenario(agents=[spec_intact()], duration=1.0, dt=0.0).validate()
    with pytest.raises(ValidationError):
        Scenario(agents=[], duration=1.0).validate()
    with pytest.raises(ValidationError):
        Scenario(agents=[spec_intact()], duration=-1.0).validate()
    # intact agents must declare a goal, with finite coordinates
    bad = AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (0.0, 0.0, 0.0), None)
    with pytest.raises(ValidationError):
        Scenario(agents=[bad], duration=1.0).validate()
    for v in (math.nan, math.inf, -math.inf):
        for target in ((v, 4.0), (3.0, v)):
            with pytest.raises(ValidationError, match=r"^agents\[0\]\.target must be finite"):
                Scenario(agents=[spec_intact(target=target)], duration=1.0).validate()
    # adversaries need a prey id that names another agent
    adv = AgentSpec(AgentKind.ADVERSARIAL, Model.SINGLE_INTEGRATOR, (1.0, 0.0))
    with pytest.raises(ValidationError):
        Scenario(agents=[spec_intact(), adv], duration=1.0).validate()
    adv = AgentSpec(AgentKind.ADVERSARIAL, Model.SINGLE_INTEGRATOR, (1.0, 0.0),
                    prey=1)
    with pytest.raises(ValidationError):
        Scenario(agents=[spec_intact(), adv], duration=1.0).validate()
    # a heading is only meaningful on a unicycle
    bad = AgentSpec(AgentKind.UNCOOPERATIVE, Model.SINGLE_INTEGRATOR,
                    (0.0, 0.0, 0.3), target=(1.0, 0.0))
    with pytest.raises(ValidationError):
        Scenario(agents=[spec_intact(), bad], duration=1.0).validate()


def test_scenario_validation_rejects_a_target_without_two_coordinates():
    # run unpacks the target as (x, y), so validate must reject any other length
    for target in ((1.0,), (1.0, 2.0, 3.0)):
        bad = AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (0.0, 0.0, 0.0), target)
        with pytest.raises(ValidationError, match=r"agents\[0\]\.target"):
            Scenario(agents=[bad], duration=0.1).validate()


def test_shipped_scenarios_validate():
    shipped("crossing").validate()
    shipped("crossing", fixed_alpha=True).validate()
    shipped("headon_stress", rate_floor=False).validate()


def integ(i, x, y):
    return AgentState(id=i, model=Model.SINGLE_INTEGRATOR, px=x, py=y)


def test_uncooperative_policy_cruises_and_lands():
    goal = (3.0, 4.0)
    u = uncooperative_policy(integ(0, 0.0, 0.0), goal, speed=2.0, dt=0.05)
    assert np.allclose(u, [1.2, 1.6])  # speed 2 toward (3, 4)
    u = uncooperative_policy(integ(0, 2.98, 4.0), goal, speed=1.0, dt=0.05)
    assert np.allclose(u, [0.4, 0.0])  # shortened to land exactly
    assert np.allclose(uncooperative_policy(integ(0, 3.0, 4.0), goal, speed=1.0, dt=0.05), 0.0)


def test_adversary_policy_chases_prey():
    adv = integ(1, 1.0, 0.0)
    prey = integ(0, 0.0, 0.0)
    snap = WorldSnapshot(0.0, (prey, adv))
    u = adversary_policy(adv, snap, prey=0, k=2.0)
    assert np.allclose(u, [-1.0, 0.0], atol=1e-12)  # speed k d / 2 toward prey
    # far prey: the exact descent is infeasible, saturate along pursuit
    far = integ(1, 100.0, 0.0)
    snap = WorldSnapshot(0.0, (prey, far))
    u = adversary_policy(far, snap, prey=0, k=2.0)
    assert u[0] == -3.0 and abs(u[1]) < 1e-12


def pair_series(trace, i, j, name):
    return np.array([getattr(step[(i, j)], name) for step in trace.pairs])


def positions(trace, i):
    return np.array([[step[i].px, step[i].py] for step in trace.agents])


def test_run_record_grid_and_initial_row():
    s = two_agent_scenario(duration=0.5, dt=0.05)
    tr = run(s)
    assert len(tr.times) == 11
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(0.5)
    assert np.allclose(positions(tr, 0)[0], [0.0, 0.0])
    assert np.allclose(positions(tr, 1), [[3.0, 0.0]] * 11)  # static stays put
    # pair records exist for the intact agent toward its neighbor only
    assert set(tr.pairs[0].keys()) == {(0, 1)}
    assert pair_series(tr, 0, 1, "alpha")[0] == 0.8


def test_run_zero_duration_single_record():
    tr = run(two_agent_scenario(duration=0.0))
    assert len(tr.times) == 1


def test_run_is_deterministic():
    a = run(two_agent_scenario(duration=1.0))
    b = run(two_agent_scenario(duration=1.0))
    assert np.array_equal(positions(a, 0), positions(b, 0))
    assert np.array_equal(pair_series(a, 0, 1, "alpha"),
                          pair_series(b, 0, 1, "alpha"))
    assert np.array_equal(pair_series(a, 0, 1, "rho"), pair_series(b, 0, 1, "rho"))


def test_run_intact_agent_progresses_and_stays_safe():
    s = two_agent_scenario(duration=3.0)
    tr = run(s)
    m = metrics(tr, s)
    assert m["min_h"] > 0.0
    # barrier forces a stop short of the goal straight line or a detour; the
    # agent still ends closer to the goal than it started
    assert m["agents"][0]["final_goal_distance"] < 5.0


def test_far_intact_integrator_reaches_its_goal():
    # 10 m out, the goal descent asks for CLF_K V / ||grad V|| = 10 m/s and the
    # default box gives 3: the reference saturates toward the goal, as the
    # adversaries' does, instead of standing still
    s = Scenario(agents=[
        AgentSpec(AgentKind.INTACT, Model.SINGLE_INTEGRATOR, (0.0, 0.0), (10.0, 0.0)),
        spec_static(0.0, 30.0),
    ], duration=6.0, dt=0.05)
    tr = run(s)
    assert tr.agents[0][0].u_ref == (3.0, 0.0)
    a = metrics(tr, s)["agents"][0]
    # 7 m at 3 m/s, then exponential descent from 3 m to GOAL_TOL: about 5 s
    assert a["goal_reach_time"] == pytest.approx(5.0)
    assert a["final_goal_distance"] < sim.GOAL_TOL


def test_metrics_trivial_goal_already_reached():
    s = Scenario(agents=[
        AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (0.0, 0.0, 0.0), (0.0, 0.0)),
        spec_static(10.0, 0.0),
    ], duration=0.2, dt=0.05)
    m = metrics(run(s), s)
    a = m["agents"][0]
    assert a["goal_reach_time"] == 0.0
    assert a["final_goal_distance"] == pytest.approx(0.0)
    assert a["nominal_deviation"] == pytest.approx(0.0, abs=1e-12)
    assert a["min_h"] == pytest.approx((10.0 - 0.1) ** 2 - 0.25)


def test_metrics_cover_intact_agents_only():
    s = Scenario(agents=[
        AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (0.0, 0.0, 0.0), (1.0, 0.0)),
        AgentSpec(AgentKind.ADVERSARIAL, Model.SINGLE_INTEGRATOR, (8.0, 0.0),
                  target=None, prey=0),
    ], duration=0.1, dt=0.05)
    tr = run(s)
    m = metrics(tr, s)
    assert 0 in m["agents"] and 1 not in m["agents"]
    assert math.isfinite(m["min_h"])


def test_emergency_events_count_agent_steps_not_fallback_codes():
    # one agent over four steps whose fallback codes are 0, 1, 2, 0: two
    # agent-steps fell back, whatever their codes add up to
    tr = sim.Trace(1, [])
    for k, code in enumerate((0, 1, 2, 0)):
        tr.times.append(0.05 * k)
        tr.agent_data.fromlist([0.0] * (len(AgentRecord._fields) - 1) + [code])
    assert [step[0].fallback for step in tr.agents] == [0, 1, 2, 0]
    s = Scenario(agents=[spec_static(0.0, 0.0)], duration=0.15)
    assert metrics(tr, s)["emergency_events"] == 2


def test_a_run_emits_no_log_record(caplog, tmp_path):
    # stops and skipped trust updates show in the outputs, not in the log
    caplog.set_level(logging.DEBUG, logger="trustcbf")
    path = tmp_path / "ring12.json"
    path.write_text(json.dumps(ring12_dict()))
    for s in (shipped("crossing"), shipped("headon_stress"), load_scenario(path)):
        trace = run(s)
        assert metrics(trace, s)["emergency_events"] > 0
    assert caplog.records == []


def test_summary_echoes_the_settings_around_the_metrics():
    s = two_agent_scenario()
    trace = run(s)
    summary = sim.summary(trace, s, "scenarios/two.json")
    assert list(summary) == ["config", "metrics"]
    assert list(summary["config"].items()) == [
        ("scenario", "scenarios/two.json"), ("dt", 0.05), ("duration", 0.5), ("seed", s.seed),
        ("fixed_alpha", False), ("rho_bar_d", s.trust.rho_bar_d), ("alpha0", s.trust.alpha0)]
    assert summary["metrics"] == metrics(trace, s)


def test_crossing_scenario_shape():
    s = shipped("crossing")
    kinds = [a.kind for a in s.agents]
    assert kinds.count(AgentKind.INTACT) == 3
    assert kinds.count(AgentKind.ADVERSARIAL) == 1
    assert kinds.count(AgentKind.UNCOOPERATIVE) == 2
    assert s.dt == 0.05 and s.duration == 20.0 and s.trust.alpha0 == 0.8
    assert not s.fixed_alpha


def test_headon_stress_scenario_shape():
    s = shipped("headon_stress")
    assert s.rate_floor
    kinds = [a.kind for a in s.agents]
    assert kinds.count(AgentKind.ADVERSARIAL) == 2
    assert s.trust.gamma_alpha >= 100.0  # aggressive by construction


def small_scenarios(seed, count):
    """``count`` scenarios drawn from ``random.Random(seed)``: 2-8 agents of
    mixed kinds and models (agent 0 intact) on a 1-2 s horizon, each value
    uniform on its interval."""
    rng = random.Random(seed)

    def coord():
        return rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)

    out = []
    for _ in range(count):
        n = rng.randint(2, 8)
        kinds = [AgentKind.INTACT] + [rng.choice(list(AgentKind)) for _ in range(n - 1)]
        agents = []
        for idx, kind in enumerate(kinds):
            half = rng.uniform(0.5, 3.0)
            box = Box((-half, -half), (half, half))
            start, target = coord(), coord()
            if kind is AgentKind.INTACT:
                model = rng.choice(list(Model))
                if model is Model.UNICYCLE:
                    start += (rng.uniform(-math.pi, math.pi),)
                agents.append(AgentSpec(kind, model, start, target,
                                        d_min=rng.uniform(0.2, 0.8), box=box))
            elif kind is AgentKind.ADVERSARIAL:
                prey = rng.choice([k for k in range(n) if k != idx])
                agents.append(AgentSpec(kind, Model.SINGLE_INTEGRATOR, start, target, box=box,
                                        prey=prey, gain=rng.uniform(0.1, 2.0)))
            else:
                agents.append(AgentSpec(kind, Model.SINGLE_INTEGRATOR, start, target, box=box,
                                        speed=rng.uniform(0.1, half)))
        out.append(Scenario(agents=agents, duration=rng.choice([1.0, 1.5, 2.0]),
                            fixed_alpha=rng.random() < 0.5, rate_floor=rng.random() < 0.5))
    return out


def _trace_array(tr):
    return np.array([[(r.px, r.py, r.psi, *r.u_ref, *r.u) for r in step]
                     for step in tr.agents])


def _rows_hold(decision):
    """Every row of a decision without a fallback holds at its safe command to
    QP_RETRY_TOL (the solver's last relaxation) plus rounding."""
    if decision.fallback is not Fallback.NONE:
        return
    x, y = decision.u_safe
    for a0, a1, b in decision.planes:
        scale = 1.0 + abs(a0 * x) + abs(a1 * y) + abs(b)
        slack = a0 * x + a1 * y - b
        assert slack >= -(QP_RETRY_TOL + 8.0 * sys.float_info.epsilon * scale), (a0, a1, b, slack)


def _numpy_metrics(tr, s):
    """The numpy formulas sim.metrics replaced, per intact agent.

    Both sides read the same nominal trajectory; tests/test_dynamics.py checks
    it against the numpy one it replaced.
    """
    times = np.array(tr.times)
    out = {}
    for i, spec in enumerate(s.agents):
        if spec.kind is not AgentKind.INTACT:
            continue
        pos = positions(tr, i)
        goal_dist = np.linalg.norm(pos - np.array(spec.target), axis=1)
        reached = np.nonzero(goal_dist < sim.GOAL_TOL)[0]
        start = AgentState(id=i, model=spec.model, px=spec.start[0], py=spec.start[1],
                           psi=spec.start[2] if len(spec.start) == 3 else 0.0)
        ref = np.array(nominal_trajectory(start, spec.target, s.gamma_nominal, s.duration, s.dt))
        out[i] = {
            "min_h": min((step[key].h for step in tr.pairs for key in step if key[0] == i),
                         default=math.inf),
            "final_goal_distance": float(goal_dist[-1]),
            "nominal_deviation": float(np.max(np.linalg.norm(pos - ref[: len(pos)], axis=1))),
            "goal_reach_time": float(times[reached[0]]) if len(reached) else math.inf,
        }
    return out


def _check_run_properties(s):
    original = sim.agent_step

    def checked(*args):
        decision = original(*args)
        _rows_hold(decision)
        return decision

    sim.agent_step = checked
    try:
        tr = run(s)
    finally:
        sim.agent_step = original
    arr = _trace_array(tr)
    assert np.all(np.isfinite(arr))
    for step in tr.pairs:
        for p in step.values():
            assert all(math.isfinite(v) for v in
                       (p.h, p.alpha, p.rho, p.rho_d, p.rho_theta, p.margin))
    for step in tr.agents:
        for spec, rec in zip(s.agents, step):
            assert spec.box.contains(rec.u)
    assert _trace_array(run(s)).tobytes() == arr.tobytes()

    got = metrics(tr, s)["agents"]
    for i, ref in _numpy_metrics(tr, s).items():
        for name, value in ref.items():
            assert got[i][name].hex() == value.hex(), (i, name)


def test_run_properties_on_random_scenarios():
    scenarios = small_scenarios(0, 80)
    for s in scenarios:
        _check_run_properties(s)
    sizes = [len(s.agents) for s in scenarios]
    assert sum(n >= 7 for n in sizes) >= 10, sizes


def _numpy_uncooperative(state, target, speed, dt):
    """The numpy formula uncooperative_policy replaced."""
    e = np.array([target[0] - state.px, target[1] - state.py])
    dist = float(np.linalg.norm(e))
    if dist < 1e-12:
        return np.zeros(2)
    v = speed if dist >= speed * dt else dist / dt
    return (v / dist) * e


def _numpy_adversary(state, snapshot, prey, k, box):
    """The numpy formula adversary_policy replaced (goal descent toward the prey)."""
    e = np.array([state.px - snapshot.agents[prey].px, state.py - snapshot.agents[prey].py])
    V, gradV = float(e @ e), 2.0 * e
    try:
        u = solve_qp(QPProblem(u_ref=np.zeros(2), rows=[(*(-gradV), k * V)], box=box))
        return np.array(u)
    except Infeasible:
        gn = float(gradV @ gradV)
        if gn < 1e-18:
            return np.zeros(2)
        return np.clip(-(k * V / gn) * gradV, box.lo, box.hi)


def test_policies_match_numpy_formulas():
    rng = np.random.default_rng(3)
    plain = 0
    for k in range(500):
        x, y = rng.uniform(-5.0, 5.0, 2)
        tx, ty = rng.uniform(-5.0, 5.0, 2)
        if k % 4 == 0:
            tx = x                     # axis-parallel motion, as in the shipped scenarios
        if k % 25 == 0:
            tx, ty = x, y              # at the target
        if k % 10 == 1:
            tx, ty = x + 0.01, y - 0.02   # inside the last step
        a = integ(0, x, y)
        speed, dt = float(rng.uniform(0.1, 2.0)), (0.01, 0.05)[k % 2]
        got = uncooperative_policy(a, (tx, ty), speed, dt)
        ref = _numpy_uncooperative(a, (tx, ty), speed, dt)
        assert type(got) is tuple and all(type(v) is float for v in got)
        e = np.array([tx - x, ty - y])
        # np.linalg.norm squares through BLAS dot, which may fuse a multiply-add;
        # where it agrees with the plain sum of squares the results are bitwise equal.
        if float(e @ e) == e[0] * e[0] + e[1] * e[1]:
            plain += 1
            assert np.array(got).tobytes() == ref.tobytes()
        else:
            assert np.allclose(got, ref, rtol=1e-15, atol=0.0)

        prey = AgentState(id=1, model=Model.UNICYCLE, px=tx, py=ty, psi=0.0)
        adv = integ(0, x, y)
        snap = WorldSnapshot(0.0, (adv, prey))
        half = float(rng.uniform(0.1, 3.0))
        box = Box((-half, -half), (half, half))
        gain = float(rng.uniform(0.1, 3.0))
        got = adversary_policy(adv, snap, 1, gain, box)
        ref = _numpy_adversary(adv, snap, 1, gain, box)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * half)
    assert plain >= 300


def _pair_h_matches_eval_barrier(s):
    tr = run(s)
    n_intact = sum(spec.kind is AgentKind.INTACT for spec in s.agents)
    for step, pairs in zip(tr.agents, tr.pairs):
        states = [AgentState(id=i, model=spec.model, px=r.px, py=r.py, psi=r.psi)
                  for i, (spec, r) in enumerate(zip(s.agents, step))]
        assert len(pairs) == n_intact * (len(s.agents) - 1)
        for (i, j), p in pairs.items():
            h = eval_barrier(states[i], states[j], s.agents[i].d_min, s.lookahead).h
            assert struct.pack("<d", p.h) == struct.pack("<d", h), (i, j)


def _ring6():
    """Six intact unicycles on a 3 m ring, each bound for the opposite point."""
    ring = []
    for k in range(6):
        th = 2.0 * math.pi * k / 6 + 0.01 * k
        x, y = 3.0 * math.cos(th), 3.0 * math.sin(th)
        ring.append(AgentSpec(AgentKind.INTACT, Model.UNICYCLE, (x, y, th + math.pi), (-x, -y),
                              d_min=0.4 + 0.02 * k))
    return Scenario(agents=ring, duration=1.0, lookahead=0.15)


def test_recorded_pair_h_is_eval_barrier_on_each_snapshot():
    _pair_h_matches_eval_barrier(shipped("crossing", duration=2.0))
    _pair_h_matches_eval_barrier(_ring6())


def _euler_slack_misses(s, tr):
    """Recount from the trace: steps on which a pair's barrier fell faster than
    its previous record's rate allows, by more than the Euler slack."""
    misses = 0
    for old, new in zip(tr.pairs, tr.pairs[1:]):
        for key, rec in new.items():
            h0, alpha0 = old[key].h, old[key].alpha
            misses += (rec.h - h0) / s.dt + alpha0 * h0 < -sim.EULER_SLACK_FACTOR * s.dt
    return misses


def test_euler_slack_events_count_the_pairs_records():
    ring = _ring6()
    tr = run(ring)
    assert metrics(tr, ring)["euler_slack_events"] == _euler_slack_misses(ring, tr) > 0
    crossing = shipped("crossing", duration=5.0)
    tr = run(crossing)
    assert metrics(tr, crossing)["euler_slack_events"] == _euler_slack_misses(crossing, tr)


def test_euler_slack_events_count_strictly_below_the_bound_from_step_1():
    # one pair over four steps of dt = 1/16, where every slack is exact:
    # step 1's slack equals the bound, step 2's lies one ulp below it and
    # step 3's far above it.  Comparing step 0 with step 3 or with itself
    # would fall far below the bound, and reading the new record's rate
    # would lift steps 1 and 2 above it.
    dt = 0.0625
    s = Scenario(agents=[spec_intact(), spec_static(3.0, 0.0)], duration=3 * dt, dt=dt)
    records = [(-2.0, 8.3125), (-1.0, 0.625 + 2.0 ** -53), (-1.0, 0.5), (3.0, 0.5)]
    tr = sim.Trace(2, [(0, 1)])
    for k, (h, alpha) in enumerate(records):
        tr.times.append(dt * k)
        tr.agent_data.fromlist([0.0] * (2 * len(AgentRecord._fields)))
        tr.pair_data.fromlist(list(PairRecord(h, alpha)))
    bound = -sim.EULER_SLACK_FACTOR * dt
    slack = [(h1 - h0) / dt + a0 * h0 for (h0, a0), (h1, _) in zip(records, records[1:])]
    assert slack[0] == bound
    assert slack[1] == math.nextafter(bound, -math.inf)
    assert metrics(tr, s)["euler_slack_events"] == 1


def test_uncooperative_command_is_the_applied_one():
    # a cruise speed beyond the box saturates in the policy, so the recorded
    # command is what moved the agent and the Euler step never clamps it
    s = shipped("crossing", duration=2.0)
    fast = [4, 5]
    for j in fast:
        s.agents[j] = dataclasses.replace(s.agents[j], speed=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run(s)
    for j in fast:
        box = s.agents[j].box
        for r0, r1 in zip(tr.agents, tr.agents[1:]):
            u = r0[j].u
            assert box.contains(u, tol=0.0), u
            assert u == pytest.approx(((r1[j].px - r0[j].px) / s.dt,
                                       (r1[j].py - r0[j].py) / s.dt), abs=1e-9)
        assert tr.agents[0][j].u == (0.0, (-3.0, 3.0)[j - 4])


def _estimate_misses(s, tr):
    """Recount from the trace: each watched agent's finite-difference ball
    (full-state radius, as estimate_motion builds it) against its next motion."""
    intact = [i for i, spec in enumerate(s.agents) if spec.kind is AgentKind.INTACT]
    watched = [j for j in range(len(s.agents)) if any(i != j for i in intact)]
    misses = 0
    for k in range(1, len(tr.times) - 1):
        h = tr.times[k] - tr.times[k - 1]
        for j in watched:
            r0, r1, r2 = tr.agents[k - 1][j], tr.agents[k][j], tr.agents[k + 1][j]
            center = [(r1.px - r0.px) / h, (r1.py - r0.py) / h]
            if s.agents[j].model is Model.UNICYCLE:
                center.append(wrap_angle(r1.psi - r0.psi) / h)
            radius = ESTIMATE_RADIUS_FACTOR * math.sqrt(sum(c * c for c in center))
            dx = (r2.px - r1.px) / s.dt - center[0]
            dy = (r2.py - r1.py) / s.dt - center[1]
            misses += math.sqrt(dx * dx + dy * dy) > radius + 1e-9
    return misses


def test_estimate_violations_count_misses_of_the_observers_balls(ring12_run):
    # crossing: unicycle balls include the heading rate; headon: the lone
    # intact agent is watched by nobody, so its motion is never checked;
    # ring12: most estimates miss.
    crossing = shipped("crossing", duration=5.0)
    tr = run(crossing)
    assert metrics(tr, crossing)["estimate_violations"] == _estimate_misses(crossing, tr) > 0
    headon = shipped("headon_stress", duration=2.0)
    tr = run(headon)
    assert metrics(tr, headon)["estimate_violations"] == _estimate_misses(headon, tr)
    ring, tr = ring12_run
    assert metrics(tr, ring)["estimate_violations"] == _estimate_misses(ring, tr) > 0


def test_estimate_violations_count_a_miss_in_the_trace():
    # agent 1 moves at 1 m/s over step 0, then at 2 m/s over steps 1 and 2:
    # step 1 leaves the ball of radius 0.1 m/s around 1 m/s, step 2 stays in
    # the one around 2 m/s, so the trace holds one miss.  Agent 0, the lone
    # intact agent, is watched by nobody, so its jumps count none.
    dt = 0.1
    s = Scenario(agents=[spec_intact(), spec_static(3.0, 0.0)], duration=3 * dt, dt=dt)
    tr = sim.Trace(2, [(0, 1)])
    for k, (x0, x1) in enumerate(((0.0, 3.0), (5.0, 3.1), (0.0, 3.3), (5.0, 3.5))):
        tr.times.append(dt * k)
        for x in (x0, x1):
            tr.agent_data.fromlist(list(AgentRecord(x, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)))
        tr.pair_data.fromlist(list(PairRecord(1.0, 1.0)))
    assert metrics(tr, s)["estimate_violations"] == 1


def _run_capturing_decisions(s):
    """The trace of ``s`` and every agent_step call as (observer, snapshot, decision)."""
    original = sim.agent_step
    calls = []

    def capture(i, snap, *rest):
        decision = original(i, snap, *rest)
        calls.append((i, snap, decision))
        return decision

    sim.agent_step = capture
    try:
        tr = run(s)
    finally:
        sim.agent_step = original
    return tr, calls


def _hex(values):
    return [float(v).hex() for v in values]


def _trace_holds_the_decisions(s):
    tr, calls = _run_capturing_decisions(s)
    n = len(s.agents)
    intact = [i for i, spec in enumerate(s.agents) if spec.kind is AgentKind.INTACT]
    assert len(calls) == len(tr.times) * len(intact)
    for c, (i, snap, d) in enumerate(calls):
        k = c // len(intact)
        assert tr.times[k] == snap.time
        assert list(tr.pairs[k]) == [(o, j) for o in intact for j in range(n) if j != o]
        for j, a in enumerate(snap.agents):
            rec = tr.agents[k][j]
            assert _hex((rec.px, rec.py, rec.psi)) == _hex((a.px, a.py, a.psi)), (k, j)
        rec = tr.agents[k][i]
        assert _hex((*rec.u_ref, *rec.u)) == _hex((*d.u_ref, *d.u_safe)), (k, i)
        assert rec.fallback == d.fallback.value
        neighbors = [j for j in range(n) if j != i]
        assert len(d.pairs) == len(neighbors)
        for j, want in zip(neighbors, d.pairs):
            got = tr.pairs[k][(i, j)]
            assert got._fields == want._fields
            assert _hex(got) == _hex(want), (k, i, j)


def test_trace_holds_the_controllers_records_bitwise():
    _trace_holds_the_decisions(shipped("crossing", duration=2.0))
    for s in small_scenarios(1, 8):
        _trace_holds_the_decisions(s)


def test_trace_steps_index_slice_and_compare_like_lists_and_dicts():
    tr = run(two_agent_scenario(duration=0.5))
    assert len(tr.agents) == len(tr.pairs) == len(tr.times) == 11
    assert len(tr.agents[0]) == 2 and len(tr.pairs[0]) == 1
    # negative indices count from the end
    assert tr.agents[-1][-1] == tr.agents[10][1]
    assert tr.agents[-11][-2] == tr.agents[0][0]
    assert tr.pairs[-1][(0, 1)] == tr.pairs[10][(0, 1)]
    # slices are lists of steps, and a step's slice a list of records
    later = tr.pairs[1:]
    assert len(later) == 10 and [dict(p) for p in later] == [dict(tr.pairs[k]) for k in range(1, 11)]
    assert [r.px for r in tr.agents[3][:1]] == [tr.agents[3][0].px]
    assert [step[0].px for step in tr.agents[::5]] == [tr.agents[k][0].px for k in (0, 5, 10)]
    assert tr.agents[11:] == [] and tr.agents[3][2:] == []
    # iteration agrees with indexing
    assert [r.py for r in tr.agents[2]] == [tr.agents[2][i].py for i in range(2)]
    assert [dict(p) for p in tr.pairs] == [dict(tr.pairs[k]) for k in range(11)]
    # membership, key order and equality with a dict
    step = tr.pairs[4]
    assert (0, 1) in step and (1, 0) not in step and (0, 0) not in step
    assert list(step) == list(step.keys()) == [(0, 1)]
    assert dict(step) == {(0, 1): step[(0, 1)]} == step
    assert [key for key, _ in step.items()] == [(0, 1)] and list(step.values()) == [step[(0, 1)]]
    assert step.get((1, 0)) is None
    for bad in (11, -12):
        with pytest.raises(IndexError):
            tr.agents[bad]
        with pytest.raises(IndexError):
            tr.pairs[bad]
    for bad in (2, -3):
        with pytest.raises(IndexError):
            tr.agents[0][bad]
    with pytest.raises(KeyError):
        tr.pairs[0][(1, 0)]

    # without intact agents every step has no pair records
    movers = [AgentSpec(AgentKind.UNCOOPERATIVE, Model.SINGLE_INTEGRATOR, (0.0, 0.0), (2.0, 0.0)),
              AgentSpec(AgentKind.UNCOOPERATIVE, Model.SINGLE_INTEGRATOR, (0.0, 1.0), (2.0, 1.0))]
    tr = run(Scenario(agents=movers, duration=0.2))
    assert len(tr.pairs) == len(tr.times) == 5
    assert [dict(p) for p in tr.pairs] == [{}] * 5
    assert tr.agents[-1][1].py == 1.0


def test_trace_columns_read_the_same_values_as_the_records():
    tr = run(shipped("crossing", duration=0.5))
    assert list(tr.pairs[0]) == list(tr.pair_keys)
    for name in AgentRecord._fields:
        assert list(tr.agent_column(name)) == [getattr(r, name) for step in tr.agents
                                               for r in step], name
        for i in range(tr.n_agents):
            assert list(tr.agent_column(name, i)) == [getattr(step[i], name)
                                                      for step in tr.agents], (name, i)
    for name in PairRecord._fields:
        for slot, key in enumerate(tr.pair_keys):
            assert list(tr.pair_column(name, slot)) == [getattr(step[key], name)
                                                        for step in tr.pairs], (name, key)
