"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test prints the measured quantities next to the thresholds it enforces,
so a verbose run doubles as a numbers report.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from trustcbf.barriers import clf_value, eval_barrier
from trustcbf.cli import load_scenario, main, write_trace_csv
from trustcbf.oracles import read_trace_csv, self_test
from trustcbf.schema import Box
from trustcbf.sim import AgentSpec, Scenario, metrics, run
from trustcbf.solvers import QPProblem, solve_qp
from trustcbf.trust import combine_trust, direction_trust, distance_trust, worst_case_motion
from trustcbf.world import AgentKind, AgentState, MotionEstimate, Model

REPO = Path(__file__).resolve().parents[1]
CROSSING_JSON = REPO / "scenarios" / "crossing.json"


def intact_ids(s):
    return [i for i, a in enumerate(s.agents) if a.kind is AgentKind.INTACT]


def test_c01_benchmark_run_stays_safe(crossing_adaptive):
    """Adaptive crossing run: every intact pair keeps h >= -1e-3 for the whole
    20 s horizon at dt 0.05 and alpha0 0.8, and simulating it takes < 10 s."""
    s, trace, m, wall = crossing_adaptive
    assert s.dt == 0.05 and s.duration == 20.0 and s.trust.alpha0 == 0.8
    assert len(trace.times) == 401
    print(f"criterion 1: min_h={m['min_h']:.6g} (>=-1e-3), wall={wall:.2f}s (<10)")
    assert m["min_h"] >= -1e-3
    assert wall < 10.0


def test_c02_adaptive_beats_fixed_rate(crossing_adaptive, crossing_fixed):
    """The chased agent tracks its straight-line reference more closely and
    reaches the goal sooner with rate adaptation than with frozen rates."""
    _, _, m_a, _ = crossing_adaptive
    _, _, m_f = crossing_fixed
    dev_a = m_a["agents"][1]["nominal_deviation"]
    dev_f = m_f["agents"][1]["nominal_deviation"]
    reach_a = m_a["agents"][1]["goal_reach_time"]
    reach_f = m_f["agents"][1]["goal_reach_time"]
    print(f"criterion 2: deviation {dev_a:.3g} < {dev_f:.3g}, "
          f"reach {reach_a:.3g}s vs {reach_f:.3g}s")
    assert dev_a < dev_f
    assert math.isfinite(reach_a)
    assert reach_f > reach_a or math.isinf(reach_f)


def test_c03_cooperative_rates_grow(crossing_adaptive):
    """At least one intact-to-intact pair ends with its rate above alpha0."""
    s, trace, _, _ = crossing_adaptive
    ids = intact_ids(s)
    finals = {(i, j): trace.pairs[-1][(i, j)].alpha
              for i in ids for j in ids if i != j}
    best = max(finals.values())
    print(f"criterion 3: max cooperative final alpha {best:.4g} > 0.8")
    assert best > 0.8


def test_c04_trust_combination_properties():
    """Combined trust lies in [-1, 1] on 1e5 random score pairs; on a 101x101
    grid it is nondecreasing in the compliance score up to the documented
    blend ripple 2/(e*k_blend); and beyond a 3/k_blend dead band around the
    pivot its sign always matches the side the compliance score is on."""
    rng = np.random.default_rng(0)
    rd = rng.random(100_000)
    rt = rng.random(100_000)
    vals = np.array([combine_trust(a, b) for a, b in zip(rd, rt)])
    assert np.all(vals >= -1.0) and np.all(vals <= 1.0)

    grid = np.linspace(0.0, 1.0, 101)
    ripple_bound = 2.0 / (math.e * 50.0)
    worst_ripple = 0.0
    for theta in grid:
        row = np.array([combine_trust(x, theta) for x in grid])
        worst_ripple = max(worst_ripple, float(np.max(np.maximum.accumulate(row) - row)))
        side = grid - 0.5
        outside = np.abs(side) > 3.0 / 50.0
        assert np.all(row[outside] * np.sign(side[outside]) >= 0.0)
    print(f"criterion 4: range [{vals.min():.3g}, {vals.max():.3g}], "
          f"worst grid ripple {worst_ripple:.3e} <= {ripple_bound:.3e}")
    assert worst_ripple <= ripple_bound

    margins = rng.uniform(-5.0, 5.0, 1000)
    assert all(0.0 <= distance_trust(m, beta=1.5) <= 1.0 for m in margins)
    for _ in range(1000):
        v = rng.normal(size=(3, 2))
        assert 0.0 <= direction_trust(v[0], v[1], v[2]) <= 1.0


def test_c05_solvers_match_oracles():
    """``oracles.self_test`` finds no failure on 500 random QPs, 500 LPs,
    500 conflicting row lists and 500 goal descents; 1000 single-constraint
    QPs match the analytic projection to 1e-10."""
    rng = np.random.default_rng(7)
    lines, failures = self_test(rng, 500, 500)
    print("criterion 5: " + "; ".join(lines))
    assert failures == 0

    big = Box((-50.0, -50.0), (50.0, 50.0))
    worst_proj = 0.0
    for _ in range(1000):
        u_ref = rng.uniform(-10.0, 10.0, 2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        a = rng.uniform(0.5, 2.0) * np.array([math.cos(ang), math.sin(ang)])
        b = float(a @ u_ref) + rng.uniform(-5.0, 5.0) * float(np.linalg.norm(a))
        expected = u_ref if a @ u_ref >= b else u_ref + ((b - a @ u_ref) / (a @ a)) * a
        u = solve_qp(QPProblem(u_ref=u_ref, rows=((*a, b),), box=big))
        worst_proj = max(worst_proj, float(np.linalg.norm(u - expected)))
    print(f"criterion 5: projection gap {worst_proj:.2e}")
    assert worst_proj <= 1e-10


def test_c06_random_pair_encounters_stay_safe():
    """100 random starts of one intact unicycle crossing past one static agent,
    each with initial h > 0.1: no 10 s run ever drives h below -1e-3."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = math.inf
    for _ in range(100):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(1.5, 3.0)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        t_ang = ang + math.pi + rng.uniform(-0.4, 0.4)
        t_rad = rng.uniform(1.5, 3.0)
        s = Scenario(agents=[
            AgentSpec(AgentKind.INTACT, Model.UNICYCLE,
                      (rad * math.cos(ang), rad * math.sin(ang), psi),
                      (t_rad * math.cos(t_ang), t_rad * math.sin(t_ang))),
            AgentSpec(AgentKind.UNCOOPERATIVE, Model.SINGLE_INTEGRATOR,
                      (0.0, 0.0), target=(0.0, 0.0)),
        ], duration=10.0, dt=0.05)
        trace = run(s)
        assert trace.pairs[0][(0, 1)].h > 0.1
        worst = min(worst, metrics(trace, s)["min_h"])
    print(f"criterion 6: worst min_h over 100 runs {worst:.6g} >= -1e-3 "
          f"({time.perf_counter() - t0:.1f}s)")
    assert worst >= -1e-3


def test_c07_rate_floor_preserves_feasibility(stress_runs):
    """Head-on squeeze with an aggressive trust gain: with the rate floor no
    fallback fires while the barrier still has margin (h > 0.05); without it
    at least one infeasibility or emergency fallback fires; both runs cover
    the full horizon."""
    reports = {}
    for flag, (s, trace) in stress_runs.items():
        events = []
        for k in range(len(trace.times)):
            if any(rec.fallback for rec in trace.agents[k]):
                h_min = min(rec.h for rec in trace.pairs[k].values())
                events.append((trace.times[k], h_min))
        assert len(trace.times) == 441  # completed horizon
        reports[flag] = events
    on_high = [(t, h) for t, h in reports[True] if h > 0.05]
    print(f"criterion 7: floor on {len(reports[True])} fallbacks "
          f"(none at h>0.05: {len(on_high)}), floor off {len(reports[False])} "
          f"(first at t={reports[False][0][0]:.2f}s)")
    assert on_high == []
    assert len(reports[False]) >= 1


def test_c08_worst_case_motion_closed_form():
    """The closed-form ball minimizer of the neighbor-motion term matches a
    1e4-sample search on 1000 random (estimate, gradient) pairs."""
    rng = np.random.default_rng(11)
    worst_over = 0.0   # closed form above sampled min (must stay ~0)
    worst_under = 0.0  # sampled min above closed form (sampling slack)
    for _ in range(1000):
        center = rng.normal(scale=2.0, size=2)
        radius = rng.uniform(0.0, 2.0)
        g = rng.normal(scale=3.0, size=2)
        est = MotionEstimate(center=center, radius=radius)
        point, val = worst_case_motion(est, g)
        assert np.linalg.norm(point - center) <= radius + 1e-9
        assert float(g @ point) == pytest.approx(val, abs=1e-9)
        ang = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        scale = np.concatenate([np.sqrt(rng.random(5_000)), np.ones(5_000)])
        samples = center + radius * dirs * scale[:, None]
        sampled = float(np.min(samples @ g))
        worst_over = max(worst_over, val - sampled)
        worst_under = max(worst_under, sampled - val)
    print(f"criterion 8: closed form exceeds samples by {worst_over:.2e} "
          f"(<=1e-9), sampling slack {worst_under:.2e} (<=1e-2)")
    assert worst_over <= 1e-9
    assert worst_under <= 1e-2


def test_c09_gradients_match_finite_differences():
    """Barrier gradients for both agents and the goal-distance gradient match
    central finite differences to 1e-6 relative error on 1000 random setups."""
    rng = np.random.default_rng(3)
    eps = 1e-6
    worst = 0.0

    def agent(model, p, psi):
        return AgentState(id=0, model=model, px=p[0], py=p[1], psi=psi)

    for _ in range(1000):
        mi = Model.UNICYCLE if rng.random() < 0.5 else Model.SINGLE_INTEGRATOR
        mj = Model.UNICYCLE if rng.random() < 0.5 else Model.SINGLE_INTEGRATOR
        pi = rng.normal(scale=2.0, size=2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(0.8, 5.0)
        pj = pi + dist * np.array([math.cos(ang), math.sin(ang)])
        psi_i = rng.uniform(-math.pi, math.pi)
        psi_j = rng.uniform(-math.pi, math.pi)

        ev = eval_barrier(agent(mi, pi, psi_i), agent(mj, pj, psi_j), 0.5, 0.1)
        scale = max(float(np.linalg.norm(np.array(ev.grad_i))), 1.0)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = eps
            f_p = eval_barrier(agent(mi, pi + step, psi_i), agent(mj, pj, psi_j), 0.5, 0.1).h
            f_m = eval_barrier(agent(mi, pi - step, psi_i), agent(mj, pj, psi_j), 0.5, 0.1).h
            worst = max(worst, abs((f_p - f_m) / (2 * eps) - np.array(ev.grad_i)[axis]) / scale)
            f_p = eval_barrier(agent(mi, pi, psi_i), agent(mj, pj + step, psi_j), 0.5, 0.1).h
            f_m = eval_barrier(agent(mi, pi, psi_i), agent(mj, pj - step, psi_j), 0.5, 0.1).h
            worst = max(worst, abs((f_p - f_m) / (2 * eps) - np.array(ev.grad_j)[axis]) / scale)

        target = tuple(pi + rng.uniform(0.3, 4.0) * np.array(
            [math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))]))
        _, grad = clf_value(agent(Model.SINGLE_INTEGRATOR, pi, 0.0), target)
        vscale = max(float(np.linalg.norm(grad)), 1.0)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = eps
            v_p, _ = clf_value(agent(Model.SINGLE_INTEGRATOR, pi + step, 0.0), target)
            v_m, _ = clf_value(agent(Model.SINGLE_INTEGRATOR, pi - step, 0.0), target)
            worst = max(worst, abs((v_p - v_m) / (2 * eps) - grad[axis]) / vscale)
    print(f"criterion 9: worst relative gradient error {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


def test_c10_runs_reproduce_bitwise(tmp_path):
    """Identical scenario and seed give byte-identical trace files; CSV floats
    survive the round trip; frozen-rate runs keep every alpha column constant."""
    d = json.loads(CROSSING_JSON.read_text())
    d["duration"] = 2.0
    scn = tmp_path / "crossing.json"
    scn.write_text(json.dumps(d))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--scenario", str(scn), "--out", str(out), "--no-svg"])
        assert rc == 0
        outs.append(out)
    trace_bytes = (outs[0] / "trace.csv").read_bytes()
    assert trace_bytes == (outs[1] / "trace.csv").read_bytes()
    assert (outs[0] / "pairs.csv").read_bytes() == (outs[1] / "pairs.csv").read_bytes()

    s = load_scenario(CROSSING_JSON)
    s.duration = 2.0
    trace = run(s)
    rt = tmp_path / "rt.csv"
    write_trace_csv(trace, rt)
    cols = read_trace_csv(rt)
    n = len(s.agents)
    worst_rt = 0.0
    for k in range(len(trace.times)):
        for i in range(n):
            rec = trace.agents[k][i]
            row = k * n + i
            for name, ref in (("px", rec.px), ("py", rec.py), ("psi", rec.psi),
                              ("u1", rec.u[0]), ("u2", rec.u[1])):
                worst_rt = max(worst_rt, abs(cols[name][row] - ref))
    assert worst_rt <= 1e-12

    d["flags"]["fixed_alpha"] = True
    scn.write_text(json.dumps(d))
    out = tmp_path / "fixed"
    rc = main(["run", "--scenario", str(scn), "--out", str(out), "--no-svg"])
    assert rc == 0
    pcols = read_trace_csv(out / "pairs.csv")
    pairs = {(int(i), int(j)) for i, j in zip(pcols["i"], pcols["j"])}
    for (i, j) in pairs:
        mask = (pcols["i"] == i) & (pcols["j"] == j)
        assert np.unique(pcols["alpha"][mask]).size == 1
        assert pcols["alpha"][mask][0] == 0.8
    print(f"criterion 10: {len(trace_bytes)} byte traces identical, "
          f"round-trip error {worst_rt:.1e}, {len(pairs)} frozen alpha columns")
