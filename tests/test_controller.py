"""Per-agent control step: references, trust bookkeeping, and the safety QP."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustcbf import controller, sim
from trustcbf.barriers import cbf_row, eval_barrier, velocity_map
from trustcbf.controller import (CLF_K, ControlDecision, Fallback, agent_step,
                                 clf_qp_reference, pair_geometry, score_pairs)
from trustcbf.dynamics import nominal_direction, track_reference
from trustcbf.schema import MAGNITUDE_BOUND, AgentSpec, Box, PairRecord, Scenario, TrustParams
from trustcbf.solvers import Infeasible, QPProblem, solve_qp
from trustcbf.trust import (H_BOUNDARY_EPS, THETA_FLOOR, BoundaryReached, alpha_rate_floor,
                            combine_trust, direction_trust, distance_trust,
                            max_own_contribution, update_alpha, worst_case_motion)
from trustcbf.world import (AgentKind, AgentState, Model, MotionEstimate,
                            WorldSnapshot, estimate_motion, estimate_positions)

from conftest import shipped
from oracles import EPS, exact_lp, outside
from test_sim import _ring6

BOX3 = Box((-3.0, -3.0), (3.0, 3.0))


def integ(i, x, y):
    return AgentState(id=i, model=Model.SINGLE_INTEGRATOR, px=x, py=y)


def uni(i, x, y, psi=0.0):
    return AgentState(id=i, model=Model.UNICYCLE, px=x, py=y, psi=psi)


def snapshots(states0, states1=None, dt=0.05):
    """One- or two-snapshot history."""
    h = [WorldSnapshot(0.0, tuple(states0))]
    if states1 is not None:
        h.append(WorldSnapshot(dt, tuple(states1)))
    return h


def observe(hist):
    """agent_step's view of a history: its latest snapshot and every agent's
    motion estimate, as the run loop builds them, with the default speed bound."""
    prev = hist[-2] if len(hist) > 1 else None
    return hist[-1], estimate_positions(prev, hist[-1], range(len(hist[-1].agents)),
                                        TrustParams().v_max)


def scenario(*targets, **settings):
    """The run's scenario as agent_step reads it, with one agent per entry of
    ``targets``, its declared goal (None: unknown): every agent's spec has the
    control box BOX3 and the default safety distance, and ``settings`` are the
    scenario's own (dt, trust, fixed_alpha, ...)."""
    return Scenario([AgentSpec(AgentKind.INTACT, Model.SINGLE_INTEGRATOR, (0.0, 0.0), target,
                               box=BOX3) for target in targets], duration=0.0, **settings)


def fresh_trust(n, me, alpha0=0.8):
    """The start records of observer me's pairs, in neighbor-id order."""
    return (PairRecord(h=float("nan"), alpha=alpha0),) * (n - 1)


def test_clf_reference_minimum_norm_solution():
    # V = 1, gradV = (2, 0): constraint u_x <= -1, so min-norm is (-1, 0)
    u = clf_qp_reference(integ(0, 1.0, 0.0), (0.0, 0.0), k=2.0, box=BOX3)
    assert np.allclose(u, [-1.0, 0.0], atol=1e-12)
    # descent speed scales as k d / 2
    u = clf_qp_reference(integ(0, 2.0, 0.0), (0.0, 0.0), k=1.0, box=BOX3)
    assert np.allclose(u, [-1.0, 0.0], atol=1e-12)


def test_clf_reference_zero_at_goal_and_saturated_when_far():
    u = clf_qp_reference(integ(0, 1.0, 1.0), (1.0, 1.0), box=BOX3)
    assert np.allclose(u, 0.0)
    # the descent rate k V = 200 needs speed 10 > 3: the command saturates
    # toward the goal instead of giving up
    assert clf_qp_reference(integ(0, 10.0, 0.0), (0.0, 0.0), k=2.0, box=BOX3) == (-3.0, 0.0)
    # on a diagonal the box clips each axis: (-3, -3), still toward the goal
    assert clf_qp_reference(integ(0, 10.0, 10.0), (0.0, 0.0), k=2.0, box=BOX3) == (-3.0, -3.0)
    with pytest.raises(ValueError):
        clf_qp_reference(uni(0, 0.0, 0.0), (0.0, 0.0), box=BOX3)


def test_agent_step_far_neighbor_keeps_reference():
    me0, other0 = integ(0, 0.0, 0.0), integ(1, 50.0, 0.0)
    hist = snapshots([me0, other0], [me0, other0])
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(hist), trust, scenario((1.0, 0.0), (50.0, 0.0)))
    assert dec.fallback is Fallback.NONE
    assert len(dec.planes) == 1
    assert np.allclose(dec.u_safe, dec.u_ref)


def test_agent_step_reads_the_observers_own_spec():
    # observer 2 has a box and a safety distance of its own: its commands
    # stay in its box, its barriers use its d_min, and the other agents'
    # boxes and safety distances do not reach its decision
    start = [integ(0, 1.6, 0.4), integ(1, -1.2, 1.0), integ(2, 0.0, 0.0)]
    moved = [integ(0, 1.59, 0.4), integ(1, -1.19, 0.99), start[2]]
    view = observe(snapshots(start, moved))
    s = scenario(None, (3.0, 0.0), (5.0, 0.0))
    own = Box((-0.5, -0.5), (0.5, 0.5))
    s.agents[2] = dataclasses.replace(s.agents[2], box=own, d_min=0.7)
    dec = agent_step(2, *view, fresh_trust(3, 2), s)
    assert dec.fallback is Fallback.NONE
    assert dec.u_ref == (0.5, 0.0)     # the goal descent saturates in the own box
    assert own.contains(dec.u_safe, tol=0.0)
    assert [rec.h for rec in dec.pairs] == [eval_barrier(moved[2], other, 0.7).h
                                            for other in moved[:2]]
    s.agents[0] = dataclasses.replace(s.agents[0], box=Box((-1.0, -2.0), (2.0, 1.0)),
                                      d_min=1.3)
    s.agents[1] = dataclasses.replace(s.agents[1], box=own, d_min=0.2)
    other = agent_step(2, *view, fresh_trust(3, 2), s)
    assert _bits(dataclasses.astuple(other)) == _bits(dataclasses.astuple(dec))


def test_a_neighbors_declared_goal_comes_from_its_spec():
    # the same snapshots, estimates and pair records with neighbor 1's goal
    # moved in the scenario: its direction score follows the spec, and the
    # other pair's record stays bit for bit
    me = uni(0, 0.0, 0.0, psi=0.3)
    start = [me, integ(1, 1.8, 0.3), integ(2, -1.5, 1.2)]
    moved = [me, integ(1, 1.75, 0.3), integ(2, -1.46, 1.18)]
    view = observe(snapshots(start, moved))
    s = scenario((5.0, 0.0), (-4.0, 0.0), (3.0, -2.0))
    dec = agent_step(0, *view, fresh_trust(3, 0), s)
    s.agents[1] = dataclasses.replace(s.agents[1], target=(1.75, 4.0))
    other = agent_step(0, *view, fresh_trust(3, 0), s)
    assert other.pairs[0].rho_theta != dec.pairs[0].rho_theta
    assert _bits(other.pairs[1]) == _bits(dec.pairs[1])


def test_agent_step_bootstrap_defers_trust_but_constrains():
    me0, other0 = integ(0, 0.0, 0.0), integ(1, 3.0, 0.0)
    s = scenario((5.0, 0.0), (3.0, 0.0))
    trust = fresh_trust(2, 0)
    # single snapshot: the neighbor has only the flagged speed-bound prior
    dec = agent_step(0, *observe(snapshots([me0, other0])), trust, s)
    assert len(dec.planes) == 1
    (rec,) = dec.pairs
    assert rec.alpha == 0.8
    assert rec.margin == 0.0 and rec.rho == 0.0
    assert rec.h == eval_barrier(me0, other0).h   # the new h, the old scores
    # the bootstrap row is built against the conservative speed-bound ball
    row_b = dec.planes[0][2]
    dec2 = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), dec.pairs, s)
    assert dec2.planes[0][2] < row_b      # a real (stationary) estimate relaxes it
    assert dec2.pairs[0].margin > 0.0  # and the pair now has an observation


def test_agent_step_is_a_function_of_its_arguments():
    # the step reads the previous records and returns new ones: the same
    # arguments give equal decisions and the records passed in are untouched
    me = uni(0, 0.0, 0.0, psi=0.3)
    start = [integ(1, 1.8, 0.3), integ(2, -1.5, 1.2)]
    moved = [integ(1, 1.75, 0.3), integ(2, -1.46, 1.18)]
    s = scenario((5.0, 0.0), (-4.0, 0.0), (3.0, -2.0))
    first = agent_step(0, *observe(snapshots([me, *start])), fresh_trust(3, 0), s)
    pairs = first.pairs
    kept = tuple(tuple(rec) for rec in pairs)
    view = observe(snapshots([me, *start], [me, *moved]))
    dec1 = agent_step(0, *view, pairs, s)
    dec2 = agent_step(0, *view, pairs, s)
    assert dec1 == dec2
    assert tuple(tuple(rec) for rec in pairs) == kept
    # the rates did move, so the new records differ from the old ones
    assert [rec.alpha for rec in dec1.pairs] != [rec.alpha for rec in pairs]


def test_agent_step_trusts_stationary_neighbor_and_raises_alpha():
    me0, other0 = integ(0, 0.0, 0.0), integ(1, 3.0, 0.0)
    trust = fresh_trust(2, 0)
    s = scenario((5.0, 0.0), (3.0, 0.0), trust=TrustParams(gamma_alpha=1.0))
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), trust, s)
    (ts,) = dec.pairs
    assert ts.rho_d > 0.9           # huge slack against a stationary neighbor
    assert ts.rho_theta == 0.5      # it sits at its own declared target
    assert ts.rho == pytest.approx(0.5 * (ts.rho_d - 0.5))
    assert ts.alpha == pytest.approx(0.8 + 0.05 * ts.rho)


def test_agent_step_fixed_alpha_never_adapts():
    me0, other0 = integ(0, 0.0, 0.0), integ(1, 1.5, 0.0)
    trust = fresh_trust(2, 0)
    s = scenario((5.0, 0.0), (1.5, 0.0), fixed_alpha=True)
    hist = snapshots([me0, other0], [me0, other0])
    for _ in range(5):
        dec = agent_step(0, *observe(hist), trust, s)
        trust = dec.pairs
    assert trust[0].alpha == 0.8
    assert trust[0].rho != 0.0  # scores are still observed, just not applied
    expected = cbf_row(eval_barrier(me0, other0), velocity_map(me0), np.zeros(2), 0.8)
    assert dec.planes[0][2] == pytest.approx(expected[2])


def test_agent_step_boundary_forces_emergency_stop():
    # neighbor exactly on the safety boundary: the rate floor is undefined
    me0, other0 = integ(0, 0.0, 0.0), integ(1, 0.5, 0.0)
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), trust,
                     scenario((5.0, 0.0), (0.5, 0.0), rate_floor=True))
    assert dec.fallback is Fallback.EMERGENCY
    assert np.allclose(dec.u_safe, 0.0)


def test_agent_step_infeasible_rows_give_emergency_stop():
    # two neighbors squeezing from both sides with slammed-down rates
    me0 = integ(0, 0.0, 0.0)
    east0, west0 = integ(1, 0.75, 0.0), integ(2, -0.75, 0.0)
    east1, west1 = integ(1, 0.70, 0.0), integ(2, -0.70, 0.0)
    trust = fresh_trust(3, 0, alpha0=1e-4)
    dec = agent_step(0, *observe(snapshots([me0, east0, west0], [me0, east1, west1])),
                     trust, scenario((5.0, 0.0), (-5.0, 0.0), (5.0, 0.0), fixed_alpha=True))
    assert dec.fallback is Fallback.EMERGENCY
    assert np.allclose(dec.u_safe, 0.0)
    assert len(dec.planes) == 2


def test_the_safety_qp_goes_through_solve_qp(monkeypatch):
    # the benchmark's tracer sees the safety QP only as calls to
    # controller.solve_qp; a unicycle computes no goal-descent QP, so every
    # call counted here is the safety QP
    rows = []
    original = controller.solve_qp

    def counting(problem):
        rows.append(len(problem.rows))
        return original(problem)

    monkeypatch.setattr(controller, "solve_qp", counting)
    me = uni(0, 0.0, 0.0, psi=0.0)
    far = [integ(1, 3.0, 1.0), integ(2, -2.0, -2.0)]
    dec = agent_step(0, *observe(snapshots([me, *far], [me, *far])), fresh_trust(3, 0),
                     scenario((5.0, 0.0), None, None))
    assert dec.fallback is Fallback.NONE
    assert rows == [2]
    # a neighbor on the barrier boundary: BoundaryReached stops without a QP
    rows.clear()
    on_boundary = integ(1, 0.6, 0.0)
    dec = agent_step(0, *observe(snapshots([me, on_boundary], [me, on_boundary])),
                     fresh_trust(2, 0), scenario((5.0, 0.0), None))
    assert dec.fallback is Fallback.EMERGENCY
    assert rows == []


def test_rate_floor_receives_the_worst_case_margin():
    # a neighbor closing at 5 m/s has a ball of radius > 0, so its
    # worst-case-point margin lies below the center margin; the floor binds
    # here and must take the worst-case one, since that is the row the QP
    # enforces
    me0 = integ(0, 0.0, 0.0)
    snap, estimates = observe(snapshots([me0, integ(1, 1.25, 0.0)],
                                        [me0, integ(1, 1.0, 0.02)]))
    tp = TrustParams(L_F=0.0)  # lets the floor bind at a small alpha
    s = scenario((5.0, 0.0), (-5.0, 0.0), trust=tp)
    alpha = 0.011
    (rec,) = agent_step(0, snap, estimates, fresh_trust(2, 0, alpha0=alpha), s).pairs
    est = estimates[1]
    ev = eval_barrier(me0, snap.agents[1])
    (wx, wy), _ = worst_case_motion(est, ev.grad_j)
    (contrib,), _ = max_own_contribution([cbf_row(ev, velocity_map(me0), (wx, wy), alpha)],
                                         BOX3)
    b = -alpha * ev.h - contrib
    ax, ay = ev.grad_j
    worst_margin = ax * wx + ay * wy - b
    assert est.radius > 0.0
    assert worst_margin < rec.margin
    cx, cy = est.center
    B = math.sqrt(cx * cx + cy * cy) + est.radius
    hx, hy = ev.grad_i[0] / 2.0, ev.grad_i[1] / 2.0
    L_h = 2.0 * (math.sqrt(hx * hx + hy * hy) + B * s.dt)

    def alpha_after(margin):
        floor = alpha_rate_floor(margin, alpha, ev.h, B, L_h, tp.L_hdot, tp.L_F)
        return update_alpha(alpha, rec.rho, s.dt, floor, tp)

    assert rec.alpha > update_alpha(alpha, rec.rho, s.dt, -math.inf, tp)  # the floor binds
    assert rec.alpha == alpha_after(worst_margin)
    assert rec.alpha != alpha_after(rec.margin)


def test_agent_step_unicycle_reference_is_waypoint_tracking():
    me0, other0 = uni(0, 0.0, 0.0, psi=0.0), integ(1, 30.0, 0.0)
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), trust,
                     scenario((0.4, 0.0), (30.0, 0.0)))
    assert np.allclose(dec.u_ref, [0.8, 0.0])  # k_s * dist, zero bearing error
    assert np.allclose(dec.u_safe, dec.u_ref)


def test_agent_step_contributions_match_leave_one_out_vertex_oracle():
    # each pair's compliance margin carries its contribution LP,
    #   margin = grad_j . a_hat + alpha h + contribution,
    # which must equal the LP over the start-of-step rows toward the other
    # three neighbors
    me = uni(0, 0.0, 0.0, psi=0.3)
    start = [integ(1, 2.86, 0.44), integ(2, -2.2, 1.98), integ(3, 0.66, -2.64),
             integ(4, 3.52, -3.3)]
    moved = [integ(1, 2.81, 0.44), integ(2, -2.16, 1.96), integ(3, 0.66, -2.59),
             integ(4, 3.49, -3.27)]
    hist = snapshots([me, *start], [me, *moved])
    trust = fresh_trust(5, 0)
    s = scenario((5.0, 0.0), (-4.0, 0.0), (3.0, -2.0), (0.0, 4.0), (-2.0, 3.0))
    dec = agent_step(0, *observe(hist), trust, s)

    M = velocity_map(me, s.lookahead)
    evs, motion, rows = {}, {}, {}
    for other in moved:
        j = other.id
        evs[j] = eval_barrier(me, other, s.agents[0].d_min, s.lookahead)
        motion[j] = estimate_motion(*hist, j)
        a_j, _ = worst_case_motion(motion[j], np.array(evs[j].grad_j))
        rows[j] = cbf_row(evs[j], M, a_j, 0.8)
    # the delta bracket of the LP (test_trust): whether it reads the float
    # polygon of all four rows or clips the other three, that polygon holds
    # box ∩ all four rows tightened by delta and lies in box ∩ the other
    # three loosened by it
    binding = 0
    for j in rows:
        c = np.array(evs[j].grad_i) @ M
        others = [rows[k] for k in rows if k != j]
        lower, upper = exact_lp(c, list(rows.values()), BOX3, 4, -1), exact_lp(c, others, BOX3, 4)
        center_term = float(np.array(evs[j].grad_j) @ motion[j].center)
        got = dec.pairs[j - 1].margin - center_term - 0.8 * evs[j].h
        assert outside(got, lower, upper) <= EPS
        binding += upper < exact_lp(c, [], BOX3) - 1e-6
    assert binding == 4   # the other pairs' rows really cut the box


def test_agent_step_coincident_agents_skip_the_trust_update():
    # a neighbor on the observer's barrier point leaves no half-space normal:
    # the pair keeps its rate and last scores and gets the new h
    me0, other0 = integ(0, 1.0, 1.0), integ(1, 1.0, 1.0)
    prev = (PairRecord(h=0.3, alpha=0.7, rho=0.1, rho_d=0.2, rho_theta=0.3, margin=0.4),)
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), prev,
                     scenario((5.0, 0.0), (-5.0, 0.0)))
    assert dec.pairs == (PairRecord(h=-0.25, alpha=0.7, rho=0.1, rho_d=0.2, rho_theta=0.3,
                                    margin=0.4),)


def test_agent_step_without_rate_floor_alpha_falls_at_the_trust_rate():
    # a neighbor closing at 5 m/s earns negative trust; with the floor off,
    # alpha moves at gamma_alpha * rho and stops at alpha_min
    me0 = integ(0, 0.0, 0.0)
    view = observe(snapshots([me0, integ(1, 1.25, 0.0)], [me0, integ(1, 1.0, 0.0)]))
    goals = (5.0, 0.0), (-5.0, 0.0)
    # L_F = 0 lets the floor bind at a small alpha (checked below)
    params = TrustParams(gamma_alpha=2.0, alpha_min=0.01, L_F=0.0)
    s = scenario(*goals, trust=params, rate_floor=False)
    (rec,) = agent_step(0, *view, fresh_trust(2, 0, alpha0=0.8), s).pairs
    assert rec.rho < 0.0
    assert rec.alpha == 0.8 + s.dt * (params.gamma_alpha * rec.rho)
    (low,) = agent_step(0, *view, fresh_trust(2, 0, alpha0=0.011), s).pairs
    assert low.rho < 0.0
    assert 0.011 + s.dt * (params.gamma_alpha * low.rho) < params.alpha_min
    assert low.alpha == params.alpha_min
    # the same step with the floor on: the floor binds and raises alpha
    (floored,) = agent_step(0, *view, fresh_trust(2, 0, alpha0=0.011),
                            scenario(*goals, trust=params)).pairs
    assert floored.rho == low.rho
    assert floored.alpha > 0.011


def _one_pair(me, other, target, center, alpha=0.8):
    """The snapshot, geometry-pass entries and scenario of the single pair
    (me, other), with the neighbor's declared goal ``target`` and the given
    estimate-ball center and radius 0."""
    snap = WorldSnapshot(0.0, (me, other))
    s = scenario(None, target)
    entries, _ = pair_geometry(0, snap, {1: MotionEstimate(center, 0.0)},
                               (PairRecord(h=math.nan, alpha=alpha),), s)
    return snap, entries, s


def test_score_pairs_halfspace_fields_and_degenerate_case():
    # the allowed neighbor motions are A . v >= b with A = grad_j and
    # b = -alpha h - contribution: the margin is the center's slack against
    # it, and the direction score reads the unit normal A / ||A||
    me, other = integ(0, 0.0, 0.0), integ(1, 2.0, 0.0)
    ev = eval_barrier(me, other)
    center = (0.3, -0.7)
    snap, entries, s = _one_pair(me, other, (2.0, 3.0), center)
    (rec,), _, _ = score_pairs(0, snap, entries, [1.5], s)
    A = np.array(ev.grad_j)
    assert np.allclose(A, [4.0, 0.0])
    b = -0.8 * ev.h - 1.5
    assert rec.margin == pytest.approx(float(A @ np.array(center)) - b)
    assert rec.rho_theta == pytest.approx(direction_trust((0.0, 1.0), center, (1.0, 0.0)))
    # coincident agents have no normal: the pair is not scored
    snap, entries, s = _one_pair(me, integ(1, 0.0, 0.0), (2.0, 3.0), center)
    (rec0,), _, _ = score_pairs(0, snap, entries, [0.0], s)
    assert rec0 == PairRecord(h=-0.25, alpha=0.8)


def test_score_pairs_margin_is_signed_slack():
    me, other = integ(0, 0.0, 0.0), integ(1, 2.0, 0.0)
    ev = eval_barrier(me, other)
    A = np.array(ev.grad_j)
    norm = float(np.linalg.norm(A))
    on_boundary = A * ((-0.8 * ev.h) / float(A @ A))
    for center, expected in ((on_boundary, pytest.approx(0.0, abs=1e-12)),
                             (on_boundary + A / norm, pytest.approx(norm))):
        snap, entries, s = _one_pair(me, other, (2.0, 0.0),
                                     (float(center[0]), float(center[1])))
        (rec,), _, _ = score_pairs(0, snap, entries, [0.0], s)
        assert rec.margin == expected


# --- agent_step against the per-pair reference formulas ----------------------

def _reference_step(i, snap, estimates, pairs, s):
    """Rows, records, contribution LP values, reference and safe commands and
    fallback of agent_step, built per pair from eval_barrier, worst_case_motion,
    cbf_row and the trust formulas: the half-space grad_j . v >= -alpha h -
    contribution, the compliance margin as the slack against it, and the rate
    floor on the worst-case point's slack.  The safe command is the public
    ``solve_qp`` over the rows, and a stop on BoundaryReached or Infeasible."""
    me, spec = snap.agents[i], s.agents[i]
    tp = s.trust
    M = velocity_map(me, s.lookahead)
    obs = []
    for other, prev in zip([a for a in snap.agents if a.id != i], pairs):
        est = estimates[other.id]
        bootstrapped = est.bootstrap
        ev = eval_barrier(me, other, spec.d_min, s.lookahead)
        a_j, _ = worst_case_motion(est, ev.grad_j)
        obs.append((other, prev, ev, est, bootstrapped, a_j,
                    cbf_row(ev, M, a_j, prev.alpha)))
    contribs, _ = max_own_contribution([o[-1] for o in obs], spec.box)
    rows, records = [], []
    stop = False
    for (other, prev, ev, est, bootstrapped, a_j, row), contrib in zip(obs, contribs):
        ax, ay = ev.grad_j
        norm = math.sqrt(ax * ax + ay * ay)
        if bootstrapped or contrib is None or norm < 1e-12:
            records.append(PairRecord(ev.h, prev.alpha, prev.rho, prev.rho_d,
                                      prev.rho_theta, prev.margin))
            rows.append(row)
            continue
        b = -prev.alpha * ev.h - contrib
        s_hat = (ax / norm, ay / norm)
        d = ax * est.center[0] + ay * est.center[1] - b
        rho_d = distance_trust(d, tp.beta)
        target_j = s.agents[other.id].target
        n_hat, at_target = nominal_direction(other, (me.px, me.py) if target_j is None
                                             else target_j)
        rho_theta = 0.5 if at_target else direction_trust(n_hat, est.center, s_hat)
        rho = combine_trust(rho_d, rho_theta, tp.rho_bar_d, tp.k_blend)
        alpha = prev.alpha
        if not s.fixed_alpha:
            floor = -math.inf
            if s.rate_floor:
                cx, cy = est.center
                B = math.sqrt(cx * cx + cy * cy) + est.radius
                hx, hy = ev.grad_i[0] / 2.0, ev.grad_i[1] / 2.0
                L_h = 2.0 * (math.sqrt(hx * hx + hy * hy) + B * s.dt)
                worst_margin = ax * a_j[0] + ay * a_j[1] - b
                try:
                    floor = alpha_rate_floor(worst_margin, alpha, ev.h, B, L_h,
                                             tp.L_hdot, tp.L_F)
                except BoundaryReached:
                    floor = None
                    stop = True
            if floor is not None:
                alpha = update_alpha(alpha, rho, s.dt, floor, tp)
        records.append(PairRecord(ev.h, alpha, rho, rho_d, rho_theta, d))
        rows.append(row if alpha == prev.alpha
                    else cbf_row(ev, M, a_j, alpha))
    if me.model is Model.UNICYCLE:
        u_ref = track_reference(me, spec.target, spec.box)
    else:
        u_ref = clf_qp_reference(me, spec.target, CLF_K, spec.box)
    u_safe, fallback = (0.0, 0.0), Fallback.EMERGENCY
    if not stop:
        try:
            u_safe = solve_qp(QPProblem(u_ref=u_ref, rows=rows, box=spec.box))
            fallback = Fallback.NONE
        except Infeasible:
            pass
    return rows, records, contribs, u_ref, u_safe, fallback


def _bits(v):
    """v with every float replaced by its hex form, so == compares bitwise."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    return v


_LAST_SCORES = (0.1, 0.6, 0.4, 0.2)   # rho, rho_d, rho_theta, margin of every previous record


def _scene(start, now, targets, alphas, fixed_alpha=False, rate_floor=True,
           trust=TrustParams(alpha_max=2.0, gamma_alpha=2.0)):
    """(observer id 0, snapshot history, previous records, scenario), with
    each agent's declared goal in ``targets``.  ``now`` None makes ``start``
    the only snapshot: the bootstrap step."""
    pairs = tuple(PairRecord(math.nan, a, *_LAST_SCORES) for a in alphas)
    s = scenario(*targets, fixed_alpha=fixed_alpha, rate_floor=rate_floor, trust=trust)
    return 0, snapshots(start, now), pairs, s


def _squeeze_scene():
    # two neighbors close in from both sides at a tiny rate: their rows
    # conflict, so the contribution LP of the third, far pair is infeasible
    me, far = integ(0, 0.0, 0.0), integ(3, 0.0, 2.5)
    return _scene([me, integ(1, 0.75, 0.0), integ(2, -0.75, 0.0), far],
                  [me, integ(1, 0.70, 0.0), integ(2, -0.70, 0.0), far],
                  ((5.0, 0.0), (-5.0, 0.0), (5.0, 0.0), (0.0, 5.0)), (1e-4, 1e-4, 1e-4))


def _coincident_scene():
    # a neighbor on the observer's position: no half-space normal
    me, other = integ(0, 1.0, 1.0), integ(1, 1.0, 1.0)
    return _scene([me, other, uni(2, 2.0, 1.5, psi=2.0)],
                  [me, other, uni(2, 1.96, 1.52, psi=2.05)],
                  ((5.0, 0.0), (-5.0, 0.0), (0.0, 0.0)), (0.7, 0.5))


# One scene per branch of the scoring pass: observer 0 at the origin and one
# neighbor, still or moving between the two snapshots.  Derandomized draws
# differ between a solo run and a full-suite run, so the bitwise test takes
# these as explicit examples, and test_pinned_scene_reaches_its_branch checks
# that each still reaches its branch.
_ME = integ(0, 0.0, 0.0)


def _pair_scene(was, now, target, alpha=0.8, **options):
    return _scene([_ME, integ(1, *was)], [_ME, integ(1, *now)], ((5.0, 0.0), target),
                  (alpha,), **options)


def _angle(u, v):
    return math.acos(float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))


def _scored(rec):
    return rec[2:] != _LAST_SCORES


def _unclamped_trust_update(rec, s, alpha):
    return alpha + s.dt * (s.trust.gamma_alpha * rec.rho)


_CLOSING = ((1.25, 0.0), (1.0, 0.0), (-5.0, 0.0))   # at 5 m/s
# By branch: the scene, and whether the reference step reaches the branch.
_PINNED = {
    "neighbor_at_its_target": (
        _pair_scene((2.0, 1.1), (2.0, 1.0), (2.0, 1.0)),
        lambda other, est, rec, s, fallback: (
            (other.px, other.py) == s.agents[1].target and rec.rho_theta == 0.5)),
    "unknown_target": (
        _pair_scene((2.05, 0.5), (2.0, 0.5), None),
        lambda other, est, rec, s, fallback: s.agents[1].target is None and _scored(rec)),
    "stationary_estimate_center": (
        _pair_scene((2.0, 0.0), (2.0, 0.0), (2.0, 3.0)),
        lambda other, est, rec, s, fallback: est.center == (0.0, 0.0) and _scored(rec)),
    "direction_score_saturates": (
        # moving straight away from the observer, its goal at a right angle:
        # theta_a is floored, and tanh of twice the ratio rounds to exactly 1
        _pair_scene((1.95, 0.0), (2.0, 0.0), (2.0, 3.0)),
        lambda other, est, rec, s, fallback: (
            _angle(est.center, (1.0, 0.0)) < THETA_FLOOR
            and rec.rho_theta == 1.0 and _scored(rec))),
    "negative_sigmoid_argument": (
        _pair_scene(*_CLOSING),
        lambda other, est, rec, s, fallback: (
            s.trust.k_blend * (rec.rho_d - s.trust.rho_bar_d) < 0.0)),
    "zero_margin": (
        # b = -alpha h - contribution is exactly 0 and the center (0, 0),
        # so the margin is -0.0
        _pair_scene((-0.0625, 0.0), (-0.0625, 0.0), (5.0, 0.0), alpha=96 / 63),
        lambda other, est, rec, s, fallback: (
            rec.margin == 0.0 and math.copysign(1.0, rec.margin) < 0.0)),
    "boundary_reached_at_positive_h": (
        _pair_scene((0.5000005, 0.0), (0.5000005, 0.0), (5.0, 0.0)),
        lambda other, est, rec, s, fallback: (
            0.0 < rec.h <= H_BOUNDARY_EPS and _scored(rec) and rec.alpha == 0.8
            and fallback is Fallback.EMERGENCY)),
    "rate_floor_wins": (
        # L_F = 0 lets the floor bind at a small alpha
        _pair_scene(*_CLOSING, alpha=0.011,
                    trust=TrustParams(alpha_max=2.0, gamma_alpha=2.0, L_F=0.0)),
        lambda other, est, rec, s, fallback: rec.alpha > max(
            _unclamped_trust_update(rec, s, 0.011), s.trust.alpha_min)),
    "alpha_min_clamp": (
        _pair_scene(*_CLOSING, alpha=0.011, rate_floor=False),
        lambda other, est, rec, s, fallback: (
            _unclamped_trust_update(rec, s, 0.011) < s.trust.alpha_min
            and rec.alpha == s.trust.alpha_min)),
    "alpha_max_clamp": (
        # the floor can only raise the rate above the trust rate
        _pair_scene((2.0, 0.0), (2.0, 0.0), (2.0, 3.0), alpha=1.999),
        lambda other, est, rec, s, fallback: (
            _unclamped_trust_update(rec, s, 1.999) > s.trust.alpha_max
            and rec.alpha == s.trust.alpha_max)),
}


def _extreme_scene(low, rho_bar_d):
    """Neighbors of both models scored with beta, k_blend, gamma_alpha and
    alpha_max all at the low or all at the high end of their intervals.
    alpha_max's interval is open at 0, so its low end is the least positive
    float, with alpha_min and the rates equal to it as validation requires.
    Every neighbor moves away from the observer, so the rows leave room for
    every contribution LP even at that rate, and every pair is scored."""
    if low:
        tiny = math.ulp(0.0)
        trust = TrustParams(rho_bar_d=rho_bar_d, beta=0.0, k_blend=0.0, gamma_alpha=0.0,
                            alpha_min=tiny, alpha_max=tiny)
        alphas = (tiny,) * 3
    else:
        big = MAGNITUDE_BOUND
        trust = TrustParams(rho_bar_d=rho_bar_d, beta=big, k_blend=big, gamma_alpha=big,
                            alpha_max=big)
        alphas = (0.01, 1.0, big)
    me = uni(0, 0.0, 0.0, psi=0.3)
    return _scene([me, integ(1, 1.2, 0.1), integ(2, -1.1, 1.0), uni(3, 0.6, -1.9, psi=-1.2)],
                  [me, integ(1, 1.25, 0.1), integ(2, -1.13, 1.03),
                   uni(3, 0.61, -1.93, psi=-1.19)],
                  ((5.0, 0.0), (-4.0, 0.0), None, (0.0, 4.0)), alphas, trust=trust)


@st.composite
def _scenes(draw):
    """Observer 0 and 1-4 neighbors of either model within a few metres, one
    or two snapshots, drawn previous rates, and each flag on or off."""
    coord = st.floats(-2.0, 2.0)
    step = st.floats(-0.2, 0.2)
    start, now, targets = [], [], []
    for k in range(draw(st.integers(2, 5))):
        model = draw(st.sampled_from([Model.UNICYCLE, Model.SINGLE_INTEGRATOR]))
        targets.append(draw(st.tuples(coord, coord) if k == 0
                            else st.none() | st.tuples(coord, coord)))
        x, y, psi = draw(coord), draw(coord), draw(st.floats(-3.0, 3.0))
        dx, dy, dpsi = draw(step), draw(step), draw(step)
        start.append(AgentState(k, model, x - dx, y - dy, psi - dpsi))
        now.append(AgentState(k, model, x, y, psi))
    alphas = draw(st.lists(st.floats(0.01, 2.0), min_size=len(now) - 1, max_size=len(now) - 1))
    if draw(st.booleans()):
        start, now = now, None
    return _scene(start, now, targets, alphas, draw(st.booleans()), draw(st.booleans()))


def test_squeeze_scene_has_an_infeasible_contribution_lp():
    i, hist, pairs, s = _squeeze_scene()
    contribs = _reference_step(i, *observe(hist), pairs, s)[2]
    assert contribs[2] is None and None not in contribs[:2]


@pytest.mark.parametrize("low", [True, False])
@pytest.mark.parametrize("rho_bar_d", [0.0, 1.0])
def test_extreme_scene_scores_every_pair(low, rho_bar_d):
    i, hist, pairs, s = _extreme_scene(low, rho_bar_d)
    records = _reference_step(i, *observe(hist), pairs, s)[1]
    assert all(_scored(rec) for rec in records)


@pytest.mark.parametrize("branch", list(_PINNED))
def test_pinned_scene_reaches_its_branch(branch):
    scene, reaches = _PINNED[branch]
    i, hist, pairs, s = scene
    snap, estimates = observe(hist)
    _, (rec,), _, _, _, fallback = _reference_step(i, snap, estimates, pairs, s)
    assert reaches(snap.agents[1], estimates[1], rec, s, fallback)


@settings(max_examples=300, deadline=None)
@given(_scenes())
@example(_squeeze_scene())
@example(_coincident_scene())
@example(_PINNED["neighbor_at_its_target"][0])
@example(_PINNED["unknown_target"][0])
@example(_PINNED["stationary_estimate_center"][0])
@example(_PINNED["direction_score_saturates"][0])
@example(_PINNED["negative_sigmoid_argument"][0])
@example(_PINNED["zero_margin"][0])
@example(_PINNED["boundary_reached_at_positive_h"][0])
@example(_PINNED["rate_floor_wins"][0])
@example(_PINNED["alpha_min_clamp"][0])
@example(_PINNED["alpha_max_clamp"][0])
@example(_extreme_scene(low=True, rho_bar_d=0.0))
@example(_extreme_scene(low=True, rho_bar_d=1.0))
@example(_extreme_scene(low=False, rho_bar_d=0.0))
@example(_extreme_scene(low=False, rho_bar_d=1.0))
def test_agent_step_matches_the_per_pair_reference_bitwise(scene):
    i, hist, pairs, s = scene
    view = observe(hist)
    dec = agent_step(i, *view, pairs, s)
    rows, records, _, u_ref, u_safe, fallback = _reference_step(i, *view, pairs, s)
    assert _bits(tuple(dec.planes)) == _bits(tuple(rows))
    assert _bits(dec.pairs) == _bits(tuple(records))
    assert _bits(dec.u_ref) == _bits(u_ref)
    assert _bits(dec.u_safe) == _bits(u_safe)
    assert dec.fallback is fallback


def _reference_decision(i, snap, estimates, pairs, s):
    """agent_step's decision from the per-pair reference, as the run loop reads it."""
    _, records, _, u_ref, u_safe, fallback = _reference_step(i, snap, estimates, pairs, s)
    return ControlDecision(u_ref=u_ref, u_safe=u_safe, fallback=fallback, pairs=tuple(records))


@pytest.mark.parametrize("scenario", [shipped("crossing", duration=3.0),
                                      shipped("headon_stress", duration=3.0), _ring6()],
                         ids=["crossing", "headon", "ring6"])
def test_whole_run_matches_the_per_pair_reference_bitwise(scenario, monkeypatch):
    # whole runs reach jams, emergency stops and alphas at their clamps, which
    # single drawn steps rarely do: the reference step must record the same bytes
    trace = sim.run(scenario)
    monkeypatch.setattr(sim, "agent_step", _reference_decision)
    ref = sim.run(scenario)
    assert trace.agent_data.tobytes() == ref.agent_data.tobytes()
    assert trace.pair_data.tobytes() == ref.pair_data.tobytes()
