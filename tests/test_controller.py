"""Per-agent control step: references, trust bookkeeping, and the safety QP."""

import numpy as np
import pytest

from trustcbf import controller
from trustcbf.barriers import cbf_row, eval_barrier, velocity_map
from trustcbf.controller import (AgentConfig, Fallback, agent_step,
                                 clf_qp_reference)
from trustcbf.dynamics import Box
from trustcbf.oracles import lp_vertex_oracle
from trustcbf.solvers import Infeasible
from trustcbf.trust import PairRecord, TrustParams, worst_case_motion
from trustcbf.world import (AgentKind, AgentState, Model, WorldSnapshot,
                            estimate_motion, estimate_positions)

BOX3 = Box((-3.0, -3.0), (3.0, 3.0))


def integ(i, x, y, target=None, kind=AgentKind.INTACT):
    return AgentState(id=i, kind=kind, model=Model.SINGLE_INTEGRATOR,
                      px=x, py=y, target=target)


def uni(i, x, y, psi=0.0, target=None):
    return AgentState(id=i, kind=AgentKind.INTACT, model=Model.UNICYCLE,
                      px=x, py=y, psi=psi, target=target)


def snapshots(states0, states1=None, dt=0.05):
    """One- or two-snapshot history."""
    h = [WorldSnapshot(0.0, tuple(states0))]
    if states1 is not None:
        h.append(WorldSnapshot(dt, tuple(states1)))
    return h


def observe(hist):
    """agent_step's view of a history: its latest snapshot and every agent's
    motion estimate, as the run loop builds them."""
    prev = hist[-2] if len(hist) > 1 else None
    return hist[-1], estimate_positions(prev, hist[-1], range(len(hist[-1].agents)))


def fresh_trust(n, me, alpha0=0.8):
    """The start records of observer me's pairs, in neighbor-id order."""
    return (PairRecord(h=float("nan"), alpha=alpha0),) * (n - 1)


def test_clf_reference_minimum_norm_solution():
    # V = 1, gradV = (2, 0): constraint u_x <= -1, so min-norm is (-1, 0)
    u = clf_qp_reference(integ(0, 1.0, 0.0, target=(0.0, 0.0)), k=2.0, box=BOX3)
    assert np.allclose(u, [-1.0, 0.0], atol=1e-12)
    # descent speed scales as k d / 2
    u = clf_qp_reference(integ(0, 2.0, 0.0, target=(0.0, 0.0)), k=1.0, box=BOX3)
    assert np.allclose(u, [-1.0, 0.0], atol=1e-12)


def test_clf_reference_zero_at_goal_and_infeasible_when_far():
    u = clf_qp_reference(integ(0, 1.0, 1.0, target=(1.0, 1.0)), box=BOX3)
    assert np.allclose(u, 0.0)
    with pytest.raises(Infeasible):
        clf_qp_reference(integ(0, 10.0, 0.0, target=(0.0, 0.0)), k=2.0, box=BOX3)
    with pytest.raises(ValueError):
        clf_qp_reference(uni(0, 0.0, 0.0), box=BOX3)


def test_agent_step_far_neighbor_keeps_reference():
    me0 = integ(0, 0.0, 0.0, target=(1.0, 0.0))
    other0 = integ(1, 50.0, 0.0, target=(50.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    hist = snapshots([me0, other0], [me0, other0])
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(hist), trust, AgentConfig(box=BOX3))
    assert dec.fallback is Fallback.NONE
    assert len(dec.rows) == 1
    assert np.allclose(dec.u_safe, dec.u_ref)


def test_agent_step_bootstrap_defers_trust_but_constrains():
    me0 = integ(0, 0.0, 0.0, target=(5.0, 0.0))
    other0 = integ(1, 3.0, 0.0, target=(3.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    trust = fresh_trust(2, 0)
    # single snapshot: no motion estimate exists yet
    dec = agent_step(0, *observe(snapshots([me0, other0])), trust, AgentConfig(box=BOX3))
    assert len(dec.rows) == 1
    (rec,) = dec.pairs
    assert rec.alpha == 0.8
    assert rec.margin == 0.0 and rec.rho == 0.0
    assert rec.h == eval_barrier(me0, other0).h   # the new h, the old scores
    # the bootstrap row is built against the conservative speed-bound ball
    row_b = dec.rows[0].b
    dec2 = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), dec.pairs,
                      AgentConfig(box=BOX3))
    assert dec2.rows[0].b < row_b      # a real (stationary) estimate relaxes it
    assert dec2.pairs[0].margin > 0.0  # and the pair now has an observation


def test_agent_step_is_a_function_of_its_arguments():
    # the step reads the previous records and returns new ones: the same
    # arguments give equal decisions and the records passed in are untouched
    unc = AgentKind.UNCOOPERATIVE
    me = uni(0, 0.0, 0.0, psi=0.3, target=(5.0, 0.0))
    start = [integ(1, 1.8, 0.3, (-4.0, 0.0), unc), integ(2, -1.5, 1.2, (3.0, -2.0), unc)]
    moved = [integ(1, 1.75, 0.3, (-4.0, 0.0), unc), integ(2, -1.46, 1.18, (3.0, -2.0), unc)]
    cfg = AgentConfig(box=BOX3)
    first = agent_step(0, *observe(snapshots([me, *start])), fresh_trust(3, 0), cfg)
    pairs = first.pairs
    kept = tuple(tuple(rec) for rec in pairs)
    view = observe(snapshots([me, *start], [me, *moved]))
    dec1 = agent_step(0, *view, pairs, cfg)
    dec2 = agent_step(0, *view, pairs, cfg)
    assert dec1 == dec2
    assert tuple(tuple(rec) for rec in pairs) == kept
    # the rates did move, so the new records differ from the old ones
    assert [rec.alpha for rec in dec1.pairs] != [rec.alpha for rec in pairs]


def test_agent_step_trusts_stationary_neighbor_and_raises_alpha():
    me0 = integ(0, 0.0, 0.0, target=(5.0, 0.0))
    other0 = integ(1, 3.0, 0.0, target=(3.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    trust = fresh_trust(2, 0)
    cfg = AgentConfig(box=BOX3, trust=TrustParams(gamma_alpha=1.0))
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), trust, cfg)
    (ts,) = dec.pairs
    assert ts.rho_d > 0.9           # huge slack against a stationary neighbor
    assert ts.rho_theta == 0.5      # it sits at its own declared target
    assert ts.rho == pytest.approx(0.5 * (ts.rho_d - 0.5))
    assert ts.alpha == pytest.approx(0.8 + 0.05 * ts.rho)


def test_agent_step_fixed_alpha_never_adapts():
    me0 = integ(0, 0.0, 0.0, target=(5.0, 0.0))
    other0 = integ(1, 1.5, 0.0, target=(1.5, 0.0), kind=AgentKind.UNCOOPERATIVE)
    trust = fresh_trust(2, 0)
    cfg = AgentConfig(box=BOX3, fixed_alpha=True)
    hist = snapshots([me0, other0], [me0, other0])
    for _ in range(5):
        dec = agent_step(0, *observe(hist), trust, cfg)
        trust = dec.pairs
    assert trust[0].alpha == 0.8
    assert trust[0].rho != 0.0  # scores are still observed, just not applied
    expected = cbf_row(eval_barrier(me0, other0), velocity_map(me0),
                       np.zeros(2), 0.8, tag=(0, 1))
    assert dec.rows[0].b == pytest.approx(expected.b)


def test_agent_step_boundary_forces_emergency_stop():
    # neighbor exactly on the safety boundary: the rate floor is undefined
    me0 = integ(0, 0.0, 0.0, target=(5.0, 0.0))
    other0 = integ(1, 0.5, 0.0, target=(0.5, 0.0), kind=AgentKind.UNCOOPERATIVE)
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), trust,
                     AgentConfig(box=BOX3, rate_floor=True))
    assert dec.fallback is Fallback.EMERGENCY
    assert np.allclose(dec.u_safe, 0.0)


def test_agent_step_infeasible_rows_give_emergency_stop():
    # two neighbors squeezing from both sides with slammed-down rates
    me0 = integ(0, 0.0, 0.0, target=(5.0, 0.0))
    east0 = integ(1, 0.75, 0.0, target=(-5.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    west0 = integ(2, -0.75, 0.0, target=(5.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    east1 = integ(1, 0.70, 0.0, target=(-5.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    west1 = integ(2, -0.70, 0.0, target=(5.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    trust = fresh_trust(3, 0, alpha0=1e-4)
    dec = agent_step(0, *observe(snapshots([me0, east0, west0], [me0, east1, west1])),
                     trust, AgentConfig(box=BOX3, fixed_alpha=True))
    assert dec.fallback is Fallback.EMERGENCY
    assert np.allclose(dec.u_safe, 0.0)
    assert len(dec.rows) == 2


def test_rate_floor_receives_the_worst_case_margin(monkeypatch):
    # a moving neighbor has a ball of radius > 0, so its worst-case-point
    # margin lies below the center margin; the floor must receive the
    # worst-case one, since that is the row the QP enforces
    me0 = integ(0, 0.0, 0.0, target=(5.0, 0.0))
    other0 = integ(1, 2.0, 0.0, target=(-5.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    other1 = integ(1, 1.95, 0.02, target=(-5.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    hist = snapshots([me0, other0], [me0, other1])
    margins = []
    original = controller.alpha_rate_floor

    def recording(margin, *args):
        margins.append(margin)
        return original(margin, *args)

    monkeypatch.setattr(controller, "alpha_rate_floor", recording)
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(hist), trust, AgentConfig(box=BOX3))
    est = estimate_motion(*hist, 1)
    ev = eval_barrier(me0, other1)
    center_margin = dec.pairs[0].margin
    assert est.radius > 0.0
    worst_margin = center_margin - est.radius * float(np.linalg.norm(np.array(ev.grad_j)))
    assert margins == [pytest.approx(worst_margin, rel=1e-12)]
    assert margins[0] < center_margin


def test_agent_step_unicycle_reference_is_waypoint_tracking():
    me0 = uni(0, 0.0, 0.0, psi=0.0, target=(0.4, 0.0))
    other0 = integ(1, 30.0, 0.0, target=(30.0, 0.0), kind=AgentKind.UNCOOPERATIVE)
    trust = fresh_trust(2, 0)
    dec = agent_step(0, *observe(snapshots([me0, other0], [me0, other0])), trust,
                     AgentConfig(box=BOX3))
    assert np.allclose(dec.u_ref, [0.8, 0.0])  # k_s * dist, zero bearing error
    assert np.allclose(dec.u_safe, dec.u_ref)


def test_agent_step_contributions_match_leave_one_out_vertex_oracle():
    # each pair's compliance margin carries its contribution LP,
    #   margin = grad_j . a_hat + alpha h + contribution,
    # which must equal the vertex oracle over the start-of-step rows toward
    # the other three neighbors
    unc = AgentKind.UNCOOPERATIVE
    me = uni(0, 0.0, 0.0, psi=0.3, target=(5.0, 0.0))
    start = [integ(1, 2.86, 0.44, (-4.0, 0.0), unc), integ(2, -2.2, 1.98, (3.0, -2.0), unc),
             integ(3, 0.66, -2.64, (0.0, 4.0), unc), integ(4, 3.52, -3.3, (-2.0, 3.0), unc)]
    moved = [integ(1, 2.81, 0.44, (-4.0, 0.0), unc), integ(2, -2.16, 1.96, (3.0, -2.0), unc),
             integ(3, 0.66, -2.59, (0.0, 4.0), unc), integ(4, 3.49, -3.27, (-2.0, 3.0), unc)]
    hist = snapshots([me, *start], [me, *moved])
    trust = fresh_trust(5, 0)
    cfg = AgentConfig(box=BOX3)
    dec = agent_step(0, *observe(hist), trust, cfg)

    M = velocity_map(me, cfg.lookahead)
    evs, motion, rows = {}, {}, {}
    for other in moved:
        j = other.id
        evs[j] = eval_barrier(me, other, cfg.d_min, cfg.lookahead)
        motion[j] = estimate_motion(*hist, j)
        a_j, _ = worst_case_motion(motion[j], np.array(evs[j].grad_j))
        rows[j] = cbf_row(evs[j], M, a_j, 0.8, tag=(0, j))
    binding = 0
    for j in rows:
        c = np.array(evs[j].grad_i) @ M
        expected, _ = lp_vertex_oracle(c, [rows[k] for k in rows if k != j], BOX3)
        center_term = float(np.array(evs[j].grad_j) @ motion[j].center)
        got = dec.pairs[j - 1].margin - center_term - 0.8 * evs[j].h
        assert got == pytest.approx(expected, abs=1e-9)
        binding += expected < lp_vertex_oracle(c, [], BOX3)[0] - 1e-6
    assert binding == 4   # the other pairs' rows really cut the box
