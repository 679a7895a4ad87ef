"""Trust pipeline: worst-case motion, contribution LPs, scores, rate updates."""

import math

import numpy as np
import pytest

from trustcbf.barriers import cbf_row, eval_barrier, velocity_map
from trustcbf.schema import Box
from trustcbf.solvers import FEAS_TOL, Infeasible, _box_polygon, _clip, solve_lp
from trustcbf.trust import (BoundaryReached, TrustParams, alpha_rate_floor, combine_trust, direction_trust,
                            distance_trust, max_own_contribution, update_alpha,
                            worst_case_motion)
from trustcbf.world import AgentState, Model, MotionEstimate

from conftest import lp_values_leave_one_out, shifted

BOX3 = Box((-3.0, -3.0), (3.0, 3.0))


def integ(i, x, y):
    return AgentState(id=i, model=Model.SINGLE_INTEGRATOR, px=x, py=y)


def test_worst_case_motion_closed_form():
    est = MotionEstimate(center=np.array([1.0, 2.0]), radius=0.5)
    g = np.array([3.0, 4.0])
    v, val = worst_case_motion(est, g)
    assert np.allclose(v, [1.0 - 0.5 * 0.6, 2.0 - 0.5 * 0.8])
    assert val == pytest.approx(float(g @ est.center) - 0.5 * 5.0)
    assert val == pytest.approx(float(g @ v))


def test_worst_case_motion_zero_gradient_returns_center():
    est = MotionEstimate(center=np.array([1.0, -1.0]), radius=2.0)
    v, val = worst_case_motion(est, np.zeros(2))
    assert np.allclose(v, est.center)
    assert val == 0.0


def test_worst_case_motion_beats_sampling():
    rng = np.random.default_rng(11)
    for _ in range(100):
        est = MotionEstimate(center=rng.normal(size=2),
                             radius=float(rng.uniform(0.0, 2.0)))
        g = rng.normal(size=2)
        _, val = worst_case_motion(est, g)
        ang = rng.uniform(0.0, 2.0 * math.pi, 2000)
        rad = est.radius * np.sqrt(rng.uniform(0.0, 1.0, 2000))
        pts = est.center + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        sampled = float(np.min(pts @ g))
        assert val <= sampled + 1e-9


def test_max_own_contribution_unconstrained_is_box_corner():
    # two agents only: no third-party rows, so the LP maxes gi . u over the box
    me = integ(0, 0.0, 0.0)
    ev = eval_barrier(me, integ(1, 2.0, 0.0), d_min=0.5)
    row_01 = cbf_row(ev, velocity_map(me), (0.0, 0.0), 0.8)
    (val,), _ = max_own_contribution([row_01], BOX3)
    # gi = (-4, 0): best contribution is u_x = -3
    assert val == pytest.approx(12.0)


def test_max_own_contribution_respects_other_pairs():
    # a third agent east of the observer caps how hard it may push east
    me = integ(0, 0.0, 0.0)
    M = velocity_map(me)
    ev_02 = eval_barrier(me, integ(2, 1.2, 0.0), d_min=0.5)
    row_02 = cbf_row(ev_02, M, np.zeros(2), 0.8)
    row_01 = cbf_row(eval_barrier(me, integ(1, -2.0, 0.0), d_min=0.5), M, np.zeros(2), 0.8)
    (val, _), _ = max_own_contribution([row_01, row_02], BOX3)
    # toward 1 the payoff is gi = (4, 0); the (0,2) row demands
    # -2.4 u_x >= -0.8 * 1.19, i.e. u_x <= 0.39666...
    assert val == pytest.approx(4.0 * (0.8 * 1.19 / 2.4), abs=1e-9)


def _leave_one_out_rows(rng):
    """0-12 rows: ordinary ones, near-parallel copies, rows that empty the
    polygon built so far (with gaps inside and outside the FEAS_TOL band),
    rows through a box corner that hold on the whole box, and vacuous or
    demanding zero-normal rows."""
    rows = []
    for _ in range(int(rng.integers(0, 13))):
        kind = rng.choice(["plain", "parallel", "cut", "corner", "zero"],
                          p=[0.45, 0.2, 0.2, 0.05, 0.1])
        usable = [r for r in rows if math.hypot(r[0], r[1]) > 1e-6]
        if kind in ("parallel", "cut") and not usable:
            kind = "plain"
        if kind == "plain":
            a = rng.normal(size=2) * rng.uniform(0.1, 3.0)
            b = rng.uniform(-8.0, 1.0)
        elif kind == "parallel":
            base = usable[int(rng.integers(0, len(usable)))]
            a = np.array(base[:2]) + rng.normal(size=2) * 10.0 ** rng.uniform(-12.0, -6.0)
            b = base[2] + rng.normal() * 10.0 ** rng.uniform(-12.0, -6.0)
        elif kind == "cut":
            # faces an earlier row with a gap: empty for gap > 0 (the
            # relaxed retry rescues gaps below 2 FEAS_TOL), a sliver below 0
            base = usable[int(rng.integers(0, len(usable)))]
            gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, 0.0)
            a = -np.array(base[:2])
            b = -base[2] + gap
        elif kind == "corner":
            # a . u >= a . c for the corner c: exactly tight at c, slack
            # everywhere else in the box
            sx, sy = rng.choice([-1.0, 1.0], size=2)
            a = -np.array([sx, sy]) * rng.uniform(0.1, 3.0, size=2)
            b = float(a[0]) * (3.0 * sx) + float(a[1]) * (3.0 * sy)
        else:
            a = rng.choice([0.0, 1e-13]) * np.array([1.0, -1.0])
            b = rng.choice([-1.0, 0.0, FEAS_TOL, 0.5] if rng.uniform() < 0.4 else [-1.0, 0.0])
        rows.append((*a, b))
    return rows


def test_max_own_contribution_matches_leave_one_out_solve_lp():
    # entry k solves solve_lp(a_k, rows[:k] + rows[k+1:], box), the LP it
    # replaces: None exactly where that raises Infeasible.  Where the other
    # rows are empty at the exact tolerance, both retry with the rows relaxed
    # by FEAS_TOL, and the tolerance that decides LP k is the same for both.
    #  - suffix_clip: P = box ∩ rows is empty at that tolerance, so LP k runs
    #    solve_lp's own clip sequence and must match it bitwise;
    #  - one_polygon_exact: P is nonempty, and entry k is the best vertex of P.
    #    That equals solve_lp only in exact arithmetic (sliver polygons differ
    #    by a few 1e-8), so the value must lie in the independent vertex-oracle
    #    bracket: the oracle's values on the other rows relaxed by FEAS_TOL
    #    and tightened by it (``lp_values_leave_one_out`` reads both for every
    #    LP of the list at once);
    #  - one_polygon_relaxed: the same on the relaxed P, within 4 FEAS_TOL of
    #    solve_lp (the oracle bracket misses solve_lp itself on some of these
    #    near-parallel cases).
    # certified counts the lists whose LPs outside a certified empty triple
    # were declared empty without a clip.
    rng = np.random.default_rng(31)
    seen = {"one_polygon_exact": 0, "one_polygon_relaxed": 0, "suffix_clip": 0,
            "infeasible": 0, "emptied_prefix": 0, "vacuous_zero": 0, "demanding_zero": 0,
            "certified": 0}
    box_poly = _box_polygon(BOX3)
    for _ in range(1500):
        rows = _leave_one_out_rows(rng)
        got, chain = max_own_contribution(rows, BOX3)
        assert len(got) == len(rows)
        seen["certified"] += chain.cert is not None
        P = {relax: _clip(rows, box_poly, relax) for relax in (0.0, FEAS_TOL)}
        upper = lower = None
        for k, row in enumerate(rows):
            others = rows[:k] + rows[k + 1:]
            try:
                expected, _ = solve_lp(np.array(row[:2]), others, BOX3)
            except Infeasible:
                assert got[k] is None, (k, rows)
                seen["infeasible"] += 1
                continue
            assert got[k] is not None, (k, rows)
            relax = 0.0 if _clip(others, box_poly, 0.0) else FEAS_TOL
            if not P[relax]:
                seen["suffix_clip"] += 1
                assert got[k].hex() == expected.hex(), (k, rows)
            elif relax == 0.0:
                seen["one_polygon_exact"] += 1
                if upper is None:
                    upper = lp_values_leave_one_out(shifted(rows, FEAS_TOL), BOX3)
                    lower = lp_values_leave_one_out(shifted(rows, -FEAS_TOL), BOX3, tol=0.0)
                eps = 1e-9 * (1.0 + abs(got[k]))
                assert got[k] <= upper[k] + eps, (k, rows)
                assert lower[k] is None or got[k] >= lower[k] - eps, (k, rows)
            else:
                seen["one_polygon_relaxed"] += 1
                assert abs(got[k] - expected) <= 4.0 * FEAS_TOL * (1.0 + abs(expected)), (k, rows)
        for m in range(1, len(rows)):
            if not _clip(rows[:m], box_poly, 0.0):
                seen["emptied_prefix"] += m < len(rows) - 1
                break
        for a0, a1, b in rows:
            if math.hypot(a0, a1) < 1e-12:
                seen["demanding_zero" if b > FEAS_TOL else "vacuous_zero"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def test_distance_trust_clamps_negative_margins():
    assert distance_trust(-5.0, beta=1.0) == 0.0
    assert distance_trust(0.0) == 0.0
    assert distance_trust(2.0, beta=1.0) == pytest.approx(math.tanh(2.0))
    assert distance_trust(1.0, beta=2.0) == pytest.approx(math.tanh(2.0))
    assert 0.0 <= distance_trust(1e9) <= 1.0  # saturates to 1.0 in float64


def test_direction_trust_reference_cases():
    s_hat = np.array([1.0, 0.0])
    # motion deflected exactly as much as the goal requires: ratio 1 -> tanh 2
    v = np.array([1.0, 1.0])
    assert direction_trust(v, v, s_hat) == pytest.approx(math.tanh(2.0))
    # motion further from the safe direction than the goal requires: low score
    n_hat = np.array([1.0, 0.0])
    a_bad = np.array([-1.0, 0.0])
    assert direction_trust(n_hat, a_bad, s_hat) == pytest.approx(
        math.tanh(2.0 * 0.0 / math.pi), abs=1e-12)
    # stationary prediction scores as if orthogonal
    a_still = np.zeros(2)
    n45 = np.array([1.0, 1.0])
    expect = math.tanh(2.0 * (math.pi / 4.0) / (math.pi / 2.0))
    assert direction_trust(n45, a_still, s_hat) == pytest.approx(expect)
    # unknown goal direction: neutral
    assert direction_trust(np.zeros(2), v, s_hat) == 0.5


def test_direction_trust_saturates_at_exactly_one():
    # theta_a ~ 0 is floored, so the ratio is pi / THETA_FLOOR; tanh rounds to
    # exactly 1.0 for every ratio from 9.531 on, and no cap is needed
    s_hat = np.array([1.0, 0.0])
    n_hat = np.array([-1.0, 0.0])          # theta_n = pi
    a_tiny = np.array([1.0, 1e-9])          # theta_a ~ 0, floored
    assert direction_trust(n_hat, a_tiny, s_hat) == 1.0
    assert math.tanh(2.0 * 9.531) == 1.0 and math.tanh(2.0 * 9.53) < 1.0


def test_combine_trust_half_direction_score_is_linear():
    # rho_theta = 0.5 weighs both branches equally: rho = 0.5 (rho_d - rho_bar)
    for rho_d in (0.0, 0.3, 0.5, 0.7, 1.0):
        assert combine_trust(rho_d, 0.5) == pytest.approx(0.5 * (rho_d - 0.5))


def test_combine_trust_sign_tracks_margin_side():
    assert combine_trust(0.9, 0.9) > 0.0
    assert combine_trust(0.1, 0.9) < 0.0
    assert combine_trust(0.5, 0.3) == 0.0
    # direction score weighs growth above the threshold, decay below it
    assert combine_trust(0.9, 0.95) > combine_trust(0.9, 0.2)
    assert combine_trust(0.1, 0.95) > combine_trust(0.1, 0.2)


def test_combine_trust_range_fuzz():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        rho = combine_trust(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                            rho_bar_d=float(rng.uniform(0, 1)),
                            k_blend=float(rng.uniform(1, 200)))
        assert -1.0 <= rho <= 1.0


def test_alpha_rate_and_floor_formulas():
    # unclamped and unfloored, so the gain alone sets the step
    assert update_alpha(0.8, 0.3, 0.05, -math.inf,
                        TrustParams(gamma_alpha=2.0)) == pytest.approx(0.83)
    f = alpha_rate_floor(margin=0.4, alpha=0.8, h=0.5, B=0.2, L_h=2.0,
                         L_hdot=2.0, L_F=1.0)
    assert f == pytest.approx(-(0.4 + 2.0 * 1.0 * 0.04 + 0.8 * 2.0 * 0.2) / 0.5)
    with pytest.raises(BoundaryReached):
        alpha_rate_floor(0.1, 0.8, 1e-7, 0.1, 2.0, 2.0, 1.0)


def test_update_alpha_step_and_clamps():
    p = TrustParams(gamma_alpha=1.0, alpha_min=0.01, alpha_max=2.0)
    assert update_alpha(0.8, rho=0.5, dt=0.05, floor=-math.inf, params=p) == pytest.approx(0.825)
    assert update_alpha(0.02, rho=-1.0, dt=0.05, floor=-math.inf, params=p) == p.alpha_min
    assert update_alpha(1.99, rho=1.0, dt=0.05, floor=-math.inf,
                        params=TrustParams(gamma_alpha=10.0, alpha_max=2.0)) == 2.0


def test_update_alpha_floor_overrides_trust_rate():
    p = TrustParams(gamma_alpha=100.0)
    alpha = update_alpha(0.8, rho=-1.0, dt=0.05, floor=-0.2, params=p)
    # commanded -100, floor -0.2: the floor wins
    assert alpha == pytest.approx(0.8 - 0.05 * 0.2)
