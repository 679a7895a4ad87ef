"""Pair barrier geometry, look-ahead map, goal function, and constraint rows."""

import math

import numpy as np
import pytest

from trustcbf.barriers import (cbf_row, clf_value, eval_barrier,
                               lookahead_point, velocity_map)
from trustcbf.dynamics import ModelMismatch
from trustcbf.trust import worst_case_motion
from trustcbf.world import (AgentKind, AgentState, Model, WorldSnapshot,
                            estimate_motion)


def uni(i=0, x=0.0, y=0.0, psi=0.0, target=None):
    return AgentState(id=i, kind=AgentKind.INTACT, model=Model.UNICYCLE,
                      px=x, py=y, psi=psi, target=target)


def integ(i=0, x=0.0, y=0.0, target=None, kind=AgentKind.UNCOOPERATIVE):
    return AgentState(id=i, kind=kind, model=Model.SINGLE_INTEGRATOR,
                      px=x, py=y, target=target)


def test_lookahead_point_geometry():
    p, M = lookahead_point(uni(x=1.0, y=2.0, psi=0.0), lookahead=0.1)
    assert np.allclose(p, [1.1, 2.0])
    assert np.allclose(M, [[1.0, 0.0], [0.0, 0.1]])
    p, M = lookahead_point(uni(psi=math.pi / 2.0), lookahead=0.2)
    assert np.allclose(p, [0.0, 0.2], atol=1e-15)
    assert np.allclose(M, [[0.0, -0.2], [1.0, 0.0]], atol=1e-15)


def test_lookahead_map_never_singular():
    rng = np.random.default_rng(8)
    for psi in rng.uniform(-math.pi, math.pi, 200):
        _, M = lookahead_point(uni(psi=float(psi)), lookahead=0.1)
        assert np.linalg.det(M) == pytest.approx(0.1)


def test_lookahead_requires_unicycle_and_positive_distance():
    with pytest.raises(ModelMismatch):
        lookahead_point(integ())
    with pytest.raises(ValueError):
        lookahead_point(uni(), lookahead=0.0)


def test_velocity_map_identity_for_integrators():
    assert np.allclose(velocity_map(integ()), np.eye(2))


def test_eval_barrier_exact_values():
    # integrator observer: barrier point equals the position
    ev = eval_barrier(integ(x=0.0, y=0.0), integ(i=1, x=2.0, y=0.0), d_min=0.5)
    assert ev.h == pytest.approx(4.0 - 0.25)
    assert np.allclose(np.array(ev.grad_i), [-4.0, 0.0])
    assert np.allclose(np.array(ev.grad_j), [4.0, 0.0])
    # unicycle observer: barrier point shifts by the look-ahead
    ev = eval_barrier(uni(psi=0.0), integ(i=1, x=2.0, y=0.0),
                      d_min=0.5, lookahead=0.1)
    assert ev.h == pytest.approx(1.9 ** 2 - 0.25)
    assert np.allclose(np.array(ev.grad_i), [-3.8, 0.0])


def test_gradients_are_equal_and_opposite():
    rng = np.random.default_rng(9)
    for _ in range(100):
        xi, yi, xj, yj = rng.uniform(-5, 5, 4)
        ev = eval_barrier(uni(x=xi, y=yi, psi=float(rng.uniform(-3, 3))),
                          integ(i=1, x=xj, y=yj))
        assert np.allclose(np.array(ev.grad_i) + np.array(ev.grad_j), 0.0, atol=0.0)


def test_eval_barrier_validates_d_min():
    with pytest.raises(ValueError):
        eval_barrier(integ(), integ(i=1, x=1.0), d_min=0.0)


def test_clf_value_exact():
    V, g = clf_value(integ(x=1.0, y=2.0), target=(4.0, 6.0))
    assert V == pytest.approx(25.0)
    assert np.allclose(g, [-6.0, -8.0])
    with pytest.raises(ValueError):
        clf_value(integ())


def test_barrier_gradient_matches_central_differences():
    # perturbing either agent's position must reproduce grad_i / grad_j
    rng = np.random.default_rng(10)
    eps = 1e-6
    for _ in range(100):
        xi, yi, xj, yj = rng.uniform(-4, 4, 4)
        if (xi - xj) ** 2 + (yi - yj) ** 2 < 0.1:
            continue
        a = integ(x=xi, y=yi)
        b = integ(i=1, x=xj, y=yj)
        ev = eval_barrier(a, b)
        for k, grad in ((0, np.array(ev.grad_i)), (1, np.array(ev.grad_j))):
            for axis in range(2):
                def h_of(d, k=k, axis=axis):
                    dx = [0.0, 0.0]
                    dx[axis] = d
                    aa = integ(x=xi + dx[0] * (k == 0), y=yi + dx[1] * (k == 0))
                    bb = integ(i=1, x=xj + dx[0] * (k == 1), y=yj + dx[1] * (k == 1))
                    return eval_barrier(aa, bb).h
                fd = (h_of(eps) - h_of(-eps)) / (2.0 * eps)
                assert fd == pytest.approx(grad[axis], rel=1e-6, abs=1e-8)


def test_cbf_row_coefficients_by_hand():
    ev = eval_barrier(uni(psi=0.0), integ(i=1, x=2.0, y=1.0), lookahead=0.1)
    M = velocity_map(uni(psi=0.0), lookahead=0.1)
    worst = np.array([0.3, -0.2])
    alpha = 0.8
    row = cbf_row(ev, M, worst, alpha)
    assert np.allclose(row[:2], np.array(ev.grad_i) @ M)
    assert row[2] == pytest.approx(-alpha * ev.h - float(np.array(ev.grad_j) @ worst))


def test_cbf_row_satisfaction_controls_barrier_rate():
    # a command exactly on the row boundary drives h_dot to -alpha h when the
    # neighbor moves exactly at its predicted worst case
    ev = eval_barrier(integ(), integ(i=1, x=1.2, y=0.4))
    worst = np.array([-0.5, 0.3])
    alpha = 0.7
    row = cbf_row(ev, np.eye(2), worst, alpha)
    a = np.array(row[:2])
    u = a * (row[2] / float(a @ a))  # tight point
    h_dot = float(np.array(ev.grad_i) @ u) + float(np.array(ev.grad_j) @ worst)
    assert h_dot == pytest.approx(-alpha * ev.h)


def test_float_geometry_matches_numpy_formulas():
    # the per-neighbor pass works on float tuples; recompute each quantity
    # with numpy 2-vectors and require agreement to 1e-12 relative
    rng = np.random.default_rng(12)
    close = dict(rel=1e-12, abs=1e-12)
    for _ in range(500):
        models = rng.choice([Model.UNICYCLE, Model.SINGLE_INTEGRATOR], size=2)
        lookahead = float(rng.uniform(0.05, 0.5))
        d_min = float(rng.uniform(0.1, 1.0))
        dt = float(rng.uniform(0.01, 0.2))
        pose0 = rng.uniform(-5.0, 5.0, (2, 3))
        pose1 = pose0 + rng.normal(scale=0.2, size=(2, 3))
        old, new = (tuple(AgentState(id=k, kind=AgentKind.INTACT, model=models[k],
                                     px=pose[k, 0], py=pose[k, 1], psi=pose[k, 2])
                          for k in range(2)) for pose in (pose0, pose1))
        me, other = new

        ev = eval_barrier(me, other, d_min, lookahead)
        if me.model is Model.UNICYCLE:
            heading = np.array([math.cos(me.psi), math.sin(me.psi)])
            p_i = np.array([me.px, me.py]) + lookahead * heading
            M = np.array([[heading[0], -lookahead * heading[1]],
                          [heading[1], lookahead * heading[0]]])
        else:
            p_i = np.array([me.px, me.py])
            M = np.eye(2)
        delta = p_i - np.array([other.px, other.py])
        assert ev.h == pytest.approx(float(delta @ delta) - d_min ** 2, **close)
        assert ev.grad_i == pytest.approx(tuple(2.0 * delta), **close)
        assert ev.grad_j == pytest.approx(tuple(-2.0 * delta), **close)

        est = estimate_motion(WorldSnapshot(0.0, old), WorldSnapshot(dt, new), 1)
        state = [np.array([a.px, a.py, a.psi]) for a in (old[1], new[1])]
        diff = state[1] - state[0]
        diff[2] = (diff[2] + math.pi) % (2.0 * math.pi) - math.pi
        rate = diff / dt if other.model is Model.UNICYCLE else diff[:2] / dt
        assert est.center == pytest.approx(tuple(rate[:2]), **close)
        assert est.radius == pytest.approx(0.1 * float(np.linalg.norm(rate)), **close)

        g = np.array(ev.grad_j)
        c = np.array(est.center)
        worst, val = worst_case_motion(est, ev.grad_j)
        gn = float(np.linalg.norm(g))
        assert worst == pytest.approx(tuple(c - est.radius * g / gn), **close)
        assert val == pytest.approx(float(g @ c) - est.radius * gn, **close)

        alpha = float(rng.uniform(0.01, 2.0))
        row = cbf_row(ev, velocity_map(me, lookahead), worst, alpha)
        assert row[:2] == pytest.approx(tuple(np.array(ev.grad_i) @ M), **close)
        assert row[2] == pytest.approx(-alpha * ev.h - float(g @ np.array(worst)), **close)
