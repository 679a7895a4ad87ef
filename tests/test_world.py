"""State records, snapshots, and the finite-difference motion estimator."""

import math

import numpy as np
import pytest

from trustcbf.world import (ESTIMATE_RADIUS_FACTOR, AgentKind, AgentState, Model,
                            MotionEstimate, WorldSnapshot, bootstrap_estimate,
                            estimate_misses, estimate_motion, estimate_positions,
                            wrap_angle)


def make_agent(i=0, x=0.0, y=0.0, psi=0.0, model=Model.UNICYCLE,
               kind=AgentKind.INTACT, target=None):
    return AgentState(id=i, kind=kind, model=model, px=x, py=y, psi=psi, target=target)


def test_wrap_angle_reference_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(2.0 * math.pi)) < 1e-15
    assert abs(wrap_angle(3.0 * math.pi) - math.pi) < 1e-12
    assert abs(wrap_angle(-0.5) + 0.5) < 1e-15


def test_wrap_angle_fuzz_range():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50.0, 50.0, 2000):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # same angle modulo 2 pi
        assert abs(math.sin(w) - math.sin(a)) < 1e-9
        assert abs(math.cos(w) - math.cos(a)) < 1e-9


def test_agent_state_normalizes_heading():
    a = make_agent(psi=3.0 * math.pi)
    assert abs(a.psi - math.pi) < 1e-12


def test_agent_state_rejects_non_finite():
    with pytest.raises(ValueError):
        make_agent(x=math.nan)
    with pytest.raises(ValueError):
        make_agent(target=(math.inf, 0.0))


def test_agent_state_stores_plain_floats():
    # ints, numpy scalars and lists are converted; float values and float
    # pairs are kept as they are
    a = make_agent(x=1, y=np.float64(2.0), psi=np.float32(0.5), target=[3, 4.0])
    for v in (a.px, a.py, a.psi, *a.target):
        assert type(v) is float
    assert (a.px, a.py, a.psi) == (1.0, 2.0, float(np.float32(0.5)))
    assert a.target == (3.0, 4.0) and type(a.target) is tuple
    target = (3.0, 4.0)
    b = make_agent(x=1.0, y=2.0, psi=7.0, target=target)
    assert b.target is target
    assert b.psi == wrap_angle(7.0)


def test_estimate_motion_exact_finite_difference():
    a0 = make_agent(i=0, x=0.0, y=0.0, psi=0.1)
    a1 = make_agent(i=0, x=0.2, y=-0.1, psi=0.3)
    s0 = WorldSnapshot(time=0.0, agents=(a0,))
    s1 = WorldSnapshot(time=0.05, agents=(a1,))
    est = estimate_motion(s0, s1, 0)
    assert len(est.center) == 2
    assert np.allclose(est.center, [0.2 / 0.05, -0.1 / 0.05])
    # the radius is 10% of the full-state rate, heading included: a valid
    # (conservative) bound on the position rate
    full = [0.2 / 0.05, -0.1 / 0.05, 0.2 / 0.05]
    assert est.radius == pytest.approx(ESTIMATE_RADIUS_FACTOR * float(np.linalg.norm(full)))
    assert est.radius > ESTIMATE_RADIUS_FACTOR * float(np.linalg.norm(est.center))


def test_estimate_motion_wraps_heading_difference():
    # heading crosses the pi seam; a raw difference would report a wild spin
    a0 = make_agent(psi=3.0)
    a1 = make_agent(psi=-3.0)
    s0 = WorldSnapshot(0.0, (a0,))
    s1 = WorldSnapshot(0.1, (a1,))
    est = estimate_motion(s0, s1, 0)
    assert est.radius == pytest.approx(ESTIMATE_RADIUS_FACTOR * (2.0 * math.pi - 6.0) / 0.1)


def test_estimate_motion_requires_two_ordered_snapshots():
    s0 = WorldSnapshot(0.0, (make_agent(),))
    s1 = WorldSnapshot(0.05, (make_agent(),))
    for older, newer in ((s0, WorldSnapshot(0.0, (make_agent(),))), (s1, s0)):
        with pytest.raises(ValueError):
            estimate_motion(older, newer, 0)
        with pytest.raises(ValueError):
            estimate_positions(older, newer, [0], 3.0)


def test_bootstrap_estimate_is_conservative_ball():
    est = bootstrap_estimate(v_max=2.5)
    assert np.allclose(est.center, 0.0)
    assert len(est.center) == 2
    assert est.radius == 2.5
    assert est.bootstrap


def test_estimate_positions_once_for_the_listed_agents():
    a = [make_agent(0, 0.0, 0.0, psi=0.2), make_agent(1, 1.0, 0.0, model=Model.SINGLE_INTEGRATOR),
         make_agent(2, 2.0, 1.0, model=Model.SINGLE_INTEGRATOR)]
    b = [make_agent(0, 0.1, 0.0, psi=0.3), make_agent(1, 1.0, 0.05, model=Model.SINGLE_INTEGRATOR),
         make_agent(2, 2.0, 1.0, model=Model.SINGLE_INTEGRATOR)]
    s0, s1 = WorldSnapshot(0.0, tuple(a)), WorldSnapshot(0.05, tuple(b))
    # no previous snapshot: every listed agent gets the flagged speed-bound prior
    first = estimate_positions(None, s0, [0, 2], 2.5)
    assert sorted(first) == [0, 2]
    for j in (0, 2):
        assert first[j] == MotionEstimate(center=(0.0, 0.0), radius=2.5, bootstrap=True)
    est = estimate_positions(s0, s1, [0, 2], 2.5)
    assert sorted(est) == [0, 2]
    for j in (0, 2):
        assert est[j] == estimate_motion(s0, s1, j)
        assert not est[j].bootstrap


def test_estimate_misses_boundary_is_radius_plus_1e_9():
    # a rate exactly radius + 1e-9 from the center is inside the ball; one
    # ulp beyond it is a miss
    dt = 0.5
    est = {0: MotionEstimate(center=(0.0, 0.0), radius=0.3)}
    edge = 0.3 + 1e-9
    before = [make_agent(0, 0.0, 0.0)]
    for rate, misses in ((edge, 0), (math.nextafter(edge, math.inf), 1)):
        for after in ([make_agent(0, rate * dt, 0.0)], [make_agent(0, 0.0, -rate * dt)]):
            assert estimate_misses(est, before, after, dt) == misses


def test_estimate_misses_counts_every_estimate_but_the_prior():
    # agent 1 leaves its ball, agent 2 stays inside; agent 0 keeps only the
    # prior, which is never judged however far the agent moves
    s0 = WorldSnapshot(0.0, tuple(make_agent(i, float(i), 0.0) for i in range(3)))
    est = estimate_positions(None, s0, range(3), 1.0)
    est[1] = MotionEstimate(center=(1.0, 0.0), radius=0.1)
    est[2] = MotionEstimate(center=(0.0, 1.0), radius=0.1)
    after = (make_agent(0, 50.0, 0.0), make_agent(1, 1.0, 0.0), make_agent(2, 2.0, 0.1))
    assert estimate_misses(est, s0.agents, after, 0.1) == 1
    assert estimate_misses({0: est[0], 2: est[2]}, s0.agents, after, 0.1) == 0


def test_estimate_motion_fuzz_matches_difference_quotient():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x0, y0 = rng.uniform(-5, 5, 2)
        x1, y1 = rng.uniform(-5, 5, 2)
        dt = float(rng.uniform(0.01, 0.5))
        a0 = make_agent(x=x0, y=y0, model=Model.SINGLE_INTEGRATOR)
        a1 = make_agent(x=x1, y=y1, model=Model.SINGLE_INTEGRATOR)
        est = estimate_motion(WorldSnapshot(0.0, (a0,)), WorldSnapshot(dt, (a1,)), 0)
        v = np.array([(x1 - x0) / dt, (y1 - y0) / dt])
        assert np.allclose(est.center, v, rtol=0, atol=1e-12)
        assert est.radius == pytest.approx(0.1 * float(np.linalg.norm(v)))
