"""State records, snapshots, and the finite-difference motion estimator."""

import dataclasses
import math

import numpy as np
import pytest

from trustcbf.world import (ESTIMATE_RADIUS_FACTOR, AgentState, Model,
                            MotionEstimate, WorldSnapshot, bootstrap_estimate,
                            estimate_misses, estimate_motion, estimate_positions,
                            wrap_angle)


def make_agent(i=0, x=0.0, y=0.0, psi=0.0, model=Model.UNICYCLE):
    return AgentState(id=i, model=model, px=x, py=y, psi=psi)


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
    # every number field, with nan, inf and -inf; the message names the field
    for bad in (math.nan, math.inf, -math.inf):
        for name, changes in (("px", {"x": bad}), ("py", {"y": bad}), ("psi", {"psi": bad})):
            with pytest.raises(ValueError, match=rf"^agent 0: non-finite {name}$"):
                make_agent(**changes)


def test_agent_state_is_frozen():
    # a state holds what an Euler step reads and writes; kind and goal are
    # the agent's spec
    assert [f.name for f in dataclasses.fields(AgentState)] == ["id", "model", "px", "py", "psi"]
    a = make_agent(x=1.0)
    for name in ("px", "psi"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, 0.0)
    assert a.px == 1.0 and a.psi == 0.0


@pytest.mark.parametrize("psi", [math.pi, -0.0, 0.0, 1e-300, 2.5,
                                 math.nextafter(-math.pi, 0.0)])
def test_agent_state_keeps_a_wrapped_float_heading_bitwise(psi):
    a = make_agent(psi=psi)
    assert type(a.psi) is float and a.psi.hex() == psi.hex()
    assert a.psi.hex() == wrap_angle(psi).hex()


def test_agent_state_maps_minus_pi_to_pi():
    assert make_agent(psi=-math.pi).psi == math.pi


@pytest.mark.parametrize("psi", [3, -1, np.float64(0.25), np.float32(-2.0), np.int64(7)])
def test_agent_state_heading_becomes_a_float(psi):
    a = make_agent(psi=psi)
    assert type(a.psi) is float
    assert a.psi == wrap_angle(float(psi))


def test_agent_state_stores_plain_floats():
    # ints and numpy scalars are converted; float values are kept as they are
    a = make_agent(x=1, y=np.float64(2.0), psi=np.float32(0.5))
    for v in (a.px, a.py, a.psi):
        assert type(v) is float
    assert (a.px, a.py, a.psi) == (1.0, 2.0, float(np.float32(0.5)))
    x = 1.5
    b = make_agent(x=x, y=2.0, psi=7.0)
    assert b.px is x
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
    # the unicycle turns 1.5 rad in place over the first step of 0.5 s, so
    # the ball at step 1 has center 0 and radius 0.1 * 3.0; a next rate
    # exactly radius + 1e-9 from the center is inside the ball, one ulp
    # beyond it is a miss
    dt = 0.5
    times, psi = [0.0, dt, 2 * dt], [0.0, 1.5, 1.5]
    edge = ESTIMATE_RADIUS_FACTOR * 3.0 + 1e-9
    for rate, misses in ((edge, []), (math.nextafter(edge, math.inf), [1])):
        for px, py in (([0.0, 0.0, rate * dt], [0.0] * 3), ([0.0] * 3, [0.0, 0.0, -rate * dt])):
            assert estimate_misses(times, px, py, psi, Model.UNICYCLE, dt) == misses


def test_estimate_misses_counts_every_estimate_but_the_prior():
    # step 0 had only the prior, which is never judged however far the
    # agent moves: a 50 m jump over it is no miss, and neither is the next
    # step, which keeps that rate.  A path that leaves its ball at every
    # step is judged at steps 1 ... K-2 only: the last record has no next
    # motion.  A path that stays inside its ball has no miss.
    dt = 0.1
    times = [dt * k for k in range(5)]
    zero = [0.0] * 5
    integrator = Model.SINGLE_INTEGRATOR
    assert estimate_misses(times[:2], [0.0, 50.0], zero[:2], zero[:2], integrator, dt) == []
    assert estimate_misses(times[:3], [0.0, 50.0, 100.0], zero[:3], zero[:3],
                           integrator, dt) == []
    # the rate doubles at every step: 1, 2, 4, 8 m/s, each far outside the
    # previous step's ball of radius 0.1 * rate
    accelerating = [0.0, 0.1, 0.3, 0.7, 1.5]
    assert estimate_misses(times, accelerating, zero, zero, integrator, dt) == [1, 2, 3]
    assert estimate_misses(times, zero, accelerating, zero, integrator, dt) == [1, 2, 3]
    assert estimate_misses(times[:4], accelerating[:4], zero[:4], zero[:4],
                           integrator, dt) == [1, 2]
    # 1 m/s along y, then 1.05 m/s: 0.05 from the center of a ball of radius 0.1
    steady = [0.0, 0.1, 0.205]
    assert estimate_misses(times[:3], zero[:3], steady, zero[:3], integrator, dt) == []


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
