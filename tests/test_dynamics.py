"""Agent models, Euler stepping, and reference motion."""

import math
import warnings

import numpy as np
import pytest

from trustcbf.dynamics import (DEFAULT_BOX, ModelMismatch, euler_step, nominal_direction,
                               nominal_trajectory, track_reference)
from trustcbf.schema import Box
from trustcbf.world import AgentState, Model, wrap_angle


def uni(x=0.0, y=0.0, psi=0.0):
    return AgentState(id=0, model=Model.UNICYCLE, px=x, py=y, psi=psi)


def integ(x=0.0, y=0.0):
    return AgentState(id=0, model=Model.SINGLE_INTEGRATOR, px=x, py=y)


def test_box_must_contain_origin():
    with pytest.raises(ValueError):
        Box((0.5, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Box((-1.0,), (-0.5,))
    with pytest.raises(ValueError):
        Box((-1.0, -1.0), (1.0,))


def test_box_clip_and_contains():
    b = Box((-1.0, -2.0), (1.0, 2.0))
    assert np.allclose(b.clip([5.0, -5.0]), [1.0, -2.0])
    assert b.contains(np.array([1.0, 2.0]))
    assert not b.contains(np.array([1.1, 0.0]))
    with pytest.raises(ValueError):
        Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))


def test_euler_step_unicycle_axis_headings():
    # (v cos psi, v sin psi, omega) dt at psi = 0 and psi = pi/2
    s = euler_step(uni(psi=0.0), [2.0, 0.5], 0.1)
    assert np.allclose((s.px, s.py, s.psi), [0.2, 0.0, 0.05], atol=1e-15)
    s = euler_step(uni(psi=math.pi / 2.0), [2.0, -1.0], 0.1)
    assert np.allclose((s.px, s.py, s.psi), [0.0, 0.2, math.pi / 2.0 - 0.1], atol=1e-15)


def test_euler_step_exact_arithmetic():
    s = euler_step(integ(x=1.0, y=2.0), np.array([0.5, -1.0]), 0.05)
    assert s.px == pytest.approx(1.025)
    assert s.py == pytest.approx(1.95)
    u = euler_step(uni(psi=0.0), np.array([1.0, 2.0]), 0.1)
    assert u.px == pytest.approx(0.1)
    assert u.py == pytest.approx(0.0)
    assert u.psi == pytest.approx(0.2)


def test_euler_step_wraps_heading():
    s = euler_step(uni(psi=math.pi - 0.01), np.array([0.0, 1.0]), 0.1)
    assert s.psi == pytest.approx(-math.pi + 0.09)


def test_euler_step_clamps_out_of_box_with_warning():
    with pytest.warns(UserWarning):
        s = euler_step(integ(), np.array([10.0, 0.0]), 0.1)
    assert s.px == pytest.approx(0.3)  # clamped to +3 before integrating


def test_euler_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        euler_step(integ(), np.zeros(2), 0.0)


def test_nominal_direction_unit_vector_and_target_flag():
    d, at = nominal_direction(integ(x=1.0, y=1.0), (4.0, 5.0))
    assert not at
    assert np.allclose(d, [0.6, 0.8])
    d, at = nominal_direction(integ(x=4.0, y=5.0), (4.0, 5.0))
    assert at
    assert np.allclose(d, 0.0)


def test_nominal_trajectory_constant_speed_then_snap():
    ref = np.array(nominal_trajectory(integ(), (1.0, 0.0), gain=2.0, horizon=1.0, dt=0.1))
    assert ref.shape == (11, 2)
    # 0.2 per step for 5 steps, then parked on the target
    assert np.allclose(ref[:, 1], 0.0)
    assert np.allclose(ref[:6, 0], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert np.allclose(ref[6:, 0], 1.0)
    # One step length from the target, give or take 1e-15, the step snaps
    # onto the target exactly; a step of that length stops about 1e-15 short.
    target = (1.0 + 1e-15, 0.0)
    assert nominal_trajectory(integ(), target, gain=20.0, horizon=0.05, dt=0.05)[1] == target


def _numpy_nominal_trajectory(state0, target, gain, horizon, dt):
    """The numpy formula nominal_trajectory replaced."""
    steps = int(math.floor(horizon / dt + 1e-9))
    target = np.array(target, dtype=float)
    pos = np.array([state0.px, state0.py])
    out = np.empty((steps + 1, 2))
    out[0] = pos
    step_len = gain * dt
    for k in range(steps):
        remaining = target - pos
        dist = float(np.linalg.norm(remaining))
        if dist <= step_len + 1e-15:
            pos = target.copy()
        else:
            pos = pos + (step_len / dist) * remaining
        out[k + 1] = pos
    return out


def test_nominal_trajectory_matches_numpy_formula():
    # np.linalg.norm squares through BLAS dot, which may fuse a multiply-add.
    # Where every step's dot agrees with the plain sum of squares the points are
    # bitwise equal; elsewhere a step may round its distance one ulp apart, so
    # point k may be off by about k ulps of the coordinate scale.
    rng = np.random.default_rng(9)
    plain = 0
    for _ in range(300):
        sx, sy, tx, ty = rng.uniform(-5.0, 5.0, 4)
        start, target = integ(x=float(sx), y=float(sy)), (float(tx), float(ty))
        gain = float(rng.uniform(0.5, 3.0))
        got = np.array(nominal_trajectory(start, target, gain, horizon=2.0, dt=0.05))
        ref = _numpy_nominal_trajectory(start, target, gain, horizon=2.0, dt=0.05)
        e = np.array([tx, ty]) - ref[:-1]
        if all(float(v @ v) == v[0] * v[0] + v[1] * v[1] for v in e):
            plain += 1
            assert got.tobytes() == ref.tobytes()
        else:
            scale = math.ulp(max(abs(sx), abs(sy), abs(tx), abs(ty)))
            k = np.arange(len(ref))[:, None]
            assert np.all(np.abs(got - ref) <= (k + 1) * scale)
    assert 30 <= plain <= 270      # both branches run


def test_nominal_trajectory_argument_checks():
    with pytest.raises(ValueError):
        nominal_trajectory(integ(), (1.0, 0.0), gain=0.0, horizon=1.0, dt=0.1)
    with pytest.raises(ValueError):
        nominal_trajectory(integ(), (1.0, 0.0), gain=1.0, horizon=1.0, dt=0.0)


def test_track_reference_proportional_law():
    # gains are 2.0 by default; close waypoint straight ahead
    u = track_reference(uni(psi=0.0), (0.5, 0.0))
    assert np.allclose(u, [1.0, 0.0])
    # small bearing error: omega = 2 * atan2(ey, ex), inside the box
    u = track_reference(uni(psi=0.0), (0.5, 0.1))
    assert u[0] == pytest.approx(2.0 * math.hypot(0.5, 0.1))
    assert u[1] == pytest.approx(2.0 * math.atan2(0.1, 0.5))
    # waypoint directly to the left: the turn command saturates at the box
    u = track_reference(uni(psi=0.0), (0.0, 0.5))
    assert u[1] == DEFAULT_BOX.hi[1]


def test_track_reference_saturates_and_stops_at_waypoint():
    u = track_reference(uni(), (100.0, 0.0))
    assert u[0] == DEFAULT_BOX.hi[0]
    assert np.allclose(track_reference(uni(), (0.0, 0.0)), 0.0)
    with pytest.raises(ModelMismatch):
        track_reference(integ(), (1.0, 0.0))


def test_euler_step_fuzz_keeps_state_sane():
    rng = np.random.default_rng(2)
    s = uni(x=0.0, y=0.0, psi=0.3)
    for _ in range(500):
        u = rng.uniform(-3.0, 3.0, 2)
        s = euler_step(s, u, 0.05)
        assert math.isfinite(s.px) and math.isfinite(s.py)
        assert -math.pi < s.psi <= math.pi


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def test_float_paths_match_numpy_formulas():
    """euler_step, track_reference and Box.clip/contains against the numpy
    formulas they replaced: bitwise equal, returned as float tuples."""
    rng = np.random.default_rng(7)
    for k in range(500):
        box = Box(tuple(rng.uniform(-3.0, -0.1, 2)), tuple(rng.uniform(0.1, 3.0, 2)))
        lo, hi = np.array(box.lo), np.array(box.hi)
        u = rng.uniform(-4.0, 4.0, 2)
        if k % 5 == 0:
            u[k % 2] = box.hi[k % 2]   # exactly on a face
        ref = np.clip(u, lo, hi)
        got = box.clip(u)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert _bits(got) == _bits(ref)
        for tol in (1e-9, 0.0):
            inside = bool(np.all(u >= lo - tol) and np.all(u <= hi + tol))
            assert box.contains(tuple(u), tol) == inside

        dt = float(rng.uniform(0.01, 0.2))
        x, y = rng.uniform(-10.0, 10.0, 2)
        for state in (uni(x, y, float(rng.uniform(-math.pi, math.pi))), integ(x, y)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                nxt = euler_step(state, u, dt, box)
            uc = u if bool(np.all(u >= lo - 1e-9) and np.all(u <= hi + 1e-9)) else ref
            if state.model is Model.UNICYCLE:
                d = np.array([uc[0] * math.cos(state.psi), uc[0] * math.sin(state.psi), uc[1]])
                psi = wrap_angle(state.psi + dt * d[2])
            else:
                d = np.array([uc[0], uc[1]])
                psi = 0.0
            assert _bits([nxt.px, nxt.py, nxt.psi]) == _bits(
                [state.px + dt * d[0], state.py + dt * d[1], psi])

        s = uni(x, y, float(rng.uniform(-math.pi, math.pi)))
        wp = (x, y) if k % 50 == 0 else tuple(rng.uniform(-10.0, 10.0, 2))
        got = track_reference(s, wp, box=box)
        ex, ey = wp[0] - s.px, wp[1] - s.py
        dist = math.hypot(ex, ey)
        if dist < 1e-12:
            ref = np.zeros(2)
        else:
            ref = np.clip(np.array([2.0 * dist, 2.0 * wrap_angle(math.atan2(ey, ex) - s.psi)]),
                          lo, hi)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert _bits(got) == _bits(ref)
