"""Control-affine agent models and goal-directed reference motion.

Two drift-free models are supported: a unicycle with control (v, omega) and a
single integrator with control (vx, vy).  ``euler_step`` integrates both
with explicit Euler; the ``AgentState`` it returns wraps the heading to
(-pi, pi].  Controls live in a box, which is a deliberate departure from
unbounded-input theory: it keeps the worst-case linear programs bounded.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

from .schema import DEFAULT_BOX, Box
from .world import AgentState, Model, wrap_angle

K_S = 2.0       # proportional gain on distance to the waypoint
K_OMEGA = 2.0   # proportional gain on heading error


class ModelMismatch(Exception):
    """An operation received a state whose model it does not support."""


def euler_step(state: AgentState, u: Sequence[float], dt: float, box: Box = DEFAULT_BOX) -> AgentState:
    """One explicit Euler step of either model.

    A unicycle moves (v cos psi, v sin psi, omega) dt, an integrator
    (vx, vy) dt.  Out-of-box commands are clamped with a warning.  The new
    heading is handed over unwrapped: ``AgentState`` wraps it.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = float(u[0]), float(u[1])
    if not box.contains(u):
        warnings.warn(f"agent {state.id}: command {list(u)} clamped to control box", stacklevel=2)
        u = box.clip(u)
    if state.model is Model.UNICYCLE:
        v, omega = u
        dx, dy, psi = v * math.cos(state.psi), v * math.sin(state.psi), state.psi + dt * omega
    else:
        dx, dy, psi = u[0], u[1], 0.0
    return AgentState(id=state.id, kind=state.kind, model=state.model,
                      px=state.px + dt * dx, py=state.py + dt * dy, psi=psi,
                      target=state.target)


def nominal_direction(state: AgentState, target: Optional[tuple[float, float]] = None,
                      tol: float = 1e-9) -> tuple[tuple[float, float], bool]:
    """Unit vector from the agent's position toward ``target`` (default: its own).

    Returns (direction, at_target).  At the target the direction is the zero
    vector and the flag is set; callers must branch on it.
    """
    if target is None:
        target = state.target
    if target is None:
        raise ValueError(f"agent {state.id} has no known target")
    ex = target[0] - state.px
    ey = target[1] - state.py
    dist = math.sqrt(ex * ex + ey * ey)
    if dist < tol:
        return (0.0, 0.0), True
    return (ex / dist, ey / dist), False


def nominal_trajectory(state0: AgentState, gain: float, horizon: float,
                       dt: float) -> list[tuple[float, float]]:
    """Constant-speed straight-line motion toward the target, held after arrival.

    Returns floor(horizon/dt)+1 positions (x, y): one at every record time,
    starting at the initial position.  Speed is ``gain`` until the remaining
    distance fits inside one step, at which point the trajectory snaps to the
    target and stays there.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if gain <= 0.0:
        raise ValueError("speed gain must be positive")
    if state0.target is None:
        raise ValueError(f"agent {state0.id} has no known target")
    steps = int(math.floor(horizon / dt + 1e-9))
    tx, ty = float(state0.target[0]), float(state0.target[1])
    x, y = state0.px, state0.py
    out = [(x, y)]
    step_len = gain * dt
    for _ in range(steps):
        ex, ey = tx - x, ty - y
        dist = math.sqrt(ex * ex + ey * ey)
        if dist <= step_len + 1e-15:
            x, y = tx, ty
        else:
            scale = step_len / dist
            x, y = x + scale * ex, y + scale * ey
        out.append((x, y))
    return out


def track_reference(state: AgentState, waypoint: tuple[float, float],
                    box: Box = DEFAULT_BOX) -> tuple[float, float]:
    """Proportional waypoint tracking for unicycles: v = K_S times the distance,
    omega = K_OMEGA times the bearing error.

    With zero position error both commands are zero (the bearing is undefined
    there, so no turn is commanded).  The result is clamped to the box.
    """
    if state.model is not Model.UNICYCLE:
        raise ModelMismatch(f"track_reference needs a unicycle, agent {state.id} is not one")
    ex = waypoint[0] - state.px
    ey = waypoint[1] - state.py
    dist = math.hypot(ex, ey)
    if dist < 1e-12:
        return 0.0, 0.0
    v = K_S * dist
    omega = K_OMEGA * wrap_angle(math.atan2(ey, ex) - state.psi)
    return box.clip((v, omega))
