"""Pairwise distance barrier, unicycle look-ahead geometry, and constraint rows.

The barrier between an observer i and a neighbor j is

    h = || p_i~ - p_j ||^2 - d_min^2

where p_i~ is i's look-ahead point (a point a short distance ahead of a
unicycle's axle; the position itself for integrators).  Differentiating
through the look-ahead map gives an invertible 2x2 velocity map M(psi) with
det M equal to the look-ahead distance, which is what makes the unicycle's
barrier constraint controllable in both axes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .dynamics import ModelMismatch
from .schema import D_MIN_DEFAULT, LOOKAHEAD_DEFAULT
from .world import AgentState, Model


class BarrierEval(NamedTuple):
    """Barrier value and its gradients with respect to each agent's position.

    grad_i is taken at the look-ahead point, so grad_i + grad_j == 0 exactly.
    """

    h: float
    grad_i: tuple[float, float]
    grad_j: tuple[float, float]


Map2 = tuple[tuple[float, float], tuple[float, float]]   # a 2x2 matrix, row by row

# velocity_map of an integrator: its control is its velocity.
_IDENTITY_MAP: Map2 = ((1.0, 0.0), (0.0, 1.0))


def lookahead_point(state: AgentState, lookahead: float = LOOKAHEAD_DEFAULT
                    ) -> tuple[tuple[float, float], Map2]:
    """Look-ahead point and its velocity map for a unicycle.

    p~ = p + l (cos psi, sin psi) and d(p~)/dt = M(psi) (v, omega) with
    M = [[cos psi, -l sin psi], [sin psi, l cos psi]].  det M = l, so the map
    never loses rank for l > 0.
    """
    if state.model is not Model.UNICYCLE:
        raise ModelMismatch(f"agent {state.id} has no look-ahead point (not a unicycle)")
    if lookahead <= 0.0:
        raise ValueError("lookahead distance must be positive")
    c, s = math.cos(state.psi), math.sin(state.psi)
    p = (state.px + lookahead * c, state.py + lookahead * s)
    M = ((c, -lookahead * s), (s, lookahead * c))
    return p, M


def velocity_map(state: AgentState, lookahead: float = LOOKAHEAD_DEFAULT) -> Map2:
    """2x2 map from the agent's control to its (look-ahead) position derivative."""
    if state.model is Model.UNICYCLE:
        return lookahead_point(state, lookahead)[1]
    return _IDENTITY_MAP


def barrier_point(state: AgentState, lookahead: float = LOOKAHEAD_DEFAULT) -> tuple[float, float]:
    """The point the barrier is evaluated at: look-ahead for unicycles, position otherwise."""
    if state.model is Model.UNICYCLE:
        return lookahead_point(state, lookahead)[0]
    return state.px, state.py


def eval_barrier(x_i: AgentState, x_j: AgentState, d_min: float = D_MIN_DEFAULT,
                 lookahead: float = LOOKAHEAD_DEFAULT) -> BarrierEval:
    """Evaluate the pair barrier from observer i toward neighbor j.

    The neighbor contributes only its position; its own look-ahead (if any) is
    irrelevant to i's safety and unknown anyway.
    """
    if d_min <= 0.0:
        raise ValueError("d_min must be positive")
    px, py = barrier_point(x_i, lookahead)
    dx = px - x_j.px
    dy = py - x_j.py
    gx, gy = 2.0 * dx, 2.0 * dy
    return BarrierEval(dx * dx + dy * dy - d_min * d_min, (gx, gy), (-gx, -gy))


def clf_value(state: AgentState, target: Optional[tuple[float, float]] = None
              ) -> tuple[float, tuple[float, float]]:
    """Quadratic goal function V = ||p - p_ref||^2 and its position gradient."""
    if target is None:
        target = state.target
    if target is None:
        raise ValueError(f"agent {state.id} has no known target")
    ex, ey = state.px - target[0], state.py - target[1]
    return ex * ex + ey * ey, (2.0 * ex, 2.0 * ey)


def cbf_row(ev: BarrierEval, vel_map: Map2, worst_j_dot, alpha: float) -> tuple:
    """Linear constraint (a0, a1, b), meaning a . u >= b, on i's control
    enforcing h_dot >= -alpha h against the worst predicted neighbor motion.
    Both models are drift-free, so

        grad_i . (M u) + grad_j . worst_j_dot >= -alpha h
        =>  (grad_i M) . u >= -alpha h - grad_j . worst_j_dot

    ``vel_map`` is M row by row and ``worst_j_dot`` a 2-vector, as tuples or
    arrays.
    """
    gx, gy = ev.grad_i
    (m00, m01), (m10, m11) = vel_map
    wx, wy = worst_j_dot
    jx, jy = ev.grad_j
    return (gx * m00 + gy * m10, gx * m01 + gy * m11, -alpha * ev.h - (jx * wx + jy * wy))
