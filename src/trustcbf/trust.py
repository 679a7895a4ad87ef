"""Trust scoring of neighbors and adaptation of per-pair barrier rates.

Each observer keeps one rate parameter alpha per neighbor.  Every step the
control step's scoring pass (``controller.score_pairs``) takes the half-space
of neighbor motions v with grad_j . v >= -alpha h - c, where c is the most the
observer itself can contribute (a small LP over its own control box,
``max_own_contribution``, one call per control step over the observer's
start-of-step planes, the (a0, a1, b) float triples the control step carries):
any motion outside it would force the barrier below its allowed decay even
with the observer helping as much as it can.
The signed slack of the neighbor's estimated motion against that half-space
is the compliance margin; together with how the neighbor's motion direction
relates to its declared goal, it produces a trust score in [-1, 1] that
drives alpha up (trusted neighbors, relaxed constraint) or down (distrusted
neighbors, tightened constraint).  This module holds those formulas.  The
scoring pass computes them inline, as plain floats in the same order of
operations; the functions here are the reference it equals bitwise.

A lower bound on the alpha rate keeps the safety filter's QP feasible: pushing
alpha down faster than the system can respond would empty the feasible set.
That bound blows up as the barrier approaches zero, so alpha is also capped
numerically.

The pipeline's settings (``TrustParams``) and a pair's record (``PairRecord``)
are data formats and live in ``trustcbf.schema``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .schema import Box, TrustParams
from .solvers import PrefixChain, solve_lp_leave_one_out
from .world import MotionEstimate

H_BOUNDARY_EPS = 1e-6

# Floor on the actual deflection angle, keeping the direction score finite
# near zero deflection.
THETA_FLOOR = 1e-3


class BoundaryReached(Exception):
    """Barrier at or below zero within tolerance: the rate floor is undefined."""


def worst_case_motion(est: MotionEstimate, grad_j) -> tuple[tuple[float, float], float]:
    """Minimizer of grad_j . v over the estimate ball and the attained value.

    Closed form: v* = center - radius * grad_j / ||grad_j||.  A zero gradient
    leaves every ball point equivalent; the center is returned with value 0.
    ``est`` is a 2-D (position) estimate.
    """
    gx, gy = grad_j
    cx, cy = est.center
    gn = math.sqrt(gx * gx + gy * gy)
    if gn < 1e-12:
        return (cx, cy), 0.0
    k = est.radius / gn
    return (cx - k * gx, cy - k * gy), gx * cx + gy * cy - est.radius * gn


def max_own_contribution(planes: Sequence[tuple],
                         box: Box) -> tuple[list, PrefixChain]:
    """Best barrier-derivative contribution observer i can make toward each pair
    (i, k) while respecting its constraints toward every other neighbor.

        max over u of grad_i(ik) . (M_i u)
        s.t. box, and for all m != k: row m (the cbf row of (i, m) at its
             current rate and worst-case motion)

    ``planes`` are the observer's start-of-step rows as (a0, a1, b) float
    triples, one per neighbor.  The objective of LP k is row k's own normal:
    ``cbf_row`` builds that normal as the same product grad_i(ik) . M_i.  So
    all LPs of one observer are leave-one-out LPs over one plane list: when
    box ∩ planes is nonempty, a maximizer of plane k's normal over the other
    planes already satisfies plane k, and every LP reads that one polygon
    (``solvers.solve_lp_leave_one_out``).  Returns ``(values, chain)``:
    entry k of ``values`` is None where the other planes alone admit no
    command, and ``chain`` is the float prefix chain of ``planes``, which the
    safety QP over the step's final planes resumes.
    """
    return solve_lp_leave_one_out(planes, box)


def distance_trust(margin: float, beta: float = 1.0) -> float:
    """Map the compliance margin to [0, 1]; negative margins earn exactly 0.

    The output stays in [0, 1] only for beta >= 0; a negative beta maps
    positive margins into [-1, 0].
    """
    return math.tanh(beta * max(margin, 0.0))


def _angle(ux: float, uy: float, vx: float, vy: float) -> float:
    d = (ux * vx + uy * vy) / (math.sqrt(ux * ux + uy * uy) * math.sqrt(vx * vx + vy * vy))
    return math.acos(min(1.0, max(-1.0, d)))


def direction_trust(n_hat, a_j, s_hat) -> float:
    """Score in [0, 1] comparing actual vs goal-implied deflection from the safe direction.

    theta_n is the angle between the neighbor's goal direction and the safe
    normal; theta_a the same for its predicted motion.  Moving further from
    the safe direction than its goal requires (theta_a > theta_n) scores low.
    The denominator is floored at THETA_FLOOR, so the ratio stays finite
    (at most pi / THETA_FLOOR), and the score saturates: tanh rounds to exactly
    1.0 for every argument from 19.0616 on, that is for every ratio from
    9.531 on.  A stationary prediction is scored as if orthogonal to the safe
    normal.
    All three arguments are 2-vectors.
    """
    nx, ny = n_hat
    ax, ay = a_j
    sx, sy = s_hat
    if math.sqrt(nx * nx + ny * ny) < 1e-12:
        return 0.5
    theta_n = _angle(nx, ny, sx, sy)
    if math.sqrt(ax * ax + ay * ay) < 1e-12:
        theta_a = math.pi / 2.0
    else:
        theta_a = _angle(ax, ay, sx, sy)
    theta_a = max(theta_a, THETA_FLOOR)
    return math.tanh(2.0 * (theta_n / theta_a))


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def combine_trust(rho_d: float, rho_theta: float, rho_bar_d: float = 0.5,
                  k_blend: float = 50.0) -> float:
    """Blend the margin and direction scores into a trust rate in [-1, 1].

    Above the margin threshold, trust grows weighted by the direction score;
    below it, trust decays weighted by the direction score's complement (a
    neighbor plainly heading against its own goal toward us is distrusted
    fastest).  The hard switch at the threshold is smoothed by a sigmoid of
    sharpness k_blend, which keeps the score continuous at the cost of a small
    non-monotone ripple of order 1/k_blend near the threshold.

    The output lies in [-1, 1] when rho_d, rho_theta and rho_bar_d all lie in
    [0, 1]: it is x = rho_d - rho_bar_d times a weight in [0, 1].  A
    rho_bar_d outside [0, 1] lets |x| exceed 1.  A negative k_blend keeps the
    range but swaps the two weights, so the neighbors that follow their goals
    are distrusted fastest; the blend needs k_blend >= 0.
    """
    x = rho_d - rho_bar_d
    s = _sigmoid(k_blend * x)
    return s * x * rho_theta + (1.0 - s) * x * (1.0 - rho_theta)


def alpha_rate_floor(margin: float, alpha: float, h: float, B: float,
                     L_h: float, L_hdot: float, L_F: float) -> float:
    """Lower bound on alpha's rate of change that keeps the safety QP solvable.

        floor = -(margin + L_hdot * L_F * B^2 + alpha * L_h * B) / h

    B bounds the neighbor's speed (estimate center norm plus ball radius).
    The bound diverges as h tends to zero; at h <= 1e-6 it is undefined and
    BoundaryReached is raised so the caller can switch to an emergency stop.
    """
    if h <= H_BOUNDARY_EPS:
        raise BoundaryReached(f"barrier h={h} at or below boundary tolerance")
    return -(margin + L_hdot * L_F * B * B + alpha * L_h * B) / h


def update_alpha(alpha: float, rho: float, dt: float, floor: float,
                 params: TrustParams) -> float:
    """The pair's rate parameter one step later.

    alpha + dt * max(gamma_alpha * rho, floor), clamped to [alpha_min, alpha_max]

    The floor wins whenever the trust-driven rate would sink alpha fast enough
    to break QP feasibility.
    """
    rate = max(params.gamma_alpha * rho, floor)
    return min(max(alpha + dt * rate, params.alpha_min), params.alpha_max)
