"""Per-agent control step: reference command, trust updates, and the safety QP.

The step reads the run's ``Scenario``: the observer's own ``AgentSpec`` gives
its control box, safety distance and goal, each neighbor's spec its declared
goal, and the scenario the settings every agent shares (look-ahead distance,
time step, trust settings, ``fixed_alpha`` and ``rate_floor``).  For each
neighbor the observer takes the worst-case motion inside the neighbor's
motion-estimate ball, scores trust, adapts the pair's rate parameter, and
builds one barrier constraint.  The step carries each constraint as a plain
(a0, a1, b) float triple, a half-plane a . u >= b, and makes two plain-float
passes over the neighbors, one call each:
``pair_geometry`` (barriers, worst-case motions, start-of-step planes) and,
after the contribution LPs over those planes, ``score_pairs`` (trust scores,
rate updates, and a new offset b where a pair's rate moved).  Both passes
compute their formulas inline; the per-pair functions of ``barriers``,
``trust`` and ``dynamics`` are the reference they equal bitwise.  The reference
command (waypoint tracking for unicycles, a minimum-norm goal-descent QP for
integrators, solved in closed form, that saturates in the box when its
descent rate is out of reach) is then projected onto the intersection of all planes inside the control box
by ``solvers.solve_qp``, which resumes the contribution LPs' exact prefix
chain up to the first plane whose rate moved.  The decision keeps the final
planes.  The two unrecoverable conditions, an empty safety QP (the only
Infeasible a step turns into a stop) and a barrier at zero, degrade to an
emergency stop for that step rather than raising.  The step neither counts
nor logs: its decision and pair records are its whole report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .barriers import clf_value, lookahead_point, velocity_map
from .dynamics import track_reference
from .schema import CLF_K, DEFAULT_BOX, Box, Model, PairRecord, Scenario
from .solvers import Infeasible, QPProblem, solve_min_norm, solve_qp
from .trust import H_BOUNDARY_EPS, THETA_FLOOR, max_own_contribution
from .world import MotionEstimate, WorldSnapshot


class Fallback(Enum):
    NONE = 0
    EMERGENCY = 1


@dataclass
class ControlDecision:
    u_ref: tuple[float, float]
    u_safe: tuple[float, float]
    fallback: Fallback = Fallback.NONE
    # Each pair's record after this step, in neighbor-id order (intact agents only).
    pairs: tuple[PairRecord, ...] = ()
    # Each pair's final half-plane (a0, a1, b), in neighbor-id order (intact
    # agents only).
    planes: Sequence[tuple] = ()


def clf_qp_reference(state, target: tuple[float, float], k: float = CLF_K,
                     box: Box = DEFAULT_BOX) -> tuple[float, float]:
    """Minimum-norm command decreasing the goal function exponentially.

        min ||u||^2   s.t.   gradV . u <= -k V

    with V the squared distance to ``target``.  For integrators only.  The
    one-row QP has a closed form, ``solvers.solve_min_norm``: the foot
    (k / 2) (target - p) when the box holds it, else that foot clamped along
    the constraint line to the box.  At the goal the constraint is vacuous
    and the command is zero.  When the box cannot deliver the descent rate (a
    far goal), the goal condition gives way: the command saturates in the box
    along the descent direction -gradV, so the agent heads for its goal as
    fast as the box lets it.  It never raises Infeasible.
    """
    if state.model is not Model.SINGLE_INTEGRATOR:
        raise ValueError("clf_qp_reference applies to single integrators")
    V, (gx, gy) = clf_value(state, target)
    try:
        return solve_min_norm((-gx, -gy, k * V), box)
    except Infeasible:
        gn = gx * gx + gy * gy
        if gn < 1e-18:
            return 0.0, 0.0
        # k * V may overflow; the largest finite scale still saturates the
        # command along the descent direction, where inf * 0.0 would be NaN.
        scale = max(-(k * V / gn), -sys.float_info.max)
        return box.clip((scale * gx, scale * gy))


def pair_geometry(i: int, snap: WorldSnapshot, estimates: Mapping[int, MotionEstimate],
                  pairs: Sequence[PairRecord], s: Scenario
                  ) -> tuple[list[tuple], list[tuple]]:
    """Geometry pass of observer i: one entry and one start-of-step half-plane
    per neighbor, in neighbor-id order.

    An entry is the plain tuple
    ``(other, prev, h, gx, gy, gn, cx, cy, r, bootstrapped, wdot, plane)``:
    the neighbor's state and the pair's previous record, the barrier h, its
    gradient (gx, gy) = grad_i = -grad_j and gn = ||grad_j||, the estimate
    ball's center (cx, cy) and radius r (``bootstrapped`` is the estimate's
    ``bootstrap`` flag, which marks the speed-bound prior), wdot = grad_j . w
    at the ball's worst-case point w, and the row's half-plane (a0, a1, b).  Per neighbor this is ``eval_barrier``, then
    ``worst_case_motion`` against grad_j, then ``cbf_row`` at the pair's
    previous alpha, as plain floats in the same order of operations, so every
    value equals theirs bitwise.  The barrier point and velocity map are the
    observer's own and are computed once, by one ``lookahead_point`` call at
    ``s.lookahead`` for a unicycle; the safety distance is the observer's own,
    ``s.agents[i].d_min``.
    """
    me = snap.agents[i]
    if me.model is Model.UNICYCLE:
        (pix, piy), M = lookahead_point(me, s.lookahead)
    else:
        (pix, piy), M = (me.px, me.py), velocity_map(me)
    (m00, m01), (m10, m11) = M
    d_min = s.agents[i].d_min
    if d_min <= 0.0:
        raise ValueError("d_min must be positive")
    dd = d_min * d_min
    entries: list[tuple] = []
    planes: list[tuple] = []
    for other, prev in zip([a for a in snap.agents if a.id != i], pairs, strict=True):
        est = estimates[other.id]
        (cx, cy), r, bootstrapped = est.center, est.radius, est.bootstrap
        dx = pix - other.px
        dy = piy - other.py
        gx, gy = 2.0 * dx, 2.0 * dy
        h = dx * dx + dy * dy - dd
        jx, jy = -gx, -gy
        gn = math.sqrt(jx * jx + jy * jy)
        if gn < 1e-12:
            wx, wy = cx, cy
        else:
            k = r / gn
            wx, wy = cx - k * jx, cy - k * jy
        wdot = jx * wx + jy * wy
        plane = (gx * m00 + gy * m10, gx * m01 + gy * m11, -prev.alpha * h - wdot)
        entries.append((other, prev, h, gx, gy, gn, cx, cy, r, bootstrapped, wdot, plane))
        planes.append(plane)
    return entries, planes


def score_pairs(i: int, snap: WorldSnapshot, entries: Sequence[tuple],
                contribs: Sequence[Optional[float]], s: Scenario
                ) -> tuple[list[PairRecord], list[tuple], bool]:
    """Scoring pass of observer i: each pair's new record and half-plane, and whether
    some pair reached the barrier boundary (an emergency stop).

    ``contribs`` are the pairs' contribution LP values.  The allowed neighbor
    motions are grad_j . v >= b with b = -alpha h - contribution.  Behavior is
    judged at the estimate center: its slack is the recorded margin, which
    scores the distance trust, while the floor on alpha's rate guards the row
    the QP enforces and so takes the slack of the ball's worst-case point.
    The direction score reads neighbor j's declared goal from its spec,
    ``s.agents[j].target``; an unknown goal counts as the observer's position.
    A pair is not scored on the bootstrap ball, when its contribution LP is
    infeasible, or when the agents coincide (no half-space normal); it keeps
    its rate and last scores, so its record shows the skip as scores
    unchanged from the step before.  A pair whose rate did not move keeps its
    geometry-pass half-plane; one whose rate moved gets a new offset b.  The
    trust settings, time step and rate flags are the scenario's ``s``.

    Per scored pair this is ``distance_trust``, ``nominal_direction``,
    ``direction_trust``, ``combine_trust``, ``alpha_rate_floor`` and
    ``update_alpha``, computed inline as plain floats in the same order of
    operations, so every value equals theirs bitwise.  Each builtin ``max(a,
    b)`` is written ``b if b > a else a`` and each ``min(a, b)`` as ``b if b
    < a else a``, which return the same float, signed zeros and NaNs included.
    """
    me = snap.agents[i]
    tp = s.trust
    beta, rho_bar_d, k_blend = tp.beta, tp.rho_bar_d, tp.k_blend
    gamma_alpha, alpha_min, alpha_max = tp.gamma_alpha, tp.alpha_min, tp.alpha_max
    lip = tp.L_hdot * tp.L_F
    dt = s.dt
    adapt = not s.fixed_alpha
    rate_floor = s.rate_floor
    records: list[PairRecord] = []
    planes: list[tuple] = []
    emergency = False
    for (other, prev, h, gx, gy, gn, cx, cy, r, bootstrapped, wdot, plane), contrib in zip(
            entries, contribs, strict=True):
        alpha = prev.alpha
        if bootstrapped or contrib is None or gn < 1e-12:
            # An ignorance prior is not observed behavior; the rows stay
            # conservative but the scores wait for a real estimate.  An
            # infeasible contribution LP means the other pairs' rows already
            # conflict, and the main QP will surface it.
            records.append(PairRecord(h, alpha, prev.rho, prev.rho_d, prev.rho_theta,
                                      prev.margin))
            planes.append(plane)
            continue
        ax, ay = -gx, -gy
        b = -alpha * h - contrib
        d = ax * cx + ay * cy - b
        rho_d = math.tanh(beta * (0.0 if 0.0 > d else d))
        # ||a_j||, the estimate center's norm, is also the first term of B
        cn = math.sqrt(cx * cx + cy * cy)
        target = s.agents[other.id].target
        tx, ty = (me.px, me.py) if target is None else target
        ex = tx - other.px
        ey = ty - other.py
        dist = math.sqrt(ex * ex + ey * ey)
        if dist < 1e-9:
            rho_theta = 0.5
        else:
            # n_hat is a unit vector here, so direction_trust's branch for a
            # zero goal direction cannot be taken
            nx, ny = ex / dist, ey / dist
            sx, sy = ax / gn, ay / gn
            sn = math.sqrt(sx * sx + sy * sy)
            c = (nx * sx + ny * sy) / (math.sqrt(nx * nx + ny * ny) * sn)
            c = c if c > -1.0 else -1.0
            theta_n = math.acos(c if c < 1.0 else 1.0)
            if cn < 1e-12:
                theta_a = math.pi / 2.0
            else:
                c = (cx * sx + cy * sy) / (cn * sn)
                c = c if c > -1.0 else -1.0
                theta_a = math.acos(c if c < 1.0 else 1.0)
                if THETA_FLOOR > theta_a:
                    theta_a = THETA_FLOOR
            rho_theta = math.tanh(2.0 * (theta_n / theta_a))
        x = rho_d - rho_bar_d
        t = k_blend * x
        if t >= 0.0:
            sig = 1.0 / (1.0 + math.exp(-t))
        else:
            e = math.exp(t)
            sig = e / (1.0 + e)
        rho = sig * x * rho_theta + (1.0 - sig) * x * (1.0 - rho_theta)
        if adapt:
            if rate_floor and h <= H_BOUNDARY_EPS:
                # the rate floor is undefined at the boundary: stop, keep alpha
                emergency = True
            else:
                rate = gamma_alpha * rho
                if rate_floor:
                    B = cn + r
                    hx, hy = gx / 2.0, gy / 2.0
                    L_h = 2.0 * (math.sqrt(hx * hx + hy * hy) + B * dt)
                    floor = -((wdot - b) + lip * B * B + alpha * L_h * B) / h
                    if floor > rate:
                        rate = floor
                alpha = alpha + dt * rate
                alpha = alpha_min if alpha_min > alpha else alpha
                alpha = alpha_max if alpha_max < alpha else alpha
        records.append(PairRecord(h, alpha, rho, rho_d, rho_theta, d))
        planes.append(plane if alpha == prev.alpha
                      else (plane[0], plane[1], -alpha * h - wdot))
    return records, planes, emergency


def agent_step(i: int, snap: WorldSnapshot, estimates: Mapping[int, MotionEstimate],
               pairs: Sequence[PairRecord], s: Scenario) -> ControlDecision:
    """One full control step for intact agent i on the snapshot ``snap``.

    ``estimates`` maps every neighbor id to its motion estimate; before a
    neighbor's motion can be observed that is the speed-bound prior, flagged
    ``bootstrap``.  ``world.estimate_positions`` builds it once per step for
    all observers.  ``pairs`` holds the previous step's record of each pair in
    neighbor-id order, and the decision's ``pairs`` holds the new ones, each
    with its barrier value on this snapshot.  ``s`` is the run's scenario:
    ``s.agents[i]`` gives the observer's control box, safety distance and goal,
    each neighbor's spec its declared goal, and ``s`` the shared settings.
    Nothing is mutated.  All per-pair computations read rates as of the start
    of the step, so their order cannot matter.  An emergency stop shows only
    as the decision's ``fallback``.  It is a barrier at zero when
    ``s.rate_floor`` is on, alpha adapts and some pair scored on this step
    has h at the boundary; otherwise it is an empty safety QP.
    """
    me = snap.agents[i]
    box, target = s.agents[i].box, s.agents[i].target
    entries, start_planes = pair_geometry(i, snap, estimates, pairs, s)
    # Each pair's contribution LP runs over the other pairs' start planes.
    contribs, chain = max_own_contribution(start_planes, box)
    records, planes, emergency = score_pairs(i, snap, entries, contribs, s)

    if me.model is Model.UNICYCLE:
        u_ref = track_reference(me, target, box)
    else:
        u_ref = clf_qp_reference(me, target, CLF_K, box)

    fallback = Fallback.NONE
    if emergency:
        u_safe = (0.0, 0.0)
        fallback = Fallback.EMERGENCY
    else:
        try:
            u_safe = solve_qp(QPProblem(u_ref, planes, box, chain))
        except Infeasible:
            u_safe = (0.0, 0.0)
            fallback = Fallback.EMERGENCY

    return ControlDecision(u_ref=u_ref, u_safe=u_safe, fallback=fallback,
                           pairs=tuple(records), planes=planes)
