"""Per-agent control step: reference command, trust updates, and the safety QP.

For each neighbor the observer takes the worst-case motion inside the
neighbor's motion-estimate ball, scores trust, adapts the pair's rate
parameter, and builds one barrier constraint row.  The reference command
(waypoint tracking for unicycles, a minimum-norm goal-descent QP for
integrators) is then projected onto the intersection of all rows inside the
control box.  Any unrecoverable condition (empty constraint set, barrier at
zero) degrades to an emergency stop for that step rather than raising.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional

from .barriers import (D_MIN_DEFAULT, LOOKAHEAD_DEFAULT, BarrierEval,
                       barrier_point, cbf_row, clf_value, pair_barrier,
                       velocity_map)
from .dynamics import (DEFAULT_BOX, Box, K_OMEGA, K_S, nominal_direction,
                       track_reference)
from .solvers import ConstraintRow, Infeasible, QPProblem, solve_qp
from .trust import (BoundaryReached, DegenerateNormal, TrustParams, TrustState,
                    alpha_rate_floor, build_halfspace, combine_trust,
                    compliance_margin, direction_trust, distance_trust,
                    max_own_contribution, update_alpha, worst_case_motion)
from .world import Model, MotionEstimate, WorldSnapshot, bootstrap_estimate

log = logging.getLogger(__name__)

CLF_K = 2.0


class Fallback(Enum):
    NONE = 0
    EMERGENCY = 1


@dataclass
class AgentConfig:
    """Everything one intact agent's controller needs besides the world itself."""

    box: Box = DEFAULT_BOX
    d_min: float = D_MIN_DEFAULT
    lookahead: float = LOOKAHEAD_DEFAULT
    dt: float = 0.05
    trust: TrustParams = field(default_factory=TrustParams)
    fixed_alpha: bool = False
    rate_floor: bool = True


@dataclass
class ControlDecision:
    u_ref: tuple[float, float]
    u_safe: tuple[float, float]
    rows: tuple[ConstraintRow, ...]
    fallback: Fallback = Fallback.NONE
    # Barrier value toward each neighbor, in neighbor-id order (intact agents only).
    pair_h: tuple[float, ...] = ()


def clf_qp_reference(state, k: float = CLF_K, box: Box = DEFAULT_BOX,
                     target: Optional[tuple[float, float]] = None) -> tuple[float, float]:
    """Minimum-norm command decreasing the goal function exponentially.

        min ||u||^2   s.t.   gradV . u <= -k V

    The goal is ``target``, by default the agent's own.  For integrators
    only.  At the goal the constraint is vacuous and the command is zero.
    Raises Infeasible when the box is too small to achieve the required
    descent rate (callers decide how to degrade).
    """
    if state.model is not Model.SINGLE_INTEGRATOR:
        raise ValueError("clf_qp_reference applies to single integrators")
    V, (gx, gy) = clf_value(state, target)
    row = ConstraintRow(a=(-gx, -gy), b=k * V, tag="clf")
    u, _ = solve_qp(QPProblem(u_ref=(0.0, 0.0), rows=[row], box=box))
    return u


class _PairObs(NamedTuple):
    ev: BarrierEval
    est: MotionEstimate  # position part of the neighbor's motion estimate
    a_j: tuple[float, float]
    alpha_start: float
    row: ConstraintRow   # the pair's constraint row at alpha_start


def _rate_floor(margin: float, alpha: float, ev: BarrierEval, est: MotionEstimate,
                cfg: AgentConfig) -> float:
    """Floor on the pair's alpha rate for the given compliance margin; -inf when
    the rate floor is off.  Raises BoundaryReached at the barrier boundary."""
    if not cfg.rate_floor:
        return -math.inf
    cx, cy = est.center
    B = math.sqrt(cx * cx + cy * cy) + est.radius
    hx, hy = ev.grad_i[0] / 2.0, ev.grad_i[1] / 2.0
    L_h = 2.0 * (math.sqrt(hx * hx + hy * hy) + B * cfg.dt)
    return alpha_rate_floor(margin, alpha, ev.h, B, L_h, cfg.trust.L_hdot, cfg.trust.L_F)


def agent_step(i: int, snap: WorldSnapshot,
               estimates: Mapping[int, Optional[MotionEstimate]],
               trust: dict[int, TrustState], cfg: AgentConfig) -> ControlDecision:
    """One full control step for intact agent i on the snapshot ``snap``.

    ``estimates`` maps every neighbor id to the position part of its motion
    estimate, or to None before its motion can be estimated (the bootstrap
    ball then stands in for it); ``world.estimate_positions`` builds it once
    per step for all observers.  ``trust`` maps neighbor id to that pair's
    TrustState and is mutated in place.  All per-pair computations read rates
    as of the start of the step, so their order cannot matter.  The
    decision's ``pair_h`` holds the barrier value toward every neighbor on
    this snapshot.
    """
    me = snap.agents[i]
    M = velocity_map(me, cfg.lookahead)
    p_i = barrier_point(me, cfg.lookahead)

    # One geometry pass: every neighbor's barrier, worst-case motion and row
    # at its start-of-step rate.
    obs: dict[int, _PairObs] = {}
    pair_h: list[float] = []
    bootstrapped: set[int] = set()
    for other in snap.agents:
        j = other.id
        if j == i:
            continue
        est = estimates[j]
        if est is None:
            est = bootstrap_estimate(v_max=cfg.trust.v_max)
            bootstrapped.add(j)
        ev = pair_barrier(p_i, other, cfg.d_min)
        pair_h.append(ev.h)
        a_j, _ = worst_case_motion(est, ev.grad_j)
        alpha = trust[j].alpha
        obs[j] = _PairObs(ev, est, a_j, alpha, cbf_row(ev, M, a_j, alpha, tag=(i, j)))
    # Each pair's contribution LP runs over the other pairs' start rows.
    contribs = max_own_contribution([o.row for o in obs.values()], cfg.box)

    emergency = False
    for (j, o), contrib in zip(obs.items(), contribs):
        if j in bootstrapped:
            # An ignorance prior is not observed behavior; the rows stay
            # conservative but the trust state waits for a real estimate.
            continue
        ts = trust[j]
        other = snap.agents[j]
        # Behavior is judged at the estimate center; the ball's worst-case
        # point is reserved for the control rows.
        a_hat = o.est.center

        if contrib is None:
            # Even the other pairs' rows conflict; the main QP will surface it.
            log.debug("t=%.3f agent %d: contribution LP infeasible toward %d", snap.time, i, j)
            continue
        try:
            hs = build_halfspace(o.ev, ts.alpha, contrib)
        except DegenerateNormal:
            log.debug("t=%.3f agent %d coincides with %d; trust update skipped", snap.time, i, j)
            continue
        d = compliance_margin(hs, a_hat)
        rho_d = distance_trust(d, cfg.trust.beta)
        target_j = other.target if other.target is not None else (me.px, me.py)
        n_hat, at_target = nominal_direction(other, target_j)
        if at_target:
            rho_theta = 0.5
        else:
            rho_theta = direction_trust(n_hat, a_hat, hs.s_hat)
        rho = combine_trust(rho_d, rho_theta, cfg.trust.rho_bar_d, cfg.trust.k_blend)
        ts.observe(rho, rho_d, rho_theta, d)

        if cfg.fixed_alpha:
            continue
        # The floor guards the robustified row the QP actually enforces, so it
        # consumes the worst-case-point margin, not the center one.
        try:
            floor = _rate_floor(compliance_margin(hs, o.a_j), ts.alpha, o.ev, o.est, cfg)
        except BoundaryReached:
            emergency = True
            continue
        update_alpha(ts, rho, cfg.dt, floor, cfg.trust)

    # A pair whose rate did not move keeps the row built in the geometry pass.
    rows = [o.row if trust[j].alpha == o.alpha_start
            else cbf_row(o.ev, M, o.a_j, trust[j].alpha, tag=(i, j))
            for j, o in obs.items()]

    if me.model is Model.UNICYCLE:
        if me.target is None:
            u_ref = (0.0, 0.0)
        else:
            u_ref = track_reference(me, me.target, K_S, K_OMEGA, cfg.box)
    else:
        try:
            u_ref = clf_qp_reference(me, CLF_K, cfg.box)
        except Infeasible:
            log.debug("t=%.3f agent %d: goal descent infeasible in box; stopping", snap.time, i)
            u_ref = (0.0, 0.0)

    fallback = Fallback.NONE
    if emergency:
        u_safe = (0.0, 0.0)
        fallback = Fallback.EMERGENCY
    else:
        try:
            u_safe, _ = solve_qp(QPProblem(u_ref=u_ref, rows=rows, box=cfg.box))
        except Infeasible:
            log.debug("t=%.3f agent %d: safety QP infeasible; emergency stop", snap.time, i)
            u_safe = (0.0, 0.0)
            fallback = Fallback.EMERGENCY

    return ControlDecision(u_ref=u_ref, u_safe=u_safe, rows=tuple(rows), fallback=fallback,
                           pair_h=tuple(pair_h))
