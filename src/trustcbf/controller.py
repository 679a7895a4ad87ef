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
from typing import Mapping, NamedTuple, Optional, Sequence

from .barriers import (D_MIN_DEFAULT, LOOKAHEAD_DEFAULT, BarrierEval,
                       barrier_point, cbf_row, clf_value, pair_barrier,
                       velocity_map)
from .dynamics import (DEFAULT_BOX, Box, K_OMEGA, K_S, nominal_direction,
                       track_reference)
from .solvers import ConstraintRow, Infeasible, QPProblem, solve_qp
from .trust import (BoundaryReached, DegenerateNormal, HalfSpace, PairRecord,
                    TrustParams, alpha_rate_floor, build_halfspace,
                    combine_trust, compliance_margin, direction_trust,
                    distance_trust, max_own_contribution, update_alpha,
                    worst_case_motion)
from .world import (AgentState, Model, MotionEstimate, WorldSnapshot,
                    bootstrap_estimate)

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
    # Each pair's record after this step, in neighbor-id order (intact agents only).
    pairs: tuple[PairRecord, ...] = ()


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
    other: AgentState
    prev: PairRecord     # the pair's record after the previous step
    ev: BarrierEval
    est: MotionEstimate
    bootstrapped: bool   # est is the bootstrap ball, not an observation
    a_j: tuple[float, float]
    row: ConstraintRow   # the pair's constraint row at its start-of-step rate


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


def _halfspace(i: int, o: _PairObs, contrib: Optional[float], t: float) -> Optional[HalfSpace]:
    """The pair's half-space of allowed neighbor motions, or None when the pair
    is not scored this step."""
    if o.bootstrapped:
        # An ignorance prior is not observed behavior; the rows stay
        # conservative but the scores wait for a real estimate.
        return None
    if contrib is None:
        # Even the other pairs' rows conflict; the main QP will surface it.
        log.debug("t=%.3f agent %d: contribution LP infeasible toward %d", t, i, o.other.id)
        return None
    try:
        return build_halfspace(o.ev, o.prev.alpha, contrib)
    except DegenerateNormal:
        log.debug("t=%.3f agent %d coincides with %d; trust update skipped", t, i, o.other.id)
        return None


def agent_step(i: int, snap: WorldSnapshot,
               estimates: Mapping[int, Optional[MotionEstimate]],
               pairs: Sequence[PairRecord], cfg: AgentConfig) -> ControlDecision:
    """One full control step for intact agent i on the snapshot ``snap``.

    ``estimates`` maps every neighbor id to its motion estimate, or to None
    before its motion can be estimated (the bootstrap ball then stands in for
    it); ``world.estimate_positions`` builds it once per step for all
    observers.  ``pairs`` holds the previous step's record of each pair in
    neighbor-id order, and the decision's ``pairs`` holds the new ones, each
    with its barrier value on this snapshot.  Nothing is mutated.  All
    per-pair computations read rates as of the start of the step, so their
    order cannot matter.
    """
    me = snap.agents[i]
    M = velocity_map(me, cfg.lookahead)
    p_i = barrier_point(me, cfg.lookahead)

    # One geometry pass: every neighbor's barrier, worst-case motion and row
    # at its start-of-step rate.
    obs: list[_PairObs] = []
    for other, prev in zip([a for a in snap.agents if a.id != i], pairs, strict=True):
        est = estimates[other.id]
        bootstrapped = est is None
        if bootstrapped:
            est = bootstrap_estimate(v_max=cfg.trust.v_max)
        ev = pair_barrier(p_i, other, cfg.d_min)
        a_j, _ = worst_case_motion(est, ev.grad_j)
        obs.append(_PairObs(other, prev, ev, est, bootstrapped, a_j,
                            cbf_row(ev, M, a_j, prev.alpha, tag=(i, other.id))))
    # Each pair's contribution LP runs over the other pairs' start rows.
    contribs = max_own_contribution([o.row for o in obs], cfg.box)

    emergency = False
    records: list[PairRecord] = []
    for o, contrib in zip(obs, contribs):
        prev, ev = o.prev, o.ev
        hs = _halfspace(i, o, contrib, snap.time)
        if hs is None:
            # A pair that is not scored keeps its rate and its last scores.
            records.append(PairRecord(ev.h, prev.alpha, prev.rho, prev.rho_d,
                                      prev.rho_theta, prev.margin))
            continue
        # Behavior is judged at the estimate center; the ball's worst-case
        # point is reserved for the control rows.
        a_hat = o.est.center
        d = compliance_margin(hs, a_hat)
        rho_d = distance_trust(d, cfg.trust.beta)
        other = o.other
        target_j = other.target if other.target is not None else (me.px, me.py)
        n_hat, at_target = nominal_direction(other, target_j)
        if at_target:
            rho_theta = 0.5
        else:
            rho_theta = direction_trust(n_hat, a_hat, hs.s_hat)
        rho = combine_trust(rho_d, rho_theta, cfg.trust.rho_bar_d, cfg.trust.k_blend)

        alpha = prev.alpha
        if not cfg.fixed_alpha:
            # The floor guards the robustified row the QP actually enforces, so
            # it consumes the worst-case-point margin, not the center one.
            try:
                floor = _rate_floor(compliance_margin(hs, o.a_j), alpha, ev, o.est, cfg)
            except BoundaryReached:
                emergency = True
            else:
                alpha = update_alpha(alpha, rho, cfg.dt, floor, cfg.trust)
        records.append(PairRecord(ev.h, alpha, rho, rho_d, rho_theta, d))

    # A pair whose rate did not move keeps the row built in the geometry pass.
    rows = [o.row if rec.alpha == o.prev.alpha
            else cbf_row(o.ev, M, o.a_j, rec.alpha, tag=(i, o.other.id))
            for o, rec in zip(obs, records)]

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
                           pairs=tuple(records))
