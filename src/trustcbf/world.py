"""Agent state records, observation snapshots, and the bounded-difference motion estimator.

Agents only ever see each other through immutable snapshots of the world.  A
neighbor's future motion is unknown, so observers bound it with a ball: the
center is the finite-difference state derivative over the last step and the
radius is ten percent of that derivative's norm.  Before two observations
exist, a conservative bootstrap ball (zero center, the speed bound v_max as
radius) is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

TWO_PI = 2.0 * math.pi

# Estimate ball radius as a fraction of the finite-difference derivative norm.
ESTIMATE_RADIUS_FACTOR = 0.1


class AgentKind(Enum):
    INTACT = "Intact"
    UNCOOPERATIVE = "Uncooperative"
    ADVERSARIAL = "Adversarial"


class Model(Enum):
    UNICYCLE = "Unicycle"
    SINGLE_INTEGRATOR = "SingleIntegrator"


class MissingHistory(Exception):
    """Motion estimation was attempted with fewer than two world snapshots."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def is_float_pair(v) -> bool:
    """Whether v is already a tuple of two Python floats (nothing to convert)."""
    return type(v) is tuple and len(v) == 2 and type(v[0]) is float and type(v[1]) is float


@dataclass(frozen=True)
class AgentState:
    """Immutable per-agent record.

    ``psi`` is meaningful for unicycles only and is normalized to (-pi, pi] on
    construction.  ``target`` is the agent's declared goal position; ``None``
    marks it unknown to observers.
    """

    id: int
    kind: AgentKind
    model: Model
    px: float
    py: float
    psi: float = 0.0
    target: Optional[tuple[float, float]] = None

    def __post_init__(self):
        px, py, psi = self.px, self.py, self.psi
        for name, v in (("px", px), ("py", py), ("psi", psi)):
            if not math.isfinite(v):
                raise ValueError(f"agent {self.id}: non-finite {name}")
        target = self.target
        if target is not None:
            tx, ty = target
            if not (math.isfinite(tx) and math.isfinite(ty)):
                raise ValueError(f"agent {self.id}: non-finite target")
            if not is_float_pair(target):
                object.__setattr__(self, "target", (float(tx), float(ty)))
        object.__setattr__(self, "psi", wrap_angle(psi))
        # Euler steps hand over floats and float pairs; convert anything else.
        if type(px) is not float:
            object.__setattr__(self, "px", float(px))
        if type(py) is not float:
            object.__setattr__(self, "py", float(py))


@dataclass(frozen=True)
class WorldSnapshot:
    """Immutable view of every agent at one instant.  Index == agent id."""

    time: float
    agents: tuple[AgentState, ...]


@dataclass(slots=True)
class MotionEstimate:
    """Ball bound on a neighbor's state derivative: center F_hat (a tuple of
    floats, one per state component), radius b_F."""

    center: tuple[float, ...]
    radius: float


def estimate_motion(history: Sequence[WorldSnapshot], j: int) -> MotionEstimate:
    """Finite-difference estimate of agent j's state derivative from the last two snapshots.

    The center is (state(t) - state(t-dt)) / dt with the heading component
    differenced modulo 2*pi; the radius is ESTIMATE_RADIUS_FACTOR times the
    center norm (exact arithmetic relation, relied on by callers).

    Raises MissingHistory when fewer than two snapshots are available.
    """
    if len(history) < 2:
        raise MissingHistory(f"need two snapshots to estimate agent {j}'s motion")
    older, newer = history[-2], history[-1]
    dt = newer.time - older.time
    if dt <= 0.0:
        raise MissingHistory(f"snapshots out of order (dt={dt})")
    a0, a1 = older.agents[j], newer.agents[j]
    if a0.model is not a1.model:
        raise ValueError(f"agent {j} changed model between snapshots")
    vx = (a1.px - a0.px) / dt
    vy = (a1.py - a0.py) / dt
    sq = vx * vx + vy * vy
    if a1.model is Model.UNICYCLE:
        w = wrap_angle(a1.psi - a0.psi) / dt
        center = (vx, vy, w)
        sq += w * w
    else:
        center = (vx, vy)
    return MotionEstimate(center=center, radius=ESTIMATE_RADIUS_FACTOR * math.sqrt(sq))


def bootstrap_estimate(v_max: float) -> MotionEstimate:
    """Pre-observation fallback for a position: zero center, radius the speed bound v_max."""
    return MotionEstimate(center=(0.0, 0.0), radius=float(v_max))


def position_part(est: MotionEstimate) -> MotionEstimate:
    """Restrict an estimate to the position sub-state.

    The full-state radius remains a valid bound for the 2-D projection, so it
    is kept as-is (conservative for unicycles).
    """
    return MotionEstimate(center=(float(est.center[0]), float(est.center[1])), radius=est.radius)


def estimate_positions(history: Sequence[WorldSnapshot], ids: Iterable[int]
                       ) -> dict[int, Optional[MotionEstimate]]:
    """Position part of each listed agent's motion estimate, keyed by agent id.

    An estimate depends only on the agent it describes, so one call per step
    serves every observer.  An agent maps to None when its motion cannot be
    estimated yet (fewer than two snapshots); observers then fall back to
    ``bootstrap_estimate``.
    """
    if len(history) < 2:
        return dict.fromkeys(ids)
    out: dict[int, Optional[MotionEstimate]] = {}
    for j in ids:
        try:
            out[j] = position_part(estimate_motion(history, j))
        except MissingHistory:
            out[j] = None
    return out
