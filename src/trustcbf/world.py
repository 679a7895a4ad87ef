"""Agent state records, observation snapshots, and the bounded-difference motion estimator.

Agents only ever see each other through immutable snapshots of the world.  A
neighbor's future motion is unknown, so observers bound its position rate
with a ball: the center is the finite-difference position rate between the
previous snapshot and the current one, and the radius is ten percent of the
full state derivative's norm.  Before two observations exist, every watched
agent gets the bootstrap ball instead (zero center, the speed bound v_max as
radius), flagged as a prior.  This module also judges the estimates: a miss
is a next motion that leaves the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .schema import AgentKind, Model

TWO_PI = 2.0 * math.pi

# Estimate ball radius as a fraction of the finite-difference derivative norm.
ESTIMATE_RADIUS_FACTOR = 0.1


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

    ``psi`` is meaningful for unicycles only.  Construction wraps it to
    (-pi, pi]; this is the one place a heading is wrapped, so
    ``dynamics.euler_step`` hands over psi + dt omega as it is.  ``target`` is
    the agent's declared goal position; ``None`` marks it unknown to
    observers.
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
    """Ball bound on a neighbor's position rate: center F_hat (a float pair),
    radius b_F.  ``bootstrap`` marks the speed-bound prior, which is not an
    observation."""

    center: tuple[float, float]
    radius: float
    bootstrap: bool = False


def estimate_motion(older: WorldSnapshot, newer: WorldSnapshot, j: int) -> MotionEstimate:
    """Finite-difference estimate of agent j's position rate between two snapshots.

    The center is (position(t) - position(t-dt)) / dt.  The radius is
    ESTIMATE_RADIUS_FACTOR times the norm of the full state's difference
    quotient: for a unicycle that includes the heading rate, differenced
    modulo 2*pi, so the ball stays a conservative bound on the position rate.

    Raises ValueError unless ``newer`` is later than ``older``.
    """
    dt = newer.time - older.time
    if dt <= 0.0:
        raise ValueError(f"snapshots out of order (dt={dt})")
    a0, a1 = older.agents[j], newer.agents[j]
    vx = (a1.px - a0.px) / dt
    vy = (a1.py - a0.py) / dt
    sq = vx * vx + vy * vy
    if a1.model is Model.UNICYCLE:
        w = wrap_angle(a1.psi - a0.psi) / dt
        sq += w * w
    return MotionEstimate(center=(vx, vy), radius=ESTIMATE_RADIUS_FACTOR * math.sqrt(sq))


def bootstrap_estimate(v_max: float) -> MotionEstimate:
    """Pre-observation prior for a position: zero center, radius the speed
    bound v_max, flagged ``bootstrap``."""
    return MotionEstimate(center=(0.0, 0.0), radius=float(v_max), bootstrap=True)


def estimate_positions(prev: Optional[WorldSnapshot], snap: WorldSnapshot,
                       ids: Iterable[int], v_max: float) -> dict[int, MotionEstimate]:
    """Each listed agent's motion estimate from the previous snapshot to ``snap``,
    keyed by agent id.

    An estimate depends only on the agent it describes, so one call per step
    serves every observer, and every listed agent has one.  Without a
    previous snapshot (the first step) each maps to the one flagged
    ``bootstrap_estimate(v_max)``.
    """
    if prev is None:
        return dict.fromkeys(ids, bootstrap_estimate(v_max))
    return {j: estimate_motion(prev, snap, j) for j in ids}


def estimate_misses(estimates: Mapping[int, MotionEstimate], before: Sequence[AgentState],
                    after: Sequence[AgentState], dt: float) -> int:
    """How many of the estimates the agents' motion over one step of ``dt``
    left: the rate (after - before) / dt lies farther than radius + 1e-9 from
    the ball's center.  ``before`` and ``after`` are indexed by agent id.  The
    bootstrap prior is not an estimate and is never judged.
    """
    misses = 0
    for j, est in estimates.items():
        if est.bootstrap:
            continue
        a1, a2 = before[j], after[j]
        dx = (a2.px - a1.px) / dt - est.center[0]
        dy = (a2.py - a1.py) / dt - est.center[1]
        if math.sqrt(dx * dx + dy * dy) > est.radius + 1e-9:
            misses += 1
    return misses
