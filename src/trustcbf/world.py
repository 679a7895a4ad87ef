"""Agent state records, observation snapshots, and the bounded-difference motion estimator.

Agents only ever see each other through immutable snapshots of the world.  A
neighbor's future motion is unknown, so observers bound its position rate
with a ball: the center is the finite-difference position rate between the
previous snapshot and the current one, and the radius is ten percent of the
full state derivative's norm.  Before two observations exist, every watched
agent gets the bootstrap ball instead (zero center, the speed bound v_max as
radius), flagged as a prior.  This module also judges the estimates from a
recorded path: a miss is a next motion that leaves the ball the two samples
before it give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Optional, Sequence

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


@dataclass(frozen=True, slots=True)
class AgentState:
    """Immutable per-agent record.

    ``psi`` is meaningful for unicycles only.  Construction wraps it to
    (-pi, pi]; this is the one place a heading is wrapped, so
    ``dynamics.euler_step`` hands over psi + dt omega as it is.  ``target`` is
    the agent's declared goal position; ``None`` marks it unknown to
    observers.  Every number must be finite, and is stored as a float and
    the target as a float pair.  Values that already are (a float psi inside
    (-pi, pi], where wrapping is the identity bit for bit, and a tuple of two
    floats) are kept as they are, so an Euler step's state costs one
    finiteness test and a few type checks.
    """

    id: int
    kind: AgentKind
    model: Model
    px: float
    py: float
    psi: float = 0.0
    target: Optional[tuple[float, float]] = None

    def __post_init__(self):
        px, py, psi, target = self.px, self.py, self.psi, self.target
        tx, ty = (0.0, 0.0) if target is None else target
        if not (isfinite(px) and isfinite(py) and isfinite(psi)
                and isfinite(tx) and isfinite(ty)):
            for name, v in (("px", px), ("py", py), ("psi", psi)):
                if not isfinite(v):
                    raise ValueError(f"agent {self.id}: non-finite {name}")
            raise ValueError(f"agent {self.id}: non-finite target")
        if type(px) is not float:
            object.__setattr__(self, "px", float(px))
        if type(py) is not float:
            object.__setattr__(self, "py", float(py))
        if type(psi) is not float or not -math.pi < psi <= math.pi:
            object.__setattr__(self, "psi", wrap_angle(psi))
        if target is not None and not (
                type(target) is tuple and type(tx) is float and type(ty) is float):
            object.__setattr__(self, "target", (float(tx), float(ty)))


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


def motion_ball(dx: float, dy: float, dpsi: float, h: float,
                unicycle: bool) -> tuple[tuple[float, float], float]:
    """Center and radius ((cx, cy), r) of the ball estimated from one
    sample's change (dx, dy, dpsi) over h seconds.

    The center is (dx, dy) / h.  The radius is ESTIMATE_RADIUS_FACTOR times
    the norm of the full state's difference quotient: for a unicycle that
    includes the heading rate, differenced modulo 2*pi, so the ball stays a
    conservative bound on the position rate.
    """
    vx, vy = dx / h, dy / h
    w = wrap_angle(dpsi) / h if unicycle else 0.0
    return (vx, vy), ESTIMATE_RADIUS_FACTOR * math.sqrt(vx * vx + vy * vy + w * w)


def estimate_motion(older: WorldSnapshot, newer: WorldSnapshot, j: int) -> MotionEstimate:
    """Finite-difference estimate of agent j's position rate between two
    snapshots: the ``motion_ball`` of its change over their time difference.

    Raises ValueError unless ``newer`` is later than ``older``.
    """
    dt = newer.time - older.time
    if dt <= 0.0:
        raise ValueError(f"snapshots out of order (dt={dt})")
    a0, a1 = older.agents[j], newer.agents[j]
    return MotionEstimate(*motion_ball(a1.px - a0.px, a1.py - a0.py, a1.psi - a0.psi, dt,
                                       a1.model is Model.UNICYCLE))


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


def estimate_misses(times: Sequence[float], px: Sequence[float], py: Sequence[float],
                    psi: Sequence[float], model: Model, dt: float) -> list[int]:
    """The steps k at which one agent's recorded path left its estimate ball.

    The path is the agent's position and heading at each of the K ``times``.
    Step k, for k in 1 ... K-2, is a miss when the rate (p_{k+1} - p_k) / dt
    lies farther than radius + 1e-9 from the center of the ``motion_ball``
    of the change from k-1 to k.  Step 0 had only the bootstrap prior, which
    is not an estimate, and the last record has no next motion, so neither is
    judged.
    """
    misses = []
    for k in range(1, len(times) - 1):
        (cx, cy), r = motion_ball(px[k] - px[k - 1], py[k] - py[k - 1], psi[k] - psi[k - 1],
                                  times[k] - times[k - 1], model is Model.UNICYCLE)
        ex = (px[k + 1] - px[k]) / dt - cx
        ey = (py[k + 1] - py[k]) / dt - cy
        if math.sqrt(ex * ex + ey * ey) > r + 1e-9:
            misses.append(k)
    return misses
