"""The data formats: the scenario a run reads and the records its trace holds.

A scenario is a ``Scenario`` of ``AgentSpec`` agents and one ``TrustParams``;
each of their number fields declares its admissible ``Interval`` once, in
the field's metadata, and ``Scenario.validate`` checks every number against
it before the rules no single interval expresses.  ``AgentRecord`` and
``PairRecord`` are the columns of ``trace.csv`` and ``pairs.csv``.

This module imports only the standard library, so loading and validating a
scenario (``trustcbf.cli.load_scenario``) imports no simulator code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional

# The end of every bounded scenario field's interval.  Commands stay in their
# boxes, so positions stay within about 1e12 of the origin, and squared
# distances, gradient norms and rate terms such as -alpha * h stay far below
# the float maximum: none overflows to inf, which would turn a barrier's unit
# normal into (0, 0) or write inf into the trace.
MAGNITUDE_BOUND = 1e6

# Most agent and pair records a run may hold.  The whole trace stays in memory
# as flat float arrays: a finished run holds 53-66 B per record (tracemalloc on
# ring12-0, crossing and headon), about 0.7 GB at this bound.  The largest
# benchmark input holds 11,664 records.
MAX_RECORDS = 10**7

D_MIN_DEFAULT = 0.5       # safety distance of a pair barrier
LOOKAHEAD_DEFAULT = 0.1   # distance of a unicycle's look-ahead point ahead of its axle
CLF_K = 2.0               # exponential rate of the goal-descent QP


class ValidationError(Exception):
    """A scenario violates the schema or its semantic rules."""


class Interval(NamedTuple):
    """The admissible values of a scenario number: finite, and from lo to hi.
    A finite end is included, except a lower end of 0 marked open."""

    lo: float
    hi: float
    lo_open: bool = False

    def violation(self, v: float) -> Optional[str]:
        """Why ``v`` lies outside the interval, or None if it lies inside."""
        if not math.isfinite(v):
            return "must be finite"
        if v < self.lo or (self.lo_open and v == self.lo):
            if self.lo:
                return f"must be at least {self.lo:g}"
            return "must be positive" if self.lo_open else "must be nonnegative"
        if v > self.hi:
            return f"must be at most {self.hi:g}"
        return None


BOUNDED = Interval(0.0, MAGNITUDE_BOUND)
BOUNDED_POSITIVE = Interval(0.0, MAGNITUDE_BOUND, lo_open=True)
# Intervals of the scenario numbers that TrustParams does not use.
COORDINATE = Interval(-MAGNITUDE_BOUND, MAGNITUDE_BOUND)
POSITIVE = Interval(0.0, math.inf, lo_open=True)
FINITE = Interval(-math.inf, math.inf)


def ranged(interval, default=MISSING):
    """A dataclass field whose value lies in ``interval``.  A sequence value
    gives each element the interval, or each element its own when
    ``interval`` is a tuple of intervals; a None value has no number."""
    return field(default=default, metadata={"range": interval})


class AgentKind(Enum):
    INTACT = "Intact"
    UNCOOPERATIVE = "Uncooperative"
    ADVERSARIAL = "Adversarial"


class Model(Enum):
    UNICYCLE = "Unicycle"
    SINGLE_INTEGRATOR = "SingleIntegrator"


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounds of a 2-D control.  Must be nonempty and contain the origin."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError(f"control box must be 2-D, got lo={self.lo}, hi={self.hi}")
        for l, h in zip(self.lo, self.hi):
            if not (l <= 0.0 <= h):
                raise ValueError(f"control box must contain 0, got [{l}, {h}]")
            if l >= h:
                raise ValueError(f"degenerate box interval [{l}, {h}]")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))

    def clip(self, u: Sequence[float]) -> tuple[float, float]:
        """The 2-D command ``u`` clamped to the box, componentwise."""
        (lo0, lo1), (hi0, hi1) = self.lo, self.hi
        return min(max(float(u[0]), lo0), hi0), min(max(float(u[1]), lo1), hi1)

    def contains(self, u: Sequence[float], tol: float = 1e-9) -> bool:
        (lo0, lo1), (hi0, hi1) = self.lo, self.hi
        return lo0 - tol <= u[0] <= hi0 + tol and lo1 - tol <= u[1] <= hi1 + tol


DEFAULT_BOX = Box((-3.0, -3.0), (3.0, 3.0))


@dataclass
class TrustParams:
    """Knobs of the trust pipeline, shared by every pair of one scenario."""

    rho_bar_d: float = ranged(Interval(0.0, 1.0), 0.5)  # margin score between decay and growth
    beta: float = ranged(BOUNDED, 1.0)                  # margin score slope
    k_blend: float = ranged(BOUNDED, 50.0)              # sharpness of the trust-branch blend
    gamma_alpha: float = ranged(BOUNDED, 1.0)           # rate gain applied to the trust score
    alpha0: float = ranged(BOUNDED_POSITIVE, 0.8)       # initial per-pair rate
    alpha_min: float = ranged(BOUNDED_POSITIVE, 0.01)   # hard lower bound on alpha
    alpha_max: float = ranged(BOUNDED_POSITIVE, 1e6)    # cap (the rate floor diverges as h -> 0)
    L_F: float = ranged(BOUNDED, 1.0)       # Lipschitz bound assumed for neighbor motion fields
    L_hdot: float = ranged(BOUNDED, 2.0)    # Lipschitz bound of dh/dt in the neighbor state
    v_max: float = ranged(BOUNDED, 3.0)     # bootstrap speed bound before any motion is observed


@dataclass
class AgentSpec:
    kind: AgentKind
    model: Model
    start: tuple[float, ...] = ranged((COORDINATE, COORDINATE, FINITE))  # (x, y) or (x, y, psi)
    target: Optional[tuple[float, float]] = ranged(COORDINATE, None)    # None: target unknown
    d_min: float = ranged(BOUNDED_POSITIVE, D_MIN_DEFAULT)
    box: Box = ranged(COORDINATE, DEFAULT_BOX)    # each bound of the control box
    prey: Optional[int] = None                    # adversarial only
    speed: float = ranged(POSITIVE, 1.0)          # uncooperative cruise speed
    gain: float = ranged(POSITIVE, CLF_K)         # adversarial chase gain


def _check_ranges(obj, where: str) -> None:
    """Check each number of the dataclass ``obj`` against its field's interval."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "range" not in f.metadata or value is None:
            continue
        values = value.lo + value.hi if isinstance(value, Box) else value
        intervals = f.metadata["range"]
        for v, interval in zip(values if isinstance(values, Sequence) else (values,),
                               repeat(intervals) if isinstance(intervals, Interval) else intervals):
            why = interval.violation(v)
            if why:
                raise ValidationError(f"{where}{f.name} {why}, got {v}")


@dataclass
class Scenario:
    agents: list[AgentSpec]
    duration: float = ranged(BOUNDED)
    dt: float = ranged(POSITIVE, 0.05)
    trust: TrustParams = field(default_factory=TrustParams)
    fixed_alpha: bool = False
    rate_floor: bool = True
    seed: int = 0
    gamma_nominal: float = ranged(POSITIVE, 1.0)   # speed of the metrics' straight-line reference
    lookahead: float = ranged(BOUNDED_POSITIVE, LOOKAHEAD_DEFAULT)

    def validate(self) -> None:
        """Check each number against its field's interval, then the other rules."""
        if not self.agents:
            raise ValidationError("scenario needs at least one agent")
        _check_ranges(self, "")
        _check_ranges(self.trust, "trust.")
        n = len(self.agents)
        n_intact = sum(a.kind is AgentKind.INTACT for a in self.agents)
        # Float arithmetic, so a step count that overflows gives inf and fails.
        records = (self.duration / self.dt + 1.0) * (n + n_intact * (n - 1))
        if not records <= MAX_RECORDS:
            raise ValidationError(f"the trace would hold {records:.3g} agent and pair records "
                                  f"(duration {self.duration} / dt {self.dt}), more than "
                                  f"{MAX_RECORDS}")
        if not self.trust.alpha_min <= self.trust.alpha0 <= self.trust.alpha_max:
            raise ValidationError("trust rates must satisfy alpha_min <= alpha0 <= alpha_max")
        for idx, a in enumerate(self.agents):
            where = f"agents[{idx}]"
            _check_ranges(a, f"{where}.")
            if not 2 <= len(a.start) <= (3 if a.model is Model.UNICYCLE else 2):
                raise ValidationError(f"{where}.start must be [x, y], or [x, y, psi] on a unicycle")
            if a.target is not None and len(a.target) != 2:
                raise ValidationError(f"{where}.target must be [x, y]")
            if a.kind is not AgentKind.INTACT and a.model is not Model.SINGLE_INTEGRATOR:
                raise ValidationError(f"{where}: {a.kind.value} agents use the "
                                      f"SingleIntegrator model")
            if a.kind is not AgentKind.ADVERSARIAL and a.target is None:
                raise ValidationError(f"{where}: {a.kind.value} agents need a known target")
            if a.kind is AgentKind.ADVERSARIAL and (a.prey is None or a.prey == idx
                                                    or not 0 <= a.prey < n):
                raise ValidationError(f"{where}.prey: Adversarial agents must name another "
                                      f"agent id, got {a.prey}")


class AgentRecord(NamedTuple):
    """One agent at one step: its state, reference and applied commands, and
    the fallback code.  The fields are the trace.csv columns after t and
    agent_id."""

    px: float
    py: float
    psi: float
    u1_ref: float
    u2_ref: float
    u1: float
    u2: float
    fallback: int

    @property
    def u_ref(self) -> tuple[float, float]:
        return self.u1_ref, self.u2_ref

    @property
    def u(self) -> tuple[float, float]:
        return self.u1, self.u2


class PairRecord(NamedTuple):
    """One ordered pair's state after a step: the barrier value on that step's
    snapshot, the rate parameter, and the last scores the pair received."""

    h: float
    alpha: float
    rho: float = 0.0
    rho_d: float = 0.0
    rho_theta: float = 0.5
    margin: float = 0.0


# Doubles per record in Trace.agent_data and Trace.pair_data.
AGENT_FIELDS = len(AgentRecord._fields)
PAIR_FIELDS = len(PairRecord._fields)
