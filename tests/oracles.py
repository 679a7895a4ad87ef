"""Exact oracles for the solvers, random instances, the solver self-test,
and a CSV reader.

The tests check the polygon kernel of ``trustcbf.solvers`` against code that
shares none of it: exhaustive enumeration, in integer arithmetic, of the
vertices (``exact_points``, ``exact_lp``) and of the 2-D KKT candidates of
the QP (``exact_qp``), each on the rows as given or moved by the rounding
bound delta that the solvers' docstring proves for n rows (``_lines``).
They judge the solvers' contract: Infeasible only on an exactly empty set,
and every answer but u_ref within delta of every row (``holds_within_delta``).
And they bracket every value.  The float polygon lies inside box ∩ rows
loosened by delta, by contract (c); and the docstring's winding argument,
run with the unmoved offsets b' = b, shows that a point of box ∩ rows
tightened by delta is never cut off by an edge, so that set lies inside the
float polygon.  So no LP value beats ``exact_lp`` over the loosened rows or
falls short of it over the tightened ones, and a QP value lies between
``exact_qp`` over the two (``outside``).  ``self_test`` is the one check on
random instances.  This module lives with the tests, outside the package,
so the package never imports numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from trustcbf import solvers
from trustcbf.schema import Box
from trustcbf.solvers import Infeasible, QPProblem

# How far, relative to 1 + |value|, a solver's value may fall outside its
# delta bracket: the rounding of the value itself from its float point.
EPS = 1e-12


def random_qp_instance(rng: np.random.Generator, max_rows: int = 4,
                       box_half: float = 3.0) -> QPProblem:
    """Random projection problem whose feasible set contains a ball of radius >= 0.25.

    The margin ball makes every instance feasible, so each one compares a
    value, while rows and box faces can still go active.
    """
    box = Box((-box_half,) * 2, (box_half,) * 2)
    z = rng.uniform(-0.8 * box_half, 0.8 * box_half, 2)
    rows = []
    for _ in range(int(rng.integers(0, max_rows + 1))):
        a = rng.normal(size=2)
        na = float(np.linalg.norm(a))
        if na < 1e-6:
            a = np.eye(2)[0]
            na = 1.0
        a *= float(rng.uniform(0.5, 2.0)) / na
        slack = float(rng.uniform(0.25, 1.5))
        b = float(a @ z) - slack * float(np.linalg.norm(a))
        rows.append((float(a[0]), float(a[1]), b))
    u_ref = rng.uniform(-1.2 * box_half, 1.2 * box_half, 2)
    return QPProblem(u_ref=u_ref, rows=rows, box=box)


def random_goal_instance(rng: np.random.Generator, box_half: float = 3.0) -> QPProblem:
    """Random goal-descent problem: u_ref = 0 and the one row
    2 e . u >= k ||e||^2 of the goal offset e and the rate k, inside a box
    whose sides lie 0.05 to ``box_half`` from the origin.  The foot (k / 2) e
    lands inside the box, outside it with the line still crossing the box,
    or out of the box's reach, each case often."""
    lo = -rng.uniform(0.05, box_half, 2)
    hi = rng.uniform(0.05, box_half, 2)
    e = rng.uniform(-box_half, box_half, 2)
    k = float(rng.uniform(0.2, 2.0))
    row = (float(2.0 * e[0]), float(2.0 * e[1]), k * float(e @ e))
    return QPProblem(u_ref=(0.0, 0.0), rows=[row], box=Box(tuple(lo), tuple(hi)))


def random_lp_instance(rng: np.random.Generator, max_rows: int = 4,
                       box_half: float = 3.0):
    """Random bounded LP with a nonempty interior, for solver-vs-vertex checks."""
    p = random_qp_instance(rng, max_rows=max_rows, box_half=box_half)
    c = rng.normal(size=2)
    return c, p.rows, p.box


def _faces(box: Box) -> list:
    """The box faces as rows: u_k >= lo_k and -u_k >= -hi_k."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    return [(1.0, 0.0, lo0), (-1.0, 0.0, -hi0), (0.0, 1.0, lo1), (0.0, -1.0, -hi1)]


def _whole(values: Sequence[float]) -> tuple[list[int], int]:
    """Integers n_k and d > 0 with values[k] = n_k / d exactly."""
    f = [Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in f))
    return [v.numerator * (d // v.denominator) for v in f], d


def _lines(rows: Sequence[tuple], box: Box, n: Optional[int] = None, sign: int = 1) -> list:
    """The rows, then the box faces, each as integers (e0, e1, f) for the same
    half-plane e . u >= f.  When n is given, each (a0, a1, b) is first moved
    exactly to (a0, a1, b - sign delta), delta = 8 (n + 2) 2^-53 (|b| + ||a||_1 R),
    R = max |box bound|, the rounding bound that the solvers' docstring
    proves for n rows: sign = 1 loosens every constraint, -1 tightens it."""
    R = max(-box.lo[0], -box.lo[1], box.hi[0], box.hi[1])
    lines = []
    for row in [*rows, *_faces(box)]:
        if n is None:
            lines.append(tuple(_whole(row)[0]))
            continue
        # the moved row times d^2 2^53, with a0 = e0 / d, ..., R = r / d
        (e0, e1, f, r), d = _whole((*row, R))
        m = d << 53
        lines.append((e0 * m, e1 * m,
                      f * m - sign * (8 * n + 16) * (abs(f) * d + (abs(e0) + abs(e1)) * r)))
    return lines


def holds_within_delta(u: Sequence[float], rows: Sequence[tuple], box: Box, n: int) -> bool:
    """Whether the point u holds every row and box face to within its delta
    for n rows (``_lines``), in exact arithmetic."""
    (x, y), d = _whole(u)
    return all(e0 * x + e1 * y >= f * d for e0, e1, f in _lines(rows, box, n))


def _exact_crossings(lines: list) -> Iterator[tuple[int, int, int, list]]:
    """For every two of the integer ``lines`` that cross, the point
    (X / D, Y / D) where they do, as (X, Y, D) with D > 0, and the indices of
    the lines it violates.  Every test is an integer one."""
    for (a0, a1, b), (c0, c1, d) in combinations(lines, 2):
        det = a0 * c1 - a1 * c0
        if det == 0:
            continue
        X, Y = b * c1 - a1 * d, a0 * d - b * c0
        if det < 0:
            X, Y, det = -X, -Y, -det
        yield X, Y, det, [k for k, (e0, e1, f) in enumerate(lines) if e0 * X + e1 * Y < f * det]


def exact_points(rows: Sequence[tuple], box: Box, n: Optional[int] = None,
                 sign: int = 1) -> list[tuple[Fraction, Fraction]]:
    """Every crossing of two lines, row lines and box sides, that holds the
    box and every row exactly, as Fractions; with every row and face moved by
    sign times its delta for n rows when n is given (``_lines``).

    Empty exactly when box ∩ rows is: a nonempty set has a vertex, where two
    of its lines with independent normals cross (a row with a zero normal has
    no line, but every point is tested against it).
    """
    return [(Fraction(X, D), Fraction(Y, D))
            for X, Y, D, off in _exact_crossings(_lines(rows, box, n, sign)) if not off]


def exact_lp(c: Sequence[float], rows: Sequence[tuple], box: Box, n: Optional[int] = None,
             sign: int = 1) -> Optional[Fraction]:
    """The largest c . u over box ∩ rows, exactly, or None where the set is
    empty; every row and face moved as in ``exact_points``.  A nonempty
    polygon attains it at a vertex, one of ``exact_points``."""
    c0, c1 = Fraction(c[0]), Fraction(c[1])
    return max((c0 * x + c1 * y for x, y in exact_points(rows, box, n, sign)), default=None)


def exact_qp(problem: QPProblem, n: Optional[int] = None,
             sign: int = 1) -> Optional[tuple[Fraction, tuple[Fraction, Fraction]]]:
    """The least ||u - u_ref||^2 over box ∩ rows and a point attaining it,
    exactly, or None where the set is empty; every row and face moved as in
    ``exact_points``.

    By the KKT conditions in the plane, the nearest point is u_ref itself,
    the foot of u_ref on one constraint line, or a crossing of two lines (a
    row with a zero normal has no line, and no foot): the nearest of these
    that holds every constraint.  Each candidate is a point (X / D, Y / D) of
    integers, D > 0.
    """
    lines = _lines(problem.rows, problem.box, n, sign)
    (rx, ry), rd = _whole(problem.u_ref)
    points = [(rx, ry, rd)]
    for e0, e1, f in lines:
        if e0 or e1:
            # u_ref + t e, t = (f - e . u_ref) / ||e||^2
            norm, t = e0 * e0 + e1 * e1, f * rd - e0 * rx - e1 * ry
            points.append((rx * norm + t * e0, ry * norm + t * e1, rd * norm))
    points = [(X, Y, D) for X, Y, D in points
              if all(e0 * X + e1 * Y >= f * D for e0, e1, f in lines)]
    points += [(X, Y, D) for X, Y, D, off in _exact_crossings(lines) if not off]
    if not points:
        return None

    def distance(X, Y, D):
        return Fraction((X * rd - rx * D) ** 2 + (Y * rd - ry * D) ** 2, (D * rd) ** 2)

    X, Y, D = min(points, key=lambda p: distance(*p))
    return distance(X, Y, D), (Fraction(X, D), Fraction(Y, D))


def outside(value: float, lower: Optional[Fraction], upper: Optional[Fraction]) -> float:
    """How far the float value lies below lower or above upper, exactly,
    relative to 1 + |value|; 0 inside the bracket, and a bound that is None
    bounds nothing."""
    v = Fraction(value)
    miss = max(0, v - upper if upper is not None else 0, lower - v if lower is not None else 0)
    return float(miss) / (1.0 + abs(value))


def exact_leave_one_out(rows: Sequence[tuple], box: Box,
                        n: Optional[int] = None) -> list[bool]:
    """For every k, whether box ∩ (every row but k) is exactly nonempty (each
    constraint loosened by its delta for n rows when n is given).

    A nonempty one has a vertex, a crossing of two lines other than row k's
    that violates nothing but row k; conversely any crossing that violates
    row k alone is a point of it.  One enumeration serves every k.
    """
    nonempty = [False] * len(rows)
    for _, _, _, off in _exact_crossings(_lines(rows, box, n)):
        if not off:
            return [True] * len(rows)
        if len(off) == 1 and off[0] < len(rows):
            nonempty[off[0]] = True
    return nonempty


def random_conflict_rows(rng: np.random.Generator, max_rows: int = 8,
                         box_half: float = 3.0) -> tuple[list, Box]:
    """2 to max_rows rows in random order that often leave the box empty, for
    the emptiness certificate and the leave-one-out LPs: ordinary rows, a row
    facing an earlier one (near-parallel, rotated by up to 1e-6 rad), three
    rows at 120 degrees around a point, and vacuous, corner-grazing or
    demanding zero-normal rows.  A conflict's gap is 1 to 1e4 ulps of the
    row's scale |b| + ||a||_1 box_half, where the solvers' rounding bound
    delta lies, or large; two in five gaps are negative, so the rows then
    leave a sliver."""
    box = Box((-box_half,) * 2, (box_half,) * 2)

    def gap(scale):
        g = (scale * 2.0 ** -52 * 10.0 ** rng.uniform(0.0, 4.0) if rng.uniform() < 0.75
             else 10.0 ** rng.uniform(-4.0, 0.0))
        return g if rng.uniform() < 0.6 else -g

    rows: list[tuple] = []
    n = int(rng.integers(2, max_rows + 1))
    while len(rows) < n:
        kind = rng.choice(["plain", "facing", "star", "zero"], p=[0.35, 0.35, 0.2, 0.1])
        usable = [r for r in rows if math.hypot(r[0], r[1]) > 1e-6]
        if kind == "facing" and not usable or kind == "star" and len(rows) + 3 > n:
            kind = "plain"
        if kind == "plain":
            a = rng.normal(size=2) * rng.uniform(0.1, 3.0)
            rows.append((float(a[0]), float(a[1]), float(rng.uniform(-8.0, 1.0))))
        elif kind == "facing":
            # a . u >= b and -a' . u >= -b + gap, a' a near copy of a
            a0, a1, b = usable[int(rng.integers(0, len(usable)))]
            t = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, -6.0)
            c, s = math.cos(t), math.sin(t)
            k = rng.uniform(0.5, 2.0)
            g = gap(abs(b) + (abs(a0) + abs(a1)) * box_half)
            rows.append((-k * (c * a0 - s * a1), -k * (s * a0 + c * a1), k * (-b + g)))
        elif kind == "star":
            # sum of the unit normals is 0: empty exactly when the gap is > 0
            z = rng.uniform(-0.8 * box_half, 0.8 * box_half, 2)
            theta, g = rng.uniform(0.0, 2.0 * math.pi), gap(float(np.abs(z).sum()) + box_half)
            for j in range(3):
                a = np.array((math.cos(theta + 2.0 * math.pi * j / 3.0),
                              math.sin(theta + 2.0 * math.pi * j / 3.0))) * rng.uniform(0.5, 2.0)
                rows.append((float(a[0]), float(a[1]),
                             float(a @ z) + g * float(np.linalg.norm(a))))
        else:
            # 6e-13 grazes the box corner that the normal 1e-13 (1, -1) reaches
            a = float(rng.choice([0.0, 1e-13]))
            rows.append((a, -a, float(rng.choice([-1.0, 0.0, 6e-13, 0.5]))))
    order = rng.permutation(len(rows))
    return [rows[k] for k in order], box


def _violation(u: Sequence[float], rows: Sequence[tuple], box: Box) -> float:
    """How far u falls outside the box or the worst row (<= 0 when it holds all)."""
    return max(box.lo[0] - u[0], box.lo[1] - u[1], u[0] - box.hi[0], u[1] - box.hi[1],
               *(b - a0 * u[0] - a1 * u[1] for a0, a1, b in rows))


def self_test(rng: np.random.Generator, n_qp: int, n_lp: int) -> tuple[list[str], int]:
    """Hold the solvers to the oracles on random instances: the report's
    ``qp:``, ``lp:``, ``cert:`` and ``goal:`` lines and the total count of
    failures.

    - ``n_qp`` QPs (``random_qp_instance``, always feasible): ``solve_qp``
      answers, twice with the same bits, inside the delta bracket to
      ``EPS`` (``exact_qp`` on the rows loosened and tightened by delta),
      outside no row or box face by more than 1e-9, and, unless it answers
      u_ref, within delta of every one (``holds_within_delta``).
    - ``n_lp`` LPs (``random_lp_instance``): ``solve_lp``'s value lies inside
      the delta bracket to ``EPS`` (``exact_lp``), and its vertex holds the
      box and every row to 1e-9 and to within delta.
    - ``n_lp`` conflicting row lists (``random_conflict_rows``), through the
      leave-one-out LPs the run calls: a value is None only where the other
      rows leave the box exactly empty, and given only where they hold a
      point once every row and face is lowered by its delta
      (``exact_leave_one_out``); every LP outside a certified triple is None;
      or the list fails.  A certified triple in which ``exact_points`` finds
      a point is an unsound certificate, which counts as a failure.
    - ``n_qp`` goal descents (``random_goal_instance``): ``solve_min_norm``
      raises Infeasible only where ``exact_points`` finds no point, answers
      only where ``exact_qp`` finds one in the loosened set, and then inside
      the delta bracket to ``EPS``, outside the row or a box face by no more
      than 1e-9, and, unless it answers the origin, within delta of each.
      The line reports how many answers the box clamped (the foot left the
      box) and how many instances were empty.

    A bracket gap is ``outside``'s: how far a value lies outside its bracket,
    relative to 1 + |value|.  The answer u_ref (the origin for a goal
    descent) follows the QP's rule, not the contract, so its value 0 has no
    lower bound.  A solver that raises fails that instance.  The solvers are
    looked up on ``trustcbf.solvers`` at each call, so a patched solver is
    the one tested.  The instances are drawn from ``rng`` in that order.
    """
    qp_fail = qp_gap = qp_viol = 0
    for _ in range(n_qp):
        p = random_qp_instance(rng)
        lower, upper = exact_qp(p, len(p.rows)), exact_qp(p, len(p.rows), -1)
        try:
            u = solvers.solve_qp(p)
            same = list(map(float.hex, u)) == list(map(float.hex, solvers.solve_qp(p)))
        except Exception:
            u = None
        if u is None or lower is None:
            qp_fail += 1
            continue
        value = (u[0] - p.u_ref[0]) ** 2 + (u[1] - p.u_ref[1]) ** 2
        gap = outside(value, None if value == 0.0 else lower[0], upper[0] if upper else None)
        viol = _violation(u, p.rows, p.box)
        qp_gap, qp_viol = max(qp_gap, gap), max(qp_viol, viol)
        qp_fail += not (same and gap <= EPS and viol <= 1e-9 and (
            value == 0.0 or holds_within_delta(u, p.rows, p.box, len(p.rows))))
    lp_fail = lp_gap = lp_viol = 0
    for _ in range(n_lp):
        c, rows, box = random_lp_instance(rng)
        try:
            value, u = solvers.solve_lp(c, rows, box)
        except Exception:
            lp_fail += 1
            continue
        gap = outside(value, exact_lp(c, rows, box, len(rows), -1),
                      exact_lp(c, rows, box, len(rows)))
        viol = _violation(u, rows, box)
        lp_gap, lp_viol = max(lp_gap, gap), max(lp_viol, viol)
        lp_fail += not (gap <= EPS and viol <= 1e-9
                        and holds_within_delta(u, rows, box, len(rows)))
    cert_fail = certified = unsound = 0
    for _ in range(n_lp):
        rows, box = random_conflict_rows(rng)
        try:
            values, chain = solvers.solve_lp_leave_one_out(rows, box)
        except Exception:
            cert_fail += 1
            continue
        exact = exact_leave_one_out(rows, box)
        loose = exact_leave_one_out(rows, box, len(rows))
        cert = chain.cert
        cert_fail += any(exact[k] if v is None else not loose[k] for k, v in enumerate(values)) or (
            cert is not None and any(v is not None for k, v in enumerate(values) if k not in cert))
        if cert is not None:
            certified += 1
            unsound += bool(exact_points([rows[k] for k in cert], box))
    goal_fail = goal_gap = goal_viol = clamped = empty = 0
    for _ in range(n_qp):
        p = random_goal_instance(rng)
        try:
            u = solvers.solve_min_norm(p.rows[0], p.box)
        except Infeasible:
            empty += 1
            goal_fail += bool(exact_points(p.rows, p.box))
            continue
        except Exception:
            goal_fail += 1
            continue
        lower, upper = exact_qp(p, 1), exact_qp(p, 1, -1)
        if lower is None:
            goal_fail += 1
            continue
        (a0, a1, b), box = p.rows[0], p.box
        s = b / (a0 * a0 + a1 * a1)
        clamped += _violation((s * a0, s * a1), [], box) > 0.0
        origin = u == (0.0, 0.0)
        gap = outside(u[0] * u[0] + u[1] * u[1], None if origin else lower[0],
                      upper[0] if upper else None)
        viol = _violation(u, p.rows, box)
        goal_gap, goal_viol = max(goal_gap, gap), max(goal_viol, viol)
        goal_fail += not (gap <= EPS and viol <= 1e-9 and (
            origin or holds_within_delta(u, p.rows, box, 1)))
    lines = [f"qp: {n_qp} instances, worst bracket gap {qp_gap:.3e}, "
             f"worst violation {qp_viol:.3e}, {qp_fail} failures",
             f"lp: {n_lp} instances, worst bracket gap {lp_gap:.3e}, "
             f"worst vertex violation {lp_viol:.3e}, {lp_fail} failures",
             f"cert: {n_lp} instances, {certified} certified, {unsound} unsound, "
             f"{cert_fail} failures",
             f"goal: {n_qp} instances, {clamped} clamped, {empty} empty, worst bracket gap "
             f"{goal_gap:.3e}, worst violation {goal_viol:.3e}, {goal_fail} failures"]
    return lines, qp_fail + lp_fail + cert_fail + unsound + goal_fail


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """Load trace.csv or pairs.csv into column arrays (exact round trip of %.17g floats)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell))
    return {name: np.array(vals) for name, vals in cols.items()}
