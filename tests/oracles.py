"""Independent numpy oracles for the solvers, random instances, the solver
self-test, and a CSV reader.

The tests check the polygon kernel of ``trustcbf.solvers`` against code that
shares none of it: exhaustive enumeration of the 2-D KKT candidates for the
QP and of the vertices for the LP, in floats on the rows stacked into one
a . u >= b system, and of the vertices in exact integer arithmetic
(``exact_points``), which judges the solvers' contract: Infeasible only on an
exactly empty set, and every answer within the documented rounding bound
delta of every row (``loosened``).  ``self_test`` is the one check on random
instances.  This module lives with the tests, outside the package, so the
package never imports numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from trustcbf import solvers
from trustcbf.schema import Box
from trustcbf.solvers import FEAS_TOL, Infeasible, QPProblem


def _assemble(rows: Sequence[tuple], box: Box):
    """Stack user rows (a0, a1, b) and box faces into one a.u >= b system (A, b).

    Every row is kept as it is: like any other, a row with a zero normal holds
    at u exactly when a . u - b >= -tol, that is when b <= tol.
    """
    A_list = [np.array((a0, a1)) for a0, a1, _ in rows]
    b_list = [b for _, _, b in rows]
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        A_list.append(e.copy())
        b_list.append(box.lo[k])
        A_list.append(-e)
        b_list.append(-box.hi[k])
    return np.array(A_list), np.array(b_list)


def _crossings(A: np.ndarray, b: np.ndarray) -> Iterator[tuple[tuple, np.ndarray]]:
    """Every point where two of the lines a . u = b cross, with the indices of
    the two lines, in index order.

    A pair is skipped when its solve fails, its point is not finite, or the
    point misses the two lines by more than 1e-9 (1 + |b|).
    """
    for S in combinations(range(len(b)), 2):
        As = A[list(S)]
        bs = b[list(S)]
        try:
            u = np.linalg.solve(As, bs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(u)):
            continue
        if float(np.linalg.norm(As @ u - bs)) > 1e-9 * (1.0 + float(np.linalg.norm(bs))):
            continue
        yield S, u


def qp_oracle(problem: QPProblem, tol: float = FEAS_TOL) -> Optional[tuple[float, np.ndarray]]:
    """Exact projection of u_ref onto the box-extended polygon (test oracle).

    By the KKT conditions in the plane, the nearest point is u_ref itself, the
    foot of u_ref on one constraint line, or a crossing of two lines (a row
    with a zero normal has no line, and no foot).  Returns (squared distance,
    point) of the nearest candidate that holds every constraint to ``tol``, or
    None when no candidate does.
    """
    A, b = _assemble(problem.rows, problem.box)
    r = np.asarray(problem.u_ref, dtype=float)
    feet = (r + ((bi - a @ r) / (a @ a)) * a for a, bi in zip(A, b) if a @ a)
    best = None
    for u in chain([r], feet, (u for _, u in _crossings(A, b))):
        if np.all(A @ u - b >= -tol):
            val = float((u - r) @ (u - r))
            if best is None or val < best[0]:
                best = (val, u)
    return best


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


def lp_vertex_oracle(c: np.ndarray, rows: Sequence[tuple], box: Box,
                     tol: float = FEAS_TOL) -> tuple[float, np.ndarray]:
    """Exhaustive vertex enumeration over the box-extended polygon (test oracle).

    Solves every pair of tight constraints, filters feasible intersection
    points, and returns the best.  Exact for bounded feasible sets, which the
    box guarantees.
    """
    c = np.asarray(c, dtype=float)
    A, b = _assemble(rows, box)
    best_val = -math.inf
    best_u: Optional[np.ndarray] = None
    for _, u in _crossings(A, b):
        if np.all(A @ u - b >= -tol):
            val = float(c @ u)
            if val > best_val:
                best_val = val
                best_u = u
    if best_u is None:
        raise Infeasible("vertex enumeration found no feasible vertex")
    return best_val, best_u


def _faces(box: Box) -> list:
    """The box faces as rows: u_k >= lo_k and -u_k >= -hi_k."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    return [(1.0, 0.0, lo0), (-1.0, 0.0, -hi0), (0.0, 1.0, lo1), (0.0, -1.0, -hi1)]


def loosened(rows: Sequence[tuple], box: Box, n: int) -> list:
    """The rows, then the box faces, each (a0, a1, b) lowered exactly to
    (a0, a1, b - delta), in Fractions: delta = 8 (n + 2) 2^-53 (|b| + ||a||_1 R),
    R = max |box bound|, the rounding bound that the solvers' docstring
    proves for n rows."""
    R = Fraction(max(-box.lo[0], -box.lo[1], box.hi[0], box.hi[1]))
    K = Fraction(8 * n + 16, 2 ** 53)
    exact = [tuple(map(Fraction, row)) for row in [*rows, *_faces(box)]]
    return [(a0, a1, b - K * (abs(b) + (abs(a0) + abs(a1)) * R)) for a0, a1, b in exact]


def holds_within_delta(u: Sequence[float], rows: Sequence[tuple], box: Box, n: int) -> bool:
    """Whether the point u holds every row and box face to within its delta
    for n rows (``loosened``), in exact arithmetic."""
    x, y = Fraction(u[0]), Fraction(u[1])
    return all(a0 * x + a1 * y >= b for a0, a1, b in loosened(rows, box, n))


def _exact_crossings(rows: Sequence[tuple], box: Box,
                     n: Optional[int]) -> Iterator[tuple[int, int, int, list]]:
    """For every two lines (row lines and box sides) that cross, the point
    (X / D, Y / D) where they do, as (X, Y, D) with D > 0, and the indices of
    the rows and faces it violates (face k counts as len(rows) + k); with
    every row and face lowered by its delta for n rows when n is given.

    Exact: each constraint is scaled to integers, the same half-plane, and
    every test is an integer one.
    """
    lines = []
    for row in loosened(rows, box, n) if n is not None else [*rows, *_faces(box)]:
        f = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in f))
        lines.append(tuple(int(v * scale) for v in f))   # exact: each v * scale is whole
    for (a0, a1, b), (c0, c1, d) in combinations(lines, 2):
        det = a0 * c1 - a1 * c0
        if det == 0:
            continue
        X, Y = b * c1 - a1 * d, a0 * d - b * c0
        if det < 0:
            X, Y, det = -X, -Y, -det
        yield X, Y, det, [k for k, (e0, e1, f) in enumerate(lines) if e0 * X + e1 * Y < f * det]


def exact_points(rows: Sequence[tuple], box: Box) -> list[tuple[Fraction, Fraction]]:
    """Every crossing of two lines, row lines and box sides, that holds the
    box and every row exactly, as Fractions.

    Empty exactly when box ∩ rows is: a nonempty set has a vertex, where two
    of its lines with independent normals cross (a row with a zero normal has
    no line, but every point is tested against it).
    """
    return [(Fraction(X, D), Fraction(Y, D))
            for X, Y, D, off in _exact_crossings(rows, box, None) if not off]


def exact_leave_one_out(rows: Sequence[tuple], box: Box,
                        n: Optional[int] = None) -> list[bool]:
    """For every k, whether box ∩ (every row but k) is exactly nonempty (each
    constraint lowered by its delta for n rows when n is given).

    A nonempty one has a vertex, a crossing of two lines other than row k's
    that violates nothing but row k; conversely any crossing that violates
    row k alone is a point of it.  One enumeration serves every k.
    """
    nonempty = [False] * len(rows)
    for _, _, _, off in _exact_crossings(rows, box, n):
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
      answers, twice with the same bits, within 1e-9 (1 + value) of
      ``qp_oracle``, outside no row or box face by more than 1e-9, and,
      unless it answers u_ref, within delta of every one (``holds_within_delta``).
    - ``n_lp`` LPs (``random_lp_instance``): ``solve_lp``'s value is within
      1e-9 of ``lp_vertex_oracle``'s, and its vertex holds the box and every
      row to 1e-9 and to within delta.
    - ``n_lp`` conflicting row lists (``random_conflict_rows``), through the
      leave-one-out LPs the run calls: a value is None only where the other
      rows leave the box exactly empty, and given only where they hold a
      point once every row and face is lowered by its delta
      (``exact_leave_one_out``); every LP outside a certified triple is None;
      or the list fails.  A certified triple in which ``exact_points`` finds
      a point is an unsound certificate, which counts as a failure.
    - ``n_qp`` goal descents (``random_goal_instance``): ``solve_min_norm``
      raises Infeasible only where ``exact_points`` finds no point, answers
      only where ``qp_oracle`` finds one, and then within 1e-9 (1 + value) of
      it, outside the row or a box face by no more than 1e-9, and, unless it
      answers the origin, within delta of each.  The line reports how many
      answers the box clamped (the foot left the box) and how many instances
      were empty.

    A solver that raises fails that instance.  The solvers are looked up on
    ``trustcbf.solvers`` at each call, so a patched solver is the one tested.
    The instances are drawn from ``rng`` in that order.
    """
    qp_fail = qp_gap = qp_viol = 0
    for _ in range(n_qp):
        p = random_qp_instance(rng)
        oracle = qp_oracle(p)
        try:
            u = solvers.solve_qp(p)
            same = list(map(float.hex, u)) == list(map(float.hex, solvers.solve_qp(p)))
        except Exception:
            u = None
        if u is None or oracle is None:
            qp_fail += 1
            continue
        value = (u[0] - p.u_ref[0]) ** 2 + (u[1] - p.u_ref[1]) ** 2
        gap = abs(value - oracle[0]) / (1.0 + oracle[0])
        viol = _violation(u, p.rows, p.box)
        qp_gap, qp_viol = max(qp_gap, gap), max(qp_viol, viol)
        qp_fail += not (same and gap <= 1e-9 and viol <= 1e-9 and (
            value == 0.0 or holds_within_delta(u, p.rows, p.box, len(p.rows))))
    lp_fail = lp_gap = lp_viol = 0
    for _ in range(n_lp):
        c, rows, box = random_lp_instance(rng)
        try:
            value, u = solvers.solve_lp(c, rows, box)
        except Exception:
            lp_fail += 1
            continue
        gap = abs(value - lp_vertex_oracle(c, rows, box)[0])
        viol = _violation(u, rows, box)
        lp_gap, lp_viol = max(lp_gap, gap), max(lp_viol, viol)
        lp_fail += not (gap <= 1e-9 and viol <= 1e-9
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
        oracle = qp_oracle(p)
        try:
            u = solvers.solve_min_norm(p.rows[0], p.box)
        except Infeasible:
            empty += 1
            goal_fail += bool(exact_points(p.rows, p.box))
            continue
        except Exception:
            goal_fail += 1
            continue
        if oracle is None:
            goal_fail += 1
            continue
        (a0, a1, b), box = p.rows[0], p.box
        s = b / (a0 * a0 + a1 * a1)
        clamped += _violation((s * a0, s * a1), [], box) > 0.0
        gap = abs(u[0] * u[0] + u[1] * u[1] - oracle[0]) / (1.0 + oracle[0])
        viol = _violation(u, p.rows, box)
        goal_gap, goal_viol = max(goal_gap, gap), max(goal_viol, viol)
        goal_fail += not (gap <= 1e-9 and viol <= 1e-9 and (
            u == (0.0, 0.0) or holds_within_delta(u, p.rows, box, 1)))
    lines = [f"qp: {n_qp} instances, worst relative gap {qp_gap:.3e}, "
             f"worst violation {qp_viol:.3e}, {qp_fail} failures",
             f"lp: {n_lp} instances, worst value gap {lp_gap:.3e}, "
             f"worst vertex violation {lp_viol:.3e}, {lp_fail} failures",
             f"cert: {n_lp} instances, {certified} certified, {unsound} unsound, "
             f"{cert_fail} failures",
             f"goal: {n_qp} instances, {clamped} clamped, {empty} empty, worst relative gap "
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
