"""Independent numpy oracles for the solvers, random instances, the solver
self-test, and a CSV reader.

The test suite and ``trustcbf oracle`` check the polygon kernel of
``trustcbf.solvers`` against code that shares none of it: exhaustive
enumeration of the 2-D KKT candidates for the QP, of the vertices for the LP,
and, for the solvers' emptiness certificate, of the sets of at most three
rows, all on the rows stacked into one a . u >= b system.  ``self_test`` is
the one check on random instances.  Nothing on the run path imports this
module, so only the checks need numpy.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import solvers
from .schema import Box
from .solvers import CERT_RELAX, FEAS_TOL, QP_RETRY_TOL, Infeasible, QPProblem


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


def empty_triple(rows: Sequence[tuple], box: Box, relax: float = 0.0,
                 tol: float = 0.0) -> Optional[tuple[int, ...]]:
    """The first set of at most three rows, by size and then by index, whose
    intersection with the box, every row relaxed by ``relax``, holds no point
    (``lp_vertex_oracle`` at ``tol``); None when every such set holds one.

    Exhaustive over all singletons, pairs and triples.  By Helly's theorem in
    the plane, None exactly when box ∩ rows, relaxed, is nonempty.
    """
    shifted = [(a0, a1, b - relax) for a0, a1, b in rows]
    for size in (1, 2, 3):
        for S in combinations(range(len(rows)), size):
            try:
                lp_vertex_oracle((0.0, 0.0), [shifted[k] for k in S], box, tol=tol)
            except Infeasible:
                return S
    return None


def random_conflict_rows(rng: np.random.Generator, max_rows: int = 8,
                         box_half: float = 3.0) -> tuple[list, Box]:
    """2 to max_rows rows in random order that often leave the box empty, for
    the emptiness certificate: ordinary rows, a row facing an earlier one
    (near-parallel, rotated by up to 1e-6 rad), three rows at 120 degrees
    around a point, and vacuous or demanding zero-normal rows.  A conflict's
    gap is a few FEAS_TOL, a few QP_RETRY_TOL, near 2 CERT_RELAX (where the
    certificate's margins decide), or large; two in five gaps are negative,
    so the rows then leave a sliver."""
    box = Box((-box_half,) * 2, (box_half,) * 2)

    def gap():
        scale = rng.choice([FEAS_TOL, QP_RETRY_TOL, 2.0 * CERT_RELAX, 1.0])
        g = scale * rng.uniform(0.5, 4.0) if scale < 1.0 else 10.0 ** rng.uniform(-4.0, 0.0)
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
            rows.append((-k * (c * a0 - s * a1), -k * (s * a0 + c * a1), k * (-b + gap())))
        elif kind == "star":
            # sum of the unit normals is 0: empty exactly when the gap is > 0
            z = rng.uniform(-0.8 * box_half, 0.8 * box_half, 2)
            theta, g = rng.uniform(0.0, 2.0 * math.pi), gap()
            for j in range(3):
                a = np.array((math.cos(theta + 2.0 * math.pi * j / 3.0),
                              math.sin(theta + 2.0 * math.pi * j / 3.0))) * rng.uniform(0.5, 2.0)
                rows.append((float(a[0]), float(a[1]),
                             float(a @ z) + g * float(np.linalg.norm(a))))
        else:
            a = float(rng.choice([0.0, 1e-13]))
            rows.append((a, -a, float(rng.choice([-1.0, 0.0, FEAS_TOL, 0.5]))))
    order = rng.permutation(len(rows))
    return [rows[k] for k in order], box


def _violation(u: Sequence[float], rows: Sequence[tuple], box: Box) -> float:
    """How far u falls outside the box or the worst row (<= 0 when it holds all)."""
    return max(box.lo[0] - u[0], box.lo[1] - u[1], u[0] - box.hi[0], u[1] - box.hi[1],
               *(b - a0 * u[0] - a1 * u[1] for a0, a1, b in rows))


def _lp_empty(c: Sequence[float], rows: Sequence[tuple], box: Box) -> bool:
    """Whether ``solve_lp`` raises Infeasible on the LP."""
    try:
        solvers.solve_lp(c, rows, box)
    except Infeasible:
        return True
    return False


def self_test(rng: np.random.Generator, n_qp: int, n_lp: int) -> tuple[list[str], int]:
    """Hold the solvers to the oracles on random instances: the report's
    ``qp:``, ``lp:`` and ``cert:`` lines and the total count of failures.

    - ``n_qp`` QPs (``random_qp_instance``, always feasible): ``solve_qp``
      answers, twice with the same bits, within 1e-9 (1 + value) of
      ``qp_oracle``, and outside no row or box face by more than 1e-9.
    - ``n_lp`` LPs (``random_lp_instance``): ``solve_lp``'s value is within
      1e-9 of ``lp_vertex_oracle``'s, and its vertex holds the box and every
      row to 1e-9.
    - ``n_lp`` conflicting row lists (``random_conflict_rows``), through the
      leave-one-out LPs the run calls: each value is None exactly where
      ``solve_lp`` over the other rows raises Infeasible, and every LP
      outside a certified triple is None, or the list fails.  Wherever the
      LPs certify emptiness, vertex enumeration finds the whole list empty
      exactly, and ``empty_triple`` finds the certified triple empty with
      every row relaxed by ``CERT_RELAX``; an unsound certificate counts as a
      failure.

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
        qp_fail += not (same and gap <= 1e-9 and viol <= 1e-9)
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
        lp_fail += not (gap <= 1e-9 and viol <= 1e-9)
    cert_fail = certified = unsound = 0
    for _ in range(n_lp):
        rows, box = random_conflict_rows(rng)
        try:
            values, chain = solvers.solve_lp_leave_one_out(rows, box)
            empty = [_lp_empty(rows[k][:2], rows[:k] + rows[k + 1:], box)
                     for k in range(len(rows))]
        except Exception:
            cert_fail += 1
            continue
        cert = chain.cert
        cert_fail += [v is None for v in values] != empty or cert is not None and any(
            values[k] is not None for k in range(len(rows)) if k not in cert)
        if cert is not None:
            certified += 1
            try:   # a vertex that holds every row exactly: the list is not empty
                lp_vertex_oracle((0.0, 0.0), rows, box, tol=0.0)
                unsound += 1
            except Infeasible:
                unsound += empty_triple([rows[k] for k in cert], box, CERT_RELAX) is None
    lines = [f"qp: {n_qp} instances, worst relative gap {qp_gap:.3e}, "
             f"worst violation {qp_viol:.3e}, {qp_fail} failures",
             f"lp: {n_lp} instances, worst value gap {lp_gap:.3e}, "
             f"worst vertex violation {lp_viol:.3e}, {lp_fail} failures",
             f"cert: {n_lp} instances, {certified} certified, {unsound} unsound, "
             f"{cert_fail} failures"]
    return lines, qp_fail + lp_fail + cert_fail + unsound


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """Load trace.csv or pairs.csv into column arrays (exact round trip of %.17g floats)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell))
    return {name: np.array(vals) for name, vals in cols.items()}
