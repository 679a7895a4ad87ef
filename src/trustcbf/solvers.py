"""Exact solvers for the 2-D safety problems, built on one convex-polygon kernel.

Every control in this package is 2-D (unicycle (v, omega), integrator
(vx, vy)) and every constraint is a half-plane a . u >= b inside an
axis-aligned control box, so each feasible set is a convex polygon.  The
kernel builds it by clipping the box with one half-plane after another
(Sutherland-Hodgman) in plain float arithmetic.  On that polygon:

    QP   min ||u - u_ref||^2  s.t. rows, box:   u_ref itself when it satisfies
         the box and every row to FEAS_TOL, else the nearest point on the
         polygon's edges
    LP   max c . u  s.t. rows, box:             the best polygon vertex

The box is clipped with the exact rows first.  Only when that leaves nothing
are the rows relaxed by FEAS_TOL (and, for the QP, then by QP_RETRY_TOL)
before Infeasible is raised, so a nearly empty set keeps its verdict while a
nonempty one is never perturbed.  A row whose normal is (nearly) zero is
vacuous or unsatisfiable by one rule, ``_zero_normals``.

A constraint row is the float triple (a0, a1, b), meaning a . u >= b, in
every entry.  ``solve_qp`` returns the QP's command only; ``active_set``
names the rows and box faces that hold with equality at a command, off the
run path.

``solve_lp_leave_one_out`` solves, for every plane of one list, the LP whose
objective is that plane's normal over all the other planes.  It clips the
prefix chain box ∩ planes[:m] one plane at a time (n single-plane clips when
nothing empties).  If the whole set P = box ∩ planes is nonempty, every LP's
maximizer lies in P, so all n values are best vertices of that one polygon:
equal to separate ``solve_lp`` calls in exact arithmetic, which would clip
n(n-1) times, and close to them in floats.  Only when the chain empties at
plane m do the m earlier planes clip their own suffixes from their prefixes,
at most n(n-1)/2 clips, each ``solve_lp``'s own clip sequence and bitwise
equal to it.  LPs left empty rerun both rules with the planes relaxed by
FEAS_TOL, as ``solve_lp`` retries.

This module is plain float code.  The independent oracles that the test
suite and ``trustcbf oracle`` check it against (a zoomed dense grid search
for the QP, exhaustive vertex enumeration for the LP) live in
``trustcbf.oracles``, the one module that needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .dynamics import Box

# A row normal below this norm carries no direction: the row is vacuous when
# its offset asks for nothing (b <= FEAS_TOL) and unsatisfiable otherwise.
DEGENERATE_NORM_TOL = 1e-12

# Feasibility tolerance, the QP's last relaxation before it reports an empty
# set, and the residual at or below which a constraint is reported active.
FEAS_TOL = 1e-9
QP_RETRY_TOL = 1e-7
ACTIVE_TOL = 1e-8


class Infeasible(Exception):
    """The constraint set is empty inside the control box."""


@dataclass
class QPProblem:
    u_ref: Sequence[float]
    rows: Sequence[tuple]     # (a0, a1, b): a . u >= b
    box: Box


def _zero_normals(planes: Sequence[tuple]) -> dict[int, bool]:
    """Index -> whether it demands anything, for each half-plane a . u >= b
    whose normal is shorter than DEGENERATE_NORM_TOL.  Such a plane carries no
    direction: it is vacuous when b <= FEAS_TOL and unsatisfiable otherwise."""
    return {k: b > FEAS_TOL for k, (a0, a1, b) in enumerate(planes)
            if math.sqrt(a0 * a0 + a1 * a1) < DEGENERATE_NORM_TOL}


def _usable(rows: Sequence[tuple]) -> Sequence[tuple]:
    """The rows with a usable normal; raises Infeasible on a zero-normal row
    that demands anything (``_zero_normals``)."""
    zero = _zero_normals(rows)
    if not zero:
        return rows
    for k, demands in zero.items():
        if demands:
            raise Infeasible(f"row {k} has a zero normal but demands b={rows[k][2]} > 0")
    return [p for k, p in enumerate(rows) if k not in zero]


def _box_polygon(box: Box) -> list:
    """The box's corners, counter-clockwise from the lower-left one."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    return [(lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)]


def _clip(planes: Sequence, poly: list, relax: float) -> list:
    """Vertices of poly ∩ {a . u >= b - relax}, counter-clockwise; [] when empty.

    One Sutherland-Hodgman pass per plane: a plane that keeps every vertex
    returns the same vertices in the same order.
    """
    for a0, a1, b in planes:
        if not poly:
            break
        b -= relax
        out = []
        px, py = poly[-1]
        dp = a0 * px + a1 * py - b
        for q in poly:
            qx, qy = q
            dq = a0 * qx + a1 * qy - b
            if (dp >= 0.0) != (dq >= 0.0):
                t = dp / (dp - dq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
            if dq >= 0.0:
                out.append(q)
            px, py, dp = qx, qy, dq
        poly = out
    return poly


def _best_value(c0: float, c1: float, poly: list) -> tuple[float, tuple]:
    """Largest c . v over the polygon's vertices and the first vertex attaining it."""
    best, u = -math.inf, poly[0]
    for v in poly:
        val = c0 * v[0] + c1 * v[1]
        if val > best:
            best, u = val, v
    return best, u


def _holds(planes: list, box: Box, x: float, y: float, tol: float) -> bool:
    """Whether (x, y) satisfies the box and every half-plane to ``tol``."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    if not (lo0 - tol <= x <= hi0 + tol and lo1 - tol <= y <= hi1 + tol):
        return False
    for a0, a1, b in planes:
        if not a0 * x + a1 * y - b >= -tol:
            return False
    return True


def _nearest_on_edges(poly: list, x: float, y: float) -> tuple[float, float]:
    """Point of the polygon's boundary closest to (x, y); the first edge wins ties."""
    best = math.inf
    bx = by = 0.0
    px, py = poly[-1]
    for qx, qy in poly:
        ex, ey = qx - px, qy - py
        e2 = ex * ex + ey * ey
        t = 0.0
        if e2 > 0.0:
            t = min(1.0, max(0.0, ((x - px) * ex + (y - py) * ey) / e2))
        cx, cy = px + t * ex, py + t * ey
        d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy)
        if d2 < best:
            best, bx, by = d2, cx, cy
        px, py = qx, qy
    return bx, by


def _project(planes: list, box: Box, x: float, y: float) -> tuple[float, float]:
    """The QP core: the point of box ∩ planes nearest to (x, y).

    ``planes`` have usable normals.  (x, y) itself when it satisfies them to
    FEAS_TOL, else the nearest point on the edges of the box clipped by the
    exact planes, then by the planes relaxed by FEAS_TOL and by QP_RETRY_TOL;
    Infeasible when all three clips leave nothing.
    """
    for relax in (0.0, FEAS_TOL, QP_RETRY_TOL):
        if _holds(planes, box, x, y, max(relax, FEAS_TOL)):
            return x, y
        poly = _clip(planes, _box_polygon(box), relax)
        if poly:
            return _nearest_on_edges(poly, x, y)
    raise Infeasible("constraint rows admit no command inside the control box")


def solve_qp(problem: QPProblem) -> tuple[float, float]:
    """Project u_ref onto the feasible set; returns the command (x, y).

    Raises Infeasible when no point in the box satisfies every row, even
    relaxed by QP_RETRY_TOL.
    """
    x, y = problem.u_ref
    return _project(_usable(problem.rows), problem.box, float(x), float(y))


def active_set(u: Sequence[float], rows: Sequence[tuple], box: Box) -> tuple:
    """The indices of the rows, then the names of the box faces (``box{k}lo``
    and ``box{k}hi``), whose residual at u is at most ACTIVE_TOL.  Zero-normal
    rows are never active."""
    x, y = u
    zero = _zero_normals(rows)
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    faces = (("box0lo", x - lo0), ("box0hi", hi0 - x), ("box1lo", y - lo1), ("box1hi", hi1 - y))
    return (*(k for k, (a0, a1, b) in enumerate(rows)
              if k not in zero and a0 * x + a1 * y - b <= ACTIVE_TOL),
            *(name for name, r in faces if r <= ACTIVE_TOL))


def solve_lp(c: Sequence[float], rows: Sequence[tuple],
             box: Box) -> tuple[float, tuple[float, float]]:
    """Maximize c . u subject to constraint rows inside the box.

    Returns (optimal value, maximizing vertex (x, y); the first of equal
    vertices in counter-clockwise order from the box's lower-left corner).
    Raises Infeasible when the rows admit no point in the box, even relaxed by
    FEAS_TOL.
    """
    c0, c1 = (float(v) for v in c)
    planes = _usable(rows)
    poly = _clip(planes, _box_polygon(box), 0.0) or _clip(planes, _box_polygon(box), FEAS_TOL)
    if not poly:
        raise Infeasible("constraint rows admit no command inside the control box")
    return _best_value(c0, c1, poly)


def solve_lp_leave_one_out(planes: Sequence[tuple], box: Box) -> list[Optional[float]]:
    """For every k, the value of ``solve_lp((a0, a1), others, box)`` for plane
    k = (a0, a1, b) over the other planes, or None where that raises Infeasible.

    LP k maximizes plane k's own normal over P_-k = box ∩ (every plane but k).
    When P = box ∩ planes is nonempty, a maximizer over P_-k reaches at least
    b_k, so it lies in P: every LP reads the best vertex of that one polygon.
    When the prefix chain box ∩ planes[:m] empties at some m, every LP that
    keeps planes[:m] is empty too, and each earlier plane clips its own suffix
    planes[k+1:] from its prefix, which is ``solve_lp``'s clip sequence.  Like
    ``solve_lp``, an LP left empty by the exact planes is retried with the
    planes relaxed by FEAS_TOL.  Zero-normal planes follow ``_zero_normals`` in
    each LP separately: a vacuous one is skipped, a demanding one leaves every
    other LP infeasible.
    """
    zero = _zero_normals(planes)
    demanding = [k for k, demands in zero.items() if demands]
    values: list[Optional[float]] = [None] * len(planes)
    if len(demanding) > 1:
        return values
    kept = [p for k, p in enumerate(planes) if k not in zero] if zero else planes
    open_lps = demanding or list(range(len(planes)))
    for relax in (0.0, FEAS_TOL):
        chain = [_box_polygon(box)]     # chain[m] = box ∩ kept[:m]
        poly = chain[0]
        for a0, a1, b in kept:
            # _clip of one plane, inline
            b -= relax
            out = []
            px, py = poly[-1]
            dp = a0 * px + a1 * py - b
            for q in poly:
                qx, qy = q
                dq = a0 * qx + a1 * qy - b
                if (dp >= 0.0) != (dq >= 0.0):
                    t = dp / (dp - dq)
                    out.append((px + t * (qx - px), py + t * (qy - py)))
                if dq >= 0.0:
                    out.append(q)
                px, py, dp = qx, qy, dq
            if not out:
                break
            poly = out
            chain.append(poly)
        if len(chain) > len(kept):
            for k in open_lps:
                values[k] = _best_value(planes[k][0], planes[k][1], poly)[0]
            break
        # box ∩ kept[:len(chain)] is empty: only the LP of a plane among
        # those can be nonempty.
        for k in open_lps:
            # planes[:k] are kept[:start] and planes[k+1:] are kept[end:]
            start = k - sum(j < k for j in zero)
            end = start + (k not in zero)
            if start < end and start < len(chain):
                poly = _clip(kept[end:], chain[start], relax)
                if poly:
                    values[k] = _best_value(planes[k][0], planes[k][1], poly)[0]
        open_lps = [k for k in open_lps if values[k] is None]
        if not open_lps:
            break
    return values
