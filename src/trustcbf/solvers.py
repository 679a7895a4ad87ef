"""Exact-verdict solvers for the 2-D safety problems, built on one convex-polygon kernel.

Every control here is 2-D and every constraint is a row, the float triple
(a0, a1, b) meaning the half-plane a . u >= b, inside an axis-aligned control
box whose bounds lie within R of 0.  So each feasible set is a convex polygon,
which ``_chain`` builds by clipping the box with one half-plane after another
(Sutherland-Hodgman), in floats or, on ``Fraction`` copies, exactly:

    QP   min ||u - u_ref||^2  s.t. rows, box:   u_ref itself when it satisfies
         the box and every row to FEAS_TOL, else the nearest point on the
         polygon's edges
    LP   max c . u  s.t. rows, box:             the best polygon vertex

Contract, for n rows, u = 2^-53 and delta(a, b) = 8 (n + 2) u (|b| + ||a||_1 R),
barring float underflow and overflow:
(a) Infeasible means that box ∩ rows is exactly empty;
(b) so an exactly nonempty set always gets an answer;
(c) every answer but u_ref holds every row and box face (the row u_k >= lo_k
    or -u_k >= -hi_k) exactly to within its delta.
An exactly empty set can still get an answer, when the float clip keeps a
point by rounding: two-sided exactness would need an error filter on every
sign test of every clip, so more work on every control step.

Each solver clips in floats first.  Only a clip that leaves nothing is redone
with every row loosened to b - delta (``_settle``): if that leaves nothing too,
the set is exactly empty; else the box is clipped again in ``Fraction``
arithmetic, whose vertices, rounded to floats, give the answer.  No benchmark
input reaches that clip, so ``fractions`` is imported there only.

Proof of delta, for n clips or fewer.  Let r(v) = a . v - b' exactly, for a
row whose clip uses the offset b', and s = ||a||_1 R' + |b'|, where R' = 1.01 R
bounds every vertex coordinate.  A sign test fl(a0 x + a1 y - b') errs by at
most 3.01 u s.  A crossing p + t (q - p), with the float t in [0, 1], has
|r| <= 6 u s before its coordinates round, by at most 6 u R' (by 0 where
q - p is 0).  So each vertex lies within 6 u R' of a segment between two of
the polygon before, which keeps R' ((1 + 6u)^n < 1.01 for n < 10^13) and gives
(c) for the float clip, the QP's edge point adding 6 u R'; an exact vertex
rounds by u R.  Now loosen: b' = fl(b - delta), delta computed in floats, so
b - b' >= 0.99 delta - u |b| > 6 u s + 6 n u R' ||a||_1.  Let z be a point of
box ∩ rows, moved a hair into the box's interior.  Every polygon edge lies on
a box side (a crossing on one stays on it exactly) or joins two vertices with
|r| <= 6 u s + 6 n u R' ||a||_1 for the row that made it, so no edge meets z,
which winds once around the box.  A clip cuts each run of dropped vertices
(r < 3.01 u s) off along the segment between its two crossings; the loop cut
off has r <= 6 u s at every point, so z lies outside its hull, and rounding
the crossings moves no edge across z.  So z winds once around every polygon,
and none is empty: a loosened clip that leaves nothing proves the set exactly
empty.  ``solve_min_norm``'s closed form keeps the clip's verdict; the tests
hold its answer to (c).

``solve_lp_leave_one_out`` solves, for every plane of one list, the LP whose
objective is that plane's normal over all the other planes.  If the prefix
chain (``_chain``) keeps the whole set P = box ∩ planes, every LP's maximizer
lies in P, so each value is a best vertex of that one polygon (equal to a
``solve_lp`` call in exact arithmetic, close to it in floats).  When the chain
empties at plane m, each earlier plane's LP clips its own suffix from the
prefix, ``solve_lp``'s clip sequence, and an LP left empty is settled as
``solve_lp`` settles it, the loosened clips sharing one loosened prefix chain.
Most LPs are empty then, and ``_certify_empty`` names them without a clip: the
best vertex of box ∩ planes[:m] for p = planes[m]'s normal lies on at most two
lines that are not box sides, which with p form a triple T.  If p's float best
value over the loosened clip of the box by T minus p falls short of p's
loosened offset, box ∩ T is exactly empty, and so is every LP outside T: z
above would lie in that clip's hull, where a_p . z <= best + 2.01 u s < b_p.
A zero normal has no line, so it joins T only as p or to fill it; a chain that
empties at one of its first three planes leaves at most three LPs to clip, so
it gets no certificate.

``QPProblem.chain`` lets the safety QP resume that chain.  The control step's
scoring pass keeps each plane object whose rate did not move, so up to the
first plane that is not the chain's own object, the QP's float clip sequence
is the chain's, bit for bit, and the QP clips only the planes from there on.
A chain built on another box object is not resumed.

The independent oracles that the tests check this plain float code against
live in the test suite, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .schema import Box

# The tolerance to which u_ref, holding every row, is the QP's answer, and the
# residual at or below which a constraint is reported active.
FEAS_TOL = 1e-9
ACTIVE_TOL = 1e-8


class Infeasible(Exception):
    """The constraint set is exactly empty inside the control box."""


class PrefixChain:
    """The float prefix chain of one plane list: ``polys[m]`` is box ∩
    ``planes[:m]`` clipped in floats, up to the last nonempty one (``_chain``).
    ``cert`` is a certified triple (plane indices) whose intersection with the
    box is exactly empty, or None; it spares leave-one-out LPs, never a QP clip."""

    __slots__ = ("planes", "polys", "box", "cert")

    def __init__(self, planes: Sequence[tuple], polys: list, box: Box,
                 cert: Optional[tuple]):
        self.planes, self.polys, self.box, self.cert = planes, polys, box, cert

    def clip(self, planes: Sequence[tuple]) -> list:
        """``_clip(planes, box polygon)``, bit for bit: the chain's polygon up
        to the first plane that is not the chain's own object, clipped by the
        planes from there on."""
        f = 0
        for p, q in zip(planes, self.planes):
            if p is not q:
                break
            f += 1
        return _clip(planes[f:], self.polys[f]) if f < len(self.polys) else []


@dataclass
class QPProblem:
    u_ref: Sequence[float]
    rows: Sequence[tuple]     # (a0, a1, b): a . u >= b
    box: Box
    # The float prefix chain of a plane list whose leading plane objects the
    # rows share, for the QP to resume (module docstring).
    chain: Optional[PrefixChain] = None


def _box_polygon(box: Box) -> list:
    """The box's corners, counter-clockwise from the lower-left one."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    return [(lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)]


def _chain(planes: Sequence, poly: list) -> list:
    """[poly, poly ∩ planes[:1], poly ∩ planes[:2], ...], each plane the
    half-plane a . u >= b, up to the last nonempty polygon; each polygon's
    vertices counter-clockwise.

    The one Sutherland-Hodgman loop: one pass per plane, and a plane that
    keeps every vertex returns the same vertices in the same order.  It runs
    on floats and, unchanged, on Fractions.
    """
    chain = [poly]
    for a0, a1, b in planes:
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
    return chain


def _clip(planes: Sequence, poly: list) -> list:
    """Vertices of poly ∩ {a . u >= b}, counter-clockwise; [] when empty."""
    chain = _chain(planes, poly)
    return chain[-1] if len(chain) > len(planes) else []


def _loosen(planes: Sequence[tuple], box: Box) -> list:
    """Every plane (a0, a1, b) as (a0, a1, b - delta), delta the rounding
    bound of len(planes) clips in this box (module docstring)."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    R, K = max(-lo0, -lo1, hi0, hi1), (8 * len(planes) + 16) * 2.0 ** -53
    return [(a0, a1, b - K * (abs(b) + (abs(a0) + abs(a1)) * R)) for a0, a1, b in planes]


def _exact(planes: Sequence[tuple], box: Box) -> list:
    """``_clip`` of the box by the planes in exact rational arithmetic, its
    vertices rounded to floats; [] when box ∩ planes is exactly empty."""
    from fractions import Fraction
    poly = _clip([tuple(map(Fraction, p)) for p in planes],
                 [tuple(map(Fraction, v)) for v in _box_polygon(box)])
    return [(float(x), float(y)) for x, y in poly]


def _settle(planes: Sequence[tuple], box: Box) -> list:
    """box ∩ planes, for planes whose float clip of the box left nothing:
    [] when the clip of the loosened planes leaves nothing too, which proves
    the set exactly empty, else ``_exact``."""
    return _exact(planes, box) if _clip(_loosen(planes, box), _box_polygon(box)) else []


def _best_value(c0: float, c1: float, poly: list) -> tuple[float, tuple]:
    """Largest c . v over the polygon's vertices and the first vertex attaining it."""
    best, u = -math.inf, poly[0]
    for v in poly:
        val = c0 * v[0] + c1 * v[1]
        if val > best:
            best, u = val, v
    return best, u


def _holds(planes: Sequence[tuple], box: Box, x: float, y: float, tol: float) -> bool:
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


def solve_qp(problem: QPProblem) -> tuple[float, float]:
    """Project u_ref onto box ∩ rows; returns the command (x, y).

    u_ref itself when it satisfies the box and every row to FEAS_TOL, else
    the nearest point on the edges of the float clip, or of ``_settle``'s
    polygon when that clip leaves nothing.  Raises Infeasible when the set is
    exactly empty.  ``problem.chain``, the leave-one-out LPs' prefix chain,
    lets the float clip resume it; it changes the work, never the result, and
    a chain over another box object is ignored.
    """
    x, y = problem.u_ref
    x, y = float(x), float(y)
    rows, box, chain = problem.rows, problem.box, problem.chain
    if _holds(rows, box, x, y, FEAS_TOL):
        return x, y
    if chain is not None and chain.box is box:
        poly = chain.clip(rows)
    else:
        poly = _clip(rows, _box_polygon(box))
    poly = poly or _settle(rows, box)
    if not poly:
        raise Infeasible("constraint rows admit no command inside the control box")
    return _nearest_on_edges(poly, x, y)


def solve_min_norm(row: tuple, box: Box) -> tuple[float, float]:
    """``solve_qp(QPProblem((0.0, 0.0), [row], box))`` in closed form, to
    rounding: the shortest command u in the box with a . u >= b.

    The origin when b <= FEAS_TOL (the box contains it).  Otherwise the
    answer lies on the line a . u = b when the box reaches it, which the
    clip's own test decides (a corner c with a . c - b >= 0 in floats, else
    ``_settle``), so the verdict is ``solve_qp``'s bit for bit: the foot
    b / ||a||^2 a of the origin on that line, clamped along the line to the
    box (``_nearest_on_line``).  Raises Infeasible when the box misses the
    line exactly.
    """
    a0, a1, b = row
    if b <= FEAS_TOL:
        return 0.0, 0.0
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    if (a0 * lo0 + a1 * lo1 - b >= 0.0 or a0 * hi0 + a1 * lo1 - b >= 0.0
            or a0 * hi0 + a1 * hi1 - b >= 0.0 or a0 * lo0 + a1 * hi1 - b >= 0.0
            or _settle([row], box)):
        return _nearest_on_line(a0, a1, b, box)
    raise Infeasible("constraint rows admit no command inside the control box")


def _nearest_on_line(a0: float, a1: float, c: float, box: Box) -> tuple[float, float]:
    """The point of the line a . u = c (c > 0) in the box nearest the origin,
    for a line that meets the box.

    The foot f = (c / ||a||^2) a when it lies in the box, else f moved along
    d = (-a1, a0) by the t nearest 0 that keeps f + t d in the box: the box
    face that stops it gives one coordinate exactly, the line the other.
    """
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    s = c / (a0 * a0 + a1 * a1)
    f0, f1 = s * a0, s * a1
    if lo0 <= f0 <= hi0 and lo1 <= f1 <= hi1:
        return f0, f1
    # the t range of each coordinate that moves along d, and the face
    # (coordinate, value) at each end of the range
    t_lo, t_hi = -math.inf, math.inf
    face_lo = face_hi = None
    for k, d, f, lo, hi in ((0, -a1, f0, lo0, hi0), (1, a0, f1, lo1, hi1)):
        if d == 0.0:
            continue
        ta, tb, fa, fb = (lo - f) / d, (hi - f) / d, (k, lo), (k, hi)
        if d < 0.0:
            ta, tb, fa, fb = tb, ta, fb, fa
        if ta > t_lo:
            t_lo, face_lo = ta, fa
        if tb < t_hi:
            t_hi, face_hi = tb, fb
    face = face_lo if t_lo > 0.0 else face_hi if t_hi < 0.0 else None
    if face is None:
        # the foot leaves the box by rounding only
        return min(max(f0, lo0), hi0), min(max(f1, lo1), hi1)
    k, v = face
    if k == 0:
        return v, min(max((c - a0 * v) / a1, lo1), hi1)
    return min(max((c - a1 * v) / a0, lo0), hi0), v


def active_set(u: Sequence[float], rows: Sequence[tuple], box: Box) -> tuple:
    """The indices of the rows, then the names of the box faces (``box{k}lo``
    and ``box{k}hi``), whose residual at u is at most ACTIVE_TOL."""
    x, y = u
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    faces = (("box0lo", x - lo0), ("box0hi", hi0 - x), ("box1lo", y - lo1), ("box1hi", hi1 - y))
    return (*(k for k, (a0, a1, b) in enumerate(rows)
              if a0 * x + a1 * y - b <= ACTIVE_TOL),
            *(name for name, r in faces if r <= ACTIVE_TOL))


def solve_lp(c: Sequence[float], rows: Sequence[tuple],
             box: Box) -> tuple[float, tuple[float, float]]:
    """Maximize c . u subject to constraint rows inside the box.

    Returns (optimal value, maximizing vertex (x, y); the first of equal
    vertices in counter-clockwise order from the box's lower-left corner).
    Raises Infeasible when the set is exactly empty.
    """
    c0, c1 = (float(v) for v in c)
    poly = _clip(rows, _box_polygon(box)) or _settle(rows, box)
    if not poly:
        raise Infeasible("constraint rows admit no command inside the control box")
    return _best_value(c0, c1, poly)


def _certify_empty(planes: Sequence[tuple], m: int, poly: list,
                   box: Box) -> Optional[tuple]:
    """A triple of plane indices, ending in m, whose intersection with the box
    is proved exactly empty; None when the check fails.

    ``poly`` is box ∩ planes[:m], nonempty, and planes[m] empties it.  The
    triple is planes[m] and the planes nearest the best vertex of ``poly`` for
    planes[m]'s normal, as many as that vertex does not lie on box sides; the
    module docstring gives the check.
    """
    a0, a1, b = planes[m]
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    _, (vx, vy) = _best_value(a0, a1, poly)
    need = 2 - (vx == lo0 or vx == hi0) - (vy == lo1 or vy == hi1)
    # squared distances from the vertex to the lines of planes[:m]; a plane
    # with a zero normal has no line and ranks last
    d2 = []
    for j in range(m):
        c0, c1, cb = planes[j]
        r, n2 = c0 * vx + c1 * vy - cb, c0 * c0 + c1 * c1
        d2.append((r * r / n2 if n2 else math.inf, j))
    d2.sort()
    near = sorted(j for _, j in d2[:need])
    cuts = _loosen([planes[j] for j in near] + [planes[m]], box)
    q = _clip(cuts[:-1], _box_polygon(box))
    if q and not _best_value(a0, a1, q)[0] < cuts[-1][2]:
        return None
    return (*near, m)


def solve_lp_leave_one_out(planes: Sequence[tuple],
                           box: Box) -> tuple[list, PrefixChain]:
    """For every k, the value of ``solve_lp((a0, a1), others, box)`` for plane
    k = (a0, a1, b) over the other planes, or None where the other planes
    leave the box exactly empty; returned with the float prefix chain of
    ``planes`` that they were found on, as ``(values, chain)``.

    LP k maximizes plane k's own normal over P_-k = box ∩ (every plane but k).
    When P = box ∩ planes is nonempty, a maximizer over P_-k reaches at least
    b_k, so it lies in P: every LP reads the best vertex of that one polygon.
    When the prefix chain box ∩ planes[:m] empties at some m, every LP that
    keeps planes[:m] is empty too, every LP outside a certified empty triple
    (``_certify_empty``) is as well, and each other earlier plane clips its
    own suffix planes[k + 1:] from its prefix, which is ``solve_lp``'s clip
    sequence; an LP left empty is settled as ``solve_lp`` settles it.
    """
    values = [None] * len(planes)
    polys = _chain(planes, _box_polygon(box))    # polys[m] = box ∩ planes[:m]
    poly = polys[-1]
    if len(polys) > len(planes):
        for k, (a0, a1, _) in enumerate(planes):
            values[k] = _best_value(a0, a1, poly)[0]
        return values, PrefixChain(planes, polys, box, None)
    # a triple can spare an LP only when more than three LPs clip
    cert = None if len(polys) < 4 else _certify_empty(planes, len(polys) - 1, poly, box)
    open_lps = cert or range(len(planes))
    for k in open_lps:
        if k < len(polys):   # a later LP keeps the float-emptied prefix
            poly = _clip(planes[k + 1:], polys[k])
            if poly:
                values[k] = _best_value(planes[k][0], planes[k][1], poly)[0]
    left = [k for k in open_lps if values[k] is None]
    if left:
        loose = _loosen(planes, box)
        loose_polys = _chain(loose, _box_polygon(box))
        for k in left:
            if k < len(loose_polys) and _clip(loose[k + 1:], loose_polys[k]):
                poly = _exact(planes[:k] + planes[k + 1:], box)
                if poly:
                    values[k] = _best_value(planes[k][0], planes[k][1], poly)[0]
    return values, PrefixChain(planes, polys, box, cert)
