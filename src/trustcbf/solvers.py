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
nonempty one is never perturbed.  Every row is decided by the one rule of
the clip: it holds at u when a . u - b >= -relax.  A row whose normal is zero
needs no rule of its own: it keeps every vertex exactly when b <= relax, and
empties the polygon otherwise.

A constraint row is the float triple (a0, a1, b), meaning a . u >= b, in
every entry.  ``solve_qp`` returns the QP's command only; ``active_set``
names the rows and box faces that hold with equality at a command, off the
run path.

``solve_lp_leave_one_out`` solves, for every plane of one list, the LP whose
objective is that plane's normal over all the other planes.  It builds the
prefix chain box ∩ planes[:m] with ``_chain``, the loop every clip runs (n
single-plane clips when nothing empties).  If the whole set P = box ∩ planes
is nonempty, every LP's maximizer lies in P, so all n values are best
vertices of that one polygon: equal to separate ``solve_lp`` calls in exact
arithmetic, which would clip n(n-1) times, and close to them in floats.  Only
when the chain empties at plane m do the m earlier planes clip their own
suffixes from their prefixes, at most n(n-1)/2 clips, each ``solve_lp``'s own
clip sequence and bitwise equal to it.  LPs left empty rerun both rules with
the planes relaxed by FEAS_TOL, as ``solve_lp`` retries.

An empty chain usually leaves all but a few LPs empty, and ``_certify_empty``
shows which without clipping them.  Say box ∩ planes[:m] is the last nonempty
polygon and plane p = planes[m] empties it.  The polygon's best vertex v for
p's normal lies on at most two lines that are not box sides; with p they form
a triple T, and by LP duality box ∩ T is already empty (Helly's theorem in
the plane says some such triple exists).  The certificate checks T on its
own: it clips the box by T minus p, each plane relaxed by CERT_RELAX plus its
error allowance, and requires the best value of p's normal there to fall
short of b_p by CERT_RELAX plus p's allowance.  A plane's error allowance is
CERT_ERR (|b| + ||a||_1 R), R the box radius: every vertex any of these clips
makes lies in the box to within a few ulps of R, so evaluating a . u - b at it
errs by a few ulps of |b| + ||a||_1 R per clip, and CERT_ERR leaves room for
thousands of clips.  Then every float polygon that contains T (a clip relaxed
by at most CERT_RELAX) is empty too, so every LP outside T is None, and only
the at most three LPs in T run the suffix-clip and FEAS_TOL rules above.  A
plane with a zero normal has no line to be near, so it joins T as p, or only
when too few other planes precede p; the check decides such a T like any
other.  A triple that fails the check leaves every LP to those rules.  So
does a chain that empties at one of its first three planes: then at most
three LPs clip, and a triple could spare none of them, so none is checked.
The certificate spares only LPs, whose clips relax by at most FEAS_TOL;
CERT_RELAX stays above QP_RETRY_TOL, the largest relaxation either solver
clips with, until the tolerance ladder is retired (ROADMAP item 9).

``QPProblem.chain`` lets the safety QP resume that exact chain.  The control
step's scoring pass keeps each plane object whose rate did not move, so up to
the first plane that is not the chain's own object, the QP's exact clip
sequence is the chain's, bit for bit: the QP clips only the planes from there
on, starting from the chain's polygon.  Everything else runs as without a
chain: the QP tests u_ref against every plane (``_holds``), once at FEAS_TOL,
the tolerance of both the exact and the FEAS_TOL clip, and once at
QP_RETRY_TOL, and the relaxed clips start from the box.  A chain built on
another box object is not resumed.

This module is plain float code.  The independent oracles that the test
suite and ``trustcbf oracle`` check it against (exhaustive enumeration of
the 2-D KKT candidates for the QP and of the vertices for the LP) live in
``trustcbf.oracles``, the one module that needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .schema import Box

# Feasibility tolerance, the QP's last relaxation before it reports an empty
# set, and the residual at or below which a constraint is reported active.
FEAS_TOL = 1e-9
QP_RETRY_TOL = 1e-7
ACTIVE_TOL = 1e-8

# The emptiness certificate's slack beyond the largest relaxation either
# solver clips with (QP_RETRY_TOL), and each plane's allowance for float error
# relative to its scale |b| + ||a||_1 R (module docstring).
CERT_RELAX = 1e-6
CERT_ERR = 1e-10


class Infeasible(Exception):
    """The constraint set is empty inside the control box."""


class PrefixChain:
    """The exact prefix chain of one plane list: ``polys[m]`` is box ∩
    ``planes[:m]`` clipped exactly, up to the last nonempty one (``_chain``).
    ``cert`` is a certified triple (plane indices) whose intersection with the
    box is empty, or None; it spares leave-one-out LPs, never a QP clip."""

    __slots__ = ("planes", "polys", "box", "cert")

    def __init__(self, planes: Sequence[tuple], polys: list, box: Box,
                 cert: Optional[tuple]):
        self.planes, self.polys, self.box, self.cert = planes, polys, box, cert

    def clip(self, planes: Sequence[tuple]) -> list:
        """``_clip(planes, box polygon, 0.0)``, bit for bit: the chain's polygon
        up to the first plane that is not the chain's own object, clipped by
        the planes from there on."""
        f = 0
        for p, q in zip(planes, self.planes):
            if p is not q:
                break
            f += 1
        return _clip(planes[f:], self.polys[f], 0.0) if f < len(self.polys) else []


@dataclass
class QPProblem:
    u_ref: Sequence[float]
    rows: Sequence[tuple]     # (a0, a1, b): a . u >= b
    box: Box
    # The exact prefix chain of a plane list whose leading plane objects the
    # rows share, for the QP to resume (module docstring).
    chain: Optional[PrefixChain] = None


def _box_polygon(box: Box) -> list:
    """The box's corners, counter-clockwise from the lower-left one."""
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    return [(lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)]


def _chain(planes: Sequence, poly: list, relax: float) -> list:
    """[poly, poly ∩ planes[:1], poly ∩ planes[:2], ...] with every plane
    a . u >= b relaxed to a . u >= b - relax, up to the last nonempty polygon;
    each polygon's vertices counter-clockwise.

    The one Sutherland-Hodgman loop: one pass per plane, and a plane that
    keeps every vertex returns the same vertices in the same order.
    """
    chain = [poly]
    for a0, a1, b in planes:
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
    return chain


def _clip(planes: Sequence, poly: list, relax: float) -> list:
    """Vertices of poly ∩ {a . u >= b - relax}, counter-clockwise; [] when empty."""
    chain = _chain(planes, poly, relax)
    return chain[-1] if len(chain) > len(planes) else []


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


def _project(planes: Sequence[tuple], box: Box, x: float, y: float,
             chain: Optional[PrefixChain] = None) -> tuple[float, float]:
    """The QP core: the point of box ∩ planes nearest to (x, y).

    (x, y) itself when it satisfies the planes to FEAS_TOL, else the nearest
    point on the edges of the box clipped by the exact planes, then by the
    planes relaxed by FEAS_TOL and by QP_RETRY_TOL; Infeasible when all three
    clips leave nothing.  A ``chain`` over the same box makes the exact clip
    resume it.
    """
    for relax in (0.0, FEAS_TOL, QP_RETRY_TOL):
        # The test at FEAS_TOL, made before the exact clip, already failed.
        if relax != FEAS_TOL and _holds(planes, box, x, y, max(relax, FEAS_TOL)):
            return x, y
        if chain is not None and relax == 0.0:
            poly = chain.clip(planes)
        else:
            poly = _clip(planes, _box_polygon(box), relax)
        if poly:
            return _nearest_on_edges(poly, x, y)
    raise Infeasible("constraint rows admit no command inside the control box")


def solve_qp(problem: QPProblem) -> tuple[float, float]:
    """Project u_ref onto the feasible set; returns the command (x, y).

    Raises Infeasible when no point in the box satisfies every row, even
    relaxed by QP_RETRY_TOL.  ``problem.chain``, the leave-one-out LPs'
    prefix chain, lets the exact clip resume it; it changes the work, never
    the result, and a chain over another box object is ignored.
    """
    x, y = problem.u_ref
    box, chain = problem.box, problem.chain
    if chain is not None and chain.box is not box:
        chain = None
    return _project(problem.rows, box, float(x), float(y), chain)


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
    Raises Infeasible when the rows admit no point in the box, even relaxed by
    FEAS_TOL.
    """
    c0, c1 = (float(v) for v in c)
    poly = _clip(rows, _box_polygon(box), 0.0) or _clip(rows, _box_polygon(box), FEAS_TOL)
    if not poly:
        raise Infeasible("constraint rows admit no command inside the control box")
    return _best_value(c0, c1, poly)


def _certify_empty(planes: Sequence[tuple], m: int, poly: list,
                   box: Box) -> Optional[tuple]:
    """A triple of plane indices, ending in m, whose intersection with the box
    is certified empty even relaxed by CERT_RELAX; None when the check fails.

    ``poly`` is box ∩ planes[:m], nonempty, and planes[m] empties it.  The
    triple is planes[m] and the planes nearest the best vertex of ``poly`` for
    planes[m]'s normal, as many as that vertex does not lie on box sides; the
    module docstring gives the check and its float-error argument.
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
    R = max(-lo0, -lo1, hi0, hi1)
    cuts = []
    for j in near:
        c0, c1, cb = planes[j]
        cuts.append((c0, c1, cb - (CERT_RELAX + CERT_ERR * (abs(cb) + (abs(c0) + abs(c1)) * R))))
    q = _clip(cuts, _box_polygon(box), 0.0)
    if q and not _best_value(a0, a1, q)[0] < b - (
            CERT_RELAX + CERT_ERR * (abs(b) + (abs(a0) + abs(a1)) * R)):
        return None
    return (*near, m)


def solve_lp_leave_one_out(planes: Sequence[tuple],
                           box: Box) -> tuple[list, PrefixChain]:
    """For every k, the value of ``solve_lp((a0, a1), others, box)`` for plane
    k = (a0, a1, b) over the other planes, or None where that raises
    Infeasible; returned with the exact prefix chain of ``planes`` that they
    were found on, as ``(values, chain)``.

    LP k maximizes plane k's own normal over P_-k = box ∩ (every plane but k).
    When P = box ∩ planes is nonempty, a maximizer over P_-k reaches at least
    b_k, so it lies in P: every LP reads the best vertex of that one polygon.
    When the prefix chain box ∩ planes[:m] empties at some m, every LP that
    keeps planes[:m] is empty too, every LP outside a certified empty triple
    (``_certify_empty``) is as well, and each other earlier plane clips its
    own suffix planes[k+1:] from its prefix, which is ``solve_lp``'s clip
    sequence.  Like ``solve_lp``, an LP left empty by the exact planes is
    retried with the planes relaxed by FEAS_TOL.
    """
    values = [None] * len(planes)
    open_lps = list(range(len(planes)))
    for relax in (0.0, FEAS_TOL):
        polys = _chain(planes, _box_polygon(box), relax)    # polys[m] = box ∩ planes[:m]
        poly = polys[-1]
        full = len(polys) > len(planes)
        if relax == 0.0:
            # a triple can spare an LP only when more than three LPs clip
            cert = None if full or len(polys) < 4 else _certify_empty(
                planes, len(polys) - 1, poly, box)
            chain = PrefixChain(planes, polys, box, cert)
            if cert is not None:
                open_lps = list(cert)
        if full:
            for k in open_lps:
                values[k] = _best_value(planes[k][0], planes[k][1], poly)[0]
            break
        # box ∩ planes[:len(polys)] is empty: only the LP of a plane among
        # those can be nonempty.
        for k in open_lps:
            if k < len(polys):
                poly = _clip(planes[k + 1:], polys[k], relax)
                if poly:
                    values[k] = _best_value(planes[k][0], planes[k][1], poly)[0]
        open_lps = [k for k in open_lps if values[k] is None]
        if not open_lps:
            break
    return values, chain
