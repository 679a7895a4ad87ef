"""Independent numpy oracles for the solvers, random instances, and a CSV reader.

The test suite and ``trustcbf oracle`` check the polygon kernel of
``trustcbf.solvers`` against code that shares none of it: a zoomed dense grid
search for the QP, exhaustive vertex enumeration for the LP, and, for the
solvers' emptiness certificate, exhaustive enumeration of the sets of at most
three rows, all on the rows stacked into one a . u >= b system.  Nothing on
the run path imports this module, so only the checks need numpy.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import Box
from .solvers import (CERT_RELAX, DEGENERATE_NORM_TOL, FEAS_TOL, QP_RETRY_TOL, Infeasible,
                      QPProblem)


def _assemble(rows: Sequence[tuple], box: Box):
    """Stack user rows (a0, a1, b) and box faces into one a.u >= b system (A, b).

    Degenerate user rows are dropped when vacuous; a degenerate row with b > 0
    is an immediate infeasibility.
    """
    A_list, b_list = [], []
    for k, (a0, a1, b) in enumerate(rows):
        a = np.array((a0, a1))
        if float(np.linalg.norm(a)) < DEGENERATE_NORM_TOL:
            if b <= FEAS_TOL:
                continue
            raise Infeasible(f"row {k} has a zero normal but demands b={b} > 0")
        A_list.append(a)
        b_list.append(b)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        A_list.append(e.copy())
        b_list.append(box.lo[k])
        A_list.append(-e)
        b_list.append(-box.hi[k])
    return np.array(A_list), np.array(b_list)


def qp_oracle(problem: QPProblem, resolution: float = 1e-3,
              refine_factor: float = 100.0) -> Optional[tuple[float, np.ndarray]]:
    """Dense-grid reference optimum, zoomed locally until the certification step.

    ``resolution`` is the coarsest step at which a feasible point must be
    found; the search then keeps zooming until the grid step drops below
    resolution / refine_factor, so the returned objective is accurate to a few
    parts in 1e-4 for unit-scale boxes.  Returns None when no feasible grid
    point exists at any refinement (used by tests to cross-check Infeasible).
    """
    box = problem.box
    r = np.asarray(problem.u_ref, dtype=float)
    try:
        A, b = _assemble(problem.rows, box)
    except Infeasible:
        return None
    lo = np.array(box.lo)
    hi = np.array(box.hi)

    def grid_best(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        P = np.stack([g.ravel() for g in grids], axis=1)
        mask = np.all(P @ A.T - b >= -1e-12, axis=1)
        if not mask.any():
            return None
        Pf = P[mask]
        d2 = np.einsum("ij,ij->i", Pf - r, Pf - r)
        i = int(np.argmin(d2))
        return float(d2[i]), Pf[i].copy()

    # Global coarse pass over the whole box, densifying until a feasible
    # point shows up (or the set is declared empty at the densest grid).
    pts = 41
    found = grid_best([np.linspace(lo[k], hi[k], pts) for k in range(2)])
    while found is None:
        if pts >= 800:
            return None
        pts = pts * 2 + 1
        found = grid_best([np.linspace(lo[k], hi[k], pts) for k in range(2)])
    best_val, best_u = found
    step = float(np.max((hi - lo) / (pts - 1)))

    # Local refinement, pattern-search style.  The grid argmin can sit far
    # from the true optimum along a constraint boundary (the objective is
    # nearly flat along it), so recentre at fixed spacing while the best
    # point keeps moving and only halve the spacing once the centre wins.
    target_step = resolution / refine_factor
    offsets = np.arange(-20.0, 21.0)
    while step > target_step:
        for _ in range(200):
            axes = [np.clip(best_u[k] + offsets * step, lo[k], hi[k])
                    for k in range(2)]
            found = grid_best(axes)
            if found is not None and found[0] < best_val - 1e-12 * max(1.0, best_val):
                best_val, best_u = found
            else:
                break
        step *= 0.5

    # 1-D sweeps along every constraint boundary.  A boundary tilted by less
    # than one cell per window height hides its optimum from an axis-aligned
    # grid at any spacing, while along the line itself the objective is
    # strictly convex, so a zoomed 1-D scan pins the minimiser reliably.
    centre = 0.5 * (lo + hi)
    half_span = 0.5 * float(np.linalg.norm(hi - lo))
    for i in range(A.shape[0]):
        a = A[i]
        nrm2 = float(a @ a)
        if nrm2 < DEGENERATE_NORM_TOL:
            continue
        p0 = a * (b[i] / nrm2)
        tang = np.array([-a[1], a[0]]) / float(np.sqrt(nrm2))
        span = half_span + float(np.linalg.norm(centre - p0))
        s_lo, s_hi = -span, span
        best_here = None
        while True:
            s = np.linspace(s_lo, s_hi, 2001)
            P = p0[None, :] + s[:, None] * tang[None, :]
            mask = np.all(P @ A.T - b >= -1e-12, axis=1)
            if not mask.any():
                break
            Pf = P[mask]
            sf = s[mask]
            d2 = np.einsum("ij,ij->i", Pf - r, Pf - r)
            j = int(np.argmin(d2))
            best_here = (float(d2[j]), Pf[j].copy())
            cell = (s_hi - s_lo) / 2000.0
            if cell <= 1e-6:
                break
            s_lo, s_hi = sf[j] - 2.0 * cell, sf[j] + 2.0 * cell
        if best_here is not None and best_here[0] < best_val:
            best_val, best_u = best_here
    return best_val, best_u


def random_qp_instance(rng: np.random.Generator, max_rows: int = 4,
                       box_half: float = 3.0) -> QPProblem:
    """Random projection problem whose feasible set contains a ball of radius >= 0.25.

    The margin ball keeps the grid oracle honest (a coarse grid always finds
    feasible points) while still letting rows and box faces go active.
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


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """Load trace.csv or pairs.csv into column arrays (exact round trip of %.17g floats)."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell))
    return {name: np.array(vals) for name, vals in cols.items()}
