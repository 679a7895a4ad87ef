"""The polygon-kernel QP and LP against their independent oracles.

The plain random instances are checked once, by ``oracles.self_test`` (run by
acceptance criterion 5 and ``trustcbf oracle``); these tests cover closed
forms, near-degenerate geometry, the emptiness certificate and the chain.
"""

import math

import numpy as np
import pytest

from trustcbf.controller import clf_qp_reference
from trustcbf.oracles import (qp_oracle, random_conflict_rows, random_lp_instance,
                              random_qp_instance)
from trustcbf.schema import Box
from trustcbf.solvers import (CERT_RELAX, FEAS_TOL, QP_RETRY_TOL, Infeasible, PrefixChain,
                              QPProblem, active_set, solve_lp, solve_lp_leave_one_out,
                              solve_min_norm, solve_qp)
from trustcbf.world import AgentState, Model

from conftest import lp_value, shifted

BOX3 = Box((-3.0, -3.0), (3.0, 3.0))


def qp(u_ref, rows, box=BOX3):
    return QPProblem(u_ref=np.asarray(u_ref, dtype=float), rows=rows, box=box)


def test_qp_interior_reference_is_returned_unchanged():
    u = solve_qp(qp([0.5, -1.0], []))
    assert np.allclose(u, [0.5, -1.0])
    assert active_set(u, [], BOX3) == ()


def test_qp_out_of_box_reference_clips_to_box():
    u = solve_qp(qp([5.0, -7.0], []))
    assert np.allclose(u, [3.0, -3.0])
    assert set(active_set(u, [], BOX3)) == {"box0hi", "box1lo"}


def test_qp_single_row_projection_is_analytic():
    # projection onto a . u >= b is u_ref + max(0, (b - a.u_ref)/||a||^2) a
    row = (1.0, 1.0, 2.0)
    u = solve_qp(qp([0.0, 0.0], [row]))
    assert np.allclose(u, [1.0, 1.0], atol=1e-12)
    assert 0 in active_set(u, [row], BOX3)


def test_active_set_lists_rows_then_box_faces():
    # row 0 has a zero normal and b = 0: its residual is 0 everywhere, so it is
    # active like any other row with residual 0
    rows = [(0.0, 0.0, 0.0), (-1.0, 0.0, -3.0), (0.0, 1.0, 1.0), (0.0, 1.0, 0.5)]
    assert active_set((3.0, 1.0), rows, BOX3) == (0, 1, 2, "box0hi")
    assert active_set((-3.0, 3.0), [], BOX3) == ("box0lo", "box1hi")


def test_qp_inactive_row_changes_nothing():
    row = (1.0, 0.0, -10.0)
    u = solve_qp(qp([0.2, 0.3], [row]))
    assert np.allclose(u, [0.2, 0.3])


def test_qp_infeasible_rows_raise():
    rows = [(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]  # u_x >= 1 and u_x <= -1
    with pytest.raises(Infeasible):
        solve_qp(qp([0.0, 0.0], rows))
    with pytest.raises(Infeasible):
        solve_qp(qp([0.0, 0.0], [(1.0, 0.0, 4.0)]))


def test_qp_degenerate_row_vacuous_or_infeasible():
    ok = (0.0, 0.0, -1.0)
    u = solve_qp(qp([0.1, 0.1], [ok]))
    assert np.allclose(u, [0.1, 0.1])
    with pytest.raises(Infeasible):
        solve_qp(qp([0.1, 0.1], [(0.0, 0.0, 1.0)]))


def test_qp_oracle_closed_forms():
    # the exact oracle is what the solver is held to, so it is checked by hand
    u_ref = np.array([0.5, -1.0])
    val, u = qp_oracle(qp(u_ref, [(1.0, 0.0, -2.0)]))
    assert val == 0.0 and np.array_equal(u, u_ref)
    # projection onto u_x + 2 u_y >= 3 moves u_ref by (3 - (-1.5)) / 5 along (1, 2)
    val, u = qp_oracle(qp(u_ref, [(1.0, 2.0, 3.0)]))
    assert np.allclose(u, [1.4, 0.8], atol=1e-12)
    assert val == pytest.approx(4.05, abs=1e-12)
    val, u = qp_oracle(qp([5.0, -7.0], []))
    assert np.array_equal(u, [3.0, -3.0]) and val == 20.0


def test_qp_oracle_empty_sets_and_zero_normals():
    assert qp_oracle(qp([0.0, 0.0], [(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)])) is None
    assert qp_oracle(qp([0.1, 0.1], [(0.0, 0.0, 1.0)])) is None
    val, u = qp_oracle(qp([0.1, 0.1], [(0.0, 0.0, -1.0)]))
    assert val == 0.0 and np.array_equal(u, [0.1, 0.1])


def test_lp_pure_box_is_corner():
    val, u = solve_lp(np.array([1.0, -2.0]), [], BOX3)
    assert np.allclose(u, [3.0, -3.0])
    assert val == pytest.approx(9.0)


def test_lp_single_row_cuts_the_corner():
    # maximize u_x subject to u_x <= 1 (written as -u_x >= -1)
    rows = [(-1.0, 0.0, -1.0)]
    val, u = solve_lp(np.array([1.0, 0.0]), rows, BOX3)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert u[0] == pytest.approx(1.0, abs=1e-12)


def test_lp_infeasible_raises():
    rows = [(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]
    with pytest.raises(Infeasible):
        solve_lp(np.array([1.0, 0.0]), rows, BOX3)


def test_exact_rows_are_clipped_before_any_relaxation():
    # a nonempty set is solved exactly; relaxing first would move these by 1e-9
    rows = [(-1.0, 0.0, -1.0), (0.0, 1.0, 0.5)]
    val, u = solve_lp(np.array([1.0, -1.0]), rows, BOX3)
    assert val == 0.5 and np.array_equal(u, [1.0, 0.5])
    u = solve_qp(qp([2.0, 0.0], rows))
    assert np.array_equal(u, [1.0, 0.5])
    assert active_set(u, rows, BOX3) == (0, 1)


def test_nearly_empty_sets_get_the_documented_verdicts():
    # u_x >= 1 and u_x <= 1 - gap: the LP reports gaps beyond 2 FEAS_TOL as
    # empty, the QP retries at QP_RETRY_TOL on each row
    def rows(gap):
        return [(1.0, 0.0, 1.0), (-1.0, 0.0, -(1.0 - gap))]
    _, u = solve_lp(np.array([1.0, 0.0]), rows(1e-9), BOX3)
    assert abs(u[0] - 1.0) <= 1e-9
    with pytest.raises(Infeasible):
        solve_lp(np.array([1.0, 0.0]), rows(5e-8), BOX3)
    u = solve_qp(qp([0.0, 0.0], rows(5e-8)))
    assert abs(u[0] - (1.0 - QP_RETRY_TOL)) <= 1e-12 and 0 in active_set(u, rows(5e-8), BOX3)
    with pytest.raises(Infeasible):
        solve_qp(qp([0.0, 0.0], rows(5e-7)))


# --- near-degenerate 2-D instances -------------------------------------------
#
# Each generator returns (c, rows, box, u_ref).  Empty instances keep their gap
# outside the relaxation band (FEAS_TOL for the LP, 1e-7 for the QP on each of
# two rows), where the verdict is set by the tolerance rather than the geometry.

ROW_TOL = 1e-9 + 1e-12   # FEAS_TOL plus rounding of the relaxed polygon's edges


def _unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def _row(a, b):
    return (float(a[0]), float(a[1]), float(b))


def _extra_rows(rng, z, count):
    """Ordinary rows that keep the point z strictly feasible."""
    rows = []
    for _ in range(count):
        a = _unit(rng.uniform(0.0, 2.0 * np.pi)) * rng.uniform(0.5, 2.0)
        rows.append(_row(a, a @ z - rng.uniform(0.1, 1.0)))
    return rows


def near_parallel_same_side(rng):
    # two rows through z whose normals differ by 1e-12 .. 1e-6 rad
    z = rng.uniform(-2.0, 2.0, 2)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    delta = 10.0 ** rng.uniform(-12.0, -6.0)
    a1, a2 = _unit(theta), _unit(theta + delta) * rng.uniform(0.5, 2.0)
    rows = [_row(a1, a1 @ z), _row(a2, a2 @ z)] + _extra_rows(rng, z, 2)
    return rng.normal(size=2), rows, BOX3, rng.uniform(-4.0, 4.0, 2)


def near_parallel_strip(rng):
    # opposite-facing rows that cross 10 .. 100 outside the box: a strip that
    # narrows across the box but never closes inside it
    theta = rng.uniform(0.0, 2.0 * np.pi)
    t = _unit(theta + 0.5 * np.pi)
    cross = rng.uniform(10.0, 100.0) * t * rng.choice([-1.0, 1.0])
    delta = 10.0 ** rng.uniform(-10.0, -6.0)
    a1, a2 = _unit(theta), _unit(theta + delta)
    if (a1 - a2) @ (-cross) < 0.0:   # orient the strip toward the box centre
        a1, a2 = a2, a1
    rows = [_row(a1, a1 @ cross), _row(-a2, -a2 @ cross)]
    return rng.normal(size=2), rows, BOX3, rng.uniform(-4.0, 4.0, 2)


def sliver(rng, empty=False, qp=False):
    # b <= a . u <= b + w: an exactly parallel slab of width 1e-10 .. 1e-6, or
    # with a negative w an empty one
    z = rng.uniform(-2.5, 2.5, 2)
    a = _unit(rng.uniform(0.0, 2.0 * np.pi)) * rng.uniform(0.5, 2.0)
    if empty:
        w = -(10.0 ** rng.uniform(-6.0, -5.0) if qp else 10.0 ** rng.uniform(-8.0, -6.0))
    else:
        w = 10.0 ** rng.uniform(-10.0, -6.0)
    b = float(a @ z)
    rows = [_row(a, b), _row(-a, -(b + w))] + _extra_rows(rng, z, 1)
    return rng.normal(size=2), rows, BOX3, rng.uniform(-4.0, 4.0, 2)


def through_corner(rng):
    # a row whose line passes through a box corner; pointing outward it
    # leaves just the corner, pointing inward most of the box
    corner = np.array([rng.choice([-3.0, 3.0]), rng.choice([-3.0, 3.0])])
    a = _unit(rng.uniform(0.0, 2.0 * np.pi)) * rng.uniform(0.5, 2.0)
    rows = [_row(a, a @ corner)]
    if rng.uniform() < 0.5:
        z = 0.5 * corner
        rows += _extra_rows(rng, z, 1)
    return rng.normal(size=2), rows, BOX3, rng.uniform(-4.0, 4.0, 2)


def zero_normals(rng):
    # zero and 1e-13 normals (a . u stays below 1e-12 in the box), vacuous or
    # fatal with b outside the band: b <= FEAS_TOL / 2 holds once relaxed by
    # FEAS_TOL, b >= 2e-7 is empty even relaxed by QP_RETRY_TOL
    c, rows, box = random_lp_instance(rng, max_rows=3)
    a = rng.choice([0.0, 1e-13]) * np.array([1.0, -1.0])
    b = rng.choice([-1.0, 0.0, FEAS_TOL / 2.0, 2e-7, 0.5])
    rows = list(rows)
    rows.insert(int(rng.integers(0, len(rows) + 1)), _row(a, b))
    return c, rows, box, rng.uniform(-4.0, 4.0, 2)


def reference_on_edge(rng):
    # u_ref placed on one row's line, inside or outside the other constraints
    p = random_qp_instance(rng, max_rows=4)
    rows = list(p.rows) or [_row((1.0, 0.0), 0.0)]
    row = rows[int(rng.integers(0, len(rows)))]
    a = np.array(row[:2])
    foot = a * (row[2] / float(a @ a))
    u_ref = foot + rng.uniform(-4.0, 4.0) * np.array([-a[1], a[0]])
    return rng.normal(size=2), rows, p.box, u_ref


DEGENERATE = {
    "near_parallel_same_side": near_parallel_same_side,
    "near_parallel_strip": near_parallel_strip,
    "sliver": sliver,
    "sliver_empty_lp": lambda rng: sliver(rng, empty=True),
    "sliver_empty_qp": lambda rng: sliver(rng, empty=True, qp=True),
    "through_corner": through_corner,
    "zero_normals": zero_normals,
    "reference_on_edge": reference_on_edge,
}


def _assert_holds(u, rows, box):
    assert box.contains(u, tol=ROW_TOL)
    for row in rows:
        assert float(np.dot(row[:2], u)) >= row[2] - ROW_TOL


# Near-parallel rows and one-point polygons make a value depend on FEAS_TOL:
# the oracles accept points within it, while the kernel clips exactly.  So each
# value must lie between the oracle's values on the rows tightened by FEAS_TOL
# (feasibility checked exactly: a subset of the kernel's polygon) and relaxed
# by the tolerance the kernel used (checked to FEAS_TOL: a superset).  For
# well-posed instances that bracket is a few 1e-9 wide.

@pytest.mark.parametrize("kind", sorted(DEGENERATE))
def test_lp_degenerate_fuzz_matches_vertex_oracle(kind):
    rng = np.random.default_rng(sorted(DEGENERATE).index(kind))
    for _ in range(300):
        c, rows, box, _ = DEGENERATE[kind](rng)
        expected = lp_value(c, rows, box)
        try:
            val, u = solve_lp(c, rows, box)
        except Infeasible:
            assert expected is None, kind
            continue
        assert expected is not None, kind
        eps = 1e-9 * (1.0 + abs(expected))
        assert val <= lp_value(c, shifted(rows, FEAS_TOL), box) + eps, kind
        lower = lp_value(c, shifted(rows, -FEAS_TOL), box, tol=0.0)
        assert lower is None or val >= lower - eps, kind
        assert abs(val - float(np.dot(c, u))) <= eps
        _assert_holds(u, rows, box)
        val2, u2 = solve_lp(c, rows, box)
        assert val2 == val and np.array_equal(u2, u)


@pytest.mark.parametrize("kind", sorted(set(DEGENERATE) - {"sliver_empty_lp"}))
def test_qp_degenerate_fuzz_matches_oracles(kind):
    # sliver_empty_lp's gaps lie inside the QP's 1e-7 retry band
    rng = np.random.default_rng(100 + sorted(DEGENERATE).index(kind))
    for _ in range(300):
        _, rows, box, u_ref = DEGENERATE[kind](rng)
        p = qp(u_ref, rows, box)
        try:
            u = solve_qp(p)
        except Infeasible:
            assert qp_oracle(p, tol=QP_RETRY_TOL) is None, kind
            continue
        val = float(np.sum((u - np.asarray(u_ref)) ** 2))
        relaxed = qp_oracle(qp(u_ref, shifted(rows, FEAS_TOL), box))
        relax = FEAS_TOL if relaxed is not None else QP_RETRY_TOL
        lower, _ = qp_oracle(qp(u_ref, shifted(rows, relax), box))
        upper = qp_oracle(qp(u_ref, shifted(rows, -FEAS_TOL), box), tol=0.0)
        eps = 1e-9 * (1.0 + val)
        assert val >= lower - eps, kind
        assert upper is None or val <= upper[0] + eps, kind
        _assert_holds(u, rows, box)
        u2 = solve_qp(p)
        assert np.array_equal(u2, u)


def test_qp_returns_feasible_reference_unchanged():
    rng = np.random.default_rng(8)
    for _ in range(200):
        _, rows, box, u_ref = reference_on_edge(rng)
        holds = box.contains(u_ref) and all(
            float(np.dot(r[:2], u_ref)) >= r[2] - FEAS_TOL for r in rows)
        if holds:
            u = solve_qp(qp(u_ref, rows, box))
            assert np.array_equal(u, u_ref)


# --- the emptiness certificate and the QP's resumed chain -----------------------


def _qp_bits(problem):
    """solve_qp's command as float bits, or "Infeasible"."""
    try:
        return tuple(v.hex() for v in solve_qp(problem))
    except Infeasible:
        return "Infeasible"


def _moved(rows, k, rng):
    """rows with row k replaced by a new object whose offset moved (tightened
    or loosened), as the scoring pass replaces a row whose rate moved."""
    a0, a1, b = rows[k]
    moved = list(rows)
    moved[k] = (a0, a1, b + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, 0.0))
    return moved


def _is_empty(rows, box):
    # exact feasibility (tol 0): the certificate's margins lie far above the
    # oracle's own rounding, so an unsound triple would show a point here
    return lp_value((0.0, 0.0), rows, box, tol=0.0) is None


def test_emptiness_certificate_is_sound_against_the_vertex_oracle():
    # wherever the certificate declares the LPs outside its triple empty, or
    # a QP that keeps the triple is empty, the vertex oracle finds no point
    # once every plane is relaxed by CERT_RELAX (that every LP keeps
    # solve_lp's verdict is checked by oracles.self_test)
    rng = np.random.default_rng(41)
    seen = {"certified": 0, "fell_back": 0, "qp_certified": 0}
    for _ in range(500):
        rows, box = random_conflict_rows(rng)
        values, chain = solve_lp_leave_one_out(rows, box)
        cert = chain.cert
        if cert is None:
            seen["fell_back"] += _is_empty(rows, box)
            continue
        seen["certified"] += 1
        assert len(chain.polys) <= len(rows)
        assert _is_empty(shifted(rows, CERT_RELAX), box), rows
        assert _is_empty(shifted([rows[k] for k in cert], CERT_RELAX), box), rows
        assert all(values[k] is None for k in range(len(rows)) if k not in cert)
        outside = [k for k in range(len(rows)) if k not in cert]
        q = _moved(rows, int(rng.choice(outside)), rng) if outside else rows
        p = qp(rng.uniform(-4.0, 4.0, 2), q, box)
        p.chain = chain
        if _qp_bits(p) == "Infeasible":
            seen["qp_certified"] += 1
            assert _is_empty(shifted(q, CERT_RELAX), box), q
    assert all(n >= 20 for n in seen.values()), seen


def test_qp_resuming_the_chain_is_bitwise_equal():
    # solve_qp with and without the leave-one-out LPs' chain: the same float
    # bits or both Infeasible, for a first changed plane at index 0, in the
    # middle and nowhere, against chains that empty before it, at or after it,
    # or never
    rng = np.random.default_rng(47)
    seen = {(where, when): 0 for where, when in [
        ("first", "after"), ("first", "never"), ("middle", "before"), ("middle", "after"),
        ("middle", "never"), ("nowhere", "before"), ("nowhere", "never")]}
    for n in range(900):
        if n % 3:
            rows, box = random_conflict_rows(rng)
        else:
            _, rows, box = random_lp_instance(rng, max_rows=8)
        chain = solve_lp_leave_one_out(rows, box)[1]
        if len(rows) < 3:
            continue
        m = len(chain.polys) - 1           # the plane that emptied it, if any
        for where, f in (("first", 0), ("middle", len(rows) // 2), ("nowhere", len(rows))):
            q = _moved(rows, f, rng) if f < len(rows) else rows
            when = "never" if m == len(rows) else "before" if m < f else "after"
            if (where, when) in seen:
                seen[where, when] += 1
            u_ref = rng.uniform(-4.0, 4.0, 2)
            plain = qp(u_ref, q, box)
            resumed = qp(u_ref, q, box)
            resumed.chain = chain
            assert _qp_bits(resumed) == _qp_bits(plain), (q, u_ref)
    assert all(k >= 20 for k in seen.values()), seen
    # a plane of the certified triple moved so that only the QP_RETRY_TOL
    # clip holds a point: the relaxed clips must run again
    rows = [(0.0, 1.0, -2.5), (0.0, -1.0, -2.5), (1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]
    chain = solve_lp_leave_one_out(rows, BOX3)[1]
    assert 3 in chain.cert
    q = rows[:3] + [(-1.0, 0.0, -(1.0 - 5e-8))]
    assert _qp_bits(QPProblem((0.0, 0.0), q, BOX3, chain)) == _qp_bits(qp((0.0, 0.0), q))
    assert _qp_bits(qp((0.0, 0.0), q)) != "Infeasible"


def test_qp_resumes_a_chain_built_over_zero_normal_rows(monkeypatch):
    # a row with a zero normal is clipped like any other: the leave-one-out LPs
    # return their chain over it, certify an empty triple that ends in it, and
    # the QP resumes that chain with the same bits as without it
    resumed = []
    clip = PrefixChain.clip

    def spy(self, planes):
        resumed.append(self)
        return clip(self, planes)

    monkeypatch.setattr(PrefixChain, "clip", spy)
    # |u_y| <= 2.5, u_x >= 1 and u_x <= -1
    rows = [(0.0, 1.0, -2.5), (0.0, -1.0, -2.5), (1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]
    for zero in [(0.0, 0.0, -1.0), (0.0, 1e-13, 0.0), (0.0, 0.0, FEAS_TOL), (0.0, 0.0, 0.5)]:
        for q in (rows + [zero], [zero] + rows, rows[:3] + [zero], [zero, (0.0, 1.0, 1.0)]):
            chain = solve_lp_leave_one_out(q, BOX3)[1]
            for u_ref in [(0.5, 0.0), (-2.9, -2.9)]:
                resumed.clear()
                bits = _qp_bits(QPProblem(u_ref, q, BOX3, chain))
                assert resumed == [chain], (q, u_ref)
                assert bits == _qp_bits(qp(u_ref, q)), (q, u_ref)
    assert solve_lp_leave_one_out(rows[:3] + [(0.0, 0.0, 0.5)], BOX3)[1].cert[-1] == 3
    # a chain over another box is not resumed
    chain = solve_lp_leave_one_out(rows, BOX3)[1]
    other = Box((-2.0, -2.0), (2.0, 2.0))
    resumed.clear()
    assert _qp_bits(QPProblem((0.0, 0.0), rows, other, chain)) == "Infeasible"
    assert resumed == []


# crossing.json's adversary box
ADVERSARY_BOX = Box((-1.0, -0.12), (1.0, 0.12))


def test_goal_descent_clamps_the_foot_along_the_line_to_the_box():
    # An adversary at the origin chases a goal at e = (2, 0.8) with rate
    # k = 0.5: the row is 2 e . u >= k ||e||^2, that is 4 x + 1.6 y >= 2.32.
    # Its foot (k / 2) e = (0.5, 0.2) leaves the box in y, but the line
    # crosses the box from (0.532, 0.12) to (0.628, -0.12); the point of that
    # segment nearest the origin is its end on the face y = 0.12, where
    # x = (2.32 - 1.6 * 0.12) / 4 = 0.532.
    me = AgentState(3, Model.SINGLE_INTEGRATOR, 0.0, 0.0)
    u = clf_qp_reference(me, (2.0, 0.8), 0.5, ADVERSARY_BOX)
    assert u[1] == 0.12
    assert u[0] == pytest.approx(0.532, abs=1e-12)
    row = (4.0, 1.6, 0.5 * (2.0 * 2.0 + 0.8 * 0.8))
    assert solve_min_norm(row, ADVERSARY_BOX) == u
    val, v = qp_oracle(QPProblem((0.0, 0.0), [row], ADVERSARY_BOX))
    assert np.allclose(v, u, atol=1e-12, rtol=0.0)
    assert val == pytest.approx(0.532 ** 2 + 0.12 ** 2, abs=1e-12)


def _goal_descent_instance(rng):
    """A random box around the origin and a row a . u >= b: b below FEAS_TOL,
    or in reach of the box, or beyond it, or grazing the corner that reaches
    furthest at 2 FEAS_TOL or 2 QP_RETRY_TOL on either side."""
    lo = -rng.uniform(0.0, 3.0, 2) * (rng.uniform(size=2) < 0.9)
    box = Box((float(lo[0]), float(lo[1])), tuple(float(h) for h in rng.uniform(0.05, 3.0, 2)))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    a = 10.0 ** rng.uniform(-2.0, 2.0) * np.array([math.cos(theta), math.sin(theta)])
    if rng.uniform() < 0.1:
        a[rng.integers(2)] = 0.0
    reach = max(float(a @ c) for c in ((box.lo[0], box.lo[1]), (box.hi[0], box.lo[1]),
                                       (box.hi[0], box.hi[1]), (box.lo[0], box.hi[1])))
    kind = rng.integers(4)
    if kind == 0:
        b = rng.uniform(-2.0, 2.0) * FEAS_TOL
    elif kind == 1:
        b = reach * rng.uniform(0.0, 3.0)
    else:
        b = reach + rng.choice([-2.0, 2.0]) * (FEAS_TOL if kind == 2 else QP_RETRY_TOL)
    return (float(a[0]), float(a[1]), float(b)), box


def test_goal_descent_closed_form_matches_the_polygon_kernel():
    # the polygon kernel is the reference: same verdict on every instance,
    # and the same command to 1e-12 (1 + ||u||).  A normal within about 1e-5
    # of an axis (drawn about once in 1e5 here, exact zeros aside) can put
    # the two up to 2e-11 apart: each divides the line's rounding by the
    # small component.
    rng = np.random.default_rng(29)
    seen = {"origin": 0, "inside": 0, "on the box": 0, "empty": 0}
    for _ in range(3000):
        row, box = _goal_descent_instance(rng)
        try:
            ref = solve_qp(QPProblem((0.0, 0.0), [row], box))
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_min_norm(row, box)
            seen["empty"] += 1
            continue
        u = solve_min_norm(row, box)
        assert math.dist(u, ref) <= 1e-12 * (1.0 + math.hypot(*u)), (row, box)
        assert box.contains(u, tol=0.0)
        if u == (0.0, 0.0):
            seen["origin"] += 1
        elif u[0] in (box.lo[0], box.hi[0]) or u[1] in (box.lo[1], box.hi[1]):
            seen["on the box"] += 1
        else:
            seen["inside"] += 1
    assert min(seen.values()) >= 300, seen
