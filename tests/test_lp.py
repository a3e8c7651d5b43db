"""Simplex and branch-and-bound checked against enumeration and scipy."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from vlcopt import lp as lp_module
from vlcopt.lp import (
    Basis,
    LinearProgram,
    LpStatus,
    MixedIntegerProgram,
    solve_lp,
    solve_milp,
)

_REL_SIGN = {"<=": -1.0, ">=": 1.0}


def lagrangian_bound(p: LinearProgram, y: np.ndarray, rc_tol: float = 0.0) -> float:
    """Dual bound valid for any y with the right row signs.

    Every feasible x satisfies c.x >= y.b + sum_j min over [lb_j, ub_j] of
    (c - a.T y)_j * x_j, so this never exceeds the optimal value. A reduced
    cost within rc_tol below zero on a column without an upper bound is
    taken as round-off of a zero (a basic column's), not as a -inf bound.
    """
    red = p.c - p.a.T @ y
    total = float(y @ p.b)
    for j in range(p.n_vars):
        lo, hi = p.lb[j], p.ub[j]
        if red[j] >= 0 or (math.isinf(hi) and red[j] >= -rc_tol):
            total += red[j] * lo
        elif math.isinf(hi):
            return -math.inf
        else:
            total += red[j] * hi
    return total


def assert_primal_feasible(p: LinearProgram, x: np.ndarray, tol: float = 1e-7):
    assert np.all(x >= p.lb - tol) and np.all(x <= p.ub + tol)
    ax = p.a @ x
    for i, rel in enumerate(p.rel):
        if rel == "<=":
            assert ax[i] <= p.b[i] + tol
        elif rel == ">=":
            assert ax[i] >= p.b[i] - tol
        else:
            assert abs(ax[i] - p.b[i]) <= tol


def assert_duals_consistent(p: LinearProgram, sol, tol: float = 1e-6):
    y = sol.duals
    for i, rel in enumerate(p.rel):
        if rel == "<=":
            assert y[i] <= tol
        elif rel == ">=":
            assert y[i] >= -tol
    assert lagrangian_bound(p, y, rc_tol=1e-9) == pytest.approx(sol.objective, abs=tol)


# -- basics ----------------------------------------------------------------------

def test_single_bound_row():
    p = LinearProgram(c=[1.0], a=[[1.0]], rel=(">=",), b=[3.0])
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(3.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_contradictory_rows_infeasible():
    p = LinearProgram(c=[1.0], a=[[1.0], [1.0]], rel=("<=", ">="), b=[1.0, 2.0])
    assert solve_lp(p).status is LpStatus.INFEASIBLE


def test_free_descent_unbounded():
    p = LinearProgram(c=[-1.0], a=[[0.0]], rel=("<=",), b=[1.0])
    assert solve_lp(p).status is LpStatus.UNBOUNDED


def test_equality_row_dual_free():
    p = LinearProgram(c=[1.0, 2.0], a=[[1.0, 1.0]], rel=("==",), b=[4.0],
                      ub=[10.0, 10.0])
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([4.0, 0.0])
    assert_duals_consistent(p, sol)


def test_cold_solve_reads_its_answer_off_the_tableau(monkeypatch):
    # the cold slack basis loads without a dense solve, and x and the duals
    # come off the final tableau, so a cold solve that pivots away from the
    # slack basis still makes none
    p = LinearProgram(c=[-1.0, -2.0, 0.5, -3.0],
                      a=[[1.0, 1.0, 0.0, 1.0], [1.0, 3.0, -1.0, 0.0]],
                      rel=("<=", ">="), b=[4.0, 2.0], ub=[np.inf, np.inf, 2.0, 1.0])
    calls = []
    dense_solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return dense_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    sol = solve_lp(p)
    monkeypatch.undo()
    assert calls == []
    assert sol.status is LpStatus.OPTIMAL
    assert set(sol.basis.basic.tolist()) != {4, 5}
    assert sol.basis.complemented.any()
    _assert_matches_highs(p)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a=[[1.0]], rel=("<",), b=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a=[[1.0]], rel=("<=",), b=[np.nan])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a=[[1.0]], rel=("<=",), b=[1.0],
                      lb=[-np.inf])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a=[[1.0]], rel=("<=",), b=[1.0],
                      ub=[np.nan])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 1.0], a=[[1.0, 0.0]], rel=("<=", "<="), b=[1.0])


# -- enumeration oracle -------------------------------------------------------------

def _random_box_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    # rows are anchored at an interior point so the program is never empty,
    # and the finite box keeps it bounded
    x0 = rng.uniform(0.5, 2.5, size=n)
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    rel = tuple(rng.choice(["<=", ">="], size=m))
    slack = rng.uniform(0.1, 1.0, size=m)
    b = a @ x0 + np.where(np.array(rel) == "<=", slack, -slack)
    return LinearProgram(c=rng.uniform(-1.0, 1.0, size=n), a=a, rel=rel, b=b,
                         ub=np.full(n, 3.0))


def _vertex_minimum(p: LinearProgram) -> float:
    """Smallest objective over basic feasible points, found by brute force."""
    n = p.n_vars
    rows = [(p.a[i], p.b[i]) for i in range(p.n_rows)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, p.lb[j]))
        rows.append((e, p.ub[j]))
    best = math.inf
    for combo in itertools.combinations(range(len(rows)), n):
        a_eq = np.array([rows[i][0] for i in combo])
        b_eq = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(a_eq)) < 1e-10:
            continue
        x = np.linalg.solve(a_eq, b_eq)
        if np.any(x < p.lb - 1e-9) or np.any(x > p.ub + 1e-9):
            continue
        ax = p.a @ x
        ok = all(
            ax[i] <= p.b[i] + 1e-9 if r == "<=" else
            ax[i] >= p.b[i] - 1e-9 if r == ">=" else
            abs(ax[i] - p.b[i]) <= 1e-9
            for i, r in enumerate(p.rel)
        )
        if ok:
            best = min(best, float(p.c @ x))
    return best


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(2, 5))
        p = _random_box_lp(rng, n, m=int(rng.integers(1, 5)))
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL, trial
        assert sol.objective == pytest.approx(_vertex_minimum(p), abs=1e-7)
        assert_primal_feasible(p, sol.x)
        assert_duals_consistent(p, sol)


def test_matches_scipy_on_random_10x10():
    rng = np.random.default_rng(7)
    for trial in range(20):
        p = _random_box_lp(rng, n=10, m=10)
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL, trial

        sign = np.array([_REL_SIGN[r] for r in p.rel])
        ref = linprog(p.c, A_ub=p.a * -sign[:, None], b_ub=p.b * -sign,
                      bounds=list(zip(p.lb, p.ub)), method="highs")
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
        assert_primal_feasible(p, sol.x)
        assert_duals_consistent(p, sol)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 4))
def test_weak_duality_holds(seed, n, m):
    p = _random_box_lp(np.random.default_rng(seed), n, m)
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert lagrangian_bound(p, sol.duals) <= sol.objective + 1e-7
    assert_primal_feasible(p, sol.x)


def _highs(p: LinearProgram):
    eq = np.array([r == "==" for r in p.rel], dtype=bool)
    sign = np.array([_REL_SIGN.get(r, 0.0) for r in p.rel])
    return linprog(p.c, A_ub=(p.a * -sign[:, None])[~eq] if np.any(~eq) else None,
                   b_ub=(p.b * -sign)[~eq] if np.any(~eq) else None,
                   A_eq=p.a[eq] if np.any(eq) else None,
                   b_eq=p.b[eq] if np.any(eq) else None,
                   bounds=list(zip(p.lb, p.ub)), method="highs")


def _assert_matches_highs(p: LinearProgram, warm=None):
    sol = solve_lp(p, _warm=warm)
    ref = _highs(p)
    assert ref.status == 0
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-6 * (1.0 + abs(ref.fun)))
    assert_primal_feasible(p, sol.x)
    assert_duals_consistent(p, sol)
    assert_tableau_matches_basis(p, sol, warm)


def assert_tableau_matches_basis(p: LinearProgram, sol, warm=None, tol: float = 1e-9):
    """Replay the solve and check the compact tableau it ends with: its
    slots, right side and reduced costs equal B^-1 [A | b] and c - c_B B^-1 A,
    and the solution's x and duals equal B^-1 (b - N x_N) and c_B B^-1, all
    recomputed densely from the program and the solution's final basis."""
    tab = lp_module._Tableau(p)
    tab.solve(warm)
    basic, flip = sol.basis.basic, sol.basis.complemented
    assert np.array_equal(tab.basic, basic) and np.array_equal(tab.flip, flip)
    m, n = p.n_rows, p.n_vars
    assert sorted(tab.nonbasic.tolist()) == sorted(set(range(n + m)) - set(basic.tolist()))
    # the internal form: >= rows negated, one slack per row, x shifted by lb,
    # complemented columns measured down from their upper bound
    sign = np.array([-1.0 if r == ">=" else 1.0 for r in p.rel])
    a = np.hstack([p.a * sign[:, None], np.eye(m)])
    u = np.concatenate([p.ub - p.lb, [0.0 if r == "==" else np.inf for r in p.rel]])
    c = np.concatenate([p.c, np.zeros(m)])
    d = np.where(flip, -1.0, 1.0)
    rhs = sign * (p.b - p.a @ p.lb) - a[:, flip] @ u[flip]
    body = np.linalg.solve(a[:, basic] * d[basic], np.column_stack([a * d, rhs]))
    reduced = c * d - (c * d)[basic] @ body[:, :-1]
    close = dict(rtol=tol, atol=tol)
    np.testing.assert_allclose(tab.t[:-1, :-1], body[:, tab.nonbasic], **close)
    np.testing.assert_allclose(tab.t[:-1, -1], body[:, -1], **close)
    np.testing.assert_allclose(tab.t[-1, :-1], reduced[tab.nonbasic], **close)
    np.testing.assert_allclose(-tab.t[-1, -1], sol.objective - p.c @ p.lb, **close)
    # nonbasic columns at 0 or u, the basic ones solved for; x and the duals
    # then back in the program's space
    y = np.where(flip, u, 0.0)
    y[basic] = 0.0
    y[basic] = np.linalg.solve(a[:, basic], sign * (p.b - p.a @ p.lb) - a @ y)
    np.testing.assert_allclose(sol.x, p.lb + y[:n], **close)
    np.testing.assert_allclose(sol.duals, sign * np.linalg.solve(a[:, basic].T, c[basic]),
                               **close)


def tableau_feasibility(tab) -> tuple[bool, bool]:
    """(primal, dual) feasibility of the basis loaded in `tab`, read off its
    tableau with the solver's tolerances: every basic value within its
    bounds, and no movable nonbasic column priced below -RC_TOL."""
    beta, tol = tab.t[:-1, -1], lp_module._BOUND_TOL
    primal = not np.any((beta < -tol) | (beta > tab.u[tab.basic] + tol))
    dual = not np.any((tab.t[-1, :-1] < -lp_module.RC_TOL) & tab.movable[tab.nonbasic])
    return primal, dual


def test_negative_costs_bounded_only_by_rows():
    # the slack basis is not dual feasible: x0 and x1 want to grow without
    # a bound of their own, and only the rows stop them
    p = LinearProgram(c=[-1.0, -2.0, 0.5], a=[[1.0, 1.0, 0.0], [1.0, 3.0, -1.0]],
                      rel=("<=", "<="), b=[4.0, 6.0], ub=[np.inf, np.inf, 2.0])
    _assert_matches_highs(p)
    # after the dual pass, x1 enters with nothing but its own bound to stop it
    p = LinearProgram(c=[-1.0, 0.5], a=[[1.0, -1.0]], rel=("<=",), b=[1.0],
                      ub=[np.inf, 3.0])
    _assert_matches_highs(p)
    assert solve_lp(p).x == pytest.approx([4.0, 3.0])
    rng = np.random.default_rng(3)
    for trial in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        a = rng.uniform(0.1, 1.0, size=(m, n))
        p = LinearProgram(c=rng.uniform(-1.0, 0.3, size=n), a=a, rel=("<=",) * m,
                          b=rng.uniform(1.0, 3.0, size=m))
        _assert_matches_highs(p)


def test_redundant_equality_rows():
    p = LinearProgram(c=[1.0, 2.0, -1.0],
                      a=[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0],
                         [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]],
                      rel=("==", "==", "==", "==", "=="), b=[2.0, 2.0, 4.0, 1.0, 3.0],
                      ub=[5.0, 5.0, 5.0])
    _assert_matches_highs(p)
    q = LinearProgram(c=p.c, a=np.vstack([p.a, [[1.0, 0.0, 0.0]]]), rel=p.rel + (">=",),
                      b=np.append(p.b, 0.5), ub=p.ub)
    _assert_matches_highs(q)


def _random_mixed_lp(rng: np.random.Generator, n: int, m: int) -> LinearProgram:
    lb = rng.uniform(-2.0, 1.0, size=n)
    ub = np.where(rng.random(n) < 0.3, np.inf, lb + rng.uniform(0.5, 3.0, size=n))
    x0 = lb + rng.uniform(0.1, 0.4, size=n)  # inside every box
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    rel = tuple(rng.choice(["<=", ">=", "=="], size=m, p=[0.4, 0.4, 0.2]))
    slack = rng.uniform(0.1, 1.0, size=m)
    gap = np.select([np.array(rel) == "<=", np.array(rel) == ">="], [slack, -slack], 0.0)
    # costs are nonnegative where nothing bounds a column from above
    c = np.where(np.isinf(ub), rng.uniform(0.0, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n))
    return LinearProgram(c=c, a=a, rel=rel, b=a @ x0 + gap, lb=lb, ub=ub)


def test_matches_scipy_with_lower_bounds_and_mixed_rows():
    rng = np.random.default_rng(19)
    for trial in range(40):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 7))
        _assert_matches_highs(_random_mixed_lp(rng, n, m))


def test_beale_cycling_example_terminates():
    # Beale (1955): Dantzig pricing with the lowest-index leaving rule cycles
    # here without an anti-cycling fallback
    c = [-0.75, 20.0, -0.5, 6.0]
    a = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    p = LinearProgram(c=c, a=a, rel=("<=", "<=", "<="), b=[0.0, 0.0, 1.0])
    sol = solve_lp(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.25)
    _assert_matches_highs(p)


@pytest.mark.parametrize("c, a, rel, b, ub, x", [
    # primal pass (x0 and x2 have negative costs and no upper bound): after
    # the first pivot, row 1's slack (id 4) sits in slot 0 and ties with x2
    # (id 2, slot 2) on the most negative reduced cost
    ([-2.0, -1.0, -1.0], [[1.0, 1.0, 0.0], [2.0, -1.0, 0.0], [2.0, -2.0, 1.0]],
     ("<=", ">=", "<="), [3.0, 0.0, 3.0], [np.inf, 1.0, np.inf], [0.5, 1.0, 4.0]),
    # dual pass: after two pivots, row 0's slack (id 3) sits in slot 1 and
    # ties with x2 (id 2, slot 2) in Harris's ratio test
    ([0.0, -1.0, 1.0], [[0.0, 2.0, -1.0], [0.0, 1.0, -1.0], [2.0, -1.0, -1.0]],
     ("<=", "<=", ">="), [3.0, 1.0, 2.0], [np.inf, 2.0, 2.0], [2.5, 2.0, 1.0]),
])
def test_ties_follow_column_ids_not_slots(monkeypatch, c, a, rel, b, ub, x):
    # each program has two optimal vertices; entering x2, the lower id, leads
    # to `x`, while the column stored first leads to the other one
    ties = []
    lowest_id = lp_module._Tableau._lowest_id

    def recording(tab, slots):
        ties.append(tab.nonbasic[slots].tolist())
        return lowest_id(tab, slots)

    monkeypatch.setattr(lp_module._Tableau, "_lowest_id", recording)
    p = LinearProgram(c=c, a=a, rel=rel, b=b, ub=ub)
    sol = solve_lp(p)
    assert any(ids != sorted(ids) for ids in ties)  # a tie stored out of id order
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx(x, abs=1e-12)
    _assert_matches_highs(p)


# -- warm starts --------------------------------------------------------------------

def test_warm_start_from_a_primal_feasible_basis():
    # the optimum for other costs is still primal feasible, and usually no
    # longer dual feasible: primal pivots alone must finish from it
    rng = np.random.default_rng(23)
    primal_only = 0
    for trial in range(40):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 7))
        p = _random_mixed_lp(rng, n, m)
        start = solve_lp(p).basis
        c = np.where(np.isinf(p.ub), rng.uniform(0.0, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n))
        q = LinearProgram(c=c, a=p.a, rel=p.rel, b=p.b, lb=p.lb, ub=p.ub)
        tab = lp_module._Tableau(q)
        assert tab._load_warm(start), trial
        primal, dual = tableau_feasibility(tab)
        assert primal, trial
        primal_only += not dual
        _assert_matches_highs(q, warm=start)
    assert primal_only >= 10


def test_warm_start_from_a_dual_feasible_basis():
    # new right sides and upper bounds leave the costs, so the old optimum
    # stays dual feasible and usually stops being primal feasible
    rng = np.random.default_rng(29)
    dual_only = 0
    for trial in range(40):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 7))
        p = _random_mixed_lp(rng, n, m)
        start = solve_lp(p).basis
        ub = np.where(np.isinf(p.ub), np.inf, p.lb + rng.uniform(0.5, 3.0, size=n))
        x0 = p.lb + rng.uniform(0.1, 0.4, size=n)
        slack = rng.uniform(0.1, 1.0, size=m)
        rel = np.array(p.rel)
        gap = np.select([rel == "<=", rel == ">="], [slack, -slack], 0.0)
        q = LinearProgram(c=p.c, a=p.a, rel=p.rel, b=p.a @ x0 + gap, lb=p.lb, ub=ub)
        tab = lp_module._Tableau(q)
        assert tab._load_warm(start), trial
        primal, dual = tableau_feasibility(tab)
        assert dual, trial
        dual_only += not primal
        _assert_matches_highs(q, warm=start)
    assert dual_only >= 10


def _grown(p: LinearProgram, x: np.ndarray, duals: np.ndarray, rng: np.random.Generator,
           dual_side: bool) -> LinearProgram:
    """`p` with two columns ("one", "two") and two rows ("cut", "bottom")
    appended at the end. On the dual side the new columns cost more than the
    old duals pay for them and "cut" cuts off the old optimum `x`; otherwise
    the new costs are arbitrary and both new rows hold at `x` with the new
    columns at zero."""
    m, n = p.n_rows, p.n_vars
    one = np.zeros(m) if dual_side else rng.uniform(-1.0, 1.0, size=m)
    two = rng.uniform(-1.0, 1.0, size=m)
    if dual_side:
        c_new = [rng.uniform(0.1, 1.0), duals @ two + rng.uniform(0.1, 1.0)]
    else:
        c_new = list(rng.uniform(-1.0, 1.0, size=2))
    cut = np.concatenate([rng.uniform(-1.0, 1.0, size=n), [1.0, 0.0]])
    bottom = rng.uniform(-1.0, 1.0, size=n + 2)
    x_new = np.concatenate([x, [0.0, 0.0]])
    cut_rhs = cut @ x_new + (0.5 if dual_side else -0.5)
    return LinearProgram(
        c=np.concatenate([p.c, c_new]),
        a=np.vstack([np.column_stack([p.a, one, two]), cut, bottom]),
        rel=p.rel + (">=", "<="),
        b=np.concatenate([p.b, [cut_rhs, bottom @ x_new + 0.3]]),
        ub=np.full(n + 2, 3.0))


def test_basis_starts_a_program_that_appends_rows_and_columns():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        p = _random_box_lp(rng, n, m)
        sol = solve_lp(p)
        dual_side = trial % 2 == 1
        q = _grown(p, sol.x, sol.duals, rng, dual_side)
        tab = lp_module._Tableau(q)
        assert tab._load_warm(sol.basis), trial
        # the old slacks shift past the two added columns, the added rows'
        # slacks are basic and the added columns nonbasic at their lower bounds
        old = sol.basis.basic
        assert np.array_equal(tab.basic[:m], np.where(old < n, old, old + 2)), trial
        assert {n + 2 + m, n + 2 + m + 1} <= set(tab.basic.tolist())
        assert not {n, n + 1} & set(tab.basic.tolist())
        assert not tab.flip[[n, n + 1]].any()
        primal, dual = tableau_feasibility(tab)
        assert dual if dual_side else primal
        if dual_side:
            assert not primal  # "cut" cuts the old optimum off
        _assert_matches_highs(q, warm=sol.basis)


def _recording_loads(monkeypatch) -> list[np.ndarray]:
    """The basic columns of every basis `_Tableau._load` loads from now on."""
    loads = []
    load = lp_module._Tableau._load

    def recording(tab, basic, flip, cost):
        loads.append(np.array(basic))
        return load(tab, basic, flip, cost)

    monkeypatch.setattr(lp_module._Tableau, "_load", recording)
    return loads


def _slack_loads(loads: list[np.ndarray], p: LinearProgram) -> int:
    slacks = np.arange(p.n_vars, p.n_vars + p.n_rows)
    return sum(np.array_equal(basic, slacks) for basic in loads)


def _loads_neither_feasible(p: LinearProgram, warm: Basis) -> bool:
    # loaded directly, not through `_load_warm`, so the verdict does not
    # depend on which bases the solver accepts
    tab = lp_module._Tableau(p)
    try:
        tab._load(warm.basic, warm.complemented, tab.c0)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(tab.t))) and not any(tableau_feasibility(tab))


def test_unusable_warm_bases_fall_back_to_the_cold_start(monkeypatch):
    rng = np.random.default_rng(37)
    p = _random_box_lp(rng, n=4, m=3)
    p.a[:, 0] = [1.0, 0.0, 0.0]  # x0's column equals the first row's slack
    total = 7
    cold = solve_lp(p)
    good = cold.basis
    none = np.zeros(total, dtype=bool)
    unusable = [
        Basis(np.array([0, 4, 6]), none),  # singular: x0 and its twin slack
        Basis(good.basic[:-1], good.complemented),
        Basis(np.append(good.basic, total), np.append(good.complemented, False)),  # a row too many
        Basis(good.basic + 1, np.append(False, good.complemented)),  # a column too many
        Basis(np.array([4, 4, 5]), none),
        Basis(np.array([4, 5, total]), none),
        Basis(good.basic.astype(float), good.complemented),
        Basis(good.basic, good.complemented.astype(int)),
    ]
    for warm in unusable:
        sol = solve_lp(p, _warm=warm)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.iterations == cold.iterations
        assert np.array_equal(sol.x, cold.x)
        assert np.array_equal(sol.basis.basic, good.basic)
    # a basis that loads but is neither primal nor dual feasible is usable:
    # the solve starts from it and never loads the slack basis
    neither = next(Basis(np.array(ids), none) for ids in itertools.combinations(range(total), 3)
                   if _loads_neither_feasible(p, Basis(np.array(ids), none)))
    loads = _recording_loads(monkeypatch)
    _assert_matches_highs(p, warm=neither)
    assert np.array_equal(loads[0], neither.basic)
    assert _slack_loads(loads, p) == 0


def test_warm_start_from_a_basis_neither_primal_nor_dual_feasible(monkeypatch):
    # bases that load but are neither primal nor dual feasible, drawn at
    # random with random complemented bounded columns: each reaches the
    # optimum from itself, never from the slack basis
    rng = np.random.default_rng(41)
    corpus = []
    for _ in range(40):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        p = _random_mixed_lp(rng, n, m)
        basic = np.sort(rng.choice(n + m, size=m, replace=False))
        flip = np.zeros(n + m, dtype=bool)
        flip[:n] = np.isfinite(p.ub) & (rng.random(n) < 0.5)
        flip[basic] = False
        warm = Basis(basic, flip)
        if not np.array_equal(basic, np.arange(n, n + m)) and _loads_neither_feasible(p, warm):
            corpus.append((p, warm))
    assert len(corpus) >= 20
    loads = _recording_loads(monkeypatch)
    for k, (p, warm) in enumerate(corpus):
        loads.clear()
        _assert_matches_highs(p, warm=warm)
        assert np.array_equal(loads[0], warm.basic), k
        assert _slack_loads(loads, p) == 0, k


def test_milp_root_starts_from_a_given_basis_and_returns_its_own(monkeypatch):
    mip = _knapsack([10.0, 13.0, 7.0, 8.0], [5.0, 7.0, 4.0, 5.0], 12.0)
    cold = solve_milp(mip)
    warm = []
    inner = lp_module.solve_lp

    def recording(p, _warm=None):
        warm.append(_warm)
        return inner(p, _warm=_warm)

    monkeypatch.setattr(lp_module, "solve_lp", recording)
    again = solve_milp(mip, _warm=cold.root_basis)
    assert warm[0] is cold.root_basis
    assert again.objective == cold.objective and np.array_equal(again.x, cold.x)
    root = inner(mip.lp)
    assert np.array_equal(again.root_basis.basic, root.basis.basic)


# -- branch and bound ---------------------------------------------------------------

def _knapsack(values, weights, cap) -> MixedIntegerProgram:
    n = len(values)
    lp = LinearProgram(c=-np.asarray(values, float), a=[list(weights)],
                       rel=("<=",), b=[cap], ub=np.ones(n))
    return MixedIntegerProgram(lp, np.ones(n, dtype=bool))


def test_knapsack_matches_exhaustion():
    values, weights, cap = [6.0, 5.0, 4.0], [5.0, 4.0, 3.0], 8.0
    best = min(
        -sum(v * t for v, t in zip(values, take))
        for take in itertools.product((0, 1), repeat=3)
        if sum(w * t for w, t in zip(weights, take)) <= cap
    )
    sol = solve_milp(_knapsack(values, weights, cap))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(best)
    assert np.allclose(sol.x, np.round(sol.x), atol=1e-9)
    # two packings are worth 5 here; the tree lands on the second
    tied = solve_milp(_knapsack([5.0, 4.0, 1.0], [4.0, 3.0, 1.0], 4.0))
    assert tied.objective == -5.0
    assert np.array_equal(tied.x, [0.0, 1.0, 1.0])


def test_deeper_knapsack_matches_exhaustion_with_warm_children(monkeypatch):
    values, weights, cap = [10.0, 13.0, 7.0, 8.0, 9.0, 4.0], [5.0, 7.0, 4.0, 5.0, 6.0, 3.0], 15.0
    best = min(
        -sum(v * t for v, t in zip(values, take))
        for take in itertools.product((0, 1), repeat=len(values))
        if sum(w * t for w, t in zip(weights, take)) <= cap
    )
    warm = []
    inner = lp_module.solve_lp

    def counting(p, _warm=None):
        warm.append(_warm is not None)
        return inner(p, _warm=_warm)

    monkeypatch.setattr(lp_module, "solve_lp", counting)
    sol = solve_milp(_knapsack(values, weights, cap))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.nodes > 3
    assert sol.objective == pytest.approx(best)
    assert np.allclose(sol.x, np.round(sol.x), atol=1e-9)
    assert warm[0] is False and all(warm[1:]) and len(warm) == sol.nodes


def test_integral_relaxation_needs_one_node():
    lp = LinearProgram(c=[-1.0], a=[[1.0]], rel=("<=",), b=[1.0], ub=[1.0])
    sol = solve_milp(MixedIntegerProgram(lp, np.array([True])))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.nodes == 1
    assert sol.objective == pytest.approx(-1.0)


def test_fractional_equality_infeasible_in_integers():
    # the relaxation admits (0.5, 0) but no 0/1 point hits the row exactly
    lp = LinearProgram(c=[1.0, 1.0], a=[[2.0, 2.0]], rel=("==",), b=[1.0],
                       ub=[1.0, 1.0])
    sol = solve_milp(MixedIntegerProgram(lp, np.array([True, True])))
    assert sol.status is LpStatus.INFEASIBLE


def test_random_binary_programs_match_exhaustion():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        a = rng.uniform(-2.0, 2.0, size=(m, n))
        rel = tuple(rng.choice(["<=", ">="], size=m))
        b = rng.uniform(-1.0, float(n), size=m)
        c = rng.uniform(-1.0, 1.0, size=n)
        lp = LinearProgram(c=c, a=a, rel=rel, b=b, ub=np.ones(n))
        best = math.inf
        for bits in itertools.product((0.0, 1.0), repeat=n):
            x = np.array(bits)
            ax = a @ x
            if all(ax[i] <= b[i] + 1e-9 if r == "<=" else ax[i] >= b[i] - 1e-9
                   for i, r in enumerate(rel)):
                best = min(best, float(c @ x))
        sol = solve_milp(MixedIntegerProgram(lp, np.ones(n, dtype=bool)))
        if math.isinf(best):
            assert sol.status is LpStatus.INFEASIBLE, trial
        else:
            assert sol.status is LpStatus.OPTIMAL, trial
            assert sol.objective == pytest.approx(best, abs=1e-7)
