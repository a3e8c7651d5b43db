"""Self-contained linear programming with exact dual extraction.

A bounded-variable dense tableau solved by the dual simplex method. Each row
gets one slack and the slack basis is the cold start (`>=` rows are negated,
an `==` row's slack is fixed at zero). Finite upper bounds enter the ratio
tests instead of becoming rows, and a nonbasic variable at its upper bound
is complemented (x = u - x'); the cold start complements the negative-cost
columns that have a finite bound. One start rule serves every loaded basis
(cost modification; Koberstein 2005, The dual simplex method): each
nonbasic column with a negative reduced cost has its cost shifted until
that reduced cost is zero, dual pivots on the shifted costs reach primal
feasibility, and a bounded primal simplex finishes with the true costs,
reporting UNBOUNDED when nothing limits a step. There is no phase 1 and no
artificial column.

The tableau is kept in dictionary (compact) form (Chvatal 1983, Linear
Programming, ch. 2): with n structural columns and m rows it stores only the
n nonbasic columns and the right side, an (m+1) x (n+1) array, because the
m basic columns are unit vectors. A pivot swaps the entering and leaving
columns between `basic` and `nonbasic`, the leaving column taking the
entering one's slot, and every stored entry comes out exactly as the full
(m+1) x (n+m+1) tableau's update would leave it.

Pivoting is deterministic: the largest bound violation leaves, Harris's
ratio test picks the entering column, the lowest column id (never the lowest
storage slot) wins ties, and a Bland-style rule takes over when the
objective stalls. INFEASIBLE is declared only after the offending row has
been rebuilt from a fresh solve with the basis. Primal values and row duals
are read off the final tableau (Chvatal 1983, ch. 5): the basic values are
its right side, and each row's dual is its slack's reduced cost. Feasibility
and strong duality are then checked against the program before OPTIMAL is
reported.

A solve can start warm from the final basis (basic columns and complement
flags, not the tableau) of any program whose rows and columns the new one
extends at the end: old ids keep their positions, the slacks shifting past
the added columns, added columns start nonbasic at their lower bounds and
added rows with their slacks basic. The tableau is rebuilt from the basis
with one dense solve against the nonbasic columns and the right side, and
the start rule above takes it from there, whether it is primal feasible,
dual feasible or neither. A basis that is singular or does not fit the
program is dropped for the cold slack start, and a warm solve whose answer
fails the feasibility and duality check is solved once more from it.

Branch and bound uses most-fractional branching and best-bound search. Its
incumbents come from the tree alone: under best-bound order, a seed no
better than the optimum could spare only nodes whose bound lies within
ABS_GAP of it. The root starts from a caller's basis when given one, and an
open node keeps its LP's final basis, from which its children start.

Problem sizes here are desk scale (at most a couple of thousand columns), so
a dense tableau is deliberate: it keeps the pivot arithmetic transparent and
the whole state inspectable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

FEAS_TOL = 1e-7          # absolute primal feasibility slack
DUALITY_REL_TOL = 1e-6   # relative primal/dual objective agreement at optimal
RC_TOL = 1e-9            # reduced-cost threshold: entering, cost shifts, Harris window
PIVOT_TOL = 1e-9         # minimum magnitude of an acceptable pivot element
INT_TOL = 1e-7           # integrality recognition threshold
ABS_GAP = 1e-9           # branch and bound prunes nodes this close to the incumbent
_BOUND_TOL = 1e-9        # bound violation that makes a basic variable leave
_STALL_LIMIT = 200       # degenerate pivots tolerated before Bland's rule


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL = "numerical"


@dataclass
class LinearProgram:
    """min c.x subject to a x {<=,>=,==} b and lb <= x <= ub (lb finite)."""

    c: np.ndarray
    a: np.ndarray
    rel: tuple[str, ...]
    b: np.ndarray
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        self.a = np.asarray(self.a, dtype=float).reshape(-1, n)
        self.b = np.asarray(self.b, dtype=float)
        m = self.a.shape[0]
        if self.b.shape != (m,):
            raise ValueError(f"b must have shape ({m},), got {self.b.shape}")
        if len(self.rel) != m:
            raise ValueError(f"rel must have {m} entries")
        if any(r not in ("<=", ">=", "==") for r in self.rel):
            raise ValueError("row relations must be one of <=, >=, ==")
        self.rel = tuple(self.rel)
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bound vectors must match the number of variables")
        if not np.all(np.isfinite(self.lb)):
            raise ValueError("lower bounds must be finite")
        if np.any(np.isnan(self.ub)):
            raise ValueError("upper bounds must not be NaN")
        for arr, name in ((self.c, "c"), (self.a, "a"), (self.b, "b")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]


class Basis(NamedTuple):
    """A simplex basis over the structural columns followed by one slack per
    row: the basic column of each row, and which columns are complemented
    (measured down from their upper bound)."""

    basic: np.ndarray
    complemented: np.ndarray


@dataclass
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    duals: Optional[np.ndarray] = None
    iterations: int = 0
    basis: Optional[Basis] = None  # final basis, once the pivoting has finished


@dataclass
class MixedIntegerProgram:
    lp: LinearProgram
    integer: np.ndarray  # boolean mask over variables

    def __post_init__(self) -> None:
        self.integer = np.asarray(self.integer, dtype=bool)
        if self.integer.shape != (self.lp.n_vars,):
            raise ValueError("integer mask must match the number of variables")


@dataclass
class MilpSolution:
    status: LpStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    nodes: int = 0
    root_basis: Optional[Basis] = None  # the root relaxation's final basis


# ---------------------------------------------------------------------------
# simplex core


class _Tableau:
    """Bounded dense simplex state in the shifted space x - lb, in dictionary
    (compact) form.

    Column ids run over the structural variables, then one slack per row.
    The basic columns are unit vectors and are not stored: row i belongs to
    column `basic[i]`, slot k holds column `nonbasic[k]`, the last slot is
    the right side, and the last row holds the reduced costs and minus the
    objective. Column j is complemented where `flip[j]` is set. A load
    stores the nonbasic columns in id order and pivots swap ids between
    slots, so ties between columns go to the lowest id, never to the lowest
    slot.
    """

    def __init__(self, p: LinearProgram):
        if np.any(p.ub - p.lb < -FEAS_TOL):
            raise _Infeasible
        m, n = p.n_rows, p.n_vars
        self.sign = np.array([-1.0 if r == ">=" else 1.0 for r in p.rel])
        self.a0 = np.hstack([p.a * self.sign[:, None], np.eye(m)])
        self.b0 = self.sign * (p.b - p.a @ p.lb)
        self.c0 = np.concatenate([p.c, np.zeros(m)])
        self.u = np.concatenate([np.maximum(p.ub - p.lb, 0.0),
                                 [0.0 if r == "==" else np.inf for r in p.rel]])
        self.movable = self.u > 0.0  # fixed columns never enter
        self.m = m
        self.t = np.empty((m + 1, n + 1))
        self.iterations = 0
        self.max_iter = 2000 + 60 * (2 * m + n)

    def _load(self, basic: np.ndarray, flip: np.ndarray, cost: np.ndarray) -> None:
        """Tableau of a basis: one dense solve with it against the nonbasic
        columns and the right side, skipped when the basis is the identity
        (the slacks in row order, none complemented)."""
        total = self.c0.shape[0]
        nonbasic = np.ones(total, dtype=bool)
        nonbasic[basic] = False
        nonbasic = np.flatnonzero(nonbasic)
        sign, body = np.where(flip, -1.0, 1.0), self.t[:-1]
        np.multiply(self.a0[:, nonbasic], sign[nonbasic], out=body[:, :-1])
        body[:, -1] = self.b0 - self.a0[:, flip] @ self.u[flip]
        if (not np.array_equal(basic, np.arange(total - self.m, total))
                or np.any(flip[basic])):
            body[:] = np.linalg.solve(self.a0[:, basic] * sign[basic], body)
        self.basic, self.nonbasic, self.flip = basic.copy(), nonbasic, flip.copy()
        self._price(cost)

    def _price(self, cost: np.ndarray) -> None:
        """Reduced-cost row for `cost`, given in the uncomplemented orientation."""
        t, basic = self.t, self.basic
        cf = np.where(self.flip, -cost, cost)
        t[-1, :-1] = cf[self.nonbasic] - cf[basic] @ t[:-1, :-1]
        t[-1, -1] = -(cf[basic] @ t[:-1, -1] + cost[self.flip] @ self.u[self.flip])

    def _pivot(self, r: int, s: int) -> None:
        """Exchange basic[r] with the column in slot s. The leaving column
        takes the slot as the unit vector e_r, so the update gives it the
        entries the full tableau would: 1/p in row r, -col/p elsewhere."""
        t = self.t
        p = t[r, s]
        col = t[:, s].copy()
        col[r] = 0.0
        t[:, s] = 0.0
        t[r, s] = 1.0
        t[r] /= p
        t -= np.outer(col, t[r])
        self.basic[r], self.nonbasic[s] = self.nonbasic[s], self.basic[r]
        self.iterations += 1
        if self.iterations > self.max_iter:
            raise _Numerical("simplex iteration cap exceeded")

    def _lowest_id(self, slots: np.ndarray) -> int:
        """The slot among `slots` whose column has the lowest id."""
        return int(slots[np.argmin(self.nonbasic[slots])])

    def _flip_nonbasic(self, s: int) -> None:
        t, j = self.t, self.nonbasic[s]
        t[:, -1] -= self.u[j] * t[:, s]
        t[:, s] *= -1.0
        self.flip[j] = not self.flip[j]

    def _flip_basic(self, r: int) -> None:
        t, j = self.t, self.basic[r]
        t[r] *= -1.0
        t[r, -1] += self.u[j]
        self.flip[j] = not self.flip[j]

    def solve(self, warm: Optional[Basis]) -> None:
        """From `warm`, or from the slack basis when it does not load: shift the
        cost of each movable nonbasic column priced below -RC_TOL until its
        reduced cost is zero, pivot dual on the shifted costs, then primal."""
        m, total = self.m, self.c0.shape[0]
        if warm is None or not self._load_warm(warm):
            flip = (self.c0 < 0.0) & np.isfinite(self.u)
            self._load(np.arange(total - m, total), flip, self.c0)
        d = self.t[-1, :-1]
        shift = (d < -RC_TOL) & self.movable[self.nonbasic]
        j, cost = self.nonbasic[shift], self.c0.copy()
        cost[j] -= np.where(self.flip[j], -d[shift], d[shift])
        if j.size:
            self._price(cost)
        self._dual(cost)
        if j.size:  # an unshifted row stays as the pivots left it
            self._price(self.c0)
        self._primal()

    def _load_warm(self, warm: Basis) -> bool:
        """Load the final basis of a program this one extends at the end (see
        the module docstring); False if it has more rows or columns than this
        program, bad ids or dtypes, or is singular."""
        basic, flip = np.asarray(warm.basic), np.asarray(warm.complemented)
        m0, total = basic.size, self.c0.shape[0]
        n0, n = flip.size - m0, total - self.m  # old and new column counts
        if (basic.ndim != 1 or flip.ndim != 1 or flip.dtype != bool
                or basic.dtype.kind not in "iu" or m0 > self.m or not 0 <= n0 <= n
                or np.unique(basic).size != m0
                or not np.all((basic >= 0) & (basic < flip.size))):
            return False
        ids = basic.astype(int)
        ids[ids >= n0] += n - n0
        full = np.zeros(total, dtype=bool)
        full[:n0], full[n:n + m0] = flip[:n0], flip[n0:]
        try:
            self._load(np.concatenate([ids, np.arange(n + m0, total)]), full, self.c0)
        except np.linalg.LinAlgError:
            return False
        return bool(np.all(np.isfinite(self.t)))

    def _dual(self, cost: np.ndarray) -> None:
        """Dual simplex pivots from a dual feasible basis to primal feasibility."""
        t, m = self.t, self.m
        bland, stall, last, fresh = False, 0, -math.inf, False
        while True:
            beta, ub = t[:m, -1], self.u[self.basic]
            viol = np.maximum(-beta, beta - ub)
            bad = np.nonzero(viol > _BOUND_TOL)[0]
            if bad.size == 0:
                return
            r = int(bad[np.argmin(self.basic[bad])] if bland else bad[np.argmax(viol[bad])])
            if beta[r] > ub[r]:
                self._flip_basic(r)
            row = t[r, :-1]
            cand = np.nonzero((row < -PIVOT_TOL) & self.movable[self.nonbasic])[0]
            if cand.size == 0:
                if fresh:
                    raise _Infeasible
                self._load(self.basic, self.flip, cost)  # rule out drift first
                fresh = True
                continue
            # Harris: the largest pivot among ratios within RC_TOL of the least
            # (the least alone took 1e-9 pivots and left a singular basis)
            alpha = -row[cand]
            ratio = t[-1, cand] / alpha
            near = ratio <= np.min((t[-1, cand] + RC_TOL) / alpha)
            alpha = np.where(near, alpha, 0.0)
            self._pivot(r, self._lowest_id(cand[alpha == alpha.max()]))
            fresh = False
            z = -t[-1, -1]
            stall = 0 if z > last + 1e-12 else stall + 1
            bland = bland or stall > _STALL_LIMIT
            last = max(last, z)

    def _primal(self) -> None:
        """Bounded primal simplex pivots from a primal feasible basis."""
        t, m = self.t, self.m
        bland, stall, last = False, 0, math.inf
        while True:
            cand = np.nonzero((t[-1, :-1] < -RC_TOL) & self.movable[self.nonbasic])[0]
            if cand.size == 0:
                return
            if not bland:  # Dantzig: the most negative reduced costs
                cand = cand[t[-1, cand] == t[-1, cand].min()]
            s = self._lowest_id(cand)
            col, beta, ub = t[:m, s], t[:m, -1], self.u[self.basic]
            ratio = np.full(m, np.inf)
            down = col > PIVOT_TOL
            up = (col < -PIVOT_TOL) & np.isfinite(ub)
            ratio[down] = beta[down] / col[down]
            ratio[up] = (beta[up] - ub[up]) / col[up]
            ratio = np.maximum(ratio, 0.0)
            step = float(ratio.min()) if m else math.inf
            q = self.nonbasic[s]
            if self.u[q] <= step:  # the entering column reaches its own bound
                if math.isinf(self.u[q]):
                    raise _Unbounded
                self._flip_nonbasic(s)
                continue
            ties = np.nonzero(ratio <= step + 1e-12)[0]
            r = int(ties[np.argmin(self.basic[ties])])
            at_upper = col[r] < 0.0
            self._pivot(r, s)
            if at_upper:  # the leaving column, now in slot s, sits at its bound
                self._flip_nonbasic(s)
            z = -t[-1, -1]
            stall = 0 if z < last - 1e-12 else stall + 1
            bland = bland or stall > _STALL_LIMIT
            last = min(last, z)

    def extract(self) -> tuple[np.ndarray, np.ndarray]:
        """(shifted values of every column, internal row duals), read off the
        final tableau: a basic column's value is its right side, measured
        down from u when complemented, and a nonbasic one sits at 0 or u;
        row i's dual is minus its slack's reduced cost (plus when the slack
        is complemented), and 0 when the slack is basic."""
        beta, flip = self.t[:-1, -1], self.flip
        y = np.where(flip, self.u, 0.0)
        y[self.basic] = np.where(flip[self.basic], self.u[self.basic] - beta, beta)
        pi = np.zeros_like(y)
        pi[self.nonbasic] = np.where(flip[self.nonbasic], 1.0, -1.0) * self.t[-1, :-1]
        return y, pi[y.shape[0] - self.m:]


class _Infeasible(Exception):
    pass


class _Unbounded(Exception):
    pass


class _Numerical(Exception):
    def __init__(self, msg: str = ""):
        self.msg = msg


def solve_lp(p: LinearProgram, _warm: Optional[Basis] = None) -> LpSolution:
    """Solve a linear program; duals follow the shadow-price convention
    (dual of a >= row is >= 0, of a <= row is <= 0, of an equality free).
    `_warm` is the final basis of a program whose rows and columns this one
    extends at the end, such as a branch-and-bound parent's or the last
    restricted master's before a column was appended, to start from.
    A warm start that ends NUMERICAL is solved once more from the cold slack
    basis: its pivots carry the warm basis's round-off, which on costs near
    1e9 can leave the duality check a hair outside its tolerance."""
    try:
        tab = _Tableau(p)
    except _Infeasible:
        return LpSolution(LpStatus.INFEASIBLE)
    sol = _solve_tableau(p, tab, _warm)
    if _warm is not None and sol.status == LpStatus.NUMERICAL:
        cold = _solve_tableau(p, _Tableau(p), None)
        cold.iterations += sol.iterations
        return cold
    return sol


def _solve_tableau(p: LinearProgram, tab: _Tableau, warm: Optional[Basis]) -> LpSolution:
    try:
        tab.solve(warm)
        y, duals_int = tab.extract()
    except _Infeasible:
        return LpSolution(LpStatus.INFEASIBLE, iterations=tab.iterations)
    except _Unbounded:
        return LpSolution(LpStatus.UNBOUNDED, iterations=tab.iterations)
    except _Numerical:
        return LpSolution(LpStatus.NUMERICAL, iterations=tab.iterations)

    x = p.lb + y[: p.n_vars]
    objective = float(p.c @ x)
    duals = tab.sign * duals_int  # undo the negation of >= rows
    status = (LpStatus.OPTIMAL if _verify(p, x, duals_int, tab, objective)
              else LpStatus.NUMERICAL)
    return LpSolution(status, x=x, objective=objective, duals=duals,
                      iterations=tab.iterations, basis=Basis(tab.basic, tab.flip))


def _feasible(p: LinearProgram, x: np.ndarray) -> bool:
    """Rows hold to FEAS_TOL scaled by the largest right side, bounds to FEAS_TOL."""
    scale = 1.0 + (float(np.max(np.abs(p.b))) if p.n_rows else 0.0)
    rel = np.array(p.rel, dtype=str)
    resid = p.a @ x - p.b
    excess = np.select([rel == "<=", rel == ">="], [resid, -resid], np.abs(resid))
    return not (np.any(excess > FEAS_TOL * scale)
                or np.any(x < p.lb - FEAS_TOL) or np.any(x > p.ub + FEAS_TOL))


def _verify(p: LinearProgram, x: np.ndarray, duals_int: np.ndarray,
            tab: _Tableau, objective: float) -> bool:
    if not _feasible(p, x):
        return False
    # strong duality in the internal (shifted, sign-adjusted) space: the row
    # term plus the reduced costs of the columns held at their upper bounds
    at_upper = tab.flip.copy()
    at_upper[tab.basic] = False
    d_upper = tab.c0[at_upper] - duals_int @ tab.a0[:, at_upper]
    z_int = objective - float(p.c @ p.lb)
    z_dual = float(duals_int @ tab.b0) + float(d_upper @ tab.u[at_upper])
    return abs(z_int - z_dual) <= DUALITY_REL_TOL * (1.0 + abs(z_int))


# ---------------------------------------------------------------------------
# branch and bound


def solve_milp(mip: MixedIntegerProgram, _warm: Optional[Basis] = None) -> MilpSolution:
    """Branch-and-bound over LP relaxations.

    Branches on the most fractional integer variable (ties to the lowest
    index), explores nodes in best-bound order, and runs until the tree is
    exhausted, pruning nodes whose bound is within ABS_GAP of the incumbent;
    so no integer point beats an OPTIMAL objective by more than ABS_GAP.
    The root starts from `_warm` (as `solve_lp` does) and its final basis is
    returned as `root_basis`; children start from their parent's final basis.
    """
    p = mip.lp
    int_idx = np.nonzero(mip.integer)[0]

    best_x: Optional[np.ndarray] = None
    best_obj = math.inf
    root = solve_lp(p, _warm=_warm)
    nodes = 1
    if root.status != LpStatus.OPTIMAL:
        return MilpSolution(root.status, nodes=nodes)

    counter = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, LpSolution]] = []
    heapq.heappush(heap, (root.objective, counter, p.lb.copy(), p.ub.copy(), root))

    while heap:
        bound, _, lb, ub, rel = heapq.heappop(heap)
        if bound >= best_obj - ABS_GAP:
            continue  # cannot improve
        x = rel.x
        frac_var = _most_fractional(x, int_idx)
        if frac_var is None:
            snapped = x.copy()
            snapped[int_idx] = np.round(snapped[int_idx])
            obj = float(p.c @ snapped)
            if obj < best_obj:
                best_obj, best_x = obj, snapped
            continue
        base = math.floor(x[frac_var] + INT_TOL)
        for side in (0, 1):
            lb2, ub2 = lb.copy(), ub.copy()
            if side == 0:
                ub2[frac_var] = min(ub2[frac_var], float(base))
            else:
                lb2[frac_var] = max(lb2[frac_var], float(base + 1))
            if lb2[frac_var] > ub2[frac_var] + 1e-12:
                continue
            child = solve_lp(LinearProgram(p.c, p.a, p.rel, p.b, lb2, ub2),
                             _warm=rel.basis)
            nodes += 1
            if child.status == LpStatus.INFEASIBLE:
                continue
            if child.status in (LpStatus.UNBOUNDED, LpStatus.NUMERICAL):
                return MilpSolution(LpStatus.NUMERICAL, best_x,
                                    None if best_x is None else best_obj, nodes, root.basis)
            if child.objective < best_obj - ABS_GAP:
                counter += 1
                heapq.heappush(heap, (child.objective, counter, lb2, ub2, child))

    if best_x is None:
        return MilpSolution(LpStatus.INFEASIBLE, nodes=nodes, root_basis=root.basis)
    return MilpSolution(LpStatus.OPTIMAL, best_x, best_obj, nodes, root.basis)


def _most_fractional(x: np.ndarray, int_idx: np.ndarray) -> Optional[int]:
    if int_idx.size == 0:
        return None
    vals = x[int_idx]
    frac = np.abs(vals - np.round(vals))
    worst = int(np.argmax(frac))  # argmax returns the first (lowest) index on ties
    if frac[worst] <= INT_TOL:
        return None
    return int(int_idx[worst])

