"""Column generation over independent sets of downlinks.

The master problem time-shares activation patterns (columns) so that every
terminal's demand is met within a unit scheduling frame while room lighting
stays inside its illuminance band; leftover frame time falls back to the
cheapest lighting-only state. The restricted master is a small LP whose
duals price activation patterns. The loop carries both an incumbent
objective and a certified lower bound, so it can stop either at proven
optimality or at a caller-chosen multiplicative gap.

Pricing is two-tier at a gap of zero, where only the last pricing call has
to be exact: it proves that no pattern has a negative reduced cost, while
every earlier call only has to return some improving pattern (Lubbecke and
Desrosiers 2005, section 4). Each iteration first grows a pattern greedily
from the links whose own share of the reduced cost is negative, cheapest
first, with the same greedy insertion the random baseline uses, and lights
it with one lighting LP. Its reduced cost is computed from that lighting,
and it joins the pool when that is negative and the pattern is new. It
certifies nothing, so the bound stays where it was. Otherwise, and at every
iteration when the gap is above zero (each exact bound may then end the
loop early), a pricing MILP searches for the pattern with the most negative
reduced cost. It chooses the pattern's lighting powers with it, and the
column it adds keeps them. Only exact calls raise the lower bound or prove
optimality; an exact call that returns a pattern already in the pool ends
the loop too, as the master is optimal over the pool and that pattern's
negative reduced cost is LP round-off. A final validation pass recomputes
link rates with the interference each column actually generates and
re-optimizes the time shares over the scheduled columns alone.

Every program is sliced from tables the instance holds: the lux each chip
and each data beam gives every grid point, the transmitter budget table, and
one cached block of conflict-clique and multiplicity-cap rows. Illuminance
rows are generated lazily, by one loop that serves both the lighting LP and
the pricing MILP: an instance's working sets of grid points start empty, each
solution is checked against the full grid, and the worst violated rows join
the working set until the check is clean, so the sets hold only rows some
solve violated. Solutions are exact for the full row set.

Each program starts from the last optimal basis of its kind, which lines
up with it by position because programs of a kind only grow at the end:
every lighting LP from the lighting floor's basis (lazy rows are appended),
each restricted master from the previous master's (the shortfall columns
come first, so a new pattern is the last column and starts at zero), and
each pricing MILP's root from the previous root's (static rows first, then
the lazy rows); a lazy-row round after the first starts from the round
before. Only the first program of each kind starts cold.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .capacity import LinkRate, physical_capacity
from .conflict import (
    ConflictGraph,
    ScheduleVector,
    build_conflict_graph,
    cap_groups,
    cross_gains,
    is_independent,
)
from .lp import (
    ABS_GAP,
    Basis,
    LinearProgram,
    LpStatus,
    MixedIntegerProgram,
    solve_lp,
    solve_milp,
)
from .optics import illum_gain_many, lighting_pose
from .scenario import Link, Scenario, build_candidate_links

RATE_SCALE = 1e6               # demand rows are expressed in Mbit/s
SHORTFALL_COST = 1e6           # W per Mbit/s of unmet demand (big-M column)
REDUCED_COST_TOL = 1e-9        # pricing outcome treated as non-negative above this
ILLUM_SLACK = 1e-6             # lux tolerance when validating bounds
MAX_ITERATIONS = 300           # column-generation iterations before ITERATION_LIMIT
_ROW_CHECK_TOL = 5e-7          # lazy-row violation threshold (lux / W)
_OMEGA_TOL = 1e-9
_SHORTFALL_TOL_BPS = 1.0

_Answer = TypeVar("_Answer")


class CgStatus(str, Enum):
    OPTIMAL = "optimal"                # pricing proves no improving column
    EPSILON_BOUNDED = "epsilon_bounded"  # bound ratio within 1 + epsilon
    INFEASIBLE = "infeasible"          # demands unmet at proven optimum
    ITERATION_LIMIT = "iteration_limit"


class IlluminationInfeasible(ValueError):
    """Lighting bounds unattainable; carries the witness grid point."""

    def __init__(self, point_index: int, point: tuple, detail: str):
        self.point_index = point_index
        self.point = tuple(float(v) for v in point)
        super().__init__(f"illuminance bounds unattainable at grid point "
                         f"{point_index} {self.point}: {detail}")


class CgError(RuntimeError):
    pass


@dataclass(frozen=True)
class IndependentSetColumn:
    """One activation pattern with its optimal lighting state and rates."""

    schedule: ScheduleVector
    dc_power: tuple[float, ...]          # optical W per lighting-capable chip
    p_ac_electrical: float               # W, sum over active links
    p_dc_electrical: float               # W, lighting converters included
    rate_per_ut: tuple[float, ...]       # bit/s delivered to each terminal
    link_rates: tuple[LinkRate, ...]

    @property
    def electrical_total(self) -> float:
        return self.p_ac_electrical + self.p_dc_electrical


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    z_upper: float
    z_lower: float
    reduced_cost: float
    wall_ms: float
    pricing: str = ""  # "greedy" or "exact"; empty for a heuristic's round


@dataclass
class RmpResult:
    omega: np.ndarray
    z_upper: float
    lambda_bps: np.ndarray
    mu: float
    shortfall_bps: np.ndarray

    @property
    def feasible(self) -> bool:
        return float(np.sum(self.shortfall_bps)) <= _SHORTFALL_TOL_BPS


@dataclass
class CgSolution:
    stage: str                 # "protocol" or "reality"
    status: CgStatus
    columns: tuple[IndependentSetColumn, ...]
    omega: np.ndarray
    z_upper: float
    z_lower: float
    p_illumi_min: float        # electrical W of the lighting-only state
    dc_min: tuple[float, ...]  # optical W per lighting chip, lighting-only state
    epsilon: Optional[float]
    sir_threshold: Optional[float]
    lambda_bps: tuple[float, ...]
    mu: float
    shortfall_bps: tuple[float, ...]
    iteration_log: tuple[IterationRecord, ...]
    wall_ms: float

    @property
    def iterations(self) -> int:
        return len(self.iteration_log)

    @property
    def last_reduced_cost(self) -> float:
        """The last iteration's pricing reduced cost; NaN with no iteration."""
        return self.iteration_log[-1].reduced_cost if self.iteration_log else math.nan

    @property
    def feasible(self) -> bool:
        # every builder sets OPTIMAL or EPSILON_BOUNDED only with demands met
        return self.status in (CgStatus.OPTIMAL, CgStatus.EPSILON_BOUNDED)

    @property
    def net_gap(self) -> float:
        """Certified gap relative to net power (above the lighting floor):
        (z_upper - z_lower) / (z_upper - p_illumi_min), 0 when the net power
        is not positive; NaN without a lower bound (heuristic schedules)."""
        if math.isnan(self.z_lower):
            return math.nan
        net = self.z_upper - self.p_illumi_min
        return (self.z_upper - self.z_lower) / net if net > 0.0 else 0.0

    def active(self) -> list[tuple[IndependentSetColumn, float]]:
        return [
            (col, float(w))
            for col, w in zip(self.columns, self.omega)
            if w > _OMEGA_TOL
        ]


class SchedulingInstance:
    """Precomputed tables shared by every optimization pass on one scenario."""

    def __init__(self, s: Scenario, sir_threshold: Optional[float] = None):
        self.s = s
        self.links: list[Link] = build_candidate_links(s)
        # _h_cross[i, j] is the gain of link j's beam at link i's receiver
        # (same channel only, zero on the diagonal)
        self._h_cross = cross_gains(self.links)
        if sir_threshold is not None:
            self.graph = build_conflict_graph(self.links, self._h_cross, sir_threshold)
            self.sir_threshold = float(sir_threshold)
        else:
            self.graph = None
            self.sir_threshold = None
        self.cap_groups = cap_groups(self.links, s)

        self.demands = np.array([ut.demand_bps for ut in s.uts])
        self.pts = s.grid_points()
        K = self.pts.shape[0]
        rho = s.constants.luminosity_efficacy
        self.e_lo = np.full(K, s.illum.lower_lux - s.illum.ambient_lux)
        self.e_hi = np.full(K, s.illum.upper_lux - s.illum.ambient_lux)

        self.dc_txs = s.dc_transmitters()
        T = len(self.dc_txs)
        self.dc_eta = np.array([s.aps[a].chips[c].eta_dc for a, c in self.dc_txs])
        self.dc_cap = np.array([s.aps[a].chips[c].p_max for a, c in self.dc_txs])
        # lux per optical W of each lighting chip
        self.dc_light = rho * illum_gain_many(
            [lighting_pose(s.aps[a], s.aps[a].chips[c]) for a, c in self.dc_txs], self.pts)

        p_ac_avg = np.array([ln.p_ac_avg for ln in self.links])
        # lux contributed by each active link
        self.ac_light = rho * p_ac_avg[:, None] * illum_gain_many(
            [ln.ac_pose for ln in self.links], self.pts)
        self.cap = np.array([ln.capacity_protocol for ln in self.links])
        self.ut_of_link = np.array([ln.ut_index for ln in self.links], dtype=int)
        self.p_ac_pp = np.array([ln.p_ac_pp for ln in self.links])
        self.p_ac_elec = p_ac_avg / np.array([ln.eta_ac for ln in self.links])

        # budget[t, i]: link i's data-beam power drawn from lighting chip t's
        # budget, which is the same chip, or the whole access point for config c
        tx = np.array(self.dc_txs, dtype=int).reshape(T, 2)
        draws = tx[:, :1] == [ln.ap_index for ln in self.links]
        if s.config_kind != "c":
            draws &= tx[:, 1:] == [ln.chip_index for ln in self.links]
        self.budget = np.where(draws, self.p_ac_pp, 0.0)

        # lazy working sets of illuminance grid rows: only rows some solve violated
        self._start_rows((), ())

        self._p0: Optional[tuple[float, np.ndarray]] = None
        # single-link columns, with the lazy rows held right after they were built
        self._initial: Optional[tuple[tuple[IndependentSetColumn, ...],
                                      tuple[int, ...], tuple[int, ...]]] = None
        self._static_rows: Optional[tuple] = None
        # the last optimal basis of each kind of program: the lighting floor,
        # the restricted master and the pricing MILP's root
        self._floor_basis: Optional[Basis] = None
        self._rmp_basis: Optional[Basis] = None
        self._pricing_basis: Optional[Basis] = None

    def _start_rows(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        self._lo_rows: list[int] = list(lo)
        self._hi_rows: list[int] = list(hi)

    def at_sir_threshold(self, sir_threshold: float) -> SchedulingInstance:
        """This scenario at another SIR threshold, sharing this instance's
        threshold-free tables, lighting floor and initial columns (solved here
        if they are not yet); only the conflict graph is built anew.

        The lazy rows start from a copy of those held right after the initial
        columns were built, the master and the pricing MILP start cold (the
        conflict graph differs), and the lighting floor's basis, which no
        later solve changes, is shared. So when this instance built the
        initial columns before solving anything else, the result solves
        exactly as `SchedulingInstance(s, sir_threshold)` does. The lazy rows
        and the master and pricing bases are the only state a solve changes,
        and solving the result changes them on no other instance.
        """
        self.initial_columns()
        _, lo, hi = self._initial
        inst = copy.copy(self)
        inst.graph = build_conflict_graph(self.links, self._h_cross, sir_threshold)
        inst.sir_threshold = float(sir_threshold)
        inst._start_rows(lo, hi)
        inst._static_rows = None
        inst._rmp_basis = inst._pricing_basis = None
        return inst

    # -- lighting -----------------------------------------------------------

    def min_illumination_power(self) -> tuple[float, np.ndarray]:
        """Cheapest lighting-only state: (electrical W, optical W per chip)."""
        if self._p0 is None:
            dc = self._solve_dc(())
            self._p0 = (float(np.sum(dc / self.dc_eta)), dc)
        return self._p0

    def optimize_dc_for_schedule(self, active: Sequence[int]) -> np.ndarray:
        """Optimal lighting currents (optical W per chip) alongside a pattern."""
        return self._solve_dc(self._pattern(active))

    def _pattern(self, active: Iterable[int]) -> tuple[int, ...]:
        """`active` as a tuple of link indices: IndexError for one outside
        [0, L), ValueError for one given twice."""
        active = tuple(active)
        for i in active:
            if not 0 <= i < len(self.links):
                raise IndexError(f"link index {i} out of range")
        if len(set(active)) != len(active):
            raise ValueError(f"link indices {active} repeat")
        return active

    def illuminance(self, dc: Sequence[float], active: Sequence[int]) -> np.ndarray:
        """Desk illuminance (lux above ambient) at every grid point in the
        operating state with lighting powers `dc` and data links `active`."""
        return np.asarray(dc) @ self.dc_light + self._ac_field(active)

    def _ac_field(self, active: Sequence[int]) -> np.ndarray:
        if len(active) == 0:
            return np.zeros(self.pts.shape[0])
        return self.ac_light[list(active)].sum(axis=0)

    def _dc_caps_for(self, active: Sequence[int]) -> np.ndarray:
        return self.dc_cap - self.budget[:, list(active)].sum(1)

    def _illum_rows(self, lux: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    ) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
        """The held illuminance rows, lower then upper: their coefficients
        read from the (variables, K) table `lux`, their relations and their
        right sides, read from `lo` and `hi`. A lower row added after an upper
        one shifts the upper rows, which costs a held basis only a worse, still
        verified, start; neither benchmark workload ever adds an upper row."""
        held = self._lo_rows + self._hi_rows
        rel = (">=",) * len(self._lo_rows) + ("<=",) * len(self._hi_rows)
        return lux[:, held].T, rel, np.concatenate([lo[self._lo_rows], hi[self._hi_rows]])

    def _solve_dc(self, active: tuple[int, ...]) -> np.ndarray:
        ac = self._ac_field(active)
        lo = self.e_lo - ac
        hi = self.e_hi - ac
        k_bad = int(np.argmin(hi))
        if hi[k_bad] < -ILLUM_SLACK:
            raise IlluminationInfeasible(
                k_bad, tuple(self.pts[k_bad]),
                "data beams alone exceed the upper illuminance bound")
        caps = self._dc_caps_for(active)
        if np.any(caps < -1e-9):
            raise IlluminationInfeasible(
                -1, (), "active data beams exceed a transmitter power budget")
        caps = np.maximum(caps, 0.0)
        reachable = self.dc_light.T @ caps  # max attainable lighting, per point
        short = np.argmax(lo - reachable)
        if lo[short] - reachable[short] > ILLUM_SLACK:
            raise IlluminationInfeasible(
                int(short), tuple(self.pts[int(short)]),
                "lower illuminance bound exceeds what capped chips can deliver")

        cost = 1.0 / self.dc_eta
        # each round starts from the last one's basis, the first from the
        # floor's: only right sides, caps and added rows differ, so it stays
        # dual feasible. Lower rows whose right side is <= 0 stay in the LP
        # (redundant, as lux and powers are nonnegative) so that rows line up
        held = self._floor_basis

        def solve() -> tuple[np.ndarray, np.ndarray]:
            nonlocal held
            a, rel, b = self._illum_rows(self.dc_light, lo, hi)
            sol = solve_lp(LinearProgram(c=cost, a=a, rel=rel, b=b, ub=caps), _warm=held)
            if sol.status == LpStatus.INFEASIBLE:
                raise IlluminationInfeasible(
                    -1, (), "conflicting lower and upper bounds across grid points")
            if sol.status != LpStatus.OPTIMAL:
                raise CgError(f"lighting LP failed with status {sol.status}")
            held = sol.basis
            dc = np.maximum(sol.x, 0.0)
            return dc, dc @ self.dc_light

        dc = self._with_lazy_rows("lighting", solve, lo, hi)
        if not active and self._floor_basis is None:
            self._floor_basis = held
        return dc

    def _with_lazy_rows(self, what: str, solve: Callable[[], tuple[_Answer, np.ndarray]],
                        lo: np.ndarray, hi: np.ndarray) -> _Answer:
        """Row generation: `solve()` works on the current lazy rows and returns
        its answer with the illuminance field it makes on the full grid; grid
        points outside [lo, hi] join the rows until a field is clean."""
        for _ in range(200):
            answer, field = solve()
            if not self._collect_violations(field, lo, hi):
                return answer
        raise CgError(f"{what} row generation did not settle")

    def _collect_violations(self, field: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
        """Add up to 30 of the worst violated grid points not yet held, per
        side; the number added."""
        added = 0
        for viol, rows in ((lo - field, self._lo_rows), (field - hi, self._hi_rows)):
            viol[rows] = 0.0  # a held point is not added again
            bad = np.nonzero(viol > _ROW_CHECK_TOL)[0]
            worst = bad[np.argsort(viol[bad])[::-1][:30]].tolist()
            rows.extend(worst)
            added += len(worst)
        return added

    # -- columns ------------------------------------------------------------

    def build_column(self, active: Sequence[int],
                     dc: Optional[np.ndarray] = None) -> IndependentSetColumn:
        active = tuple(sorted(self._pattern(active)))
        if dc is None:
            dc = self._solve_dc(active)
        rate = np.zeros(len(self.s.uts))
        link_rates = []
        for i in active:
            rate[self.ut_of_link[i]] += self.cap[i]
            link_rates.append(LinkRate(i, float(self.cap[i])))
        return IndependentSetColumn(
            schedule=ScheduleVector(active),
            dc_power=tuple(float(v) for v in dc),
            p_ac_electrical=float(np.sum(self.p_ac_elec[list(active)])) if active else 0.0,
            p_dc_electrical=float(np.sum(dc / self.dc_eta)),
            rate_per_ut=tuple(float(v) for v in rate),
            link_rates=tuple(link_rates),
        )

    def initial_columns(self) -> list[IndependentSetColumn]:
        """One column per link that admits lighting on its own, solved once
        (after the lighting floor) and returned as a new list on every call;
        empty when no link does, and the master then buys every demand as
        shortfall until pricing finds a pattern."""
        if self._initial is None:
            self.min_illumination_power()
            cols = []
            for i in range(len(self.links)):
                try:
                    cols.append(self.build_column((i,)))
                except IlluminationInfeasible:
                    continue  # a beam nobody can light around; unusable as a column
            self._initial = (tuple(cols), tuple(self._lo_rows), tuple(self._hi_rows))
        return list(self._initial[0])

    def column_is_valid(self, col: IndependentSetColumn) -> bool:
        """Recheck independence, power budgets and the illuminance band."""
        if self.graph is not None and not is_independent(col.schedule, self.graph, self.s):
            return False
        dc = np.asarray(col.dc_power)
        if np.any(dc < -1e-12):
            return False
        caps = self._dc_caps_for(col.schedule.active)
        if np.any(dc > caps + 1e-9):
            return False
        field = self.illuminance(dc, col.schedule.active)
        return bool(
            np.all(field >= self.e_lo - ILLUM_SLACK)
            and np.all(field <= self.e_hi + ILLUM_SLACK)
        )

    # -- restricted master ----------------------------------------------------

    def solve_rmp(self, columns: Sequence[IndependentSetColumn]) -> RmpResult:
        p0_elec, _ = self.min_illumination_power()
        M = len(self.s.uts)
        Q = len(columns)
        # one shortfall column per terminal, then omega: a pattern appended
        # since the last master enters that master's basis nonbasic at zero,
        # which keeps it primal feasible
        c = np.concatenate([np.full(M, SHORTFALL_COST),
                            [col.electrical_total - p0_elec for col in columns]])
        a = np.zeros((M + 1, M + Q))
        a[:M, :M] = np.eye(M)
        a[:M, M:] = np.reshape([col.rate_per_ut for col in columns], (Q, M)).T / RATE_SCALE
        a[M, M:] = 1.0
        b = np.append(self.demands / RATE_SCALE, 1.0)
        sol = solve_lp(LinearProgram(c=c, a=a, rel=(">=",) * M + ("<=",), b=b),
                       _warm=self._rmp_basis)
        if sol.status != LpStatus.OPTIMAL:
            raise CgError(f"restricted master LP failed with status {sol.status}")
        self._rmp_basis = sol.basis
        omega = np.maximum(sol.x[M:], 0.0)
        shortfall = np.maximum(sol.x[:M], 0.0) * RATE_SCALE
        lam = np.maximum(sol.duals[:M], 0.0) / RATE_SCALE
        mu = min(float(sol.duals[M]), 0.0)
        z_upper = float(sol.objective) + p0_elec
        return RmpResult(omega, z_upper, lam, mu, shortfall)

    # -- pricing --------------------------------------------------------------

    def _require_graph(self) -> ConflictGraph:
        if self.graph is None:
            raise CgError("this operation needs a conflict graph; pass sir_threshold")
        return self.graph

    def _static_pattern_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows A x <= b over the links alone: conflict cliques, then the
        multiplicity caps, each (members, cap) once and with two or more
        members."""
        if self._static_rows is None:
            cliques = _clique_cover(self._require_graph().adjacency)
            groups, caps = self.cap_groups
            a = np.vstack([cliques, groups]).astype(float)
            b = np.concatenate([np.ones(len(cliques)), caps])
            rows = np.nonzero(a.sum(1) >= 2)[0]
            _, first = np.unique(np.column_stack([a, b])[rows], axis=0, return_index=True)
            rows = rows[np.sort(first)]
            self._static_rows = (a[rows], b[rows])
        return self._static_rows

    def solve_pricing(self, lambda_bps: np.ndarray, mu: float,
                      ) -> tuple[IndependentSetColumn, float, float]:
        """Most negative reduced-cost activation pattern under the given duals.

        Returns the pattern as a column, its reduced cost, and a certified
        lower bound on the reduced cost over all patterns (the MILP optimum
        less `lp.ABS_GAP`, within which branch and bound prunes), which is
        what the dual bound on the master objective must be built from.

        The MILP chooses links and lighting powers together, so the column
        keeps the MILP's powers and no lighting LP is solved: once the full
        grid check is clean they are optimal for the pattern.
        """
        self._require_graph()
        p0_elec, _ = self.min_illumination_power()
        _, mu, link_cost = self._priced_links(lambda_bps, mu)
        L = len(self.links)
        T = len(self.dc_txs)
        n = L + T
        c = np.empty(n)
        c[:L] = link_cost
        c[L:] = 1.0 / self.dc_eta
        lb = np.zeros(n)
        ub = np.concatenate([np.ones(L), np.full(T, np.inf)])
        integer = np.concatenate([np.ones(L, bool), np.zeros(T, bool)])

        # static rows over the links, then one budget row per lighting chip
        static_a, static_b = self._static_pattern_rows()
        fixed_a = np.block([[static_a, np.zeros((len(static_b), T))],
                            [self.budget, np.eye(T)]])
        fixed_b = np.concatenate([static_b, self.dc_cap])
        lux = np.vstack([self.ac_light, self.dc_light])

        # the root starts from the last root's basis: between calls only the
        # costs differ, so it stays primal feasible; between lazy rounds only
        # rows are appended, so it stays dual feasible
        def solve() -> tuple[tuple[float, tuple[int, ...], np.ndarray], np.ndarray]:
            a, rel, b = self._illum_rows(lux, self.e_lo, self.e_hi)
            lp = LinearProgram(c=c, a=np.vstack([fixed_a, a]),
                               rel=("<=",) * len(fixed_b) + rel,
                               b=np.concatenate([fixed_b, b]), lb=lb, ub=ub)
            res = solve_milp(MixedIntegerProgram(lp, integer), _warm=self._pricing_basis)
            if res.status != LpStatus.OPTIMAL or res.x is None:
                raise CgError(f"pricing MILP failed with status {res.status}")
            self._pricing_basis = res.root_basis
            active = tuple(int(i) for i in np.nonzero(res.x[:L] > 0.5)[0])
            dc = np.maximum(res.x[L:], 0.0)
            return (float(res.objective), active, dc), self.illuminance(dc, active)

        objective, active, dc = self._with_lazy_rows("pricing", solve, self.e_lo, self.e_hi)
        column = self.build_column(active, dc)
        reduced = objective - p0_elec - mu
        reduced_bound = objective - ABS_GAP - p0_elec - mu
        return column, reduced, reduced_bound

    def _priced_links(self, lambda_bps: np.ndarray, mu: float,
                      ) -> tuple[np.ndarray, float, np.ndarray]:
        """The master's duals clipped to their signs (lambda >= 0, mu <= 0)
        and each link's own share of a pattern's reduced cost: its data-beam
        power less the demand price of its rate."""
        lam = np.maximum(np.asarray(lambda_bps, dtype=float), 0.0)
        return lam, min(float(mu), 0.0), self.p_ac_elec - lam[self.ut_of_link] * self.cap

    def _greedy_pricing(self, lambda_bps: np.ndarray, mu: float,
                        known: set[tuple[int, ...]], cutoff: float,
                        ) -> Optional[tuple[IndependentSetColumn, float]]:
        """A pattern grown by `_greedy_insert` from the links whose own share
        of the reduced cost is negative, cheapest first, and lit by
        `_column_with_lighting`; with its reduced cost, computed from its own
        lighting. None unless that is below `cutoff` and the pattern is not
        in `known`. It proves nothing about the patterns it passed over."""
        lam, mu, link_cost = self._priced_links(lambda_bps, mu)
        order = np.argsort(link_cost, kind="stable")
        members = _greedy_insert(self, order[link_cost[order] < 0.0].tolist())
        if not members or tuple(sorted(members)) in known:
            return None
        column = _column_with_lighting(self, members, include_illum=True)
        if column is None or column.schedule.active in known:
            return None
        p0_elec, _ = self.min_illumination_power()
        reduced = (column.electrical_total - p0_elec
                   - float(np.dot(lam, column.rate_per_ut)) - mu)
        return (column, reduced) if reduced < cutoff else None

    # -- main loop -------------------------------------------------------------

    def column_generation(self, epsilon: float) -> CgSolution:
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon={epsilon}: must lie in [0, 1)")
        self._require_graph()
        t_start = time.monotonic()
        p0_elec, dc_min = self.min_illumination_power()
        pool = self.initial_columns()
        keys = {col.schedule.active for col in pool}
        z_lower = -math.inf
        log: list[IterationRecord] = []
        status = CgStatus.ITERATION_LIMIT
        rmp: Optional[RmpResult] = None

        for it in range(1, MAX_ITERATIONS + 1):
            t0 = time.monotonic()
            rmp = self.solve_rmp(pool)
            # scale-aware optimality cutoff: a pool column can re-price a hair
            # negative from LP round-off, which proves nothing but convergence
            cutoff = -REDUCED_COST_TOL * max(1.0, abs(rmp.z_upper))
            # at epsilon 0 only the last call must be exact; at epsilon > 0
            # every exact bound may end the loop early
            greedy = (self._greedy_pricing(rmp.lambda_bps, rmp.mu, keys, cutoff)
                      if epsilon == 0.0 else None)
            if greedy is not None:
                (column, reduced), pricing = greedy, "greedy"
            else:
                column, reduced, reduced_bound = self.solve_pricing(rmp.lambda_bps, rmp.mu)
                z_lower = max(z_lower,
                              min(rmp.z_upper + reduced_bound, rmp.z_upper))
                pricing = "exact"
            log.append(IterationRecord(
                it, rmp.z_upper, z_lower, reduced,
                (time.monotonic() - t0) * 1e3, pricing,
            ))
            # the master is optimal over the pool, so a pooled pattern prices
            # negative only by LP round-off, and there is nothing new to add
            if reduced >= cutoff or column.schedule.active in keys:
                status = CgStatus.OPTIMAL if rmp.feasible else CgStatus.INFEASIBLE
                break
            if (
                rmp.feasible
                and z_lower > 0.0
                and rmp.z_upper / z_lower <= 1.0 + epsilon + 1e-12
            ):
                status = CgStatus.EPSILON_BOUNDED
                break
            pool.append(column)
            keys.add(column.schedule.active)
        else:
            # ran out of iterations after extending the pool: refresh omega
            rmp = self.solve_rmp(pool)

        assert rmp is not None
        return CgSolution(
            stage="protocol",
            status=status,
            columns=tuple(pool),
            omega=rmp.omega,
            z_upper=rmp.z_upper,
            z_lower=z_lower,
            p_illumi_min=p0_elec,
            dc_min=tuple(float(v) for v in dc_min),
            epsilon=epsilon,
            sir_threshold=self.sir_threshold,
            lambda_bps=tuple(float(v) for v in rmp.lambda_bps),
            mu=rmp.mu,
            shortfall_bps=tuple(float(v) for v in rmp.shortfall_bps),
            iteration_log=tuple(log),
            wall_ms=(time.monotonic() - t_start) * 1e3,
        )

    # -- validation pass ---------------------------------------------------------

    def physical_rates(self, col: IndependentSetColumn) -> IndependentSetColumn:
        """Column with rates recomputed under its own concurrent interference."""
        idx = list(col.schedule.active)
        rate = np.zeros(len(self.s.uts))
        link_rates = []
        p_interference = self._h_cross[np.ix_(idx, idx)] @ self.p_ac_pp[idx]
        for i, p_i in zip(idx, p_interference.tolist()):
            ln = self.links[i]
            cap = physical_capacity(
                ln.bandwidth_hz,
                self.s.constants.responsivity,
                ln.gain,
                ln.p_ac_pp,
                p_i,
                self.s.constants.noise_variance,
            )
            rate[ln.ut_index] += cap
            link_rates.append(LinkRate(i, float(self.cap[i]), float(cap)))
        return replace(col, rate_per_ut=tuple(float(v) for v in rate),
                       link_rates=tuple(link_rates))

    def reality_check(self, sol: CgSolution) -> CgSolution:
        """Re-optimize time shares over the scheduled columns at the rates they
        actually achieve when their links transmit concurrently."""
        t0 = time.monotonic()
        chosen = [col for col, _ in sol.active()]
        if not chosen:
            chosen = [self.build_column(())]
        real_cols = tuple(self.physical_rates(col) for col in chosen)
        rmp = self.solve_rmp(real_cols)
        return replace(
            sol,
            stage="reality",
            status=CgStatus.OPTIMAL if rmp.feasible else CgStatus.INFEASIBLE,
            columns=real_cols,
            omega=rmp.omega,
            z_upper=rmp.z_upper,
            sir_threshold=self.sir_threshold,
            lambda_bps=tuple(float(v) for v in rmp.lambda_bps),
            mu=rmp.mu,
            shortfall_bps=tuple(float(v) for v in rmp.shortfall_bps),
            wall_ms=(time.monotonic() - t0) * 1e3,
        )


def _greedy_insert(inst: SchedulingInstance, order: Sequence[int]) -> list[int]:
    """Maximal independent set grown in the given link order."""
    adjacency = inst.graph.adjacency
    groups, caps = inst.cap_groups
    used = np.zeros(len(caps))
    members: list[int] = []
    for i in order:
        mine = groups[:, i]
        if adjacency[i, members].any() or np.any(used[mine] >= caps[mine]):
            continue
        members.append(i)
        used[mine] += 1
    return members


def _column_with_lighting(
    inst: SchedulingInstance, members: list[int], include_illum: bool
) -> Optional[IndependentSetColumn]:
    """Column for the set, shedding last-added members if lighting fails."""
    if not include_illum:
        dc = np.zeros(len(inst.dc_txs))
        return inst.build_column(members, dc=dc)
    while True:
        try:
            return inst.build_column(tuple(members))
        except IlluminationInfeasible:
            if not members:
                return None
            members.pop()


def _clique_cover(adjacency: np.ndarray) -> np.ndarray:
    """Greedy clique cover of all edges, deterministic by index order, as a
    (cliques, L) boolean membership matrix."""
    L = adjacency.shape[0]
    covered = np.zeros_like(adjacency)
    cliques: list[np.ndarray] = []
    for i in range(L):
        for j in range(i + 1, L):
            if not adjacency[i, j] or covered[i, j]:
                continue
            clique = np.zeros(L, dtype=bool)
            clique[[i, j]] = True
            mask = adjacency[i] & adjacency[j]
            mask[i] = mask[j] = False
            for v in range(L):
                if mask[v]:
                    clique[v] = True
                    mask &= adjacency[v]
            members = np.nonzero(clique)[0]
            covered[np.ix_(members, members)] = True
            cliques.append(clique)
    return np.array(cliques, dtype=bool).reshape(-1, L)


def write_iteration_csv(records: Iterable[IterationRecord], path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,z_upper,z_lower,reduced_cost,wall_ms,pricing\n")
        for r in records:
            fh.write(f"{r.iteration},{r.z_upper!r},{r.z_lower!r},"
                     f"{r.reduced_cost!r},{r.wall_ms:.3f},{r.pricing}\n")
