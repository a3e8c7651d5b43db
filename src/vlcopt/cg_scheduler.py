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
Desrosiers 2005, section 4). Each iteration first grows a batch of
link-disjoint patterns greedily: the links whose own share of the reduced
cost is negative are the candidates, cheapest first, and each pattern is
grown from them with the same greedy insertion the random baseline uses;
its links then leave the candidates and the next pattern grows from the
rest, until none is left. Each pattern is given its optimal lighting (see
below), and its reduced cost is computed from that lighting; every pattern
whose reduced cost is negative and which is new joins the pool in the same
iteration (several columns per iteration, Desaulniers, Desrosiers and
Solomon 2002).
The batch certifies nothing, so the bound stays where it was. When the
batch is empty, and at every iteration when the gap is above zero (each
exact bound may then end the loop early), a pricing MILP searches for the
pattern with the most negative reduced cost. It chooses the pattern's
lighting powers with it, and the column it adds keeps them. Only exact
calls raise the lower bound or prove optimality; an exact call that returns
a pattern already in the pool ends the loop too, as the master is optimal
over the pool and that pattern's negative reduced cost is LP round-off. A
final validation pass recomputes link rates with the interference each
column actually generates, for every scheduled column in one batched pass,
and re-optimizes the time shares over the scheduled columns alone.

Every program is sliced from tables the instance holds: the lux each chip
and each data beam gives every grid point, the transmitter budget table, and
one cached block of conflict-clique and multiplicity-cap rows. Illuminance
rows are generated lazily, by one loop that serves both the lighting LP and
the pricing MILP: an instance's working sets of grid points start empty, each
solution is checked against the full grid, and the worst violated rows join
the working set until the check is clean, so the sets hold only rows some
solve violated. Solutions are exact for the full row set.

A pattern's lighting LP is the lighting floor's LP with other right sides
(the lux its data beams add) and chip caps (the power they draw), so the
floor's final basis stays dual feasible for every pattern (right-hand-side
ranging, Chvatal 1983, Linear Programming, ch. 10). The floor is decoded once
when it is solved, and a pattern's first lazy-row round reads the pattern off
that basis: its nonbasic chips at zero or at their caps and its basic chips
from one k x k solve on the floor's tight rows. Where that reading is primal
feasible on the held rows it is the round's answer and no LP is solved; the
loop's full-grid check then decides, as for any round, whether rows join.
Every other round solves the pattern's lighting LP.

Each program starts from the final basis of the last optimal solution of
its kind, moved to it by position (`lp.solve_lp`), because programs of a
kind only grow at the end. A pattern's lighting LP has the lazy rows
appended since the floor, so its first LP starts from the floor's basis and
each later round from the round before. Each restricted master of one
`column_generation` call starts from the previous one (the shortfall
columns come first, so new patterns are the last columns and start at
zero), and each pricing MILP's root from the previous root (static rows
first, then the lazy rows). An instance's first pricing root starts from
the lighting floor's basis instead: with every link at zero the pricing LP
is the floor's LP plus rows whose slacks are basic, so that basis, moved
onto the pricing program, is a primal feasible advanced start (Bixby 1992,
Implementing the simplex method: the initial basis), and every instance
derived at another SIR threshold shares it. The validation pass's master
has the last master's rows and costs over the scheduled columns, with only
their rates lowered, so it starts from that master's final basis, moved
onto the scheduled columns by position (also an advanced start); it starts
from the big-M basis, every demand bought as shortfall and the frame idle,
when a pattern left out is basic there, when nothing is scheduled, or for a
heuristic's schedule, which has no basis. Otherwise only the floor and the
first master start cold. A call given an earlier solution to start
from, such as a SIR sweep's solution at the next higher threshold, also
pools that solution's columns that are independent in this conflict graph,
after the initial columns; when it keeps them all, the pool is that
solution's last master's program, and the first master starts from its
final basis.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .capacity import physical_capacity
from .conflict import (
    ConflictGraph,
    ScheduleVector,
    build_conflict_graph,
    cap_groups,
    cross_gains,
    is_independent,
)
from .lp import (
    _BOUND_TOL,
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
    """One activation pattern with its lighting state, and the two numbers
    the master reads from it: the electrical power the state draws and the
    rate it gives each terminal."""

    schedule: ScheduleVector
    dc_power: tuple[float, ...]          # optical W per lighting-capable chip
    electrical_total: float              # W: active data beams plus lighting converters
    rate_per_ut: tuple[float, ...]       # bit/s delivered to each terminal


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    z_upper: float
    z_lower: float
    reduced_cost: float
    wall_ms: float
    pricing: str = ""  # "greedy" or "exact"; empty for a heuristic's round
    columns_added: int = 0  # columns the iteration put in the pool


@dataclass
class RmpResult:
    omega: np.ndarray
    z_upper: float
    lambda_bps: np.ndarray
    mu: float
    shortfall_bps: np.ndarray
    basis: Basis  # the master's final basis

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
    dc_min: tuple[float, ...]  # optical W per lighting chip when idle; zeros if left dark
    epsilon: Optional[float]
    sir_threshold: Optional[float]
    lambda_bps: tuple[float, ...]
    mu: float
    shortfall_bps: tuple[float, ...]
    iteration_log: tuple[IterationRecord, ...]
    wall_ms: float
    basis: Optional[Basis] = None  # the last master's final basis (protocol stage only)

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


@dataclass(frozen=True)
class _LightingFloor:
    """The lighting-only optimum, decoded once when it is solved."""

    dc: np.ndarray        # optical W per chip
    basis: Basis          # final basis over the floor's held rows, lower then upper
    n_lo: int             # how many of those rows are lower rows
    chips: np.ndarray     # the basic chips, in basis order
    at_cap: np.ndarray    # the chips held nonbasic at their caps
    points: np.ndarray    # the tight rows' grid points (slack nonbasic) ...
    bound: np.ndarray     # ... and their bounds (lux above ambient)
    chip_lux: np.ndarray  # (points, chips): the basic chips' lux there
    cap_lux: np.ndarray   # (at_cap, points): the capped chips' lux there


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
        self.gain = np.array([ln.gain for ln in self.links])
        self.bandwidth = np.array([ln.bandwidth_hz for ln in self.links])
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

        # single-link columns, with the lazy rows held right after they were built
        self._initial: Optional[tuple[tuple[IndependentSetColumn, ...],
                                      tuple[int, ...], tuple[int, ...]]] = None
        self._static_rows: Optional[tuple] = None
        self._bits: Optional[_ConflictBits] = None
        # the lighting floor, and the final basis of the last pricing MILP's root
        self._floor: Optional[_LightingFloor] = None
        self._pricing_root: Optional[Basis] = None

    def _start_rows(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        self._lo_rows: list[int] = list(lo)
        self._hi_rows: list[int] = list(hi)
        self._hold_rows()

    def _hold_rows(self) -> None:
        """Refresh the held rows' index arrays, which the hot paths read in
        place of the lists."""
        self._lo_idx = np.array(self._lo_rows, dtype=int)
        self._hi_idx = np.array(self._hi_rows, dtype=int)

    def at_sir_threshold(self, sir_threshold: float) -> SchedulingInstance:
        """This scenario at another SIR threshold, sharing this instance's
        threshold-free tables, lighting floor and initial columns (solved here
        if they are not yet); only the conflict graph is built anew.

        The lazy rows start from a copy of those held right after the initial
        columns were built, and the lighting floor's record, decoded once and
        changed by no later solve, is shared. The held pricing root is not
        (the conflict graph differs), so the first pricing MILP starts from
        the floor's basis, as on a new instance. So when this instance built
        the initial columns before solving anything else, the result solves
        exactly as `SchedulingInstance(s, sir_threshold)` does. The lazy rows
        and the pricing root are the only state a solve changes, and solving
        the result changes them on no other instance.
        """
        self.initial_columns()
        _, lo, hi = self._initial
        inst = copy.copy(self)
        inst.graph = build_conflict_graph(self.links, self._h_cross, sir_threshold)
        inst.sir_threshold = float(sir_threshold)
        inst._start_rows(lo, hi)
        inst._static_rows = None
        inst._bits = None
        inst._pricing_root = None
        return inst

    # -- lighting -----------------------------------------------------------

    def min_illumination_power(self) -> tuple[float, np.ndarray]:
        """Cheapest lighting-only state: (electrical W, optical W per chip)."""
        if self._floor is None:
            self._solve_dc(())
        return self._dc_electrical(self._floor.dc), self._floor.dc

    def _dc_electrical(self, dc: Sequence[float]) -> float:
        """Electrical W the lighting chips draw at optical powers `dc`."""
        return float(np.sum(np.asarray(dc) / self.dc_eta))

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
        return self.ac_light[list(active)].sum(axis=0)  # zeros for no link

    def _dc_caps_for(self, active: Sequence[int]) -> np.ndarray:
        return self.dc_cap - self.budget[:, list(active)].sum(1)

    def _illum_rows(self, lux: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    ) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
        """The held illuminance rows, lower then upper: their coefficients
        read from the (variables, K) table `lux`, their relations and their
        right sides, read from `lo` and `hi`. A lower row added after an upper
        one shifts the upper rows, so a basis held before loads onto the new
        program by position or, if singular there, leaves the cold start;
        neither benchmark workload ever adds an upper row."""
        lo_idx, hi_idx = self._lo_idx, self._hi_idx
        rel = (">=",) * lo_idx.size + ("<=",) * hi_idx.size
        return (lux[:, np.concatenate([lo_idx, hi_idx])].T, rel,
                np.concatenate([lo[lo_idx], hi[hi_idx]]))

    def _solve_dc(self, active: tuple[int, ...]) -> np.ndarray:
        """Optimal lighting powers (optical W per chip) alongside the pattern
        `active`, exact over the full grid.

        A pattern that no chip setting can light raises IlluminationInfeasible
        before anything is solved; any other is lit after the lighting floor
        (solved first if it is not yet) by the lighting LP over the lazy rows,
        each round from the last one's basis, the first from the floor's. A
        pattern changes only the floor LP's right sides and chip caps, so that
        basis stays dual feasible for it (right-hand-side ranging, Chvatal
        1983, ch. 10): the first round reads the pattern off it (`_floor_read`)
        and, where the reading is primal feasible on the held rows
        (`_lit_cleanly`), solves no LP.
        """
        ac = self._ac_field(active)
        lo = self.e_lo - ac
        hi = self.e_hi - ac
        k_bad = int(hi.argmin())
        if hi[k_bad] < -ILLUM_SLACK:
            raise IlluminationInfeasible(
                k_bad, tuple(self.pts[k_bad]),
                "data beams alone exceed the upper illuminance bound")
        caps = self._dc_caps_for(active)
        if (caps < -1e-9).any():
            raise IlluminationInfeasible(
                -1, (), "active data beams exceed a transmitter power budget")
        caps = np.maximum(caps, 0.0)
        reachable = self.dc_light.T @ caps  # max attainable lighting, per point
        short = int((lo - reachable).argmax())
        if lo[short] - reachable[short] > ILLUM_SLACK:
            raise IlluminationInfeasible(
                short, tuple(self.pts[short]),
                "lower illuminance bound exceeds what capped chips can deliver")
        if active and self._floor is None:
            self.min_illumination_power()

        cost = 1.0 / self.dc_eta
        # lower rows whose right side is <= 0 stay in the LP (redundant, as
        # lux and powers are nonnegative) so that rows line up
        held = None if self._floor is None else self._floor.basis
        read = held is not None  # the first round reads the pattern off that basis

        def solve() -> tuple[np.ndarray, np.ndarray]:
            nonlocal held, read
            if read:
                read = False
                x = self._floor_read(ac, caps)
                dc = np.maximum(x, 0.0)
                field = dc @ self.dc_light
                if self._lit_cleanly(x, field, lo, hi, caps):
                    return dc, field
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
        if self._floor is None:
            self._floor = self._decode_floor(dc, held)
        return dc

    def _decode_floor(self, dc: np.ndarray, basis: Basis) -> _LightingFloor:
        """The lighting floor's record from its powers and final basis, over
        the rows held when it was solved."""
        T = len(self.dc_txs)
        chips = basis.basic[basis.basic < T]
        at_cap = np.flatnonzero(basis.complemented[:T] & ~np.isin(np.arange(T), chips))
        rows = np.setdiff1d(np.arange(basis.basic.size), basis.basic[basis.basic >= T] - T)
        n_lo = len(self._lo_rows)
        points = np.array(self._lo_rows + self._hi_rows, dtype=int)[rows]
        lux = self.dc_light[:, points]
        return _LightingFloor(dc, basis, n_lo, chips, at_cap, points,
                              np.where(rows < n_lo, self.e_lo[points], self.e_hi[points]),
                              lux[chips].T, lux[at_cap])

    def _floor_read(self, ac: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Chip powers read off the lighting floor's basis for a pattern with
        data-beam lux `ac` and chip caps `caps`: each nonbasic chip at zero, or
        at its cap when the floor holds it there, and the basic chips from one
        k x k solve on the floor's tight rows; NaN if that block is singular."""
        f = self._floor
        x = np.zeros(caps.shape)
        rhs = f.bound - ac[f.points]
        if f.at_cap.size:
            x[f.at_cap] = capped = caps[f.at_cap]
            rhs -= capped @ f.cap_lux
        try:
            x[f.chips] = np.linalg.solve(f.chip_lux, rhs)
        except np.linalg.LinAlgError:
            x[:] = np.nan
        return x

    def _lit_cleanly(self, x: np.ndarray, field: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, caps: np.ndarray) -> bool:
        """Whether powers `x` read off the floor's basis, which make `field`,
        are what the pattern's lighting LP loaded there would answer without
        a pivot: every chip within [0, cap] and every held row met, to
        `lp._BOUND_TOL`. The other grid points are the lazy-row loop's."""
        lo_idx, hi_idx = self._lo_idx, self._hi_idx
        return bool((x >= -_BOUND_TOL).all() and (x <= caps + _BOUND_TOL).all()
                    and (not lo_idx.size or (lo[lo_idx] - field[lo_idx] <= _BOUND_TOL).all())
                    and (not hi_idx.size or (field[hi_idx] - hi[hi_idx] <= _BOUND_TOL).all()))

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
        for viol, rows, held in ((lo - field, self._lo_rows, self._lo_idx),
                                 (field - hi, self._hi_rows, self._hi_idx)):
            viol[held] = 0.0  # a held point is not added again
            bad = (viol > _ROW_CHECK_TOL).nonzero()[0]
            if bad.size:
                worst = bad[np.argsort(viol[bad])[::-1][:30]].tolist()
                rows.extend(worst)
                added += len(worst)
        if added:
            self._hold_rows()
        return added

    # -- columns ------------------------------------------------------------

    def build_column(self, active: Sequence[int],
                     dc: Optional[np.ndarray] = None) -> IndependentSetColumn:
        active = tuple(sorted(self._pattern(active)))
        dc = self._solve_dc(active) if dc is None else np.asarray(dc, dtype=float)
        idx = list(active)
        # each terminal's rate summed over its links in index order, from 0.0
        rate = np.bincount(self.ut_of_link[idx], weights=self.cap[idx],
                           minlength=len(self.s.uts))
        p_ac = float(self.p_ac_elec[idx].sum()) if active else 0.0
        return IndependentSetColumn(
            schedule=ScheduleVector(active),
            dc_power=tuple(dc.tolist()),
            electrical_total=p_ac + self._dc_electrical(dc),
            rate_per_ut=tuple(rate.tolist()),
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
        if self.graph is not None and not is_independent(col.schedule, self.graph,
                                                         self.cap_groups):
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

    def solve_rmp(self, columns: Sequence[IndependentSetColumn],
                  held: Optional[Basis] = None,
                  idle_w: Optional[float] = None) -> RmpResult:
        """The restricted master over `columns`, starting from `held` when
        given: the final basis of the master over a prefix of `columns`, or
        one moved onto them (`_validation_start`). Frame time left idle
        draws `idle_w` electrical W, by default the lighting floor's."""
        if idle_w is None:
            idle_w, _ = self.min_illumination_power()
        M = len(self.s.uts)
        Q = len(columns)
        # one shortfall column per terminal, then omega: patterns appended
        # since the held master enter its basis nonbasic at zero, which keeps
        # it primal feasible
        c = np.concatenate([np.full(M, SHORTFALL_COST),
                            [col.electrical_total - idle_w for col in columns]])
        a = np.zeros((M + 1, M + Q))
        a[:M, :M] = np.eye(M)
        a[:M, M:] = np.reshape([col.rate_per_ut for col in columns], (Q, M)).T / RATE_SCALE
        a[M, M:] = 1.0
        b = np.append(self.demands / RATE_SCALE, 1.0)
        sol = solve_lp(LinearProgram(c=c, a=a, rel=(">=",) * M + ("<=",), b=b),
                       _warm=held)
        if sol.status != LpStatus.OPTIMAL:
            raise CgError(f"restricted master LP failed with status {sol.status}")
        omega = np.maximum(sol.x[M:], 0.0)
        shortfall = np.maximum(sol.x[:M], 0.0) * RATE_SCALE
        lam = np.maximum(sol.duals[:M], 0.0) / RATE_SCALE
        mu = min(float(sol.duals[M]), 0.0)
        z_upper = float(sol.objective) + idle_w
        return RmpResult(omega, z_upper, lam, mu, shortfall, sol.basis)

    # -- pricing --------------------------------------------------------------

    def _require_graph(self) -> ConflictGraph:
        if self.graph is None:
            raise CgError("this operation needs a conflict graph; pass sir_threshold")
        return self.graph

    def _static_pattern_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows A x <= b over the links alone: conflict cliques, then the
        multiplicity caps, each (members, cap) once, where it first occurs,
        and with two or more members."""
        if self._static_rows is None:
            cliques = _clique_cover(self._require_graph().adjacency)
            groups, caps = self.cap_groups
            a = np.vstack([cliques, groups]).astype(float)
            b = np.concatenate([np.ones(len(cliques)), caps])
            keys = np.column_stack([a, b])
            first: dict[bytes, int] = {}
            for r in np.flatnonzero(a.sum(1) >= 2).tolist():
                first.setdefault(keys[r].tobytes(), r)
            rows = np.fromiter(first.values(), dtype=int, count=len(first))
            self._static_rows = (a[rows], b[rows])
        return self._static_rows

    def _conflict_bits(self) -> _ConflictBits:
        """The conflict graph and the cap groups as bitsets, packed on first
        use."""
        if self._bits is None:
            self._bits = _pack_conflicts(self._require_graph().adjacency, *self.cap_groups)
        return self._bits

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
        # rows are appended, so it stays dual feasible. With no root held yet,
        # it starts from the lighting floor's basis, also primal feasible
        def solve() -> tuple[tuple[float, tuple[int, ...], np.ndarray], np.ndarray]:
            a, rel, b = self._illum_rows(lux, self.e_lo, self.e_hi)
            lp = LinearProgram(c=c, a=np.vstack([fixed_a, a]),
                               rel=("<=",) * len(fixed_b) + rel,
                               b=np.concatenate([fixed_b, b]), lb=lb, ub=ub)
            held = self._pricing_root
            if held is None:
                held = self._floor_start(len(fixed_b))
            res = solve_milp(MixedIntegerProgram(lp, integer), _warm=held)
            if res.status != LpStatus.OPTIMAL or res.x is None:
                raise CgError(f"pricing MILP failed with status {res.status}")
            self._pricing_root = res.root.basis
            active = tuple(int(i) for i in np.nonzero(res.x[:L] > 0.5)[0])
            dc = np.maximum(res.x[L:], 0.0)
            return (float(res.objective), active, dc), self.illuminance(dc, active)

        objective, active, dc = self._with_lazy_rows("pricing", solve, self.e_lo, self.e_hi)
        column = self.build_column(active, dc)
        reduced = objective - p0_elec - mu
        reduced_bound = objective - ABS_GAP - p0_elec - mu
        return column, reduced, reduced_bound

    def _floor_start(self, n_fixed: int) -> Basis:
        """The lighting floor's final basis moved onto the pricing program,
        whose first `n_fixed` rows are the static and budget rows. With every
        link at zero the pricing LP is the floor's LP plus rows whose slacks
        are basic, so this start is primal feasible (an advanced start,
        Bixby 1992). Chip j becomes id L + j, each floor row's slack becomes
        the slack of the same illuminance row, every other row enters with
        its slack basic, links are nonbasic at zero and nothing is
        complemented. A chip the floor holds nonbasic at its cap enters basic
        on its own budget row instead, as pricing bounds chips by that row."""
        floor = self._floor
        L, T = len(self.links), len(self.dc_txs)
        n, n_rows = L + T, n_fixed + len(self._lo_rows) + len(self._hi_rows)
        # the floor's upper rows sit past any lower rows added since
        rows = n_fixed + np.concatenate([np.arange(floor.n_lo), len(self._lo_rows)
                                         + np.arange(floor.basis.basic.size - floor.n_lo)])
        basic = np.arange(n, n + n_rows)
        basic[rows] = np.concatenate([L + np.arange(T), n + rows])[floor.basis.basic]
        basic[n_fixed - T + floor.at_cap] = L + floor.at_cap
        return Basis(basic, np.zeros(n + n_rows, dtype=bool))

    def _priced_links(self, lambda_bps: np.ndarray, mu: float,
                      ) -> tuple[np.ndarray, float, np.ndarray]:
        """The master's duals clipped to their signs (lambda >= 0, mu <= 0)
        and each link's own share of a pattern's reduced cost: its data-beam
        power less the demand price of its rate."""
        lam = np.maximum(np.asarray(lambda_bps, dtype=float), 0.0)
        return lam, min(float(mu), 0.0), self.p_ac_elec - lam[self.ut_of_link] * self.cap

    def _greedy_pricing(self, lambda_bps: np.ndarray, mu: float,
                        known: set[tuple[int, ...]], cutoff: float,
                        ) -> list[tuple[IndependentSetColumn, float]]:
        """A batch of link-disjoint patterns, each with its reduced cost,
        computed from its own lighting. The links whose own share of the
        reduced cost is negative are the candidates, cheapest first: each
        pattern is grown from them by `_greedy_insert`, its links leave the
        candidates, and it is lit by `_column_with_lighting` like any
        pattern (`_solve_dc`: read off the lighting floor's basis, with an
        LP only where that reading is not primal feasible on the held rows
        or leaves a grid point outside the band). It joins the batch when
        its reduced cost is below `cutoff` and it is not in `known`
        (disjoint patterns never repeat one another); growth stops when no
        candidate is left. The batch proves nothing about the patterns it
        passed over."""
        lam, mu, link_cost = self._priced_links(lambda_bps, mu)
        p0_elec, _ = self.min_illumination_power()
        order = np.argsort(link_cost, kind="stable")
        candidates = order[link_cost[order] < 0.0].tolist()
        batch = []
        bits = self._conflict_bits()
        while members := _greedy_insert(bits, candidates):
            grown = set(members)
            candidates = [i for i in candidates if i not in grown]
            if tuple(sorted(members)) in known:
                continue
            column = _column_with_lighting(self, members, include_illum=True)
            if column is None or column.schedule.active in known:
                continue
            reduced = (column.electrical_total - p0_elec
                       - float(np.dot(lam, column.rate_per_ut)) - mu)
            if reduced < cutoff:
                batch.append((column, reduced))
        return batch

    # -- main loop -------------------------------------------------------------

    def column_generation(self, epsilon: float,
                          start: Optional[CgSolution] = None) -> CgSolution:
        """Column generation from the initial columns, to proven optimality
        or to within a factor 1 + `epsilon` of the certified lower bound.

        `start` is an earlier solution to start from, such as the same
        scenario's at a higher SIR threshold: its columns that are not pooled
        yet and are independent in this instance's conflict graph follow the
        initial columns. When that pool is exactly `start`'s, in order, the
        first master starts from `start`'s last master's final basis.
        """
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon={epsilon}: must lie in [0, 1)")
        self._require_graph()
        t_start = time.monotonic()
        p0_elec, dc_min = self.min_illumination_power()
        pool = self.initial_columns()
        held: Optional[Basis] = None
        if start is not None:
            initial = {col.schedule.active for col in pool}
            pool += [col for col in start.columns if col.schedule.active not in initial
                     and is_independent(col.schedule, self.graph, self.cap_groups)]
            if ([col.schedule.active for col in pool]
                    == [col.schedule.active for col in start.columns]):
                held = start.basis
        keys = {col.schedule.active for col in pool}
        z_lower = -math.inf
        log: list[IterationRecord] = []
        status: Optional[CgStatus] = None
        rmp: Optional[RmpResult] = None

        for it in range(1, MAX_ITERATIONS + 1):
            t0 = time.monotonic()
            rmp = self.solve_rmp(pool, held)
            held = rmp.basis
            # scale-aware optimality cutoff: a pool column can re-price a hair
            # negative from LP round-off, which proves nothing but convergence
            cutoff = -REDUCED_COST_TOL * max(1.0, abs(rmp.z_upper))
            # at epsilon 0 only the last call must be exact; at epsilon > 0
            # every exact bound may end the loop early
            batch = (self._greedy_pricing(rmp.lambda_bps, rmp.mu, keys, cutoff)
                     if epsilon == 0.0 else [])
            if batch:
                columns = [col for col, _ in batch]
                reduced, pricing = min(r for _, r in batch), "greedy"
            else:
                column, reduced, reduced_bound = self.solve_pricing(rmp.lambda_bps, rmp.mu)
                z_lower = max(z_lower,
                              min(rmp.z_upper + reduced_bound, rmp.z_upper))
                columns, pricing = [column], "exact"
            # the master is optimal over the pool, so a pooled pattern prices
            # negative only by LP round-off, and there is nothing new to add
            if reduced >= cutoff or any(col.schedule.active in keys for col in columns):
                status = CgStatus.OPTIMAL if rmp.feasible else CgStatus.INFEASIBLE
            elif (
                rmp.feasible
                and z_lower > 0.0
                and rmp.z_upper / z_lower <= 1.0 + epsilon + 1e-12
            ):
                status = CgStatus.EPSILON_BOUNDED
            log.append(IterationRecord(
                it, rmp.z_upper, z_lower, reduced,
                (time.monotonic() - t0) * 1e3, pricing,
                0 if status is not None else len(columns),
            ))
            if status is not None:
                break
            # appended at the end, so the next master starts from this one
            pool.extend(columns)
            keys.update(col.schedule.active for col in columns)
        else:
            # ran out of iterations after extending the pool: refresh omega
            status = CgStatus.ITERATION_LIMIT
            rmp = self.solve_rmp(pool, held)

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
            basis=rmp.basis,
        )

    # -- validation pass ---------------------------------------------------------

    def physical_rates(self, columns: Sequence[IndependentSetColumn],
                       ) -> tuple[IndependentSetColumn, ...]:
        """The columns with rates recomputed under the interference their
        own links cause one another when they transmit together, all in one
        batched pass: the optical power at each link's receiver is the
        same-channel gain of every other active beam times its power, and
        `physical_capacity` rates every active link at once."""
        on = np.zeros((len(columns), len(self.links)), dtype=bool)
        for q, col in enumerate(columns):
            on[q, list(col.schedule.active)] = True
        # p_interference[q, i]: what column q's beams put at link i's receiver
        p_interference = (on * self.p_ac_pp) @ self._h_cross.T
        q, i = np.nonzero(on)  # by column, then by link, as each column lists them
        c = self.s.constants
        cap = physical_capacity(self.bandwidth[i], c.responsivity, self.gain[i],
                                self.p_ac_pp[i], p_interference[q, i], c.noise_variance)
        rate = np.zeros((len(columns), len(self.s.uts)))
        np.add.at(rate, (q, self.ut_of_link[i]), cap)
        return tuple(replace(col, rate_per_ut=tuple(row))
                     for col, row in zip(columns, rate.tolist()))

    def reality_check(self, sol: CgSolution) -> CgSolution:
        """Re-optimize time shares over the scheduled columns at the rates they
        actually achieve when their links transmit concurrently.

        Only the rates differ from the protocol master's, so that master's
        final basis, moved onto the scheduled columns, is an advanced start
        (Bixby 1992; `_validation_start`). The master starts from the big-M
        basis for a solution without a basis, such as a heuristic's. Idle
        time keeps `sol`'s idle state, `sol.dc_min`, and its power."""
        t0 = time.monotonic()
        chosen = [q for q, w in enumerate(sol.omega) if w > _OMEGA_TOL]
        columns = [sol.columns[q] for q in chosen] or [self.build_column(())]
        real_cols = self.physical_rates(columns)
        rmp = self.solve_rmp(real_cols, self._validation_start(sol, chosen),
                             self._dc_electrical(sol.dc_min))
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
            basis=None,
        )

    def _validation_start(self, sol: CgSolution, chosen: Sequence[int]) -> Basis:
        """`sol`'s final master basis moved by position onto the validation
        master over `sol`'s columns `chosen`: shortfall ids stay, pattern
        `chosen[k]` becomes the master's k-th pattern and slack ids shift
        past the dropped patterns. When `sol` holds no basis, schedules
        nothing or has a dropped pattern basic, the big-M basis instead:
        each terminal's shortfall basic on its demand row and the frame's
        slack on the frame row, which is primal feasible for any rates."""
        M, K = len(self.s.uts), max(len(chosen), 1)  # an empty schedule prices the idle pattern
        complemented = np.zeros(M + K + M + 1, dtype=bool)  # the master bounds no column above
        big_m = Basis(np.append(np.arange(M), M + K + M), complemented)
        if sol.basis is None or not chosen:
            return big_m
        Q = len(sol.columns)
        new = np.full(M + Q + M + 1, -1)
        new[:M] = np.arange(M)
        new[M + np.asarray(chosen)] = M + np.arange(K)
        new[M + Q:] = M + K + np.arange(M + 1)
        basic = new[sol.basis.basic]
        return big_m if (basic < 0).any() else Basis(basic, complemented)


def _greedy_insert(bits: _ConflictBits, order: Sequence[int]) -> list[int]:
    """Maximal independent set grown in the given link order: a link joins
    unless it conflicts with a member or one of its cap groups is full."""
    nbr, counted, counters_of = bits.nbr, bits.counted, bits.counters_of
    used = [0] * len(counted)
    barred = 0  # the links that can no longer join
    members: list[int] = []
    for i in order:
        if barred >> i & 1:
            continue
        members.append(i)
        barred |= nbr[i] | 1 << i
        for g in counters_of[i]:
            used[g] += 1
            if used[g] >= counted[g][1]:
                barred |= counted[g][0]
    return members


def _column_with_lighting(
    inst: SchedulingInstance, members: list[int], include_illum: bool
) -> Optional[IndependentSetColumn]:
    """Column for the set, shedding last-added members while lighting
    fails; None once nothing is left to light, so a non-empty set is never
    shed to the empty pattern."""
    if not include_illum:
        dc = np.zeros(len(inst.dc_txs))
        return inst.build_column(members, dc=dc)
    while True:
        try:
            return inst.build_column(tuple(members))
        except IlluminationInfeasible:
            if len(members) <= 1:
                return None
            members.pop()


def _bitsets(rows: np.ndarray) -> list[int]:
    """Each row of a boolean (R, L) matrix as a Python-int bitset: bit j of
    entry r is set when rows[r, j] is."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(frozen=True)
class _ConflictBits:
    """A conflict graph and its cap groups as Python-int bitsets, for the
    greedy insertion and the max-weight baseline's search. Each link's
    neighbour bitset joins its conflict edges with the co-members of every
    cap-1 group, so those groups are pairwise conflicts; a group of cap 2 or
    more stays a counter."""

    nbr: list[int]                  # per link: the links it cannot join
    counted: list[tuple[int, int]]  # (members, cap) of each group of cap >= 2
    counters_of: list[list[int]]    # per link: its groups in `counted`


def _pack_conflicts(adjacency: np.ndarray, groups: np.ndarray,
                    caps: np.ndarray) -> _ConflictBits:
    """The bitsets of a conflict graph and of cap groups whose caps are at
    least 1, as `cap_groups` gives them."""
    nbr = _bitsets(adjacency)
    counted: list[tuple[int, int]] = []
    counters_of: list[list[int]] = [[] for _ in nbr]
    for members, cap in zip(_bitsets(groups), caps.astype(int).tolist()):
        if cap >= 2:
            counted.append((members, cap))
        rest = members
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if cap == 1:
                nbr[v] |= members ^ low
            else:
                counters_of[v].append(len(counted) - 1)
    return _ConflictBits(nbr, counted, counters_of)


def _clique_cover(adjacency: np.ndarray) -> np.ndarray:
    """Greedy clique cover of all edges, deterministic by index order, as a
    (cliques, L) boolean membership matrix. Each uncovered edge (i, j), in
    row-major order, seeds a clique that then takes, in index order, every
    vertex adjacent to all its members. Vertex sets are Python-int bitsets."""
    L = adjacency.shape[0]
    nbytes = (L + 7) // 8
    nbr = _bitsets(adjacency)
    covered = [0] * L  # covered[i]: the vertices j where edge (i, j) is covered
    cliques: list[int] = []
    for i in range(L):
        todo = nbr[i] >> (i + 1) << (i + 1)  # neighbours above i
        while todo := todo & ~covered[i]:
            j = (todo & -todo).bit_length() - 1
            clique = 1 << i | 1 << j
            mask = nbr[i] & nbr[j] & ~clique
            while mask:
                v = (mask & -mask).bit_length() - 1
                clique |= 1 << v
                mask = (mask & nbr[v]) >> (v + 1) << (v + 1)
            members = clique
            while members:
                u = (members & -members).bit_length() - 1
                covered[u] |= clique
                members &= members - 1
            cliques.append(clique)
    out = np.frombuffer(b"".join(c.to_bytes(nbytes, "little") for c in cliques),
                        dtype=np.uint8).reshape(len(cliques), nbytes)
    return np.unpackbits(out, axis=1, count=L, bitorder="little").astype(bool)
