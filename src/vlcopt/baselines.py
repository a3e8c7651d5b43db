"""Comparison schedulers: random maximal-set scheduling and max-weight
independent-set scheduling.

Both heuristics build a schedule column by column: pick an independent set,
give it the time fraction its slowest member needs to finish, mark those
terminals served, repeat until demands are met or the unit frame is spent.
Lighting is re-optimized per column exactly as for generated columns, and
each result is finished with the same interference-aware validation pass,
so power figures are directly comparable with the column-generation solver.

Link ordering in the random scheme and the weight function in the max-weight
scheme are free parameters; the choices made here are spelled out in each
scheduler's docstring and are deterministic for a given seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cg_scheduler import (
    CgSolution,
    CgStatus,
    IndependentSetColumn,
    IterationRecord,
    SchedulingInstance,
    _SHORTFALL_TOL_BPS,
    _column_with_lighting,
    _greedy_insert,
)
from .lp import Basis, LinearProgram, LpStatus, MixedIntegerProgram, solve_milp
from .scenario import Scenario


@dataclass
class BaselineSolution(CgSolution):
    """Reality-stage schedule from a heuristic, with its pre-validation stage.

    status tracks demand satisfaction (OPTIMAL when met, INFEASIBLE when the
    frame ran out); there is no optimality or bound certificate.
    """

    algorithm: str = ""
    protocol: Optional[CgSolution] = None


def _finish(
    inst: SchedulingInstance,
    algorithm: str,
    columns: list[IndependentSetColumn],
    taus: list[float],
    remaining: np.ndarray,
    log: list[IterationRecord],
    t_start: float,
    include_illum: bool,
) -> BaselineSolution:
    p0_elec, dc_min = inst.min_illumination_power()
    met = float(np.sum(remaining)) <= _SHORTFALL_TOL_BPS
    omega = np.array(taus)
    idle = max(0.0, 1.0 - float(omega.sum()))
    idle_power = p0_elec if include_illum else 0.0
    z_upper = float(sum(t * c.electrical_total for t, c in zip(taus, columns))
                    + idle * idle_power)
    proto = CgSolution(
        stage="protocol",
        status=CgStatus.OPTIMAL if met else CgStatus.INFEASIBLE,
        columns=tuple(columns),
        omega=omega,
        z_upper=z_upper,
        z_lower=math.nan,
        p_illumi_min=p0_elec,
        dc_min=tuple(float(v) for v in dc_min),
        epsilon=None,
        sir_threshold=inst.sir_threshold,
        lambda_bps=(),
        mu=math.nan,
        shortfall_bps=tuple(float(v) for v in remaining),
        iteration_log=tuple(log),
        wall_ms=(time.monotonic() - t_start) * 1e3,
    )
    real = inst.reality_check(proto)
    return BaselineSolution(algorithm=algorithm, protocol=proto, **vars(real))


def _run_rounds(
    inst: SchedulingInstance,
    algorithm: str,
    pick_set,
    include_illum: bool,
) -> BaselineSolution:
    """Shared schedule-until-served loop; pick_set draws the next set."""
    t_start = time.monotonic()
    demands = inst.demands.astype(float)
    remaining = demands.copy()
    budget = 1.0
    columns: list[IndependentSetColumn] = []
    taus: list[float] = []
    log: list[IterationRecord] = []
    usable = inst.cap > 0.0
    max_rounds = 10 * len(inst.s.uts) + 50

    for round_no in range(1, max_rounds + 1):
        if budget <= 1e-12 or float(np.sum(remaining)) <= _SHORTFALL_TOL_BPS:
            break
        t0 = time.monotonic()
        unmet = remaining[inst.ut_of_link] > _SHORTFALL_TOL_BPS
        candidates = np.nonzero(unmet & usable)[0]
        if candidates.size == 0:
            break  # leftover demand reachable by no usable link
        members = pick_set(candidates, remaining)
        if not members:
            break
        column = _column_with_lighting(inst, members, include_illum)
        if column is None:
            break  # even a single beam cannot be lit around
        members = list(column.schedule.active)
        tau = max(remaining[inst.ut_of_link[i]] / inst.cap[i] for i in members)
        tau = min(tau, budget)
        if tau <= 0.0:
            break
        for i in members:
            j = inst.ut_of_link[i]
            remaining[j] = max(0.0, remaining[j] - tau * inst.cap[i])
        budget -= tau
        columns.append(column)
        taus.append(tau)
        committed = sum(t * c.electrical_total for t, c in zip(taus, columns))
        log.append(IterationRecord(round_no, float(committed), math.nan, math.nan,
                                   (time.monotonic() - t0) * 1e3, columns_added=1))

    if not columns:
        columns = [_column_with_lighting(inst, [], include_illum)]
        taus = [0.0]
    return _finish(inst, algorithm, columns, taus, remaining, log,
                   t_start, include_illum)


# -- random maximal-set scheduling -------------------------------------------


def vico_random_schedule(
    s: Scenario,
    seed: int,
    sir_threshold: float = 3.0,
    include_illum: bool = True,
    instance: Optional[SchedulingInstance] = None,
) -> BaselineSolution:
    """Schedule maximal independent sets drawn in random link order.

    Each round permutes the links of still-unserved terminals uniformly at
    random, grows a maximal independent set greedily in that order, and runs
    it until its slowest member finishes. With include_illum False the
    lighting optimization is skipped entirely (bias currents stay at zero),
    reproducing the comparison scheme that ignores lighting requirements.
    """
    inst = instance if instance is not None else SchedulingInstance(
        s, sir_threshold=sir_threshold)
    rng = np.random.default_rng(seed)

    def pick(candidates: np.ndarray, remaining: np.ndarray) -> list[int]:
        order = candidates[rng.permutation(candidates.size)]
        return _greedy_insert(inst, order.tolist())

    return _run_rounds(inst, "vico", pick, include_illum)


# -- max-weight independent-set scheduling ------------------------------------


def mwis_schedule(
    s: Scenario,
    sir_threshold: float = 3.0,
    instance: Optional[SchedulingInstance] = None,
) -> BaselineSolution:
    """Schedule the independent set maximizing total remaining demand.

    Weights are the still-unserved bits of each link's terminal; the set is
    found exactly by branch and bound over the conflict and multiplicity
    rows. Served terminals drop out and the process repeats.
    """
    inst = instance if instance is not None else SchedulingInstance(
        s, sir_threshold=sir_threshold)
    L = len(inst.links)
    a, b = inst._static_pattern_rows()
    # each round's MILP differs from the last only in costs and upper bounds,
    # so its root starts from the last root's basis
    held: Optional[Basis] = None

    def pick(candidates: np.ndarray, remaining: np.ndarray) -> list[int]:
        nonlocal held
        c = np.zeros(L)
        ub = np.zeros(L)
        c[candidates] = -remaining[inst.ut_of_link[candidates]]
        ub[candidates] = 1.0
        lp = LinearProgram(c=c, a=a, rel=("<=",) * len(b), b=b, ub=ub)
        res = solve_milp(MixedIntegerProgram(lp, np.ones(L, dtype=bool)), _warm=held)
        if res.root is not None:
            held = res.root.basis
        if res.status != LpStatus.OPTIMAL or res.x is None:
            return []
        # links outside `candidates` have upper bound 0, so none is chosen
        return np.nonzero(res.x > 0.5)[0].tolist()

    return _run_rounds(inst, "mwis", pick, include_illum=True)
