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
from typing import Optional, Sequence

import numpy as np

from .cg_scheduler import (
    CgSolution,
    CgStatus,
    IndependentSetColumn,
    IterationRecord,
    SchedulingInstance,
    _SHORTFALL_TOL_BPS,
)
from .conflict import ConflictBits, greedy_insert
from .scenario import Scenario


@dataclass
class BaselineSolution(CgSolution):
    """Reality-stage schedule from a heuristic, with its pre-validation stage.

    status tracks demand satisfaction (OPTIMAL when met, INFEASIBLE when the
    frame ran out); there is no optimality or bound certificate.
    """

    protocol: Optional[CgSolution] = None


def _finish(
    inst: SchedulingInstance,
    columns: list[IndependentSetColumn],
    taus: list[float],
    remaining: np.ndarray,
    log: list[IterationRecord],
    t_start: float,
    include_illum: bool,
) -> BaselineSolution:
    p0_elec, dc_min = inst.min_illumination_power()
    if not include_illum:
        dc_min = np.zeros_like(dc_min)  # idle time stays dark
    met = float(np.sum(remaining)) <= _SHORTFALL_TOL_BPS
    omega = np.array(taus)
    idle = max(0.0, 1.0 - float(omega.sum()))
    z_upper = float(sum(t * c.electrical_total for t, c in zip(taus, columns))
                    + idle * (p0_elec if include_illum else 0.0))
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
    return BaselineSolution(protocol=proto, **vars(real))


def _column(inst: SchedulingInstance, members: list[int],
            include_illum: bool) -> Optional[IndependentSetColumn]:
    """The round's column: lit by `lit_column`, or with every lighting chip dark."""
    if include_illum:
        return inst.lit_column(members)
    return inst.build_column(members, dc=np.zeros(len(inst.dc_txs)))


def _run_rounds(
    inst: SchedulingInstance,
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
        column = _column(inst, members, include_illum)
        if column is None:
            break  # the set was shed to nothing: not one member can be lit around
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
        columns = [_column(inst, [], include_illum)]
        taus = [0.0]
    return _finish(inst, columns, taus, remaining, log, t_start, include_illum)


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
    lighting optimization is skipped entirely (bias currents stay at zero,
    idle time too, through validation), reproducing the comparison scheme
    that ignores lighting requirements.
    """
    inst = instance if instance is not None else SchedulingInstance(
        s, sir_threshold=sir_threshold)
    rng = np.random.default_rng(seed)
    bits = inst.graph.bits

    def pick(candidates: np.ndarray, remaining: np.ndarray) -> list[int]:
        order = candidates[rng.permutation(candidates.size)]
        return greedy_insert(bits, order.tolist())

    return _run_rounds(inst, pick, include_illum)


# -- max-weight independent-set scheduling ------------------------------------


def heaviest_set(bits: ConflictBits, candidates: Sequence[int],
                 weights: Sequence[float]) -> list[int]:
    """The heaviest independent set among `candidates`, in link order,
    where weights[i] > 0 is link i's weight, by branch and bound on the
    conflict graph's bitsets (`ConflictGraph.bits`): Carraghan & Pardalos
    (1990) with the weighted colouring bound of Östergård (2002) and
    Tomita's branching order, read on the complement graph.

    At each node the candidates are partitioned greedily, in link-index
    order, into conflict cliques; no independent set takes two links of one
    clique, so the heaviest weight per clique, summed over the cliques up to
    a candidate, bounds every set the search can still grow from the
    candidates up to it. Candidates are branched on in reverse partition
    order, and a branch whose bound cannot beat the incumbent ends the node.

    Tie rule: with tol = 1e-12 times the candidates' total weight, the
    incumbent gives way only to a set heavier by more than tol, and the
    search order is fixed by link index, so the answer depends on the
    graph, the caps and the weights alone. It weighs at least the optimum
    less tol.
    """
    nbr, counted, counters_of = bits.nbr, bits.counted, bits.counters_of
    used = [0] * len(counted)
    tol = 1e-12 * sum(weights[i] for i in candidates)
    start = 0
    for i in candidates:
        start |= 1 << i
    best_weight, best = 0.0, 0

    def expand(chosen: int, weight: float, pool: int) -> None:
        nonlocal best_weight, best
        if weight > best_weight + tol:
            best_weight, best = weight, chosen
        order: list[tuple[int, float]] = []  # (link, bound up to it)
        total = 0.0
        rest = pool
        while rest:  # one conflict clique per pass, lowest link first
            avail, top = rest, 0.0
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                rest ^= low
                avail &= nbr[v]
                if weights[v] > top:
                    top = weights[v]
                order.append((v, total + top))
            total += top
        for v, bound in reversed(order):
            if weight + bound <= best_weight + tol:
                return
            pool ^= 1 << v
            child = pool & ~nbr[v]
            for g in counters_of[v]:
                used[g] += 1
                if used[g] >= counted[g][1]:
                    child &= ~counted[g][0]
            expand(chosen | 1 << v, weight + weights[v], child)
            for g in counters_of[v]:
                used[g] -= 1

    expand(0, 0.0, start)
    return [v for v in range(best.bit_length()) if best >> v & 1]


def mwis_schedule(
    s: Scenario,
    sir_threshold: float = 3.0,
    instance: Optional[SchedulingInstance] = None,
) -> BaselineSolution:
    """Schedule the independent set maximizing total remaining demand.

    Weights are the still-unserved bits of each link's terminal. Each round's
    set is found exactly by `heaviest_set`, a branch and bound on the
    bitsets of the instance's conflict graph and cap groups. Ties
    are settled by its rule: a set replaces the incumbent only when heavier
    by more than 1e-12 of the candidates' total weight, and the search order
    is fixed by link index, so the schedule depends on the graph, the caps
    and the demands alone. Served terminals drop out and the process
    repeats.
    """
    inst = instance if instance is not None else SchedulingInstance(
        s, sir_threshold=sir_threshold)
    bits = inst.graph.bits

    def pick(candidates: np.ndarray, remaining: np.ndarray) -> list[int]:
        weights = remaining[inst.ut_of_link].tolist()
        return heaviest_set(bits, candidates.tolist(), weights)

    return _run_rounds(inst, pick, include_illum=True)
