"""The benchmark's workloads and the two ways of running one.

A workload turns a seed into a scenario document, builds what its solve
calls start from (set-up), runs its solve calls, and checks the results.
`timed_run` measures with tracing off; `traced_run` makes one traced pass
and derives the per-layer metrics from it.

Calls go through module attributes (`cli.sweep_sir`, not a local name) so
that the tracer's rebinding sees them.

All workloads run single-threaded in a closed loop: each call starts when
the previous one returns. Every solve call starts from a fresh set-up,
because a `SchedulingInstance` keeps lazy rows and the lighting floor from
earlier calls and would make repeats cheaper than a user's first call.
"""

from __future__ import annotations

import statistics
import time
import traceback
from contextlib import contextmanager
from typing import Any, Optional

import numpy as np

from vlcopt import baselines, cli, scenario
from vlcopt.cg_scheduler import SchedulingInstance
from vlcopt.scenario import default_config

import checks
import spans

PLACEMENT_SEED = 7  # terminal placement of the default office
SIR = 3.0
THRESHOLDS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

# protocol net power (W) of the exact optimum, the same at every --seed
# (see office_config); recorded at the commit that introduced the benchmark
REFERENCE_NET_W = {
    "sir_sweep": 3.076744297,
    "office_dense": 6.151887233008665,
}

# Set-up is timed in phases: one before every solve call and one after the
# last. Shared 2-vCPU hosts have slow spells lasting 10-20 s, and phases
# spread over the whole run keep one spell from covering every sample. A
# sample is the mean over a batch of set-ups lasting at least SETUP_BATCH_S,
# so that a sub-millisecond set-up is not drowned by timer and scheduler
# noise.
SETUP_BATCH_S = 0.05
SETUP_PHASE_S = 0.5      # each phase lasts at least this long ...
SETUP_PHASE_SAMPLES = 2  # ... and takes at least this many samples


def office_config(seed: int) -> dict:
    """The default office's seed-7 placement, turned by one of the eight
    symmetries of the square room and with its terminals relabeled, both
    drawn from `seed`.

    Every seed is the same physical problem in another orientation and
    order: the exact optimum is the same (and is checked against one
    reference), while link order, pivot choices and tie-breaks change. For
    the 30-terminal sweep this moves the simplex pivot count by about 4%;
    fresh random placements instead moved it by 20%.
    """
    cfg = default_config(seed=PLACEMENT_SEED)
    side = cfg["room"][0]  # the room is square
    uts = scenario.scenario_from_dict(cfg).uts
    rng = np.random.default_rng(seed)
    sym = int(rng.integers(8))

    def turn(x: float, y: float) -> list[float]:
        if sym & 1:
            x = side - x
        if sym & 2:
            y = side - y
        return [y, x] if sym & 4 else [x, y]

    cfg["uts"] = [{"position": turn(*uts[i].position[:2]), "demand_bps": uts[i].demand_bps}
                  for i in rng.permutation(len(uts))]
    return cfg


def tiny_config(seed: int) -> dict:
    """Criterion-1-sized scenario: 2x2 luminaires, 4 terminals, 2 channels."""
    return default_config(
        n_uts=4, seed=seed, demand_bps=5e6, room=[2.0, 2.0, 3.0],
        aps={"grid": {"nx": 2, "ny": 2, "spacing": 1.0}},
        channels=[{"bandwidth_hz": 1e8}, {"bandwidth_hz": 1e8}],
        illum={"lower_lux": 300.0, "upper_lux": 500.0, "spacing": 0.5, "ambient_lux": 0.0},
    )


@contextmanager
def recording_solves(store: list):
    """Collect [instance, protocol, validation] for every column-generation
    solve made inside the block (`sweep_sir` keeps its solutions to itself)."""
    cg = SchedulingInstance.column_generation
    rc = SchedulingInstance.reality_check

    def column_generation(self, *args, **kwargs):
        sol = cg(self, *args, **kwargs)
        store.append([self, sol, None])
        return sol

    def reality_check(self, sol, *args, **kwargs):
        real = rc(self, sol, *args, **kwargs)
        for entry in store:
            if entry[1] is sol:
                entry[2] = real
        return real

    SchedulingInstance.column_generation = column_generation
    SchedulingInstance.reality_check = reality_check
    try:
        yield store
    finally:
        SchedulingInstance.column_generation = cg
        SchedulingInstance.reality_check = rc


class SirSweep:
    """`cli.sweep_sir` over thresholds 1..6 at epsilon 0 on the default office."""

    name = "sir_sweep"
    n_solves = len(THRESHOLDS)

    def config(self, seed: int, tiny: bool = False) -> dict:
        return tiny_config(seed) if tiny else office_config(seed)

    def setup(self, cfg: dict):
        return scenario.scenario_from_dict(cfg)

    def solve(self, s, seed: int):
        with recording_solves([]) as runs:
            lower, upper, _ = cli.sweep_sir(s, THRESHOLDS, epsilon=0.0)
        return lower, upper, runs

    def check(self, s, raw, reference: Optional[float]):
        lower, upper, runs = raw
        if len(runs) != len(THRESHOLDS) or any(r[2] is None for r in runs):
            return [["sweep did not solve and validate every threshold"]] * self.n_solves, {}
        p0 = checks.highs_lighting_floor(runs[0][0])
        failures = []
        prev = None
        for inst, proto, real in runs:
            f = checks.check_exact(inst, proto, real, p0, reference)
            net = proto.z_upper - proto.p_illumi_min
            # more conflicts at a higher threshold can only cost more power
            if prev is not None and net < prev - checks.REFERENCE_ABS_TOL_W:
                f.append(f"net power {net!r} W below {prev!r} W at a lower threshold")
            prev = net
            failures.append([f"threshold {inst.sir_threshold}: {m}" for m in f])
        report = {"sir_lower": lower, "sir_upper": upper,
                  "validation_feasible": [real.feasible for _, _, real in runs]}
        return failures, report


class OfficeDense:
    """The `compare` flow on a 60-terminal office with a 0.5 m desk grid:
    one exact column-generation solve and its validation pass, then the
    random maximal-set and max-weight schedulers on the same instance.

    The instance is fixed: the seed-7 placement in its own orientation and
    order. Here the work itself swings with presentation (46k-69k pivots over
    the eight orientations, 32k-44k over five relabelings), which would
    drown the effect of a code change, so the seed only drives the random
    scheduler's link order.
    """

    name = "office_dense"
    n_solves = 3

    def config(self, seed: int, tiny: bool = False) -> dict:
        if tiny:
            return tiny_config(seed)
        cfg = default_config(seed=PLACEMENT_SEED, n_uts=60)
        cfg["illum"] = dict(cfg["illum"], spacing=0.5)
        return cfg

    def setup(self, cfg: dict):
        return SchedulingInstance(scenario.scenario_from_dict(cfg), sir_threshold=SIR)

    def solve(self, inst, seed: int):
        proto = inst.column_generation(epsilon=0.0)
        real = inst.reality_check(proto)
        vico = baselines.vico_random_schedule(inst.s, seed=seed, instance=inst)
        return proto, real, vico, baselines.mwis_schedule(inst.s, instance=inst)

    def check(self, inst, raw, reference: Optional[float]):
        proto, real, *heuristics = raw
        p0 = checks.highs_lighting_floor(inst)
        failures = [checks.check_exact(inst, proto, real, p0, reference)]
        failures += [checks.check_heuristic(inst, sol, p0) for sol in heuristics]
        return failures, {"validation_feasible": real.feasible,
                          "iterations": proto.iterations,
                          "heuristic_rounds": [sol.protocol.iterations for sol in heuristics],
                          "heuristic_demand_met": [sol.feasible for sol in heuristics]}


WORKLOADS = {w.name: w for w in (SirSweep(), OfficeDense())}


class Tally:
    """Attempted and failed solves, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reports: list[dict] = []

    def add(self, w, state, raw, error: Optional[str], tiny: bool) -> None:
        self.attempted += w.n_solves
        if error is None:
            reference = None if tiny else REFERENCE_NET_W.get(w.name)
            try:
                failures, report = w.check(state, raw, reference)
            except Exception:  # a check that cannot run fails every solve
                failures = [[traceback.format_exc(limit=3)]] * w.n_solves
                report = {}
            self.reports.append(report)
        else:
            failures = [[error]] * w.n_solves
        for f in failures:
            if f:
                self.failed += 1
                self.messages.extend(f[:3])
        del self.messages[20:]


def _solve(w, state, seed: int) -> tuple[Any, Optional[str]]:
    try:
        return w.solve(state, seed), None
    except Exception:  # the run goes on; the solve counts as failed
        return None, traceback.format_exc(limit=5)


def _setup_phase(w, cfg: dict, out: list[float]):
    """Set-up samples appended to `out`; returns the last set-up's result,
    which no solve has touched yet."""
    clock = time.perf_counter
    t_phase = clock()
    taken = 0
    while taken < SETUP_PHASE_SAMPLES or clock() - t_phase < SETUP_PHASE_S:
        n, t0 = 0, clock()
        while True:
            state = w.setup(cfg)
            n += 1
            elapsed = clock() - t0
            if elapsed >= SETUP_BATCH_S:
                break
        out.append(elapsed / n)
        taken += 1
    return state


def timed_run(w, seed: int, seconds: float) -> dict:
    """Closed-loop solve calls for about `seconds`, each preceded by a set-up
    phase whose last set-up it starts from, then one more set-up phase.

    A new cycle (set-up phase and solve call) starts only while the median
    cycle so far still fits in the budget, so a run overshoots by at most
    one cycle's spread.
    """
    clock = time.perf_counter
    cfg = w.config(seed)
    setup_s: list[float] = []
    solve_s: list[float] = []
    cycle_s: list[float] = []
    tally = Tally()
    t_loop = clock()
    while True:
        t0 = clock()
        state = _setup_phase(w, cfg, setup_s)
        t1 = clock()
        raw, error = _solve(w, state, seed)
        solve_s.append(clock() - t1)
        tally.add(w, state, raw, error, tiny=False)
        cycle_s.append(clock() - t0)
        if clock() - t_loop + statistics.median(cycle_s) > seconds:
            break
    _setup_phase(w, cfg, setup_s)
    return {"setup_s": setup_s, "solve_s": solve_s, "tally": tally}


def traced_run(w, seed: int, tiny: bool = False) -> dict:
    """One traced pass (set-up plus one solve call) for the layer metrics.

    The tracing overhead is the time the tracer spends in its own
    bookkeeping, summed over spans (see spans.Tracer), rather than the
    difference between a traced and an untraced 15-25 s pass: on a host
    whose speed swings by +-20% such a difference is mostly noise and can
    come out negative.
    """
    cfg = w.config(seed, tiny=tiny)
    tally = Tally()
    tracer = spans.Tracer()
    tracer.install()
    try:
        state = w.setup(cfg)
        tracer.solve_id = 1
        raw, error = _solve(w, state, seed)
    finally:
        tracer.uninstall()
    tally.add(w, state, raw, error, tiny)
    return {
        "metrics": spans.layer_metrics(tracer.spans, tracer.overhead_s),
        "iterations": spans.iteration_records(tracer.spans),
        "tracer": tracer,
        "tally": tally,
    }


def selfcheck(seed: int = 1) -> list[str]:
    """Traced path twice per workload on the tiny scenario: every layer
    metric is emitted and every non-time metric repeats exactly."""
    problems = []
    names = [name for name, _ in spans.LAYER_METRICS]
    exact = [name for name, unit in spans.LAYER_METRICS if unit != "s"]
    for w in WORKLOADS.values():
        first, second = (traced_run(w, seed, tiny=True) for _ in range(2))
        for run in (first, second):
            missing = [n for n in names if n not in run["metrics"]]
            if missing:
                problems.append(f"{w.name}: metrics not emitted: {missing}")
            if run["tally"].failed:
                problems.append(f"{w.name}: tiny solve failed: {run['tally'].messages[:2]}")
        for n in exact:
            a, b = first["metrics"].get(n), second["metrics"].get(n)
            if a != b:
                problems.append(f"{w.name}: {n} differs between runs: {a} vs {b}")
    return problems
