"""Heuristic schedulers measured against the exact solver's guarantees."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import vlcopt
from vlcopt import baselines
from vlcopt.baselines import mwis_schedule, vico_random_schedule
from vlcopt.cg_scheduler import CgStatus, SchedulingInstance, _greedy_insert, _pack_conflicts
from vlcopt.conflict import is_independent
from vlcopt.lp import LinearProgram, LpStatus, MixedIntegerProgram, solve_milp
from vlcopt.scenario import default_config, scenario_from_dict


def _scenario(**kw):
    return scenario_from_dict(helpers.tiny_config(**kw))


def _schedules(sol):
    return tuple(col.schedule.active for col in sol.protocol.columns)


def test_random_scheduler_repeats_under_one_seed():
    s = _scenario(n_uts=4, seed=5)
    a = vico_random_schedule(s, seed=11)
    b = vico_random_schedule(s, seed=11)
    assert _schedules(a) == _schedules(b)
    assert a.z_upper == b.z_upper
    np.testing.assert_array_equal(a.omega, b.omega)


def test_random_scheduler_actually_randomizes():
    s = _scenario(n_uts=4, seed=5)
    runs = {_schedules(vico_random_schedule(s, seed=k)) for k in range(8)}
    assert len(runs) >= 2


def test_zero_demand_costs_the_lighting_floor():
    s = _scenario(n_uts=2, demand_bps=0.0)
    for sol in (vico_random_schedule(s, seed=1), mwis_schedule(s)):
        assert sol.status is CgStatus.OPTIMAL
        assert sol.feasible
        assert sol.z_upper == pytest.approx(sol.p_illumi_min, abs=1e-9)


def test_heuristics_never_beat_the_exact_solver():
    for seed in (1, 2, 3):
        s = _scenario(n_uts=4, seed=seed)
        inst = SchedulingInstance(s, sir_threshold=3.0)
        opt = inst.column_generation(epsilon=0.0)
        assert opt.status is CgStatus.OPTIMAL
        for sol in (vico_random_schedule(s, seed=seed), mwis_schedule(s)):
            assert sol.protocol.status is CgStatus.OPTIMAL, seed
            assert sol.protocol.z_upper >= opt.z_upper - 1e-9


def test_max_weight_scheduler_is_deterministic():
    s = _scenario(n_uts=4, seed=9)
    assert _schedules(mwis_schedule(s)) == _schedules(mwis_schedule(s))


def test_single_terminal_gets_its_only_link_first():
    doc = helpers.tiny_config(n_uts=1)
    doc["uts"] = [{"position": [0.6, 0.6], "demand_bps": 5e6}]
    sol = mwis_schedule(scenario_from_dict(doc))
    assert sol.protocol.columns[0].schedule.active == (0,)
    assert sol.feasible


def test_max_weight_picks_the_heaviest_set():
    # first round weights are the raw demands; check against enumeration
    doc = helpers.tiny_config(n_uts=3, seed=4)
    s = scenario_from_dict(doc)
    inst = SchedulingInstance(s, sir_threshold=3.0)
    demands = inst.demands
    best = max(
        sum(demands[inst.ut_of_link[i]] for i in combo)
        for combo in helpers.all_independent_sets(inst)
    )
    first = mwis_schedule(s).protocol.columns[0].schedule.active
    got = sum(demands[inst.ut_of_link[i]] for i in first)
    assert got == pytest.approx(best, rel=1e-12)


def test_heuristic_columns_obey_all_constraints():
    s = _scenario(n_uts=4, seed=3, channels=2)
    inst = SchedulingInstance(s, sir_threshold=3.0)
    for sol in (vico_random_schedule(s, seed=2, instance=inst),
                mwis_schedule(s, instance=inst)):
        for col in sol.protocol.columns:
            assert is_independent(col.schedule, inst.graph, inst.cap_groups)
            assert inst.column_is_valid(col)
        assert float(np.sum(sol.protocol.omega)) <= 1.0 + 1e-9


def test_lighting_opt_out_keeps_bias_dark():
    s = _scenario(n_uts=3, seed=6)
    lit = vico_random_schedule(s, seed=1)
    dark = vico_random_schedule(s, seed=1, include_illum=False)
    for col in dark.protocol.columns:
        assert all(v == 0.0 for v in col.dc_power)
    assert dark.z_upper < lit.z_upper


def test_validation_keeps_a_lighting_free_schedule_idle_dark():
    # idle time draws what the schedule's idle state draws: nothing without
    # lighting, so validation stretches no dark column over the whole frame
    s = scenario_from_dict(default_config(n_uts=6, seed=7))
    inst = SchedulingInstance(s, sir_threshold=3.0)
    p0 = inst.min_illumination_power()[0]
    dark = vico_random_schedule(s, seed=7, instance=inst, include_illum=False)
    assert dark.dc_min == dark.protocol.dc_min == (0.0,) * len(inst.dc_txs)
    assert dark.feasible
    used = float(np.sum(dark.protocol.omega))
    assert used == pytest.approx(0.1044055, abs=1e-6)
    assert used <= float(np.sum(dark.omega)) == pytest.approx(0.1144696, abs=1e-6)
    spent = sum(w * col.electrical_total for col, w in zip(dark.columns, dark.omega))
    assert dark.z_upper == pytest.approx(spent, rel=1e-12)
    assert dark.z_upper - p0 == pytest.approx(-1130.7779, abs=1e-3)
    # a lit schedule's idle time still draws the lighting floor
    lit = vico_random_schedule(s, seed=7, instance=inst)
    assert lit.dc_min == tuple(inst.min_illumination_power()[1])
    spent = sum(w * col.electrical_total for col, w in zip(lit.columns, lit.omega))
    idle = 1.0 - float(np.sum(lit.omega))
    assert lit.z_upper == pytest.approx(spent + idle * p0, rel=1e-12)


def test_heuristics_buy_all_demand_as_shortfall_when_no_link_can_be_lit():
    # every round's set is shed to nothing, which ends the rounds: only the
    # idle column is scheduled, as column generation schedules no pattern
    s = scenario_from_dict(helpers.unlit_links_config())
    demands = [ut.demand_bps for ut in s.uts]
    for sol in (vico_random_schedule(s, seed=7), mwis_schedule(s)):
        assert [col.schedule.active for col in sol.protocol.columns] == [()]
        for stage in (sol.protocol, sol):
            assert stage.status is CgStatus.INFEASIBLE
            assert not stage.feasible
            np.testing.assert_allclose(stage.shortfall_bps, demands, rtol=1e-9)


def test_impossible_demand_is_flagged():
    s = _scenario(n_uts=2, seed=1, demand_bps=1e12)
    for sol in (vico_random_schedule(s, seed=3), mwis_schedule(s)):
        assert sol.status is CgStatus.INFEASIBLE
        assert not sol.feasible
        assert sum(sol.shortfall_bps) > 0.0


def test_solution_carries_both_stages():
    s = _scenario(n_uts=2, seed=2)
    for sol in (vico_random_schedule(s, seed=4), mwis_schedule(s)):
        assert sol.stage == "reality"
        assert sol.protocol.stage == "protocol"


# -- the max-weight search ----------------------------------------------------


def _random_problem(rng):
    """A random conflict graph of 4-14 links with random cap groups, caps 1-3
    among them, and random positive weights (repeated values in about half
    the draws, so that ties occur)."""
    n = int(rng.integers(4, 15))
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), k=1)
    adjacency = upper | upper.T
    groups = rng.random((int(rng.integers(0, 6)), n)) < 0.4
    caps = rng.integers(1, 4, size=len(groups)).astype(float)
    if rng.random() < 0.5:
        weights = rng.integers(1, 4, size=n) * 1e7
    else:
        weights = rng.uniform(1e6, 1e8, size=n)
    return adjacency, groups, caps, weights.tolist()


def test_greedy_insert_matches_the_reference_scan_on_random_graphs():
    rng = np.random.default_rng(2016)
    for k in range(300):
        adjacency, groups, caps, _ = _random_problem(rng)
        n = len(adjacency)
        order = rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()
        got = _greedy_insert(_pack_conflicts(adjacency, groups, caps), order)
        assert got == helpers.ref_greedy_insert(adjacency, groups, caps, order), k


def test_greedy_insert_matches_the_reference_scan_on_every_vico_round(monkeypatch):
    inst = SchedulingInstance(scenario_from_dict(default_config(seed=7)), 3.0)
    rounds = []

    def recording(bits, order):
        got = _greedy_insert(bits, order)
        rounds.append((order, got))
        return got

    monkeypatch.setattr(baselines, "_greedy_insert", recording)
    vico_random_schedule(inst.s, seed=7, instance=inst)
    assert len(rounds) >= 2
    groups, caps = inst.cap_groups
    for order, got in rounds:
        assert got == helpers.ref_greedy_insert(inst.graph.adjacency, groups, caps, order)


def _milp_optimum(adjacency, groups, caps, weights, candidates):
    """The heaviest set's weight by `solve_milp`: one row per conflict edge
    and one per cap group, links outside `candidates` bounded at 0."""
    n = len(weights)
    edges = np.argwhere(np.triu(adjacency, k=1))
    a = np.zeros((len(edges), n))
    a[np.arange(len(edges)), edges[:, 0]] = 1.0
    a[np.arange(len(edges)), edges[:, 1]] = 1.0
    a = np.vstack([a, groups.astype(float)])
    b = np.concatenate([np.ones(len(edges)), caps])
    ub = np.zeros(n)
    ub[candidates] = 1.0
    lp = LinearProgram(c=-np.asarray(weights), a=a, rel=("<=",) * len(b), b=b, ub=ub)
    res = solve_milp(MixedIntegerProgram(lp, np.ones(n, dtype=bool)))
    assert res.status is LpStatus.OPTIMAL
    return -res.objective


def test_max_weight_search_matches_the_milp_on_random_graphs():
    rng = np.random.default_rng(2015)
    for k in range(300):
        adjacency, groups, caps, weights = _random_problem(rng)
        n = len(weights)
        candidates = np.flatnonzero(rng.random(n) < 0.85).tolist()
        got = baselines._MaxWeightSearch(_pack_conflicts(adjacency, groups, caps)).heaviest(
            candidates, weights)
        assert set(got) <= set(candidates), k
        assert not adjacency[np.ix_(got, got)].any(), k
        assert np.all(groups[:, got].sum(axis=1) <= caps), k
        best = _milp_optimum(adjacency, groups, caps, weights, candidates)
        assert sum(weights[i] for i in got) == pytest.approx(best, rel=1e-9, abs=0.0), k


def test_max_weight_search_matches_brute_force_on_the_tiny_corpus():
    # the criterion-1 corpus shapes: 2x2 luminaire grid, 2-4 terminals
    rng = np.random.default_rng(7)
    for seed, (n_uts, channels) in itertools.product(range(1, 9),
                                                     ((2, 1), (3, 1), (4, 2))):
        inst = helpers.tiny_instance(n_uts=n_uts, seed=seed, channels=channels)
        weights = rng.uniform(1e6, 1e8, size=len(inst.links)).tolist()
        best = max(sum(weights[i] for i in combo)
                   for combo in helpers.all_independent_sets(inst))
        search = baselines._MaxWeightSearch(inst._conflict_bits())
        got = search.heaviest(list(range(len(inst.links))), weights)
        assert helpers.all_independent_sets(inst).count(tuple(got)) == 1
        assert sum(weights[i] for i in got) == pytest.approx(best, rel=1e-12), seed


def test_near_tied_sets_follow_the_search_order_not_the_last_digits():
    # link 1 is branched on first, and link 0 outweighs it by less than tol
    adjacency = np.array([[False, True], [True, False]])
    search = baselines._MaxWeightSearch(
        _pack_conflicts(adjacency, np.zeros((0, 2), dtype=bool), np.zeros(0)))
    for weights in ([1.0, 1.0], [1.0 + 1e-14, 1.0], [1.0, 1.0 + 1e-14]):
        assert search.heaviest([0, 1], weights) == [1]
    assert search.heaviest([0, 1], [1.0 + 1e-9, 1.0]) == [0]


def test_max_weight_rounds_ignore_last_ulp_changes_to_the_weights(monkeypatch):
    rounds = []
    heaviest = baselines._MaxWeightSearch.heaviest

    def record(self, candidates, weights):
        got = heaviest(self, candidates, weights)
        rounds.append((self, candidates, weights, got))
        return got

    monkeypatch.setattr(baselines._MaxWeightSearch, "heaviest", record)
    mwis_schedule(scenario_from_dict(default_config(seed=7)))
    assert len(rounds) >= 2
    for search, candidates, weights, got in rounds:
        scaled = [w * (1.0 + 1e-15) for w in weights]
        assert heaviest(search, candidates, scaled) == got


_SCHEDULE_UNDER_THREADS = """
import json
from vlcopt.baselines import mwis_schedule
from vlcopt.scenario import default_config, scenario_from_dict
sol = mwis_schedule(scenario_from_dict(default_config(seed=7)))
print(json.dumps({"active": [list(c.schedule.active) for c in sol.protocol.columns],
                  "net_w": repr(sol.z_upper - sol.p_illumi_min),
                  "protocol_net_w": repr(sol.protocol.z_upper - sol.p_illumi_min)}))
"""


def test_max_weight_schedule_is_the_same_under_one_and_two_blas_threads():
    src = str(Path(vlcopt.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _SCHEDULE_UNDER_THREADS], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
