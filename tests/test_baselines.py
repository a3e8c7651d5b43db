"""Heuristic schedulers measured against the exact solver's guarantees."""

import numpy as np
import pytest

import helpers
from vlcopt.baselines import mwis_schedule, vico_random_schedule
from vlcopt.cg_scheduler import CgStatus, SchedulingInstance
from vlcopt.conflict import is_independent
from vlcopt.scenario import scenario_from_dict


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


def test_impossible_demand_is_flagged():
    s = _scenario(n_uts=2, seed=1, demand_bps=1e12)
    for sol in (vico_random_schedule(s, seed=3), mwis_schedule(s)):
        assert sol.status is CgStatus.INFEASIBLE
        assert not sol.feasible
        assert sum(sol.shortfall_bps) > 0.0


def test_solution_carries_both_stages():
    s = _scenario(n_uts=2, seed=2)
    sol = vico_random_schedule(s, seed=4)
    assert sol.algorithm == "vico"
    assert sol.stage == "reality"
    assert sol.protocol.stage == "protocol"
    assert mwis_schedule(s).algorithm == "mwis"
