"""Lighting optimization, master/pricing problems, and the generation loop."""

import copy
import csv
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import helpers
from vlcopt import baselines, cg_scheduler, cli
from vlcopt import lp as lp_module
from vlcopt.capacity import physical_capacity
from vlcopt.cg_scheduler import (
    CgStatus,
    IlluminationInfeasible,
    IterationRecord,
    SchedulingInstance,
)
from vlcopt.conflict import ConflictGraph, ScheduleVector, clique_cover
from vlcopt.scenario import default_config, scenario_from_dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

# on-axis desk illuminance per optical W per unit efficacy, 70 degree chip
# 2.2 m overhead (independently derived; also pinned in the optics tests)
GAIN_BELOW_WIDE = 0.05412776651255537


def _one_lamp_doc(lower, upper, points=((1.0, 1.0),)):
    doc = helpers.tiny_config(n_uts=1)
    doc["aps"] = {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}
    doc["uts"] = [{"position": [1.0, 1.0], "demand_bps": 0.0}]
    doc["illum"] = {"points": [list(p) for p in points],
                    "lower_lux": lower, "upper_lux": upper, "ambient_lux": 0.0}
    return doc


# -- lighting-only optimum -----------------------------------------------------

def test_ambient_alone_inside_band_costs_nothing():
    doc = helpers.tiny_config(n_uts=1,
                              illum={"lower_lux": 300.0, "upper_lux": 500.0,
                                     "spacing": 0.5, "ambient_lux": 400.0})
    p0, dc = SchedulingInstance(scenario_from_dict(doc), 3.0).min_illumination_power()
    assert p0 == 0.0
    assert np.all(dc == 0.0)


def test_single_lamp_inversion():
    # one chip, one constraint point: required optical power inverts in closed form
    s = scenario_from_dict(_one_lamp_doc(lower=200.0, upper=500.0))
    p0, dc = SchedulingInstance(s, 3.0).min_illumination_power()
    want_optical = 200.0 / (300.0 * GAIN_BELOW_WIDE)
    assert dc[0] == pytest.approx(want_optical, rel=1e-9)
    assert p0 == pytest.approx(want_optical / 0.1, rel=1e-9)


def test_unreachable_floor_names_witness_point():
    # 12.5 W through the closed-form gain caps the field near 203 lux
    s = scenario_from_dict(_one_lamp_doc(lower=300.0, upper=500.0))
    with pytest.raises(IlluminationInfeasible) as exc:
        SchedulingInstance(s, 3.0).min_illumination_power()
    assert exc.value.point_index == 0
    assert exc.value.point[:2] == (1.0, 1.0)


def test_office_idle_field_stays_in_band():
    """Default office: recompute the optimized idle field from scratch."""
    s = scenario_from_dict(default_config())
    p0, dc = SchedulingInstance(s, 3.0).min_illumination_power()
    assert p0 == pytest.approx(float(np.sum(dc / 0.1)), rel=1e-12)
    field = helpers.ref_idle_field(s, dc)
    assert np.all(field >= 300.0 - 1e-4)
    assert np.all(field <= 500.0 + 1e-4)


# -- lighting alongside a schedule ------------------------------------------------

def test_idle_pattern_reduces_to_lighting_optimum():
    inst = helpers.tiny_instance(n_uts=2, seed=4)
    np.testing.assert_allclose(inst.optimize_dc_for_schedule(()),
                               inst.min_illumination_power()[1], rtol=1e-12)


def test_schedule_field_stays_in_band():
    inst = helpers.tiny_instance(n_uts=3, seed=9)
    for active in ([0], [1], [2]):
        dc = inst.optimize_dc_for_schedule(active)
        field = helpers.ref_idle_field(inst.s, dc)
        for i in active:
            ln = inst.links[i]
            order = ln.ac_pose.ml
            for k, pt in enumerate(inst.s.grid_points()):
                field[k] += 300.0 * ln.p_ac_avg * helpers.ref_illum_gain(
                    ln.ac_pose.origin, ln.ac_pose.direction, order, pt)
        assert np.all(field >= 300.0 - 1e-4)
        assert np.all(field <= 500.0 + 1e-4)


def _dim_ceiling_doc():
    """One terminal under one luminaire, the band set below the data beam's
    own glare."""
    peak_ac = 300.0 * 0.05 * helpers.ref_illum_gain(
        (0.5, 0.5, 2.0), (0.0, 0.0, -1.0), helpers.ref_lambertian(70.0),
        (0.5, 0.5, 0.8))
    doc = helpers.tiny_config(n_uts=1)
    doc["room"] = [1.0, 1.0, 2.0]
    doc["aps"] = {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}
    doc["uts"] = [{"position": [0.5, 0.5], "demand_bps": 1e6}]
    doc["illum"] = {"lower_lux": 0.25 * peak_ac, "upper_lux": 0.75 * peak_ac,
                    "spacing": 0.5, "ambient_lux": 0.0}
    return doc


def test_bright_beam_overruns_dim_ceiling():
    """A band set below the data beam's own glare admits no lighting fix."""
    inst = SchedulingInstance(scenario_from_dict(_dim_ceiling_doc()), sir_threshold=3.0)
    inst.min_illumination_power()  # idle state must remain reachable
    with pytest.raises(IlluminationInfeasible):
        inst.optimize_dc_for_schedule([0])


def test_held_rows_grow_into_new_arrays():
    # the held rows are index arrays that grow by concatenation, in the order
    # the points joined, and never in place: instances share them uncopied
    inst = SchedulingInstance(scenario_from_dict(helpers.bright_beam_config()), 3.0)
    assert inst._lo_rows.tolist() == [] and inst._hi_rows.tolist() == []
    lo, hi = np.array([4, 2]), np.array([7])
    inst._lo_rows, inst._hi_rows = lo, hi
    field = 0.5 * (inst.e_lo + inst.e_hi)
    field[[0, 2]] = inst.e_lo[[0, 2]] - 1.0  # point 2 is held already
    field[9] = inst.e_hi[9] + 1.0
    assert inst._collect_violations(field, inst.e_lo, inst.e_hi) == 2
    assert inst._lo_rows.tolist() == [4, 2, 0] and inst._hi_rows.tolist() == [7, 9]
    assert lo.tolist() == [4, 2] and hi.tolist() == [7]


def test_solving_a_derived_instance_leaves_other_rows_unchanged():
    # a derived instance starts from the rows held right after the initial
    # columns, shared with its base and its siblings; its solve grows only
    # its own
    base = SchedulingInstance(scenario_from_dict(helpers.bright_beam_config()), 6.0)
    base.initial_columns()
    initial = [rows.copy() for rows in base._initial[1:]]
    derived, sibling = base.at_sir_threshold(3.0), base.at_sir_threshold(4.0)
    assert derived._lo_rows is base._initial[1] and derived._hi_rows is base._initial[2]
    base.column_generation(epsilon=0.0)
    held = [base._lo_rows.copy(), base._hi_rows.copy()]
    derived.column_generation(epsilon=0.0)  # adds an upper row
    assert len(derived._hi_rows) > len(initial[1])
    for rows, want in zip((base._lo_rows, base._hi_rows, sibling._lo_rows,
                           sibling._hi_rows, *base._initial[1:]), held + initial * 2):
        assert rows.tolist() == want.tolist()


def test_lazy_rows_add_the_worst_points_not_yet_held():
    # the 30 worst points are already held: the next worst one must still
    # join, or row generation stops on a field short at a point outside
    inst = helpers.tiny_instance(illum={"lower_lux": 300.0, "upper_lux": 500.0,
                                        "spacing": 0.25, "ambient_lux": 0.0})
    inst._lo_rows = np.arange(30)
    field = 0.5 * (inst.e_lo + inst.e_hi)
    field[:30] = inst.e_lo[:30] - 1e-3
    field[30] = inst.e_lo[30] - 1e-4
    assert inst._collect_violations(field, inst.e_lo, inst.e_hi) == 1
    assert inst._lo_rows.tolist() == list(range(31)) and inst._hi_rows.tolist() == []


# -- seed columns and the restricted master ----------------------------------------

def test_seed_pool_is_one_singleton_per_link():
    inst = helpers.tiny_instance(n_uts=3, seed=2, channels=2)
    cols = inst.initial_columns()
    assert [col.schedule.active for col in cols] == \
        [(i,) for i in range(len(inst.links))]
    assert all(inst.column_is_valid(col) for col in cols)


def test_bad_link_indices_rejected_before_any_lp(monkeypatch):
    inst = helpers.tiny_instance(n_uts=2, seed=3)
    L = len(inst.links)

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran for a malformed pattern")

    monkeypatch.setattr(cg_scheduler, "solve_lp", no_lp)
    for bad, error in (((-1,), IndexError), ((L,), IndexError), ((0, 0), ValueError)):
        with pytest.raises(error):
            inst.build_column(bad)
        with pytest.raises(error):
            inst.build_column(bad, dc=np.zeros(len(inst.dc_txs)))
        with pytest.raises(error):
            inst.optimize_dc_for_schedule(bad)


def test_master_with_zero_demand_idles():
    inst = helpers.tiny_instance(n_uts=2, demand_bps=0.0)
    res = inst.solve_rmp(inst.initial_columns())
    p0 = inst.min_illumination_power()[0]
    assert res.z_upper == pytest.approx(p0, abs=1e-9)
    assert res.feasible
    assert np.all(res.shortfall_bps == 0.0)


def test_master_without_columns_buys_shortfall():
    inst = helpers.tiny_instance(n_uts=2, demand_bps=5e6)
    res = inst.solve_rmp([])
    p0 = inst.min_illumination_power()[0]
    assert not res.feasible
    np.testing.assert_allclose(res.shortfall_bps, inst.demands, rtol=1e-9)
    assert res.z_upper == pytest.approx(p0 + 1e6 * 10.0, rel=1e-9)


def test_master_buys_exactly_the_needed_share():
    doc = helpers.tiny_config(n_uts=1)
    doc["uts"] = [{"position": [0.6, 0.6], "demand_bps": 1e6}]
    probe = SchedulingInstance(scenario_from_dict(doc), 3.0)
    half = float(probe.cap[0]) / 2.0
    doc["uts"][0]["demand_bps"] = half
    inst = SchedulingInstance(scenario_from_dict(doc), 3.0)

    col = inst.initial_columns()[0]
    res = inst.solve_rmp([col])
    p0 = inst.min_illumination_power()[0]
    assert res.omega[0] == pytest.approx(0.5, rel=1e-9)
    assert res.z_upper == pytest.approx(
        p0 + 0.5 * (col.electrical_total - p0), rel=1e-9)
    # loose budget row leaves no scarcity rent; the demand row carries the price
    assert res.mu == 0.0
    assert res.lambda_bps[0] == pytest.approx(
        (col.electrical_total - p0) / col.rate_per_ut[0], rel=1e-9)


def test_master_duals_price_the_pool():
    inst = helpers.tiny_instance(n_uts=3, seed=6)
    pool = helpers.full_pool(inst)
    res = inst.solve_rmp(pool)
    p0 = inst.min_illumination_power()[0]
    # strong duality on the master
    assert res.z_upper - p0 == pytest.approx(
        float(np.dot(res.lambda_bps, inst.demands)) + res.mu, abs=1e-6)
    # no pool column prices out negative at the optimum
    for col in pool:
        assert helpers.ref_reduced_cost(inst, col, res.lambda_bps, res.mu) >= -1e-6


# -- pricing ------------------------------------------------------------------------

def test_pricing_with_zero_duals_stays_idle():
    inst = helpers.tiny_instance(n_uts=2, seed=3)
    col, reduced, bound = inst.solve_pricing(np.zeros(2), 0.0)
    assert col.schedule.active == ()
    assert reduced == pytest.approx(0.0, abs=1e-9)
    assert bound <= reduced + 1e-12


def test_pricing_with_huge_reward_maxes_throughput():
    inst = helpers.tiny_instance(n_uts=2, seed=3)
    col, _, _ = inst.solve_pricing(np.full(2, 1.0), 0.0)
    best = max(
        sum(inst.build_column(combo).rate_per_ut)
        for combo in helpers.all_independent_sets(inst)
    )
    assert sum(col.rate_per_ut) == pytest.approx(best, rel=1e-12)


def test_pricing_dominates_exhaustive_search():
    inst = helpers.tiny_instance(n_uts=3, seed=5, channels=2)
    rng = np.random.default_rng(0)
    for _ in range(4):
        lam = rng.uniform(0.0, 4e-8, size=3)
        mu = -float(rng.uniform(0.0, 1.0))
        col, reduced, bound = inst.solve_pricing(lam, mu)
        enumerated = [helpers.ref_reduced_cost(inst, c, lam, mu)
                      for c in helpers.full_pool(inst)]
        assert reduced == pytest.approx(min(enumerated), abs=1e-6)
        assert bound <= min(enumerated) + 1e-9
        assert reduced == pytest.approx(
            helpers.ref_reduced_cost(inst, col, lam, mu), abs=1e-9)


def test_pricing_survives_a_warm_child_that_fails_its_check(monkeypatch):
    # 5 W beams put the master's duals near 1e9 in the shortfall phase, and a
    # warm-started branch-and-bound child of the pricing MILP then fails its
    # feasibility and duality check: round-off, which the cold re-solve clears.
    # Demand stays unmet here even over every pattern
    doc = helpers.tiny_config(n_uts=5, seed=4, demand_bps=4e8, channels=2, kind="b")
    doc["chip"].update(p_ac_pp=5.0)
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    solves = []
    inner = lp_module._solve_tableau

    def recording(p, tab, warm):
        out = inner(p, tab, warm)
        solves.append((warm is not None, out.status))
        return out

    monkeypatch.setattr(lp_module, "_solve_tableau", recording)
    sol = inst.column_generation(epsilon=0.0)
    monkeypatch.undo()
    failed = solves.index((True, lp_module.LpStatus.NUMERICAL))
    assert solves[failed + 1] == (False, lp_module.LpStatus.OPTIMAL)  # the re-solve
    ref = helpers.full_pool_optimum(inst)
    assert sol.status is CgStatus.INFEASIBLE and not ref.feasible
    assert sol.z_upper == pytest.approx(ref.z_upper, rel=1e-9)


def test_clique_cover_matches_the_plain_scan():
    # the bitset cover against the reference loop on random graphs of every
    # size and density, the empty and the complete graph among them
    rng = np.random.default_rng(11)
    for k in range(300):
        L = int(rng.integers(1, 71))
        density = (0.0, 1.0)[k] if k < 2 else float(rng.uniform())
        upper = np.triu(rng.random((L, L)) < density, 1)
        adjacency = upper | upper.T
        no_groups = (np.zeros((0, L), dtype=bool), np.zeros(0))
        got = clique_cover(ConflictGraph(adjacency, no_groups).neighbours)
        assert got.dtype == bool
        assert np.array_equal(got, helpers.ref_clique_cover(adjacency))


@pytest.mark.parametrize("workload", ["sir_sweep", "office_dense"])
def test_static_pricing_rows_match_the_reference(workload):
    # both benchmark instances, at every threshold the sweep solves: each
    # built anew, and each below the top derived from the top threshold's
    # instance as the sweep derives it, holding its own graph's forms
    s = scenario_from_dict(workloads.WORKLOADS[workload].config(seed=7))
    top = SchedulingInstance(s, 6)
    packed = top.graph.bits
    for sir in range(1, 7):
        fresh = SchedulingInstance(s, sir)
        derived = top.at_sir_threshold(sir) if sir < 6 else top
        for inst in (fresh, derived):
            a, b = inst.graph.pattern_rows
            ref_a, ref_b = helpers.ref_static_pattern_rows(inst)
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        for got, want in zip(derived.graph.pattern_rows, fresh.graph.pattern_rows):
            assert np.array_equal(got, want)
        assert np.array_equal(derived.graph.adjacency, fresh.graph.adjacency)
        assert derived.graph.bits == fresh.graph.bits
    # deriving leaves the top instance's packing as it was
    assert top.graph.bits is packed and packed == SchedulingInstance(s, 6).graph.bits


# -- the generation loop --------------------------------------------------------------

def test_zero_demand_terminates_immediately():
    inst = helpers.tiny_instance(n_uts=2, demand_bps=0.0)
    sol = inst.column_generation(epsilon=0.0)
    assert sol.status is CgStatus.OPTIMAL
    assert sol.iterations == 1
    assert sol.z_upper == pytest.approx(sol.p_illumi_min, abs=1e-9)
    assert sol.feasible


def _wide_room(n_uts):
    """4 m room, luminaires 2 m apart, an 80-lux floor and 120 Mbit/s per
    terminal: still enumerable, but its optimum needs a priced two-link
    pattern (feasible with 3 terminals, infeasible with 4)."""
    return _enumerable("a", 2, 2.0, 1, 1, n_uts, 3, 1.2e8, 80.0, None)


def _enumerable(kind, nx, spacing, channels, k, n_uts, seed, demand_bps, lower_lux,
                beam):
    """A room under an nx x nx luminaire grid `spacing` m apart, with at most
    12 links; `beam` is (p_ac_pp, p_ac_avg) in W, or None for the default."""
    doc = helpers.tiny_config(
        n_uts=n_uts, seed=seed, demand_bps=demand_bps, channels=channels, k=k,
        kind=kind, room=[nx * spacing, nx * spacing, 3.0],
        aps={"grid": {"nx": nx, "ny": nx, "spacing": spacing}},
        illum={"lower_lux": lower_lux, "upper_lux": 500.0, "spacing": 0.5,
               "ambient_lux": 0.0})
    if beam is not None:
        doc["chip"].update(p_ac_pp=beam[0], p_ac_avg=beam[1])
    return doc


# `_enumerable` arguments, then whether the demands can be met. Every input
# needs pricing: two or more iterations and an active pattern of two or more
# links. The first two are layout c with 5 W data beams, which eat into
# their access point's lighting budget; at 2 W average they also push desks
# past the ceiling. So the transmitter budget and upper illuminance rows
# bind in pricing. The rest were drawn from 2x2 and 3x3 luminaire grids,
# layouts a, b and c, one or two channels, association_k 1 or 2, lower
# bounds of 80-300 lux and demands of 20-400 Mbit/s, some unmeetable.
_PRICED_CORPUS = (
    ("c", 2, 1.0, 1, 1, 4, 3, 1.2e8, 300.0, (5.0, 0.05), True),
    ("c", 2, 1.0, 1, 1, 4, 2, 1.2e8, 300.0, (5.0, 2.0), False),
    ("a", 2, 1.0, 2, 2, 2, 4, 2e8, 300.0, None, True),
    ("a", 2, 1.0, 2, 2, 3, 19, 4e8, 150.0, None, False),
    ("a", 2, 1.5, 1, 1, 5, 12, 1.2e8, 150.0, None, True),
    ("a", 2, 1.5, 2, 1, 2, 22, 2e8, 150.0, None, True),
    ("a", 2, 1.5, 2, 2, 2, 14, 4e8, 150.0, None, False),
    ("a", 2, 2.0, 2, 2, 2, 6, 2e8, 80.0, None, True),
    ("a", 3, 1.0, 1, 1, 4, 13, 4e8, 150.0, None, False),
    ("a", 3, 1.0, 1, 2, 3, 3, 2e8, 150.0, None, True),
    ("b", 2, 1.0, 1, 1, 3, 7, 2e8, 80.0, (5.0, 2.0), True),
    ("b", 2, 1.0, 1, 1, 3, 13, 6e7, 300.0, (5.0, 0.05), True),
    ("b", 2, 1.0, 2, 1, 6, 8, 4e8, 300.0, (5.0, 0.05), False),
    ("b", 2, 1.0, 2, 2, 2, 18, 2e8, 300.0, (5.0, 0.05), True),
    ("b", 2, 1.5, 1, 1, 5, 14, 4e8, 150.0, (1.0, 0.5), False),
    ("b", 2, 2.0, 2, 1, 2, 20, 4e8, 80.0, None, True),
    ("b", 3, 1.0, 1, 1, 4, 17, 6e7, 80.0, (5.0, 2.0), True),
    ("b", 3, 1.0, 1, 1, 5, 14, 4e8, 150.0, (5.0, 2.0), True),
    ("b", 3, 1.5, 1, 2, 3, 28, 2e7, 80.0, (5.0, 2.0), True),
    ("c", 2, 1.0, 2, 1, 2, 3, 2e7, 300.0, (5.0, 0.05), True),
    ("c", 3, 1.0, 1, 1, 4, 2, 4e8, 150.0, None, False),
    ("c", 3, 1.0, 1, 1, 4, 20, 4e8, 300.0, (1.0, 0.5), True),
    ("c", 3, 1.0, 1, 1, 5, 20, 4e8, 150.0, None, False),
    ("c", 3, 1.0, 1, 2, 2, 21, 6e7, 300.0, (1.0, 0.5), True),
    ("c", 3, 1.0, 2, 2, 2, 16, 6e7, 300.0, (5.0, 0.05), True),
    ("c", 3, 1.5, 2, 2, 2, 25, 4e8, 150.0, (5.0, 2.0), True),
)


def test_matches_full_enumeration():
    cases = [(helpers.tiny_config(n_uts=4, seed=7), False, True),
             (_wide_room(3), True, True), (_wide_room(4), True, False)]
    cases += [(_enumerable(*spec), True, feasible) for *spec, feasible in _PRICED_CORPUS]
    for cfg, priced, feasible in cases:
        inst = SchedulingInstance(scenario_from_dict(cfg), sir_threshold=3.0)
        calls = []
        price = inst.solve_pricing

        def recording(lam, mu, price=price, calls=calls):
            out = price(lam, mu)
            calls.append((lam, mu, out))
            return out

        inst.solve_pricing = recording
        sol = inst.column_generation(epsilon=0.0)
        ref = helpers.full_pool_optimum(inst)
        assert ref.feasible is feasible
        assert sol.feasible is feasible
        assert sol.status is (CgStatus.OPTIMAL if feasible else CgStatus.INFEASIBLE)
        assert sol.z_upper == pytest.approx(ref.z_upper, rel=1e-7)
        assert sol.z_lower <= ref.z_upper + 1e-6
        for rec in sol.iteration_log:
            assert rec.z_lower <= ref.z_upper + 1e-6
            assert rec.z_upper >= ref.z_upper - 1e-6
        if priced:
            assert sol.iterations >= 2
            assert max(len(col.schedule.active) for col, _ in sol.active()) >= 2
        pool = helpers.full_pool(inst)
        for lam, mu, (priced, reduced, bound) in calls:
            best = min(helpers.ref_reduced_cost(inst, col, lam, mu) for col in pool)
            tol = 1e-9 * max(1.0, abs(best), float(np.dot(lam, inst.demands)))
            assert reduced == pytest.approx(best, abs=tol)
            assert bound <= best + tol
            # the priced column keeps the MILP's lighting, which is optimal
            assert inst.column_is_valid(priced)
            dc = inst.optimize_dc_for_schedule(priced.schedule.active)
            assert float(np.sum(np.asarray(priced.dc_power) / inst.dc_eta)) == pytest.approx(
                float(np.sum(dc / inst.dc_eta)), rel=1e-9)


@pytest.mark.parametrize("n_uts,seed,channels,threshold",
                         [(4, 7, 1, 6.0), (5, 1, 2, 6.0), (6, 2, 2, 3.0)])
def test_pricing_a_pooled_pattern_ends_the_loop(n_uts, seed, channels, threshold):
    # on these inputs exact pricing can return a pattern already in the
    # pool, priced about -5e-7 by the round-off of big-M duals: the solve
    # must end there, at the optimum, instead of raising
    doc = helpers.tiny_config(n_uts=n_uts, seed=seed, demand_bps=4e8,
                              channels=channels, kind="c")
    doc["chip"].update(p_ac_pp=1.0, p_ac_avg=0.5)
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=threshold)
    sol = inst.column_generation(epsilon=0.0)
    ref = helpers.full_pool_optimum(inst)
    assert sol.status is CgStatus.OPTIMAL and ref.feasible
    assert sol.z_upper == pytest.approx(ref.z_upper, rel=1e-9)
    assert 0.0 <= sol.net_gap <= 1e-6


def test_pricing_solves_no_lighting_lp(monkeypatch):
    inst = SchedulingInstance(scenario_from_dict(_wide_room(3)), sir_threshold=3.0)
    rmp = inst.solve_rmp(inst.initial_columns())

    def no_lighting_lp(self, active):
        raise AssertionError(f"lighting LP solved for pattern {active}")

    monkeypatch.setattr(SchedulingInstance, "_solve_dc", no_lighting_lp)
    col, reduced, _ = inst.solve_pricing(rmp.lambda_bps, rmp.mu)
    assert len(col.schedule.active) >= 2
    assert inst.column_is_valid(col)
    # a few ulps: both sides sum terms near 3.3e8 W, in different orders
    assert reduced == pytest.approx(
        helpers.ref_reduced_cost(inst, col, rmp.lambda_bps, rmp.mu),
        rel=4 * np.finfo(float).eps, abs=0.0)


def test_every_program_after_the_first_of_its_kind_starts_warm(monkeypatch):
    # 1 W beams on two channels: a greedy pattern joins the pool, then the
    # exact pricing MILP's first answer leaves a grid point no earlier LP
    # held, so a lazy round re-solves it from the round before. The floor's
    # basis lights every pattern there, so a second instance, whose bright
    # beams it lights none of, solves a single-link lighting LP
    doc = helpers.tiny_config(n_uts=4, seed=1, demand_bps=4e8, channels=2, kind="b")
    doc["chip"].update(p_ac_pp=1.0, p_ac_avg=0.5)
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    bright = SchedulingInstance(scenario_from_dict(helpers.bright_beam_config()), 3.0)
    inside, entered = [], []

    def tagged(kind, method):
        def run(self, *args):
            inside.append(kind(args) if callable(kind) else kind)
            entered.append(inside[-1])
            try:
                return method(self, *args)
            finally:
                inside.pop()
        return run

    for name, kind in (("_solve_dc", lambda args: "single" if args[0] else "floor"),
                       ("solve_rmp", "master"), ("solve_pricing", "pricing")):
        monkeypatch.setattr(SchedulingInstance, name,
                            tagged(kind, getattr(SchedulingInstance, name)))
    starts = []
    solve_lp, solve_milp = cg_scheduler.solve_lp, cg_scheduler.solve_milp

    def recording_lp(p, _warm=None):
        starts.append((inside[-1], p, _warm))
        return solve_lp(p, _warm=_warm)

    def recording_milp(mip, _warm=None):
        starts.append((inside[-1], mip.lp, _warm))
        return solve_milp(mip, _warm=_warm)

    monkeypatch.setattr(cg_scheduler, "solve_lp", recording_lp)
    monkeypatch.setattr(cg_scheduler, "solve_milp", recording_milp)
    sol = inst.column_generation(epsilon=0.0)
    assert sol.iterations >= 2
    assert {rec.pricing for rec in sol.iteration_log} == {"greedy", "exact"}
    # more pricing MILPs than pricing calls: a lazy row was added in pricing
    kinds = [kind for kind, _, _ in starts]
    assert kinds.count("pricing") > entered.count("pricing")
    main = len(starts)
    bright.min_illumination_power()
    bright.optimize_dc_for_schedule((0,))
    kinds = [kind for kind, _, _ in starts]
    assert {"floor", "master", "pricing"} <= set(kinds[:main])
    floor = kinds[main:].count("floor")  # the floor's lazy rounds, then the link's
    assert 0 < floor < len(kinds) - main
    assert kinds[main:] == ["floor"] * floor + ["single"] * (len(kinds) - main - floor)
    for i, (kind, p, warm) in enumerate(starts):
        first = kind not in (kinds[main:i] if i >= main else kinds[:i])
        if kind in ("floor", "master") and first:
            assert warm is None  # the first floor and master start cold
        else:  # the first pricing root starts from the floor's basis
            assert warm is not None and lp_module._Tableau(p)._start(warm), (i, kind)


def _saturated_floor_config():
    """One desk point under the first luminaire, lit to 400 lux: the
    lighting floor holds two chips at their caps."""
    doc = helpers.tiny_config(n_uts=3, demand_bps=4e8, channels=2, kind="b")
    doc["illum"] = {"points": [[0.5, 0.5]], "lower_lux": 400.0, "upper_lux": 2000.0,
                    "ambient_lux": 0.0}
    return doc


@pytest.mark.parametrize("case", ["bright_beam", "saturated_floor", "office"])
def test_first_pricing_root_from_the_floor_matches_the_cold_start(monkeypatch, case):
    # the first pricing MILP starts from the lighting floor's basis moved
    # onto its program: the bright beams add an upper row after the floor,
    # the saturated floor's capped chips start basic on their budget rows,
    # and the office is derived from the top threshold's instance as
    # `sweep_sir` derives the lower ones
    if case == "office":
        top = SchedulingInstance(scenario_from_dict(default_config(seed=7)), 6.0)
        inst = top.at_sir_threshold(3.0)
    else:
        doc = (helpers.bright_beam_config() if case == "bright_beam"
               else _saturated_floor_config())
        inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    calls = []
    solve_milp = cg_scheduler.solve_milp

    def recording(mip, _warm=None):
        calls.append((mip, _warm, solve_milp(mip, _warm=_warm)))
        return calls[-1][2]

    monkeypatch.setattr(cg_scheduler, "solve_milp", recording)
    inst.column_generation(epsilon=0.0)
    # a held root wins: every later root starts from the root before
    assert all(warm is before.root.basis
               for (_, warm, _), (_, _, before) in zip(calls[1:], calls))
    mip, warm, res = calls[0]
    start = lp_module._Tableau(mip.lp)
    assert warm is not None and start._start(warm)
    beta = start.t[:-1, -1]  # and is primal feasible
    assert np.all(beta >= -lp_module.FEAS_TOL)
    assert np.all(beta <= start.u_basic + lp_module.FEAS_TOL)
    cold = lp_module.solve_milp(mip)
    assert res.status is cold.status is lp_module.LpStatus.OPTIMAL
    assert abs(res.objective - cold.objective) <= lp_module.ABS_GAP
    L = len(inst.links)
    # the bright beams are priced at big-M duals, which cost several links
    # alike, so there the pattern may be another of the tied optima
    if case != "bright_beam":
        assert np.array_equal(res.x[:L] > 0.5, cold.x[:L] > 0.5)
    assert res.root.iterations < cold.root.iterations


def test_floor_start_maps_each_floor_row_onto_its_illuminance_row():
    # a hand-made floor basis over 2 lower rows and 1 upper row, with lower
    # row 0 and upper row 0 tight (chips 0 and 2 basic in their places),
    # chip 1 nonbasic at its cap and chip 3 at zero; since the floor, one
    # lower and one upper row were added, so the upper rows shift by one
    inst = helpers.tiny_instance(n_uts=2)
    L, T = len(inst.links), len(inst.dc_txs)
    complemented = np.zeros(T + 3, dtype=bool)
    complemented[1] = True
    inst._lo_rows, inst._hi_rows = np.array([3, 7]), np.array([5])
    inst._floor = inst._decode_floor(
        np.zeros(T), lp_module.Basis(np.array([0, T + 1, 2]), complemented))
    floor = inst._floor
    assert floor.n_lo == 2 and floor.chips.tolist() == [0, 2] and floor.at_cap.tolist() == [1]
    assert floor.points.tolist() == [3, 5]
    assert floor.bound.tolist() == [inst.e_lo[3], inst.e_hi[5]]
    inst._lo_rows, inst._hi_rows = np.array([3, 7, 11]), np.array([5, 9])
    n_static = 3
    top = n_static + T  # the first illuminance row of the pricing program
    start = inst._floor_start(top)
    want = np.arange(L + T, L + T + top + 5)  # every slack basic, ...
    want[top] = L  # ... but chip 0 on lower row 0,
    want[top + 3] = L + 2  # chip 2 on upper row 0, past the new lower row,
    want[n_static + 1] = L + 1  # and chip 1, at its cap, on its budget row
    assert start.basic.tolist() == want.tolist()
    assert not start.complemented.any() and start.complemented.size == L + T + top + 5


def test_patterns_lit_after_the_floor_solve_at_most_a_chip_block(monkeypatch):
    # each pattern's lighting LP loads the floor's basis, whose only
    # structural columns are chip powers: its one dense solve is k x k, with
    # k <= the number of chips, however many rows the floor holds. Masters
    # after patterns were appended and lazy rounds after rows were load
    # their held bases by position as well
    dense, loaded = [], []
    dense_solve, solve_lp = np.linalg.solve, lp_module.solve_lp

    def counting(*args, **kwargs):
        dense.append(args[0].shape)
        return dense_solve(*args, **kwargs)

    def recording_lp(p, _warm=None):
        if _warm is not None:  # (appended columns, appended rows)
            m0 = _warm.basic.size
            loaded.append((p.n_vars - (_warm.complemented.size - m0), p.n_rows - m0))
        return solve_lp(p, _warm=_warm)

    inst = helpers.tiny_instance(n_uts=4, seed=1, channels=2)
    inst.min_illumination_power()  # holds the floor
    rows = (inst._lo_rows.tolist(), inst._hi_rows.tolist())
    chips = len(inst.dc_txs)
    monkeypatch.setattr(np.linalg, "solve", counting)
    monkeypatch.setattr(cg_scheduler, "solve_lp", recording_lp)
    patterns = [(i,) for i in range(len(inst.links))]
    assert len(patterns) >= 5
    for active in patterns:
        inst.optimize_dc_for_schedule(active)
    monkeypatch.undo()
    assert (inst._lo_rows.tolist(), inst._hi_rows.tolist()) == rows
    # here the floor's basis lights every pattern: one block solve each, no LP
    assert loaded == [] and len(dense) == len(patterns)
    held = len(rows[0]) + len(rows[1])
    assert dense and all(k == j <= min(chips, held) for k, j in dense), (dense, chips)
    assert max(k for k, _ in dense) < held  # a block, not the whole basis

    # bright beams: the floor's basis lights no single link, and each
    # link's first lighting LP loads it by position, as the same block
    inst = SchedulingInstance(scenario_from_dict(helpers.bright_beam_config()), 3.0)
    inst.min_illumination_power()
    rows = len(inst._lo_rows) + len(inst._hi_rows)
    dense.clear()
    monkeypatch.setattr(np.linalg, "solve", counting)
    monkeypatch.setattr(cg_scheduler, "solve_lp", recording_lp)
    inst.optimize_dc_for_schedule((0,))
    monkeypatch.undo()
    assert loaded[0] == (0, 0)
    assert dense and all(k == j <= min(len(inst.dc_txs), rows) for k, j in dense)
    loaded.clear()

    # 1 W beams on two channels: a greedy batch grows the master, and the
    # pricing MILP's answer leaves a grid point no earlier LP held
    doc = helpers.tiny_config(n_uts=4, seed=1, demand_bps=4e8, channels=2, kind="b")
    doc["chip"].update(p_ac_pp=1.0, p_ac_avg=0.5)
    monkeypatch.setattr(cg_scheduler, "solve_lp", recording_lp)
    SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0).column_generation(0.0)
    monkeypatch.undo()
    assert any(cols > 0 for cols, _ in loaded)  # a master
    assert any(rows > 0 for _, rows in loaded)  # a lazy round


def test_a_pattern_lit_after_pricing_grew_the_rows_matches_a_fresh_instance():
    # the pricing MILP adds an upper row the floor was not solved at, so a
    # pattern's first round loads the floor's basis with that row's slack basic
    doc = helpers.tiny_config(n_uts=4, seed=1, demand_bps=4e8, channels=2, kind="b")
    doc["chip"].update(p_ac_pp=1.0, p_ac_avg=0.5)
    s = scenario_from_dict(doc)
    inst = SchedulingInstance(s, sir_threshold=3.0)
    rmp = inst.solve_rmp(inst.initial_columns())
    before = (len(inst._lo_rows), len(inst._hi_rows))
    priced, _, _ = inst.solve_pricing(rmp.lambda_bps, rmp.mu)
    assert (len(inst._lo_rows), len(inst._hi_rows)) != before
    for active in (priced.schedule.active, (0, 3), (5,)):
        dc = inst.optimize_dc_for_schedule(active)
        fresh = SchedulingInstance(s, sir_threshold=3.0).optimize_dc_for_schedule(active)
        np.testing.assert_allclose(dc, fresh, rtol=0.0, atol=1e-9)
        assert inst.column_is_valid(inst.build_column(active, dc))


# -- lighting a pattern off the floor's basis ------------------------------------

def _recording_lighting(monkeypatch):
    """Record every `_solve_dc` call: its pattern, the lighting LPs it
    solved, whether its reading off the floor's basis met the held rows and
    chip caps (None if never read: the floor, or a pattern rejected before
    any lighting), whether lazy rows joined, and its powers (None if it
    raised)."""
    calls, inside = [], []
    solve_dc, lit_cleanly = SchedulingInstance._solve_dc, SchedulingInstance._lit_cleanly
    solve_lp = cg_scheduler.solve_lp

    def recording_dc(self, active):
        calls.append({"active": active, "lps": 0, "clean": None, "dc": None})
        inside.append(calls[-1])
        rows = len(self._lo_rows) + len(self._hi_rows)
        try:
            inside[-1]["dc"] = solve_dc(self, active)
            return inside[-1]["dc"]
        finally:
            inside[-1]["grew"] = len(self._lo_rows) + len(self._hi_rows) > rows
            inside.pop()

    def recording_clean(self, *args):
        inside[-1]["clean"] = lit_cleanly(self, *args)
        return inside[-1]["clean"]

    def counting_lp(p, _warm=None):
        if inside:
            inside[-1]["lps"] += 1
        return solve_lp(p, _warm=_warm)

    monkeypatch.setattr(SchedulingInstance, "_solve_dc", recording_dc)
    monkeypatch.setattr(SchedulingInstance, "_lit_cleanly", recording_clean)
    monkeypatch.setattr(cg_scheduler, "solve_lp", counting_lp)
    return calls


def _full_grid_lighting(inst, active):
    """The pattern's lighting LP over every grid point, as `linprog` takes it:
    (cost, A_ub, b_ub, chip bounds)."""
    ac = inst._ac_field(active)
    caps = np.maximum(inst.dc_cap - inst.budget[:, list(active)].sum(1), 0.0)
    a_ub = np.vstack([-inst.dc_light.T, inst.dc_light.T])
    b_ub = np.concatenate([ac - inst.e_lo, inst.e_hi - ac])
    return 1.0 / inst.dc_eta, a_ub, b_ub, list(zip(np.zeros_like(caps), caps))


def test_patterns_lit_off_the_floor_basis_match_the_warm_lighting_lp(monkeypatch):
    # every single link and every greedy-batch pattern the floor's basis
    # lights (its reading meets the held rows and no row joins) is the answer
    # of the pattern's lighting LP started there, which takes no pivot
    inst = SchedulingInstance(scenario_from_dict(default_config(seed=7)), sir_threshold=3.0)
    calls = _recording_lighting(monkeypatch)
    singles = inst.initial_columns()
    rmp = inst.solve_rmp(singles)
    known = {col.schedule.active for col in singles}
    assert inst._greedy_pricing(rmp.lambda_bps, rmp.mu, known, 0.0)
    monkeypatch.undo()
    lit = [call for call in calls if call["clean"] and not call["grew"]]
    assert len([call for call in lit if len(call["active"]) == 1]) > len(inst.links) // 2
    assert any(len(call["active"]) >= 2 for call in lit)
    held = np.concatenate([inst._lo_rows, inst._hi_rows])
    rel = (">=",) * len(inst._lo_rows) + ("<=",) * len(inst._hi_rows)
    for call in lit:
        active = call["active"]
        assert call["lps"] == 0
        ac = inst._ac_field(active)
        b = np.concatenate([(inst.e_lo - ac)[inst._lo_rows], (inst.e_hi - ac)[inst._hi_rows]])
        caps = np.maximum(inst.dc_cap - inst.budget[:, list(active)].sum(1), 0.0)
        sol = lp_module.solve_lp(
            lp_module.LinearProgram(c=1.0 / inst.dc_eta, a=inst.dc_light[:, held].T,
                                    rel=rel, b=b, ub=caps),
            _warm=inst._floor.basis)
        assert sol.status is lp_module.LpStatus.OPTIMAL and sol.iterations == 0, active
        np.testing.assert_allclose(call["dc"], np.maximum(sol.x, 0.0), rtol=0.0, atol=1e-9)
        assert inst.column_is_valid(inst.build_column(active, call["dc"]))


@pytest.mark.parametrize("case", ["bright_beam", "saturated_floor"])
def test_single_links_on_either_lighting_path_match_a_full_grid_re_solve(monkeypatch, case):
    # the bright beams leave the floor's basis primal infeasible for every
    # single link, so each falls back to its lighting LP; the saturated
    # floor's basis lights every link, its chips held at their caps set to
    # the caps the link's beam leaves them
    doc = (helpers.bright_beam_config() if case == "bright_beam"
           else _saturated_floor_config())
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    calls = _recording_lighting(monkeypatch)
    inst.initial_columns()
    monkeypatch.undo()
    floor, *lit = calls
    assert floor["active"] == () and len(lit) == len(inst.links)
    if case == "bright_beam":
        assert all(call["clean"] is False and call["lps"] >= 1 for call in lit)
    else:
        assert all(call["clean"] and call["lps"] == 0 for call in lit)
        at_cap = inst._floor.at_cap
        assert at_cap.size and any(
            np.any(call["dc"][at_cap] < inst.dc_cap[at_cap]) for call in lit)
    for call in lit:
        cost, a_ub, b_ub, bounds = _full_grid_lighting(inst, call["active"])
        ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert ref.status == 0
        assert float(cost @ call["dc"]) == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
        assert inst.column_is_valid(inst.build_column(call["active"], call["dc"]))


def _short_point_instance(case, short):
    """A 4-terminal instance whose floor's basis lights link 0, with the
    lower bound of one grid point raised to `short` lux above link 0's
    lit field there: the darkest point no lower row holds ("unheld"), or
    the held lower row with the most room, its slack basic ("held")."""
    inst = helpers.tiny_instance(n_uts=4, seed=1, channels=2,
                                 illum={"lower_lux": 300.0, "upper_lux": 500.0,
                                        "spacing": 0.25, "ambient_lux": 0.0})
    inst.min_illumination_power()
    active = (0,)
    field = inst.illuminance(inst.optimize_dc_for_schedule(active), active)
    inst.e_lo = inst.e_lo.copy()
    if case == "unheld":
        free = np.setdiff1d(np.arange(len(field)), inst._lo_rows)
        point = int(free[np.argmin(field[free])])
    else:
        point = max(inst._lo_rows.tolist(), key=lambda k: field[k] - inst.e_lo[k])
        assert field[point] - inst.e_lo[point] > 1e-3
    inst.e_lo[point] = field[point] + short
    return inst, active, field, point


@pytest.mark.parametrize("case, lit", [("unheld_point_short", False),
                                       ("unheld_point_within_check", True),
                                       ("held_row_short", False),
                                       ("held_row_within_bound", True)])
def test_floor_basis_lights_only_where_the_lighting_lp_would_not_move(monkeypatch, case, lit):
    # the reading answers its round only where the LP would pivot no more (a
    # held row met to lp._BOUND_TOL); the lazy-row loop then adds a grid
    # point outside the held rows short by more than _ROW_CHECK_TOL, and the
    # next round solves the LP
    short = {"unheld_point_short": 1e-6, "unheld_point_within_check": 1e-7,
             "held_row_short": 1e-8, "held_row_within_bound": 1e-10}[case]
    inst, active, field, point = _short_point_instance(case.split("_")[0], short)
    rows = (inst._lo_rows.tolist(), inst._hi_rows.tolist())
    calls = _recording_lighting(monkeypatch)
    dc = inst.optimize_dc_for_schedule(active)
    monkeypatch.undo()
    assert calls[0]["clean"] is (case != "held_row_short")
    assert (calls[0]["lps"] == 0) is lit
    if lit:
        assert (inst._lo_rows.tolist(), inst._hi_rows.tolist()) == rows
        np.testing.assert_allclose(inst.illuminance(dc, active), field, rtol=0.0, atol=1e-9)
    else:  # the point is met, an unheld one once it joins the rows
        if case == "unheld_point_short":
            assert inst._lo_rows.tolist() == rows[0] + [point]
        assert inst.illuminance(dc, active)[point] >= inst.e_lo[point] - 1e-9


def test_a_reading_short_only_off_the_held_rows_solves_one_lighting_lp(monkeypatch):
    # the reading meets the held rows but leaves a grid point no row holds
    # 1e-3 lux short: the reading's round adds that row, and the next round's
    # one lighting LP, from the floor's basis, is the full-grid optimum
    inst, active, _, point = _short_point_instance("unheld", 1e-3)
    rows = inst._lo_rows.tolist()
    calls = _recording_lighting(monkeypatch)
    dc = inst.optimize_dc_for_schedule(active)
    monkeypatch.undo()
    assert [(call["clean"], call["lps"]) for call in calls] == [(True, 1)]
    assert inst._lo_rows.tolist() == rows + [point]
    cost, a_ub, b_ub, bounds = _full_grid_lighting(inst, active)
    ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert ref.status == 0
    assert float(cost @ dc) == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(dc, ref.x, rtol=0.0, atol=1e-7)
    assert inst.column_is_valid(inst.build_column(active, dc))


@pytest.mark.parametrize("case, witnesses", [("unlit", [0, 80, 0, 0, 8]),
                                             ("dim_ceiling", [4])])
def test_infeasible_patterns_raise_before_any_lighting(monkeypatch, case, witnesses):
    # a pattern that no chip setting lights raises with the grid point that
    # proves it, before the floor's basis or an LP is consulted
    doc = helpers.unlit_links_config() if case == "unlit" else _dim_ceiling_doc()
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    inst.min_illumination_power()
    calls = _recording_lighting(monkeypatch)
    raised = []
    for i in range(len(inst.links)):
        with pytest.raises(IlluminationInfeasible) as exc:
            inst.optimize_dc_for_schedule((i,))
        raised.append(exc.value)
    monkeypatch.undo()
    assert [err.point_index for err in raised] == witnesses
    assert [err.point for err in raised] == [tuple(inst.pts[k]) for k in witnesses]
    assert all(call["lps"] == 0 and call["clean"] is None for call in calls)


def test_after_the_floor_only_patterns_its_basis_cannot_light_solve_an_lp(monkeypatch):
    # the default office: every pattern lit from the floor's basis solves no
    # lighting LP, and those are most of the patterns a solve lights
    inst = SchedulingInstance(scenario_from_dict(default_config(seed=7)), sir_threshold=3.0)
    calls = _recording_lighting(monkeypatch)
    sol = inst.column_generation(epsilon=0.0)
    monkeypatch.undo()
    assert sol.status is CgStatus.OPTIMAL
    floor, *patterns = calls
    assert floor["active"] == () and floor["lps"] >= 1
    assert all(call["clean"] is not None for call in patterns)
    assert all((call["lps"] == 0) is (call["clean"] and not call["grew"])
               for call in patterns)
    fallbacks = [call["active"] for call in patterns if call["lps"]]
    assert len(patterns) > len(inst.links) and 4 * len(fallbacks) < len(patterns), fallbacks


def test_bounds_tighten_monotonically():
    inst = helpers.tiny_instance(n_uts=5, seed=2)
    sol = inst.column_generation(epsilon=0.0)
    log = sol.iteration_log
    assert len(log) == sol.iterations >= 1
    for earlier, later in zip(log, log[1:]):
        assert later.z_lower >= earlier.z_lower - 1e-12
        assert later.z_upper <= earlier.z_upper + 1e-9
    assert sol.z_lower <= sol.z_upper + 1e-9
    if sol.status is CgStatus.OPTIMAL and sol.z_lower > 0:
        assert sol.z_upper / sol.z_lower <= 1.0 + 1e-6


def test_generated_columns_all_valid():
    inst = helpers.tiny_instance(n_uts=4, seed=1, channels=2)
    sol = inst.column_generation(epsilon=0.0)
    assert sol.columns
    for col in sol.columns:
        assert inst.column_is_valid(col)
    assert np.all(sol.omega >= 0.0)
    assert float(np.sum(sol.omega)) <= 1.0 + 1e-9


def test_column_is_valid_rejects_each_broken_property():
    # each column breaks one property and keeps the others, which its
    # accepted twin shows
    s = scenario_from_dict(helpers.tiny_config(n_uts=4, seed=1, channels=1))
    inst = SchedulingInstance(s, sir_threshold=6.0)
    low = inst.at_sir_threshold(1.0)
    edges = np.argwhere(np.triu(inst.graph.adjacency & ~low.graph.adjacency, k=1))
    assert edges.size
    # a pair, lit for its own beams: dependent here, independent at threshold 1
    pair = edges[0].tolist()
    dependent = inst.build_column(pair)
    assert low.column_is_valid(dependent)
    assert not inst.column_is_valid(dependent)

    col = inst.initial_columns()[0]
    assert inst.column_is_valid(col)
    dc = np.array(col.dc_power)
    # a chip power below zero, under a band with no floor so the field may drop
    lit = int(np.argmax(dc))
    floorless = copy.copy(inst)
    floorless.e_lo = np.full_like(inst.e_lo, -np.inf)
    for power, valid in ((0.0, True), (-1e-9, False)):
        changed = dc.copy()
        changed[lit] = power
        assert floorless.column_is_valid(replace(col, dc_power=tuple(changed))) is valid
    # a chip power above its cap, with the field unchanged: the cap is lowered
    capped = copy.copy(inst)
    capped.dc_cap = inst.dc_cap.copy()
    capped.dc_cap[lit] = dc[lit] / 2 + inst.budget[lit, list(col.schedule.active)].sum()
    assert not capped.column_is_valid(col)
    # a field below the illuminance band: the idle pattern with every chip dark
    assert inst.column_is_valid(inst.build_column(()))
    assert not inst.column_is_valid(inst.build_column((), dc=np.zeros_like(dc)))


def test_iteration_limit_re_solves_the_master_over_the_extended_pool(monkeypatch):
    # out of iterations after pricing extended the pool: the master is solved
    # once more over the whole pool, so omega covers every column
    monkeypatch.setattr(cg_scheduler, "MAX_ITERATIONS", 1)
    inst = SchedulingInstance(scenario_from_dict(_wide_room(3)), sir_threshold=3.0)
    initial = len(inst.initial_columns())
    masters = []
    solve_rmp = SchedulingInstance.solve_rmp

    def recording(self, columns, held=None):
        masters.append(solve_rmp(self, columns, held))
        return masters[-1]

    monkeypatch.setattr(SchedulingInstance, "solve_rmp", recording)
    sol = inst.column_generation(epsilon=0.0)
    assert sol.status is CgStatus.ITERATION_LIMIT
    assert sol.iterations == 1
    assert len(sol.columns) == initial + sol.iteration_log[0].columns_added > initial
    assert sol.omega.shape == (len(sol.columns),)
    assert len(masters) == 2
    assert masters[0].omega.shape == (initial,)
    assert sol.omega is masters[1].omega and sol.z_upper == masters[1].z_upper
    assert sol.z_upper <= sol.iteration_log[0].z_upper + 1e-9


def test_no_lit_single_link_buys_all_demand_as_shortfall():
    inst = SchedulingInstance(scenario_from_dict(helpers.unlit_links_config()),
                              sir_threshold=3.0)
    assert inst.initial_columns() == []
    sol = inst.column_generation(epsilon=0.0)
    assert sol.status is CgStatus.INFEASIBLE
    assert not sol.feasible
    np.testing.assert_allclose(sol.shortfall_bps, inst.demands, rtol=1e-9)
    shortfall_w = cg_scheduler.SHORTFALL_COST * np.sum(inst.demands) / cg_scheduler.RATE_SCALE
    assert sol.z_upper == pytest.approx(sol.p_illumi_min + shortfall_w, rel=1e-9)


def test_impossible_demand_reported_infeasible():
    inst = helpers.tiny_instance(n_uts=2, seed=1, demand_bps=1e12)
    sol = inst.column_generation(epsilon=0.0)
    assert sol.status is CgStatus.INFEASIBLE
    assert not sol.feasible
    assert sum(sol.shortfall_bps) > 0.0


def test_exact_solve_certifies_its_net_gap():
    sol = helpers.tiny_instance(n_uts=3, seed=2).column_generation(epsilon=0.0)
    net = sol.z_upper - sol.p_illumi_min
    assert sol.status is CgStatus.OPTIMAL and net > 0.0
    assert sol.net_gap == (sol.z_upper - sol.z_lower) / net
    assert 0.0 <= sol.net_gap <= 1e-6
    idle = helpers.tiny_instance(n_uts=2, demand_bps=0.0).column_generation(0.0)
    assert idle.net_gap == 0.0


def test_gap_setting_must_be_a_fraction():
    inst = helpers.tiny_instance()
    for eps in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            inst.column_generation(epsilon=eps)


def test_only_exact_pricing_moves_the_bound():
    exact = [helpers.tiny_instance(n_uts=5, seed=2).column_generation(0.0),
             SchedulingInstance(scenario_from_dict(_wide_room(3)), 3.0).column_generation(0.0)]
    assert any(rec.pricing == "greedy" for sol in exact for rec in sol.iteration_log)
    for sol in exact:
        assert sol.status is CgStatus.OPTIMAL
        assert sol.iteration_log[-1].pricing == "exact"  # only an exact call certifies
        z_lower = -math.inf
        for rec in sol.iteration_log:
            assert rec.pricing in ("greedy", "exact")
            if rec.pricing == "greedy":
                assert rec.z_lower == z_lower
            z_lower = rec.z_lower
    loose = SchedulingInstance(scenario_from_dict(_wide_room(3)), 3.0).column_generation(0.5)
    assert {rec.pricing for rec in loose.iteration_log} == {"exact"}


def test_greedy_pricing_adds_a_batch_of_disjoint_patterns():
    # 1 W beams on two channels: the first greedy call grows four two-link
    # patterns from the single-link pool's duals
    doc = helpers.tiny_config(n_uts=4, seed=1, demand_bps=4e8, channels=2, kind="b")
    doc["chip"].update(p_ac_pp=1.0, p_ac_avg=0.5)
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    greedy_calls, master_sizes = [], []
    greedy, master = inst._greedy_pricing, inst.solve_rmp

    def recording_greedy(lam, mu, known, cutoff):
        batch = greedy(lam, mu, known, cutoff)
        greedy_calls.append((lam, mu, set(known), cutoff, batch))
        return batch

    def recording_master(columns, *held):
        master_sizes.append(len(columns))
        return master(columns, *held)

    inst._greedy_pricing, inst.solve_rmp = recording_greedy, recording_master
    sol = inst.column_generation(epsilon=0.0)
    lam, mu, known, cutoff, batch = greedy_calls[0]
    assert len(batch) >= 2
    used = set()
    for col, reduced in batch:
        assert inst.column_is_valid(col)
        assert used.isdisjoint(col.schedule.active)
        used.update(col.schedule.active)
        assert col.schedule.active not in known
        assert reduced < cutoff
        # a few ulps: both sides sum terms near 1e9 W, in different orders
        assert reduced == pytest.approx(helpers.ref_reduced_cost(inst, col, lam, mu),
                                        rel=4 * np.finfo(float).eps, abs=0.0)
    first = sol.iteration_log[0]
    assert first.pricing == "greedy"
    assert first.reduced_cost == min(reduced for _, reduced in batch)
    assert first.columns_added == len(batch)
    assert master_sizes[1] == master_sizes[0] + len(batch)
    assert sol.columns[master_sizes[0]:master_sizes[1]] == tuple(col for col, _ in batch)
    assert sol.iteration_log[-1].columns_added == 0
    assert len(sol.columns) == master_sizes[0] + sum(
        rec.columns_added for rec in sol.iteration_log)

    # a pooled pattern is passed over, and growth goes on from the other links
    rest = inst._greedy_pricing(lam, mu, known | {batch[0][0].schedule.active}, cutoff)
    assert [col.schedule.active for col, _ in rest] == [
        col.schedule.active for col, _ in batch[1:]]


def test_loose_gap_never_needs_more_iterations():
    cfg = helpers.tiny_config(n_uts=5, seed=2)
    tight = SchedulingInstance(scenario_from_dict(cfg), 3.0).column_generation(0.0)
    loose = SchedulingInstance(scenario_from_dict(cfg), 3.0).column_generation(0.5)
    assert loose.iterations <= tight.iterations
    assert loose.feasible and tight.feasible
    assert loose.z_upper >= tight.z_upper - 1e-9


# -- validation pass -----------------------------------------------------------------

def _served_by(inst, active):
    """Each active link's terminal, which no other active link serves: every
    terminal here has one receiver, whose cap-1 group admits one active link
    per pattern, so a terminal's rate is its one link's rate."""
    uts = [int(inst.ut_of_link[i]) for i in active]
    assert len(set(uts)) == len(uts)
    return uts


def test_concurrent_rates_never_beat_scheduled_rates():
    inst = helpers.tiny_instance(n_uts=4, seed=7)
    cols = helpers.full_pool(inst)
    reals = inst.physical_rates(cols)
    assert len(reals) == len(cols)
    for col, real in zip(cols, reals):
        assert real.schedule == col.schedule
        assert real.dc_power == col.dc_power
        for a, b in zip(real.rate_per_ut, col.rate_per_ut):
            assert a <= b + 1e-9
        active = col.schedule.active
        for i, ut in zip(active, _served_by(inst, active)):
            assert col.rate_per_ut[ut] == inst.cap[i]
            assert real.rate_per_ut[ut] <= inst.cap[i] + 1e-9


def test_validation_rates_match_reference_interference():
    # every same-channel link in the pattern interferes, seen through the
    # victim's own aperture; links on the other channel do not (steered
    # beams make the gains one-way: j's beam at i differs from i's at j)
    inst = helpers.tiny_instance(n_uts=3, seed=4, channels=2, sir=1.0, kind="b")
    c = inst.s.constants
    combos = helpers.all_independent_sets(inst)
    cols = [inst.build_column(combo, dc=np.zeros(len(inst.dc_txs))) for combo in combos]
    for combo, real in zip(combos, inst.physical_rates(cols)):
        for i, ut in zip(combo, _served_by(inst, combo)):
            ln = inst.links[i]
            p_i = sum(
                helpers.ref_channel_gain(
                    other.ac_pose.origin, other.ac_pose.direction, other.ac_pose.ml,
                    ln.rx_position, ln.rx_normal, ln.receiver.area_m2,
                    ln.receiver.fov_half_deg) * other.p_ac_pp
                for other in (inst.links[j] for j in combo)
                if other.index != ln.index and other.channel_index == ln.channel_index)
            want = physical_capacity(ln.bandwidth_hz, c.responsivity, ln.gain,
                                     ln.p_ac_pp, p_i, c.noise_variance)
            assert real.rate_per_ut[ut] == pytest.approx(want, rel=1e-9)


def test_batched_rates_match_per_link_scalar_calls():
    # one batched pass against one scalar `physical_capacity` call per link,
    # on every pattern of the criterion-1 tiny corpus and of 5 W beams, at
    # the default threshold. The batch sums each link's interference in an
    # order of its own, so the two agree to round-off (here bit for bit)
    docs = [helpers.tiny_config(n_uts=n, seed=seed, channels=ch)
            for seed in range(1, 9) for n, ch in ((2, 1), (3, 1), (4, 2))]
    for doc in docs + [helpers.bright_beam_config()]:
        inst = SchedulingInstance(scenario_from_dict(doc), 3.0)
        c = inst.s.constants
        cols = [inst.build_column(combo, dc=np.zeros(len(inst.dc_txs)))
                for combo in [()] + helpers.all_independent_sets(inst)]
        for col, real in zip(cols, inst.physical_rates(cols)):
            active = col.schedule.active
            rate = np.zeros(len(inst.s.uts))
            for i, ut in zip(active, _served_by(inst, active)):
                ln = inst.links[i]
                p_i = sum(inst._h_cross[i, j] * inst.p_ac_pp[j] for j in active)
                want = physical_capacity(ln.bandwidth_hz, c.responsivity, ln.gain,
                                         ln.p_ac_pp, p_i, c.noise_variance)
                assert col.rate_per_ut[ut] == inst.cap[i]
                assert abs(real.rate_per_ut[ut] - want) <= 4e-16 * want
                rate[ln.ut_index] += want
            np.testing.assert_allclose(real.rate_per_ut, rate, rtol=4e-16, atol=0.0)


def test_interference_strictly_slows_a_shared_channel():
    # two terminals one cell apart hear each other, yet pass a loose threshold
    doc = helpers.pinned_config([(1.0, 1.0), (2.0, 1.0)],
                                room=(6.0, 2.0, 3.0), grid=(5, 1),
                                illum={"lower_lux": 50.0, "upper_lux": 500.0,
                                       "spacing": 0.5, "ambient_lux": 0.0})
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=1.0)
    pair = (0, 1)
    assert pair in helpers.all_independent_sets(inst)
    assert inst._h_cross[0, 1] > 0.0
    col = inst.build_column(pair)
    (real,) = inst.physical_rates([col])
    assert sum(real.rate_per_ut) < sum(col.rate_per_ut)


def test_validation_of_singletons_changes_nothing():
    # one link at a time means no concurrent interference to discover
    inst = helpers.tiny_instance(n_uts=2, seed=3)
    sol = inst.column_generation(epsilon=0.0)
    assert all(len(col.schedule.active) <= 1 for col, _ in sol.active())
    real = inst.reality_check(sol)
    assert real.stage == "reality"
    assert real.status is CgStatus.OPTIMAL
    assert real.z_upper == pytest.approx(sol.z_upper, rel=1e-9)


def test_validation_reprices_only_scheduled_columns():
    inst = helpers.tiny_instance(n_uts=4, seed=7)
    sol = inst.column_generation(epsilon=0.0)
    real = inst.reality_check(sol)
    assert len(real.columns) == len(sol.active())
    scheduled = {col.schedule.active for col, _ in sol.active()}
    assert {col.schedule.active for col in real.columns} == scheduled
    assert real.z_upper >= sol.z_upper - 1e-9  # degraded rates cannot cost less



def _record_masters(monkeypatch):
    """(inside `reality_check`?, program, held basis, solution) of every
    restricted master LP, appended as they are solved."""
    masters, inside = [], set()
    solve_lp = cg_scheduler.solve_lp

    def recording_lp(p, _warm=None):
        sol = solve_lp(p, _warm=_warm)
        if "solve_rmp" in inside:
            masters.append(("reality_check" in inside, p, _warm, sol))
        return sol

    def entered(name):
        method = getattr(SchedulingInstance, name)

        def wrapped(self, *args):
            inside.add(name)
            try:
                return method(self, *args)
            finally:
                inside.discard(name)

        monkeypatch.setattr(SchedulingInstance, name, wrapped)

    monkeypatch.setattr(cg_scheduler, "solve_lp", recording_lp)
    entered("reality_check")
    entered("solve_rmp")
    return masters


def _validation_masters(masters):
    return [m[1:] for m in masters if m[0]]


def test_validation_starts_from_the_protocol_basis(monkeypatch):
    # only the rates of the scheduled columns differ from the protocol
    # master's, so its final basis moves onto them by position; a heuristic's
    # schedule has no basis, and a basis with a dropped pattern basic does
    # not move: both start from the big-M basis, every demand bought as
    # shortfall and the frame idle. A later call's first master starts cold
    masters = _record_masters(monkeypatch)
    inst = SchedulingInstance(scenario_from_dict(default_config(seed=2)), 3.0)
    sol = inst.column_generation(epsilon=0.0)
    masters.clear()
    M, Q = len(inst.s.uts), len(sol.columns)
    chosen = [q for q in range(Q) if sol.omega[q] > cg_scheduler._OMEGA_TOL]
    assert 0 < len(chosen) < Q  # some patterns are dropped

    def moved(j):
        if j < M:
            return j  # a shortfall column
        if j < M + Q:
            return M + chosen.index(j - M)  # a scheduled pattern
        return j - (Q - len(chosen))  # a slack

    def answers_as_cold_and_highs(real, p, warm):
        # the warm answer is the cold one, and HiGHS's
        assert warm.objective == pytest.approx(lp_module.solve_lp(p).objective, rel=1e-9)
        cold = inst.solve_rmp(real.columns)
        assert real.z_upper == pytest.approx(cold.z_upper, rel=1e-9)
        assert real.feasible == cold.feasible
        highs = checks.highs_master_net(real.columns, inst.demands, real.p_illumi_min)
        assert real.z_upper - real.p_illumi_min == pytest.approx(highs, rel=1e-7, abs=1e-7)

    def started_from_big_m(real):
        ((p, held, warm),) = _validation_masters(masters)
        K = len(real.columns)
        assert held.basic.tolist() == list(range(M)) + [M + K + M]
        assert held.complemented.shape == (M + K + M + 1,)
        assert not held.complemented.any()
        answers_as_cold_and_highs(real, p, warm)

    real = inst.reality_check(sol)
    ((p, held, warm),) = _validation_masters(masters)
    assert held.basic.tolist() == [moved(j) for j in sol.basis.basic.tolist()]
    assert held.complemented.shape == (M + len(chosen) + M + 1,)
    assert not held.complemented.any()
    answers_as_cold_and_highs(real, p, warm)

    # a basis with a dropped pattern basic, as when a basic pattern sits at
    # zero (here a basic pattern's share is zeroed)
    q = next(j - M for j in sol.basis.basic.tolist() if M <= j < M + Q)
    omega = sol.omega.copy()
    omega[q] = 0.0
    masters.clear()
    started_from_big_m(inst.reality_check(replace(sol, omega=omega)))

    # a schedule of no pattern: the master prices the idle pattern alone
    masters.clear()
    idle = inst.reality_check(replace(sol, omega=np.zeros_like(sol.omega)))
    assert [col.schedule.active for col in idle.columns] == [()]
    started_from_big_m(idle)

    # a heuristic's schedule
    masters.clear()
    vico = baselines.vico_random_schedule(inst.s, seed=1, instance=inst)
    assert vico.columns
    started_from_big_m(vico)

    # a later call's first master has only the initial pool: it holds no basis
    masters.clear()
    again = inst.column_generation(epsilon=0.0)
    assert len(masters) == again.iterations and masters[0][2] is None


@pytest.mark.parametrize("doc, sir", [
    (helpers.bright_beam_config(), 3.0),
    (helpers.bright_beam_config(), 6.0),
    (default_config(seed=4), 2.0),
])
def test_warm_validation_matches_a_cold_solve(doc, sir):
    inst = SchedulingInstance(scenario_from_dict(doc), sir)
    sol = inst.column_generation(epsilon=0.0)
    real = inst.reality_check(sol)
    cold = inst.solve_rmp(real.columns)
    assert real.z_upper == pytest.approx(cold.z_upper, rel=1e-9)
    assert real.feasible == cold.feasible
    highs = checks.highs_master_net(real.columns, inst.demands, sol.p_illumi_min)
    assert real.z_upper - sol.p_illumi_min == pytest.approx(highs, rel=1e-7, abs=1e-7)


def test_sweep_validations_take_fewer_pivots_than_cold_ones(monkeypatch):
    masters = _record_masters(monkeypatch)
    cli.sweep_sir(scenario_from_dict(default_config(seed=7)), range(1, 7), epsilon=0.0)
    masters = _validation_masters(masters)
    assert len(masters) == 6 and all(held is not None for _, held, _ in masters)
    colds = [lp_module.solve_lp(p) for p, _, _ in masters]
    for (_, _, warm), cold in zip(masters, colds):
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert (sum(warm.iterations for _, _, warm in masters)
            < sum(cold.iterations for cold in colds))


# -- artifacts ------------------------------------------------------------------------

def test_iteration_log_roundtrips_through_csv(tmp_path):
    records = [IterationRecord(1, 10.5, 2.25, -3.125, 7.0, "greedy", 4),
               IterationRecord(2, 9.0, 8.75, -0.0625, 1.5, "exact")]
    columns = [f.name for f in fields(IterationRecord)]
    path = tmp_path / "iters.csv"
    cli._write_csv(path, [asdict(r) for r in records], columns)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert int(rows[0]["iteration"]) == 1
    assert float(rows[0]["z_upper"]) == 10.5
    assert float(rows[1]["z_lower"]) == 8.75
    assert float(rows[1]["reduced_cost"]) == -0.0625
    assert [float(row["wall_ms"]) for row in rows] == [7.0, 1.5]
    assert [row["pricing"] for row in rows] == ["greedy", "exact"]
    assert [int(row["columns_added"]) for row in rows] == [4, 0]
    # an empty log still writes the header
    cli._write_csv(path, [], columns)
    assert path.read_text() == ",".join(columns) + "\n"


def test_solution_records_its_settings():
    s = scenario_from_dict(helpers.tiny_config(n_uts=2, seed=1))
    sol = SchedulingInstance(s, sir_threshold=3.0).column_generation(epsilon=0.01)
    assert sol.stage == "protocol"
    assert sol.epsilon == 0.01
    assert sol.sir_threshold == 3.0
    assert sol.feasible
