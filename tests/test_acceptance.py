"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Every test records its PASS/FAIL verdict with the measured numbers before
asserting, so the terminal summary always lists all criteria that ran.
"""

import math
import time

import numpy as np
import pytest

import helpers
from vlcopt.baselines import mwis_schedule, vico_random_schedule
from vlcopt.capacity import physical_capacity, protocol_capacity
from vlcopt.cg_scheduler import CgStatus, SchedulingInstance
from vlcopt.cli import export_heatmap, sweep_sir
from vlcopt.optics import BeamPose, channel_gain, lambertian_order
from vlcopt.scenario import default_config, scenario_from_dict

SIR_DEFAULT = 3.0

# tiny-corpus shapes: 2x2 luminaire grid, 2-4 terminals, at most 8 links
_TINY_SHAPES = ((2, 1), (3, 1), (4, 2))
_TINY_SEEDS = range(1, 9)


@pytest.fixture(scope="module")
def tiny_corpus():
    """24 enumerable instances with their exact-gap solver runs, timed."""
    cases = []
    t0 = time.monotonic()
    for seed in _TINY_SEEDS:
        for n_uts, channels in _TINY_SHAPES:
            inst = helpers.tiny_instance(n_uts=n_uts, seed=seed,
                                         channels=channels, sir=SIR_DEFAULT)
            assert len(inst.links) <= 12
            sol = inst.column_generation(epsilon=1e-14)
            ref = helpers.full_pool_optimum(inst)
            cases.append((inst, sol, ref))
    return cases, time.monotonic() - t0


@pytest.fixture(scope="module")
def office_runs():
    """Default 30-terminal office solved once per gap setting, instances fresh."""
    runs = {}
    for eps in (1e-14, 0.01, 0.005):
        s = scenario_from_dict(default_config(seed=2))
        inst = SchedulingInstance(s, sir_threshold=SIR_DEFAULT)
        t0 = time.monotonic()
        sol = inst.column_generation(epsilon=eps)
        elapsed = time.monotonic() - t0
        runs[eps] = (inst, sol, elapsed)
    return runs


def _net(sol):
    return sol.z_upper - sol.p_illumi_min


def _ref_column_field(inst, col):
    """Desk illuminance of one operating state, rebuilt from raw geometry."""
    field = helpers.ref_idle_field(inst.s, col.dc_power)
    for i in col.schedule.active:
        ln = inst.links[i]
        field += inst.s.constants.luminosity_efficacy * ln.p_ac_avg * helpers.ref_illum_gains(
            inst.s, ln.ac_pose.origin, ln.ac_pose.direction, ln.ac_pose.ml)
    return field


def test_criterion_1_exhaustive_oracle_equivalence(tiny_corpus, acceptance_report):
    cases, elapsed = tiny_corpus
    worst = 0.0
    for inst, sol, ref in cases:
        gap = abs(sol.z_upper - ref.z_upper) / abs(ref.z_upper)
        worst = max(worst, gap)
    ok = worst <= 1e-6 and elapsed <= 10.0 and len(cases) >= 20
    acceptance_report(1, ok, f"{len(cases)} instances, worst relative gap "
                             f"{worst:.2e}, {elapsed:.1f}s")
    assert len(cases) >= 20
    assert worst <= 1e-6
    assert elapsed <= 10.0


def test_criterion_2_gap_certificate(office_runs, acceptance_report):
    details = []
    ok = True
    for eps in (0.01, 0.005):
        _, sol, elapsed = office_runs[eps]
        ratio = sol.z_upper / sol.z_lower if sol.z_lower > 0 else math.inf
        certified = ratio <= 1.0 + eps + 1e-12 or sol.iteration_log[-1].reduced_cost >= -1e-9
        ok &= certified and elapsed <= 120.0 and sol.feasible
        details.append(f"eps={eps}: ratio {ratio:.6f} in {sol.iterations} iters, "
                       f"{elapsed:.0f}s")
    exact_iters = office_runs[1e-14][1].iterations
    loose_iters = office_runs[0.01][1].iterations
    ok &= loose_iters < exact_iters
    details.append(f"iters {loose_iters} < {exact_iters} at eps=1e-14")
    acceptance_report(2, ok, "; ".join(details))

    for eps in (0.01, 0.005):
        _, sol, elapsed = office_runs[eps]
        assert sol.feasible
        assert (sol.z_upper / sol.z_lower <= 1.0 + eps + 1e-12
                or sol.iteration_log[-1].reduced_cost >= -1e-9)
        assert elapsed <= 120.0
    assert loose_iters < exact_iters


def test_criterion_3_illuminance_band_held(office_runs, acceptance_report,
                                           tmp_path):
    lo, hi = 300.0 - 1e-3, 500.0 + 1e-3
    worst_lo, worst_hi = math.inf, -math.inf
    n_states = 0
    for eps, (inst, sol, _) in office_runs.items():
        for col, _w in sol.active():
            field = _ref_column_field(inst, col)
            worst_lo = min(worst_lo, float(field.min()))
            worst_hi = max(worst_hi, float(field.max()))
            n_states += 1
        idle = helpers.ref_idle_field(inst.s, sol.dc_min)
        worst_lo = min(worst_lo, float(idle.min()))
        worst_hi = max(worst_hi, float(idle.max()))
        n_states += 1
    band_ok = worst_lo >= lo and worst_hi <= hi

    # the comparison scheduler run without lighting constraints must violate
    inst, _, _ = office_runs[0.01]
    dark = vico_random_schedule(inst.s, seed=2, instance=inst,
                                include_illum=False)
    _, fraction = export_heatmap(inst, dark, tmp_path / "dark.csv")
    ok = band_ok and fraction > 0.30
    acceptance_report(
        3, ok, f"{n_states} states span [{worst_lo:.3f}, {worst_hi:.3f}] lux; "
               f"unconstrained violation fraction {fraction:.2f}")
    assert band_ok
    assert fraction > 0.30


def test_criterion_4_validation_dominance(tiny_corpus, office_runs,
                                          acceptance_report):
    cases, _ = tiny_corpus
    pairs = [(inst, sol) for inst, sol, _ in cases]
    pairs += [(inst, sol) for inst, sol, _ in office_runs.values()]
    n_equal = 0
    ok = True
    worst = 0.0  # how far any validated power fell below its scheduled power
    for inst, sol in pairs:
        if not sol.feasible:
            continue
        real = inst.reality_check(sol)
        worst = max(worst, sol.z_upper - real.z_upper)
        ok &= real.z_upper >= sol.z_upper - 1e-9
        if all(len(col.schedule.active) <= 1 for col, _ in sol.active()):
            n_equal += 1
            ok &= abs(real.z_upper - sol.z_upper) <= 1e-9 * max(1.0, sol.z_upper)
    acceptance_report(4, ok, f"{len(pairs)} solutions, worst dominance "
                             f"violation {worst:.2e} W, {n_equal} "
                             f"singleton-only equal cases")
    assert ok
    assert n_equal > 0


def test_criterion_5_threshold_sweep_window(acceptance_report):
    s = scenario_from_dict(default_config(seed=7))
    lower, upper, table = sweep_sir(s, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                                    epsilon=0.01)
    flags = [row["protocol_feasible"] for row in table]
    monotone = flags == sorted(flags, reverse=True)
    window_ok = (
        lower is not None and upper is not None
        and 2.0 <= upper <= 4.0 and 1.0 <= lower <= 3.0 and lower <= upper
    )
    acceptance_report(5, monotone and window_ok,
                      f"feasibility flags {[int(f) for f in flags]}, "
                      f"workable range [{lower}, {upper}], "
                      f"expected upper in [2,4] and lower in [1,3]")
    assert monotone
    assert window_ok


def test_criterion_6_beats_heuristics(acceptance_report):
    cg, vico, mwis = [], [], []
    for seed in range(1, 11):
        s = scenario_from_dict(default_config(n_uts=35, seed=seed,
                                              demand_bps=5e6))
        inst = SchedulingInstance(s, sir_threshold=SIR_DEFAULT)
        real = inst.reality_check(inst.column_generation(epsilon=0.01))
        v = vico_random_schedule(s, seed=seed, instance=inst)
        m = mwis_schedule(s, instance=inst)
        assert real.feasible and v.feasible and m.feasible, seed
        cg.append(_net(real))
        vico.append(_net(v))
        mwis.append(_net(m))
    saving = 1.0 - np.mean(cg) / np.mean(vico)
    ok = (np.mean(cg) <= np.mean(vico) and np.mean(cg) <= np.mean(mwis)
          and saving >= 0.40)
    acceptance_report(6, ok, f"mean net W over 10 seeds: exact {np.mean(cg):.3f}, "
                             f"random {np.mean(vico):.3f}, max-weight "
                             f"{np.mean(mwis):.3f}; saving {saving:.0%}")
    assert np.mean(cg) <= np.mean(mwis)
    assert saving >= 0.40


def test_criterion_7_layout_ordering(acceptance_report):
    means = {}
    for kind in ("a", "b", "c"):
        vals = []
        for seed in range(1, 11):
            s = scenario_from_dict(default_config(config_kind=kind, n_uts=20,
                                                  seed=seed, demand_bps=1e7))
            inst = SchedulingInstance(s, sir_threshold=SIR_DEFAULT)
            real = inst.reality_check(inst.column_generation(epsilon=0.01))
            assert real.feasible, (kind, seed)
            vals.append(_net(real))
        means[kind] = float(np.mean(vals))
    spread = abs(means["b"] - means["c"]) / means["b"]
    ok = means["a"] >= 1.5 * means["b"] and spread <= 0.25
    acceptance_report(7, ok, f"mean net W: fixed-wide {means['a']:.3f}, "
                             f"steered {means['b']:.3f}, multi-chip "
                             f"{means['c']:.3f}; b-to-c spread {spread:.1%}")
    assert means["a"] >= 1.5 * means["b"]
    assert spread <= 0.25


def test_criterion_8_formula_spot_checks(acceptance_report):
    t0 = time.monotonic()
    ml_err = abs(lambertian_order(60.0) - 1.0)

    exact = True
    for h in (1e-6, 1.624e-5, 9.9e-5):
        for p in (0.05, 0.1, 0.4):
            exact &= (physical_capacity(1e8, 0.54, h, p, 0.0, 4.7e-14)
                      == protocol_capacity(1e8, 0.54, h, p, 4.7e-14))

    pose = BeamPose((0.0, 0.0, 3.0), (0.0, 0.0, -1.0), 1.0)
    near = channel_gain(pose, (0.0, 0.0, 1.9), (0.0, 0.0, 1.0),
                        area_m2=1e-4, fov_half_deg=60.0)
    far = channel_gain(pose, (0.0, 0.0, 0.8), (0.0, 0.0, 1.0),
                       area_m2=1e-4, fov_half_deg=60.0)
    inv_square = near / far == pytest.approx((2.2 / 1.1) ** 2, rel=1e-12)

    inst = SchedulingInstance(scenario_from_dict(helpers.tiny_config(n_uts=2, seed=1)),
                              SIR_DEFAULT)
    rng = np.random.default_rng(3)
    da = rng.uniform(0.0, 3.0, size=len(inst.dc_txs))
    db = rng.uniform(0.0, 3.0, size=len(inst.dc_txs))
    joint = inst.illuminance(da + db, (0, 1))
    split = inst.illuminance(da, (0,)) + inst.illuminance(db, (1,))
    linear = bool(np.allclose(joint, split, rtol=1e-9, atol=0.0))

    elapsed = time.monotonic() - t0
    ok = ml_err < 1e-15 and exact and inv_square and linear and elapsed <= 5.0
    acceptance_report(8, ok, f"order error {ml_err:.1e}, zero-interference "
                             f"reduction exact={exact}, inverse-square and "
                             f"linearity hold, {elapsed:.2f}s")
    assert ml_err < 1e-15
    assert exact
    assert inv_square
    assert linear
    assert elapsed <= 5.0
