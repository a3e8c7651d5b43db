"""Photometric geometry: orders, gains, beam poses, and the illuminance field."""

import math

import numpy as np
import pytest

import helpers
from vlcopt.cg_scheduler import SchedulingInstance
from vlcopt.cli import export_heatmap
from vlcopt.optics import (
    BeamPose,
    beam_for_link,
    channel_gain,
    channel_gain_many,
    coverage_center,
    illum_gain,
    illum_gain_many,
    lambertian_order,
    lighting_pose,
    serving_chip_index,
)
from vlcopt.scenario import build_candidate_links, default_config, scenario_from_dict

DOWN = (0.0, 0.0, -1.0)
UP = (0.0, 0.0, 1.0)


def test_lambertian_order_half_power_at_sixty_degrees():
    assert abs(lambertian_order(60.0) - 1.0) < 1e-15


def test_lambertian_order_frozen_values():
    # -ln 2 / ln cos(theta), evaluated independently
    assert lambertian_order(70.0) == pytest.approx(0.646058770348734, rel=1e-12)
    assert lambertian_order(30.0) == pytest.approx(4.81884167930642, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, 90.0, -10.0, 120.0])
def test_lambertian_order_rejects_degenerate_semi_angles(bad):
    with pytest.raises(ValueError):
        lambertian_order(bad)


# first-order emitter into a 1 cm^2, 60 degree aperture: the gain is
# _LOS_SCALE * cos(radiance) * cos(incidence) / distance^2
_LOS_SCALE = 2.0 * 1e-4 / (2.0 * math.pi) * 1.5**2 / math.sin(math.radians(60.0)) ** 2


def test_link_geometry_collinear():
    # 2.2 m straight down: both angles are zero
    g = channel_gain(BeamPose((0.0, 0.0, 3.0), DOWN, 1.0), (0.0, 0.0, 0.8), UP,
                     area_m2=1e-4, fov_half_deg=60.0)
    assert g == pytest.approx(_LOS_SCALE / 2.2**2, rel=1e-12)


def test_link_geometry_forty_five_degree_offset():
    # 2.2 m over, 2.2 m down: range 2.2*sqrt(2), both angles pi/4; the batch
    # gives each pair exactly what the one-pair form gives
    tx = BeamPose((0.0, 0.0, 3.0), DOWN, 1.0)
    rx = np.array([(0.0, 0.0, 0.8), (2.2, 0.0, 0.8)])
    g = channel_gain_many(tx.origin, tx.direction, tx.ml, rx, UP,
                          area_m2=1e-4, fov_half_deg=60.0)
    want = _LOS_SCALE * math.cos(math.pi / 4.0) ** 2 / (2.2 * math.sqrt(2.0)) ** 2
    assert g[1] == pytest.approx(want, rel=1e-12)
    for p, got in zip(rx, g):
        assert got == channel_gain(tx, p, UP, area_m2=1e-4, fov_half_deg=60.0)


def test_link_geometry_rejects_coincident_points():
    with pytest.raises(ValueError):
        channel_gain(BeamPose((0.0, 0.0, 3.0), DOWN, 1.0), (0.0, 0.0, 3.0), UP,
                     area_m2=1e-4, fov_half_deg=60.0)


def test_channel_gain_normalises_receiver_normal():
    tx = BeamPose((0.0, 0.0, 3.0), DOWN, 1.0)
    kw = dict(area_m2=1e-4, fov_half_deg=60.0)
    assert channel_gain(tx, (1.0, 0.0, 0.8), (0.0, 0.0, 2.0), **kw) == \
        pytest.approx(channel_gain(tx, (1.0, 0.0, 0.8), UP, **kw), rel=1e-15)
    with pytest.raises(ValueError):
        channel_gain(tx, (0.0, 0.0, 0.8), (0.0, 0.0, 0.0), **kw)


def test_channel_gain_zero_outside_field_of_view():
    # incidence is atan(4/2.2) ~ 61.2 degrees, just past a 60 degree aperture
    tx = BeamPose((0.0, 0.0, 3.0), DOWN, 1.0)
    assert channel_gain(tx, (4.0, 0.0, 0.8), UP, area_m2=1e-4, fov_half_deg=60.0) == 0.0


def test_channel_gain_on_axis_frozen_value():
    tx = BeamPose((0.0, 0.0, 3.0), DOWN, 1.0)
    g = channel_gain(tx, (0.0, 0.0, 0.8), UP, area_m2=1e-4, fov_half_deg=60.0,
                     filter_gain=1.0, lens_index=1.5)
    assert g == pytest.approx(1.972995162296223e-05, rel=1e-12)


def test_channel_gain_inverse_square():
    near = channel_gain(BeamPose((0.0, 0.0, 1.9), DOWN, 1.0), (0.0, 0.0, 0.8), UP,
                        area_m2=1e-4, fov_half_deg=60.0)
    far = channel_gain(BeamPose((0.0, 0.0, 3.0), DOWN, 1.0), (0.0, 0.0, 0.8), UP,
                       area_m2=1e-4, fov_half_deg=60.0)
    assert near == pytest.approx(4.0 * far, rel=1e-12)


def test_channel_gain_matches_reference_at_random_offsets():
    rng = np.random.default_rng(3)
    order = helpers.ref_lambertian(70.0)
    tx = BeamPose((1.0, 1.0, 3.0), DOWN, order)
    for _ in range(50):
        p = (float(rng.uniform(0, 2)), float(rng.uniform(0, 2)), 0.8)
        got = channel_gain(tx, p, UP, area_m2=1e-4, fov_half_deg=60.0)
        want = helpers.ref_channel_gain((1.0, 1.0, 3.0), DOWN, order, p, UP,
                                        1e-4, 60.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-18)


def test_illum_gain_below_wide_chip_frozen_value():
    pose = BeamPose((0.0, 0.0, 3.0), DOWN, lambertian_order(70.0))
    assert illum_gain(pose, (0.0, 0.0, 0.8)) == pytest.approx(0.05412776651255537,
                                                              rel=1e-12)


def test_illum_gain_vanishes_at_right_angle():
    pose = BeamPose((0.0, 0.0, 3.0), DOWN, 1.0)
    assert illum_gain(pose, (5.0, 0.0, 3.0)) == 0.0


def test_illum_gain_has_no_aperture_cutoff():
    # grazing geometry far beyond any detector FOV still receives light
    pose = BeamPose((0.0, 0.0, 3.0), DOWN, lambertian_order(70.0))
    assert illum_gain(pose, (40.0, 0.0, 0.8)) > 0.0


def test_illum_gain_decreases_with_horizontal_offset():
    pose = BeamPose((0.0, 0.0, 3.0), DOWN, lambertian_order(70.0))
    offsets = np.linspace(0.0, 2.7, 12)
    pts = np.column_stack([offsets, np.zeros_like(offsets),
                           np.full_like(offsets, 0.8)])
    g = illum_gain_many([pose], pts)[0]
    assert np.all(np.diff(g) < 0.0)


def test_one_pair_gains_equal_their_batched_entries():
    # numpy scalars and arrays raise to a power by different routines that
    # disagree in the last ulp on some inputs; the one-pair forms must give
    # exactly what the instance's batched tables hold
    doc = default_config(n_uts=60)
    doc["illum"]["spacing"] = 0.5
    inst = SchedulingInstance(scenario_from_dict(doc))
    rho = inst.s.constants.luminosity_efficacy
    for i, victim in enumerate(inst.links):
        r = victim.receiver
        for j, ln in enumerate(inst.links):
            if j != i and ln.channel_index == victim.channel_index:
                g = channel_gain(ln.ac_pose, victim.rx_position, victim.rx_normal,
                                 area_m2=r.area_m2, fov_half_deg=r.fov_half_deg,
                                 filter_gain=r.filter_gain, lens_index=r.lens_index)
                assert g == inst._h_cross[i, j], (i, j)
    for t, (a, c) in enumerate(inst.dc_txs):
        pose = lighting_pose(inst.s.aps[a], inst.s.aps[a].chips[c])
        for k, point in enumerate(inst.pts):
            assert rho * illum_gain(pose, point) == inst.dc_light[t, k], (t, k)


# -- beam poses per luminaire configuration ------------------------------------

def _one_ap_scenario(kind, ut_xy=(1.3, 0.7)):
    doc = helpers.tiny_config(kind=kind)
    doc["aps"] = {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}
    doc["uts"] = [{"position": list(ut_xy), "demand_bps": 1e6}]
    return scenario_from_dict(doc)


def test_fixed_configuration_keeps_both_beams_vertical():
    s = _one_ap_scenario("a")
    ap = s.aps[0]
    ac = beam_for_link("a", ap, ap.chips[0], s.uts[0].position)
    dc = lighting_pose(ap, ap.chips[0])
    assert np.allclose(ac.direction, DOWN) and np.allclose(dc.direction, DOWN)
    assert ac.ml == pytest.approx(lambertian_order(70.0), rel=1e-12)
    assert dc.ml == pytest.approx(lambertian_order(70.0), rel=1e-12)


def test_steerable_configuration_tracks_terminal():
    s = _one_ap_scenario("b", ut_xy=(2.0, 1.0))  # 1 m east of the luminaire
    ap = s.aps[0]
    ac = beam_for_link("b", ap, ap.chips[0], s.uts[0].position)
    dc = lighting_pose(ap, ap.chips[0])
    want = np.array([1.0, 0.0, -2.2])
    want /= np.linalg.norm(want)
    assert np.allclose(ac.direction, want, atol=1e-12)
    assert np.allclose(dc.direction, DOWN)
    assert ac.ml == pytest.approx(lambertian_order(30.0), rel=1e-12)
    assert dc.ml == pytest.approx(lambertian_order(70.0), rel=1e-12)


def test_steerable_configuration_zero_radiance_angle():
    s = scenario_from_dict(helpers.tiny_config(kind="b", n_uts=6, seed=3))
    for ln in build_candidate_links(s):
        d = np.subtract(ln.rx_position, ln.ac_pose.origin)
        d /= np.linalg.norm(d)
        # sine of the radiance angle, exact near zero where acos is not
        assert np.linalg.norm(np.cross(ln.ac_pose.direction, d)) <= 1e-9
        assert np.dot(ln.ac_pose.direction, d) > 0.0


def test_selectable_configuration_coverage_centers():
    s = _one_ap_scenario("c")  # luminaire at (1, 1, 3), cell width 1, 2x2 beams
    ap = s.aps[0]
    centers = {
        (round(coverage_center(ap, ch, s.desk_height)[0], 9),
         round(coverage_center(ap, ch, s.desk_height)[1], 9))
        for ch in ap.chips if ch.role == "peripheral"
    }
    assert centers == {(0.75, 0.75), (0.75, 1.25), (1.25, 0.75), (1.25, 1.25)}


def test_selectable_configuration_serving_chip_is_nearest():
    s = _one_ap_scenario("c", ut_xy=(1.3, 1.3))
    ap = s.aps[0]
    idx = serving_chip_index(ap, (1.3, 1.3, 0.8))
    c = coverage_center(ap, ap.chips[idx], 0.8)
    assert (c[0], c[1]) == (1.25, 1.25)


def test_selectable_configuration_rejects_non_serving_chips():
    s = _one_ap_scenario("c", ut_xy=(1.3, 1.3))
    ap = s.aps[0]
    ut = s.uts[0].position
    serving = serving_chip_index(ap, ut)
    central = next(i for i, c in enumerate(ap.chips) if c.role == "central")
    other = next(i for i, c in enumerate(ap.chips)
                 if c.role == "peripheral" and i != serving)
    with pytest.raises(ValueError):
        beam_for_link("c", ap, ap.chips[central], ut)
    with pytest.raises(ValueError):
        beam_for_link("c", ap, ap.chips[other], ut)


def test_selectable_configuration_coverage_radius_monte_carlo():
    """10^4 random desk points all sit within sqrt(2)*l/(2n) of some beam center."""
    s = scenario_from_dict(default_config("c", n_uts=1, seed=1))
    ap_xy = np.array([ap.position[:2] for ap in s.aps])
    per_ap = []
    for ap in s.aps:
        cs = [coverage_center(ap, ch, s.desk_height)[:2]
              for ch in ap.chips if ch.role == "peripheral"]
        per_ap.append(np.asarray(cs))
    rng = np.random.default_rng(11)
    pts = rng.uniform([0.0, 0.0], [6.0, 6.0], size=(10_000, 2))
    nearest = np.argmin(
        np.linalg.norm(pts[:, None, :] - ap_xy[None, :, :], axis=2), axis=1)
    worst = 0.0
    for p, ap_i in zip(pts, nearest):
        d = float(np.min(np.linalg.norm(per_ap[ap_i] - p, axis=1)))
        worst = max(worst, d)
    assert worst <= 0.35356


# -- illuminance field ---------------------------------------------------------

def test_illuminance_field_idle_is_ambient(tmp_path):
    doc = helpers.tiny_config(demand_bps=0.0)
    doc["illum"] = {"lower_lux": 0.0, "upper_lux": 500.0, "spacing": 0.5,
                    "ambient_lux": 7.5}
    inst = SchedulingInstance(scenario_from_dict(doc), sir_threshold=3.0)
    sol = inst.column_generation(epsilon=0.0)
    assert sol.active() == []  # nothing to serve: the frame idles, lights off
    rows, _ = export_heatmap(inst, sol, tmp_path / "idle.csv")
    field = np.array([[r["e_min"], r["e_max"]] for r in rows])
    assert np.allclose(field, 7.5, atol=1e-12)


def test_illuminance_field_single_source_frozen_product():
    # 12.5 W optical through gain 0.05413 at 300 lm/W lands at ~203 lux
    doc = helpers.tiny_config()
    doc["aps"] = {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}
    doc["uts"] = [{"position": [1.0, 1.0], "demand_bps": 0.0}]
    doc["illum"] = {"points": [[1.0, 1.0]], "lower_lux": 0.0,
                    "upper_lux": 1000.0, "ambient_lux": 0.0}
    inst = SchedulingInstance(scenario_from_dict(doc))
    field = inst.illuminance(np.array([12.5]), ())
    assert field.shape == (1,)
    assert field[0] == pytest.approx(202.97912442208263, rel=1e-9)


def test_illuminance_field_additive_in_sources():
    inst = SchedulingInstance(scenario_from_dict(helpers.tiny_config(n_uts=3, seed=5)))
    rng = np.random.default_rng(0)
    n_tx = len(inst.dc_txs)
    a = rng.uniform(0.0, 6.0, n_tx)
    b = rng.uniform(0.0, 6.0, n_tx)
    fa = inst.illuminance(a, (0, 1))
    fb = inst.illuminance(b, ())
    combined = inst.illuminance(a + b, (0, 1))
    assert np.allclose(combined, fa + fb, rtol=1e-9, atol=1e-12)
