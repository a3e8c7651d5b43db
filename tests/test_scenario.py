"""Scenario loading, validation, derived geometry, and candidate links."""

import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest

import helpers
from vlcopt.optics import channel_gain, coverage_center
from vlcopt.scenario import (
    ScenarioError,
    build_candidate_links,
    default_config,
    load_scenario,
    scenario_from_dict,
)


def test_default_office_loads():
    s = scenario_from_dict(default_config())
    assert len(s.aps) == 36
    assert len(s.uts) == 30
    assert s.grid_points().shape == (625, 3)
    assert s.channels[0].bandwidth_hz == 1e8
    assert (s.illum.lower_lux, s.illum.upper_lux) == (300.0, 500.0)
    assert s.constants.noise_variance == 4.7e-14


def test_grid_shorthand_centers_luminaires():
    s = scenario_from_dict(helpers.tiny_config())
    got = {ap.position for ap in s.aps}
    assert got == {(0.5, 0.5, 3.0), (0.5, 1.5, 3.0), (1.5, 0.5, 3.0),
                   (1.5, 1.5, 3.0)}


def test_same_seed_reproduces_terminals():
    a = scenario_from_dict(default_config(n_uts=30, seed=7))
    b = scenario_from_dict(default_config(n_uts=30, seed=7))
    assert a.digest() == b.digest()
    assert all(u.position == v.position for u, v in zip(a.uts, b.uts))


def test_different_seed_moves_terminals():
    a = scenario_from_dict(default_config(seed=1))
    b = scenario_from_dict(default_config(seed=2))
    assert a.digest() != b.digest()
    assert any(u.position != v.position for u, v in zip(a.uts, b.uts))


@pytest.mark.parametrize("kind,digest", [
    ("a", "5f6650bd3c8e829dc3ecc4c5a9c303cbc3025d6ba23ff690311a062a61ff576a"),
    ("b", "23e14377e6509201b722bc420976aa71666c6e83ae603dd498e2e0a0337ed3e4"),
    ("c", "5873359aa258d244b9078c2342bb3f0746fffae06cd8eca0fbd7f3c47b125d5c"),
])
def test_default_office_digest_is_pinned(kind, digest):
    # manifests record this digest: a change to the canonical form, or to a
    # default, must be deliberate
    assert scenario_from_dict(default_config(kind)).digest() == digest


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_parser_defaults_are_the_default_office(kind):
    # every field the document leaves out takes the default office's value
    doc = {"room": [6, 6, 3], "config_kind": kind, "uts": {"count": 30, "seed": 7}}
    assert (scenario_from_dict(doc).digest()
            == scenario_from_dict(default_config(config_kind=kind)).digest())


def _other(value):
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return tuple(v + 1.0 for v in value)
    return value * 2.0 + 1.0


def test_digest_sees_every_chip_receiver_and_constant_field():
    base = scenario_from_dict(default_config("c"))
    ap = base.aps[0]
    variants = []
    for f in dataclasses.fields(ap.chips[1]):
        chip = dataclasses.replace(ap.chips[1], **{f.name: _other(getattr(ap.chips[1], f.name))})
        chips = (ap.chips[0], chip) + ap.chips[2:]
        variants.append((f"chip.{f.name}",
                         {"aps": (dataclasses.replace(ap, chips=chips),) + base.aps[1:]}))
    for attr in ("receiver", "constants"):
        held = getattr(base, attr)
        for f in dataclasses.fields(held):
            variants.append((f"{attr}.{f.name}", {attr: dataclasses.replace(
                held, **{f.name: _other(getattr(held, f.name))})}))
    for name, change in variants:
        assert dataclasses.replace(base, **change).digest() != base.digest(), name


def test_contradictory_brightness_band_rejected():
    doc = default_config()
    doc["illum"] = {"lower_lux": 500.0, "upper_lux": 300.0}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def _changed(field, change, doc):
    doc.update(change)
    return field


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(room=[6.0, -1.0, 3.0]),
    lambda d: d.update(config_kind="z"),
    lambda d: d.update(chip={"p_ac_avg": 0.2, "p_ac_pp": 0.1}),
    lambda d: d.update(chip={"eta_ac": 0.5, "eta_dc": 0.1}),
    lambda d: d.update(receiver={"fov_half_deg": 120.0}),
    lambda d: d.update(uts={"count": 0, "seed": 1}),
    lambda d: d.update(uts=[{"position": [9.0, 9.0], "demand_bps": 1e6}]),
    lambda d: d.update(uts=[{"position": [1.0, 1.0], "demand_bps": -1.0}]),
    lambda d: d.update(channels=[]),
    lambda d: d.update(association_k=99),
    lambda d: d.update(illum={"spacing": -0.5}),
    lambda d: d.update(aps={"grid": {"ny": 2, "spacing": 1.0}}),
    lambda d: d.update(aps={"grid": {"nx": 2, "spacing": 1.0}}),
    lambda d: d.update(aps={"grid": {"nx": 2, "ny": 2}}),
    lambda d: d.update(aps=[{"chips": []}]),
    lambda d: d.update(uts={"seed": 1}),
    lambda d: d.update(uts=[{"demand_bps": 1e6}]),
    # sections and entries of the wrong JSON type
    lambda d: d.update(illum=[300.0, 500.0]),
    lambda d: d.update(receiver="wide"),
    lambda d: d.update(constants=None),
    lambda d: d.update(chip=[1.0]),
    lambda d: d.update(channels=[1e8]),
    lambda d: d.update(aps=[[0.5, 0.5, 3.0]]),
    lambda d: d.update(aps={"grid": 4}),
    lambda d: d.update(uts=[[1.0, 1.0]]),
    # wrong scalars: these return the field their error must name
    *(functools.partial(_changed, field, change) for field, change in helpers.WRONG_SCALARS),
    functools.partial(_changed, "uts.seed", {"uts": {"count": 2, "seed": -1}}),
])
def test_invariant_violations_rejected(mutate):
    doc = helpers.tiny_config()
    field = mutate(doc)
    with pytest.raises(ScenarioError, match=field and "^" + re.escape(field) + ":"):
        scenario_from_dict(doc)


def test_load_scenario_roundtrip(tmp_path):
    doc = helpers.tiny_config()
    path = tmp_path / "office.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path).digest() == scenario_from_dict(doc).digest()


def test_load_scenario_surfaces_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    # the parser's own message, under the file's name
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: ") + ".*Expecting property name"):
        load_scenario(path)


# -- candidate links -------------------------------------------------------------

def test_single_terminal_single_link():
    doc = helpers.tiny_config(n_uts=1)
    doc["aps"] = {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}
    s = scenario_from_dict(doc)
    assert len(build_candidate_links(s)) == 1


def test_candidate_link_count_formula():
    # one link per receiver, nearby luminaire, and channel
    for k, channels, uts in [(1, 1, 4), (2, 1, 4), (1, 2, 3), (2, 2, 3)]:
        s = scenario_from_dict(
            helpers.tiny_config(n_uts=uts, channels=channels, k=k))
        assert len(build_candidate_links(s)) == uts * k * channels
    assert len(build_candidate_links(scenario_from_dict(default_config()))) == 30


def test_association_prefers_nearest_luminaire():
    doc = helpers.tiny_config()
    doc["uts"] = [{"position": [0.3, 0.3], "demand_bps": 1e6}]
    s = scenario_from_dict(doc)  # luminaires at (0.5, 0.5) .. (1.5, 1.5)
    links = build_candidate_links(s)
    assert len(links) == 1
    assert s.aps[links[0].ap_index].position[:2] == (0.5, 0.5)


def test_links_always_use_k_nearest_luminaires():
    s = scenario_from_dict(helpers.tiny_config(n_uts=6, seed=9, k=2))
    ap_xy = np.array([ap.position[:2] for ap in s.aps])
    by_ut: dict[int, set[int]] = {}
    for ln in build_candidate_links(s):
        by_ut.setdefault(ln.ut_index, set()).add(ln.ap_index)
    for ut_index, chosen in by_ut.items():
        ut = np.array(s.uts[ut_index].position[:2])
        order = np.argsort(np.linalg.norm(ap_xy - ut, axis=1))
        assert chosen == set(order[:2].tolist())


def test_links_carry_consistent_precomputed_gain():
    # the links' gains come from one batch, and each equals the link's own
    # one-pair gain bit for bit
    for kind in ("a", "b", "c"):
        s = scenario_from_dict(helpers.tiny_config(n_uts=5, seed=2, kind=kind))
        for ln in build_candidate_links(s):
            assert ln.gain == pytest.approx(helpers.ref_link_gain(ln), rel=1e-9)
            rx = ln.receiver
            assert ln.gain == channel_gain(
                ln.ac_pose, ln.rx_position, ln.rx_normal, area_m2=rx.area_m2,
                fov_half_deg=rx.fov_half_deg, filter_gain=rx.filter_gain,
                lens_index=rx.lens_index), (kind, ln.index)
            assert ln.capacity_protocol >= 0.0


def test_zero_gain_link_still_emitted():
    # a terminal far outside every aperture keeps its (useless) candidate link
    doc = helpers.pinned_config([(1.0, 1.0)], room=(30.0, 2.0, 3.0), grid=(2, 1))
    doc["uts"] = [{"position": [29.0, 1.0], "demand_bps": 1e6}]
    s = scenario_from_dict(doc)
    links = build_candidate_links(s)
    assert len(links) == 1
    assert links[0].gain == 0.0
    assert links[0].capacity_protocol == 0.0


def test_selectable_configuration_serving_center_bound():
    s = scenario_from_dict(default_config("c", n_uts=30, seed=3))
    for ln in build_candidate_links(s):
        ap = s.aps[ln.ap_index]
        c = coverage_center(ap, ap.chips[ln.chip_index], s.desk_height)
        ut = s.uts[ln.ut_index].position
        d = math.hypot(c[0] - ut[0], c[1] - ut[1])
        assert d <= math.sqrt(2.0) / 4.0 + 1e-9
