"""Shannon rates under exclusion and under explicit optical interference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from vlcopt.capacity import physical_capacity, protocol_capacity
from vlcopt.conflict import cross_gains
from vlcopt.scenario import build_candidate_links, scenario_from_dict

BAND = 1e8
GAMMA = 0.54
NOISE = 4.7e-14


def test_protocol_capacity_zero_gain():
    assert protocol_capacity(BAND, GAMMA, 0.0, 0.1, NOISE) == 0.0


def test_protocol_capacity_frozen_value():
    got = protocol_capacity(BAND, GAMMA, 1.624e-5, 0.1, NOISE)
    assert got == pytest.approx(411794051.8999676, rel=1e-9)


def test_protocol_capacity_power_doubling_identity():
    s = (GAMMA * 1.624e-5 * 0.1) ** 2
    want = BAND * math.log2((NOISE + 4.0 * s) / (NOISE + s))
    got = (protocol_capacity(BAND, GAMMA, 1.624e-5, 0.2, NOISE)
           - protocol_capacity(BAND, GAMMA, 1.624e-5, 0.1, NOISE))
    assert got == pytest.approx(want, rel=1e-9)


def test_physical_reduces_to_protocol_without_interference():
    a = physical_capacity(BAND, GAMMA, 1.624e-5, 0.1, 0.0, NOISE)
    b = protocol_capacity(BAND, GAMMA, 1.624e-5, 0.1, NOISE)
    assert a == b


def test_physical_capacity_with_noise_matched_interference():
    # interference tuned so its squared photocurrent equals the noise variance
    p_i = math.sqrt(NOISE) / GAMMA
    s = (GAMMA * 1.624e-5 * 0.1) ** 2
    got = physical_capacity(BAND, GAMMA, 1.624e-5, 0.1, p_i, NOISE)
    assert got == pytest.approx(BAND * math.log2(1.0 + s / (2.0 * NOISE)), rel=1e-12)


def test_two_equal_links_each_lose_capacity():
    h = 1.624e-5
    each = physical_capacity(BAND, GAMMA, h, 0.1, h * 0.1, NOISE)
    alone = protocol_capacity(BAND, GAMMA, h, 0.1, NOISE)
    assert each < alone


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        protocol_capacity(BAND, GAMMA, -1e-5, 0.1, NOISE)
    with pytest.raises(ValueError):
        physical_capacity(BAND, GAMMA, 1e-5, 0.1, -1e-3, NOISE)


def test_arrays_rate_each_element_as_a_scalar_call_would():
    h = np.array([1e-6, 1.624e-5, 9.9e-5])
    p_i = np.array([0.0, 1e-6, 3e-5])
    got = physical_capacity(BAND, GAMMA, h, 0.1, p_i, NOISE)
    assert got.shape == (3,)
    for k in range(3):
        want = physical_capacity(BAND, GAMMA, float(h[k]), 0.1, float(p_i[k]), NOISE)
        assert abs(got[k] - want) <= 4e-16 * want


@pytest.mark.parametrize("name, position, bad", [
    ("bandwidth_hz", 0, -1.0),
    ("responsivity", 1, 0.0),
    ("gain", 2, -1e-5),
    ("p_ac", 3, -0.1),
    ("p_interference", 4, -1e-3),
    ("noise_variance", 5, 0.0),
])
def test_a_bad_element_of_an_array_is_rejected(name, position, bad):
    args = [np.array([BAND, BAND]), np.array([GAMMA, GAMMA]), np.array([1e-5, 2e-5]),
            np.array([0.1, 0.2]), np.array([0.0, 1e-6]), np.array([NOISE, NOISE])]
    physical_capacity(*args)  # every element fine
    args[position] = args[position].copy()
    args[position][1] = bad
    with pytest.raises(ValueError, match=f"^{name}={bad}: must be"):
        physical_capacity(*args)


# -- interference aggregation ---------------------------------------------------

def interference_power(links, victim, active):
    """Optical interference (W) at link `victim`'s receiver from the active links."""
    h = cross_gains(links)
    return sum(h[victim, j] * links[j].p_ac_pp for j in active)


def _row_links(n, room_x):
    positions = [(float(x), 1.0) for x in range(1, n + 1)]
    s = scenario_from_dict(helpers.pinned_config(
        positions, room=(room_x, 2.0, 3.0), grid=(n, 1)))
    return s, build_candidate_links(s)


def test_lone_link_sees_no_interference():
    _, links = _row_links(3, 4.0)
    assert interference_power(links, 0, [0]) == 0.0


def test_interferer_outside_fov_contributes_nothing():
    # 4 m of lateral offset puts the interferer past the 60 degree aperture
    _, links = _row_links(5, 6.0)
    assert interference_power(links, 0, [0, 4]) == 0.0


def test_symmetric_interferers_add_up():
    _, links = _row_links(3, 4.0)
    one = interference_power(links, 1, [0, 1])
    both = interference_power(links, 1, [0, 1, 2])
    assert one > 0.0
    assert both == pytest.approx(2.0 * one, rel=1e-12)


def test_interference_matches_reference_gains():
    _, links = _row_links(3, 4.0)
    want = sum(helpers.ref_channel_gain(
        other.ac_pose.origin, other.ac_pose.direction, other.ac_pose.ml,
        links[1].rx_position, links[1].rx_normal,
        links[1].receiver.area_m2, links[1].receiver.fov_half_deg)
        * other.p_ac_pp
        for other in (links[0], links[2]))
    got = interference_power(links, 1, range(len(links)))
    assert got == pytest.approx(want, rel=1e-9)


def test_cross_channel_links_do_not_interfere():
    s = scenario_from_dict(helpers.pinned_config(
        [(1.0, 1.0), (2.0, 1.0)], channels=2))
    links = build_candidate_links(s)
    other = next(i for i, ln in enumerate(links)
                 if ln.channel_index != links[0].channel_index)
    assert interference_power(links, 0, [0, other]) == 0.0


# -- order properties ------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(h=st.floats(1e-9, 1e-3), p=st.floats(1e-4, 10.0),
       p_i=st.floats(0.0, 1.0), scale=st.floats(1.01, 4.0))
def test_capacity_monotonicity(h, p, p_i, scale):
    base = physical_capacity(BAND, GAMMA, h, p, p_i, NOISE)
    assert physical_capacity(BAND, GAMMA, h * scale, p, p_i, NOISE) >= base
    assert physical_capacity(BAND, GAMMA, h, p * scale, p_i, NOISE) >= base
    assert physical_capacity(BAND, GAMMA, h, p, p_i * scale, NOISE) <= base
    assert physical_capacity(BAND, GAMMA, h, p, p_i, NOISE * scale) <= base


@settings(max_examples=80, deadline=None)
@given(h=st.floats(1e-9, 1e-3), p=st.floats(1e-4, 10.0), p_i=st.floats(0.0, 1.0))
def test_physical_never_exceeds_protocol(h, p, p_i):
    assert (physical_capacity(BAND, GAMMA, h, p, p_i, NOISE)
            <= protocol_capacity(BAND, GAMMA, h, p, NOISE))
