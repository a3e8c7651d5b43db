"""Instance building in array passes, against the per-link loops it replaced
(the `ref_*` builders in helpers), and the pinned bits of the default
office's tables."""

import hashlib
import itertools

import numpy as np
import pytest

import helpers
from vlcopt.cg_scheduler import SchedulingInstance
from vlcopt.conflict import cap_groups, cross_gains, link_ids, pair_table, sir_matrix
from vlcopt.optics import illum_gain_many, lighting_pose
from vlcopt.scenario import default_config, scenario_from_dict

# access points of `tiny_config`'s 2 x 2 grid: 0 (0.5, 0.5), 1 (1.5, 0.5),
# 2 (0.5, 1.5), 3 (1.5, 1.5)
_TIE_TWO = [1.0, 0.5]   # as near to access point 0 as to 1
_TIE_FOUR = [1.0, 1.0]  # as near to all four


def _scenario(kind, k, flip_orientation):
    """Seeded terminals on two channels, every other one with two receivers,
    plus one terminal on a two-way and one on a four-way distance tie."""
    doc = helpers.tiny_config(n_uts=4, seed=10 + k, channels=2, k=k, kind=kind)
    placed = scenario_from_dict(doc).uts
    doc["uts"] = [{"position": list(ut.position[:2]), "demand_bps": 1e6, "receivers": 1 + i % 2}
                  for i, ut in enumerate(placed)]
    doc["uts"] += [{"position": _TIE_TWO, "demand_bps": 1e6},
                   {"position": _TIE_FOUR, "demand_bps": 1e6}]
    if flip_orientation:
        doc["rx_orientation"] = "face_serving_tx" if kind == "a" else "face_up"
    return scenario_from_dict(doc)


CASES = [pytest.param((kind, k, flip), id=f"{kind}-k{k}-{'flipped' if flip else 'default'}")
         for kind, k, flip in itertools.product("abc", (1, 2, 3), (False, True))]


@pytest.fixture(params=CASES)
def inst(request):
    return SchedulingInstance(_scenario(*request.param), sir_threshold=6.0)


def test_links_follow_the_per_terminal_sort(inst):
    s = inst.s
    nearest = helpers.ref_nearest_aps(s)
    want = [(ap, ut.index, rx, ch.index) for ut in s.uts for rx in range(ut.n_receivers)
            for ch in s.channels for ap in nearest[ut.index]]
    got = [(ln.ap_index, ln.ut_index, ln.rx_index, ln.channel_index) for ln in inst.links]
    assert got == want
    assert [ln.index for ln in inst.links] == list(range(len(inst.links)))


def test_distance_ties_go_to_the_lower_access_point(inst):
    s = inst.s
    tie_two, tie_four = len(s.uts) - 2, len(s.uts) - 1
    for ut, want in ((tie_two, [0, 1, 2]), (tie_four, [0, 1, 2])):
        served = [ln.ap_index for ln in inst.links
                  if ln.ut_index == ut and ln.channel_index == 0 and ln.rx_index == 0]
        assert served == want[: s.association_k]


def test_link_gains_and_rates_equal_the_one_link_loop(inst):
    s, rx = inst.s, inst.s.receiver
    for ln in inst.links:
        pose = ln.ac_pose
        gain = helpers.ref_channel_gain_many(
            np.array([pose.origin]), np.array([pose.direction]), np.array([pose.ml]),
            np.array([ln.rx_position]), np.array([ln.rx_normal]), area_m2=rx.area_m2,
            fov_half_deg=rx.fov_half_deg, filter_gain=rx.filter_gain,
            lens_index=rx.lens_index)[0]
        assert ln.gain == gain
        assert ln.capacity_protocol == helpers.ref_protocol_capacity(
            ln.bandwidth_hz, s.constants.responsivity, gain, ln.p_ac_pp,
            s.constants.noise_variance)


def test_gain_tables_equal_the_last_axis_kernel(inst):
    links, s = inst.links, inst.s

    def rows(values):
        return np.array(values, dtype=float).reshape(len(links), -1)

    origin = rows([ln.ac_pose.origin for ln in links])
    direction = rows([ln.ac_pose.direction for ln in links])
    ml = np.array([ln.ac_pose.ml for ln in links])
    rx = s.receiver
    h = helpers.ref_channel_gain_many(
        origin[None], direction[None], ml[None],
        rows([ln.rx_position for ln in links])[:, None],
        rows([ln.rx_normal for ln in links])[:, None],
        area_m2=np.full((len(links), 1), rx.area_m2),
        fov_half_deg=np.full((len(links), 1), rx.fov_half_deg),
        filter_gain=np.full((len(links), 1), rx.filter_gain),
        lens_index=np.full((len(links), 1), rx.lens_index))
    h[~helpers.ref_same(links, "channel_index")] = 0.0
    np.fill_diagonal(h, 0.0)
    assert np.array_equal(cross_gains(links), h)
    assert np.array_equal(inst._h_cross, h)

    pts = s.grid_points()

    def illum(poses):
        return helpers.ref_channel_gain_many(
            np.array([p.origin for p in poses])[:, None],
            np.array([p.direction for p in poses])[:, None],
            np.array([p.ml for p in poses])[:, None], pts[None], (0.0, 0.0, 1.0),
            area_m2=1.0, fov_half_deg=90.0, lens_index=1.0)

    lighting = [lighting_pose(s.aps[a], s.aps[a].chips[c]) for a, c in s.dc_transmitters()]
    assert np.array_equal(illum_gain_many(lighting, pts), illum(lighting))
    data = [ln.ac_pose for ln in links]
    assert np.array_equal(illum_gain_many(data, pts), illum(data))


def test_cap_groups_equal_the_dict_walk(inst):
    members, caps = cap_groups(link_ids(inst.links), inst.s)
    want_members, want_caps = helpers.ref_cap_groups(inst.links, inst.s)
    assert np.array_equal(members, want_members)
    assert np.array_equal(caps, want_caps)
    assert np.array_equal(inst.graph.cap_groups[0], want_members)


def test_pair_table_folds_the_attribute_masks(inst):
    links = inst.links
    sir = sir_matrix(links, cross_gains(links))
    same_channel = helpers.ref_same(links, "channel_index")
    shared = (helpers.ref_same(links, "ap_index", "chip_index")
              | helpers.ref_same(links, "ut_index", "rx_index"))
    want = np.where(shared, 0.0, np.minimum(sir, sir.T))
    want[~same_channel | np.eye(len(links), dtype=bool)] = np.inf
    table = pair_table(link_ids(links), sir)
    assert np.array_equal(table, want)
    for t in (1.0, 1.5, 3.0, 6.0, np.inf):
        adj = same_channel & (shared | (np.minimum(sir, sir.T) < t))
        np.fill_diagonal(adj, False)
        assert np.array_equal(table < t, adj), t


def test_derived_graphs_equal_fresh_instances(inst):
    for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        fresh = SchedulingInstance(inst.s, t)
        derived = inst.at_sir_threshold(t)
        assert np.array_equal(derived.graph.adjacency, fresh.graph.adjacency), t
        assert derived.graph.cap_groups is inst.graph.cap_groups


# sha256 over the default office's instance tables, recorded at the per-link
# loops' last commit; a change to it is a change to every solve's input
DEFAULT_OFFICE_TABLES_SHA256 = "225eb851871f08c70853b84b18ea5135f9b93dbbc233faf0a3f505f1d8b9c2c0"


def test_default_office_tables_keep_their_bits():
    s = scenario_from_dict(default_config())
    inst = SchedulingInstance(s, 1.0)
    members, caps = inst.graph.cap_groups
    tables = [inst.dc_light, inst.ac_light, inst._h_cross, inst.gain, inst.cap, members, caps]
    tables += [SchedulingInstance(s, float(t)).graph.adjacency for t in range(1, 7)]
    digest = hashlib.sha256()
    for table in tables:
        table = np.ascontiguousarray(table)
        digest.update(f"{table.dtype.str}{table.shape}".encode())
        digest.update(table.tobytes())
    assert digest.hexdigest() == DEFAULT_OFFICE_TABLES_SHA256
