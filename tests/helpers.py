"""Builders and independent reference implementations shared by the tests.

The reference functions re-derive expected values straight from the model
formulas with plain math so the package code is never its own oracle.
"""

import functools
import itertools
import math

import numpy as np

from vlcopt.cg_scheduler import IlluminationInfeasible, SchedulingInstance
from vlcopt.conflict import ScheduleVector, is_independent
from vlcopt.scenario import default_config, scenario_from_dict


def tiny_config(n_uts=2, seed=1, demand_bps=5e6, channels=1, k=1, kind="a",
                **extra):
    """Desk-sized room with a 2x2 luminaire grid, small enough to enumerate."""
    doc = default_config(
        config_kind=kind,
        n_uts=n_uts,
        seed=seed,
        demand_bps=demand_bps,
        room=[2.0, 2.0, 3.0],
        aps={"grid": {"nx": 2, "ny": 2, "spacing": 1.0}},
        channels=[{"bandwidth_hz": 1e8} for _ in range(channels)],
        illum={"lower_lux": 300.0, "upper_lux": 500.0, "spacing": 0.5,
               "ambient_lux": 0.0},
        association_k=k,
    )
    doc.update(extra)
    return doc


def unlit_links_config():
    """A 4 m room under 2x2 luminaires 2 m apart, layout c, 5 W data beams
    and a 150-lux floor: the lighting floor solves, but every data beam
    draws so much of its access point's budget that a desk corner goes
    dark, so no link admits lighting on its own."""
    doc = tiny_config(n_uts=5, seed=3, demand_bps=4e8, kind="c", room=[4.0, 4.0, 3.0],
                      aps={"grid": {"nx": 2, "ny": 2, "spacing": 2.0}},
                      illum={"lower_lux": 150.0, "upper_lux": 500.0, "spacing": 0.5,
                             "ambient_lux": 0.0})
    doc["chip"].update(p_ac_pp=5.0)
    return doc


def bright_beam_config():
    """Six terminals under 2x2 luminaires, layout b, with 5 W data beams:
    a solve at any SIR threshold adds an upper illuminance row to those the
    initial columns left."""
    doc = tiny_config(n_uts=6, seed=8, demand_bps=4e8, channels=2, kind="b")
    doc["chip"].update(p_ac_pp=5.0)
    return doc


# (field the error must name, change to `tiny_config`): scalars of the wrong
# type, and non-whole values in the integer fields
WRONG_SCALARS = [
    ("chip.p_max", {"chip": {"p_max": "abc"}}),
    ("room", {"room": ["a", "b", "c"]}),
    ("channels[0].bandwidth_hz", {"channels": [{"bandwidth_hz": "x"}]}),
    ("illum.points", {"illum": {"points": [3.0]}}),
    ("illum.lower_lux", {"illum": {"lower_lux": None}}),
    ("uts.count", {"uts": {"count": "x"}}),
    ("uts[0].position", {"uts": [{"position": 5}]}),
    ("aps.grid.nx", {"aps": {"grid": {"nx": 2.5, "ny": 2, "spacing": 1.0}}}),
    ("aps.grid.ny", {"aps": {"grid": {"nx": 2, "ny": "2", "spacing": 1.0}}}),
    ("uts.count", {"uts": {"count": 2.5}}),
    ("association_k", {"association_k": 1.5}),
    ("config_c_n", {"config_kind": "c", "config_c_n": 2.5}),
    ("uts[0].receivers", {"uts": [{"position": [1.0, 1.0], "receivers": 1.5}]}),
    # non-finite numbers, which JSON spells Infinity and NaN
    ("chip.p_max", {"chip": {"p_max": math.inf}}),
    ("receiver.area_m2", {"receiver": {"area_m2": math.inf}}),
    ("channels[0].bandwidth_hz", {"channels": [{"bandwidth_hz": math.inf}]}),
    ("constants.responsivity", {"constants": {"responsivity": math.inf}}),
    ("illum.upper_lux", {"illum": {"upper_lux": math.inf}}),
    ("illum.lower_lux", {"illum": {"lower_lux": math.nan}}),
    ("room", {"room": [2.0, math.inf, 3.0]}),
    ("uts.demand_bps", {"uts": {"count": 1, "seed": 1, "demand_bps": math.inf}}),
    ("uts[0].demand_bps", {"uts": [{"position": [1.0, 1.0], "demand_bps": math.inf}]}),
]


def tiny_instance(sir=3.0, **kw):
    return SchedulingInstance(scenario_from_dict(tiny_config(**kw)),
                              sir_threshold=sir)


def pinned_config(positions, demand_bps=1e6, room=(4.0, 2.0, 3.0),
                  grid=(3, 1), **extra):
    """Terminals at explicit desk positions under a single-row luminaire grid."""
    doc = tiny_config(demand_bps=demand_bps, **extra)
    doc["room"] = list(room)
    doc["aps"] = {"grid": {"nx": grid[0], "ny": grid[1], "spacing": 1.0}}
    doc["uts"] = [
        {"position": [float(x), float(y)], "demand_bps": demand_bps}
        for x, y in positions
    ]
    return doc


def all_independent_sets(inst):
    """Every nonempty feasible activation pattern, by exhaustive subset search."""
    n = inst.graph.n_links
    found = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if is_independent(ScheduleVector(combo), inst.graph):
                found.append(combo)
    return found


def full_pool(inst):
    """All buildable columns, idle pattern included."""
    cols = []
    for combo in [()] + all_independent_sets(inst):
        try:
            cols.append(inst.build_column(combo))
        except IlluminationInfeasible:
            continue
    return cols


def full_pool_optimum(inst):
    """Reference optimum: a single LP over every enumerable column."""
    return inst.solve_rmp(full_pool(inst))


def ref_reduced_cost(inst, col, lambda_bps, mu):
    p0 = inst.min_illumination_power()[0]
    credit = float(np.dot(lambda_bps, col.rate_per_ut))
    return col.electrical_total - p0 - credit - mu


def ref_greedy_insert(adjacency, groups, caps, order):
    """Maximal independent set grown in link order `order` by a plain scan:
    a link joins unless it is adjacent to a member or one of its cap groups
    already holds its cap of members."""
    used = np.zeros(len(caps))
    members = []
    for i in order:
        mine = groups[:, i]
        if adjacency[i, members].any() or np.any(used[mine] >= caps[mine]):
            continue
        members.append(i)
        used[mine] += 1
    return members


# -- reference photometry -----------------------------------------------------

def ref_lambertian(theta_half_deg):
    return -math.log(2.0) / math.log(math.cos(math.radians(theta_half_deg)))


def ref_channel_gain(origin, direction, order, rx_pos, rx_normal, area_m2,
                     fov_half_deg, filter_gain=1.0, lens_index=1.5):
    d = np.asarray(rx_pos, float) - np.asarray(origin, float)
    dist = float(np.linalg.norm(d))
    u = d / dist
    cos_t = float(np.dot(u, np.asarray(direction, float)))
    cos_p = float(np.dot(-u, np.asarray(rx_normal, float)))
    if cos_p < math.cos(math.radians(fov_half_deg)):
        return 0.0
    conc = lens_index ** 2 / math.sin(math.radians(fov_half_deg)) ** 2
    return ((order + 1.0) * area_m2 / (2.0 * math.pi * dist * dist)
            * max(cos_t, 0.0) ** order * filter_gain * conc * max(cos_p, 0.0))


def ref_illum_gain(origin, direction, order, pt):
    """Lux per optical W per unit efficacy at an upward-facing desk point."""
    d = np.asarray(pt, float) - np.asarray(origin, float)
    dist = float(np.linalg.norm(d))
    u = d / dist
    cos_t = float(np.dot(u, np.asarray(direction, float)))
    cos_p = float(np.dot(-u, [0.0, 0.0, 1.0]))
    return ((order + 1.0) / (2.0 * math.pi * dist * dist)
            * max(cos_t, 0.0) ** order * max(cos_p, 0.0))


@functools.cache
def ref_illum_gains(s, origin, direction, order):
    """ref_illum_gain of one emitter at every grid point of `s`, computed once
    per scenario and emitter, so fields over many states only sum them."""
    gains = np.array([ref_illum_gain(origin, direction, order, pt)
                      for pt in s.grid_points()])
    gains.flags.writeable = False
    return gains


def ref_idle_field(s, dc):
    """Illuminance at every grid point from lighting chips alone."""
    rho = s.constants.luminosity_efficacy
    field = np.full(s.grid_points().shape[0], float(s.illum.ambient_lux))
    for (a, c), p_opt in zip(s.dc_transmitters(), dc):
        order = ref_lambertian(s.aps[a].chips[c].theta_half_dc_deg)
        field += rho * p_opt * ref_illum_gains(s, s.aps[a].position, (0.0, 0.0, -1.0), order)
    return field


def ref_link_gain(ln):
    """Channel gain of a built link, recomputed from its stored geometry."""
    return ref_channel_gain(
        ln.ac_pose.origin, ln.ac_pose.direction, ln.ac_pose.ml,
        ln.rx_position, ln.rx_normal,
        ln.receiver.area_m2, ln.receiver.fov_half_deg,
        ln.receiver.filter_gain, ln.receiver.lens_index,
    )


# -- reference instance building: the per-link loops the array passes replaced --

def ref_nearest_aps(s):
    """Each terminal's k nearest access points, nearest first and ties to
    the lower index, by one sort per terminal."""
    ap_xy = np.array([ap.position[:2] for ap in s.aps])
    out = []
    for ut in s.uts:
        d = np.linalg.norm(ap_xy - np.asarray(ut.position[:2]), axis=1)
        out.append(sorted(range(len(s.aps)), key=lambda i: (d[i], i))[: s.association_k])
    return out


def ref_channel_gain_many(origin, direction, ml, rx_position, rx_normal, *, area_m2,
                          fov_half_deg, filter_gain=1.0, lens_index=1.5):
    """The LOS kernel on points and directions along a last axis of 3, with
    the operations of `optics.channel_gain_many` in the same order."""

    def dot3(a, b):
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]

    origin, direction, rx_position, rx_normal = (
        np.asarray(v, dtype=float) for v in (origin, direction, rx_position, rx_normal))
    n_len = np.sqrt(dot3(rx_normal, rx_normal))
    d = rx_position - origin
    dist = np.sqrt(dot3(d, d))
    u = d / dist[..., None]
    cos_rad = np.maximum(dot3(u, direction), 0.0)
    cos_inc = -dot3(u, rx_normal / n_len[..., None])
    fov = np.radians(fov_half_deg)
    sin_fov = np.sin(fov)
    gain = ((ml + 1.0) * area_m2 / (2.0 * math.pi * dist * dist) * cos_rad**ml * filter_gain
            * (lens_index * lens_index / (sin_fov * sin_fov)) * cos_inc)
    return np.where((cos_inc >= np.cos(fov)) & (cos_inc > 0.0), gain, 0.0)


def ref_protocol_capacity(bandwidth_hz, responsivity, gain, p_ac, noise_variance):
    """One link's interference-free rate from plain floats."""
    snr = (responsivity * gain * p_ac) ** 2 / noise_variance
    return bandwidth_hz * float(np.log2(1.0 + snr))


def ref_same(links, *attrs):
    """(L, L) mask of link pairs that agree on every named attribute."""
    k = np.array([[getattr(ln, a) for a in attrs] for ln in links]).reshape(len(links), len(attrs))
    return np.all(k[:, None, :] == k[None, :, :], axis=-1)


def ref_cap_groups(links, s):
    """Activation caps as (members, caps), grouped by a dict walk over the
    links: per chip, per receiver, per access point, per terminal, each kind
    in order of first appearance."""
    kinds = (
        lambda ln: (("tx", ln.ap_index, ln.chip_index), 1),
        lambda ln: (("rx", ln.ut_index, ln.rx_index), 1),
        lambda ln: (("ap", ln.ap_index), s.ap_concurrency_cap(ln.ap_index)),
        lambda ln: (("ut", ln.ut_index), s.uts[ln.ut_index].n_receivers),
    )
    groups = {}
    for group_of in kinds:
        for i, ln in enumerate(links):
            key, cap = group_of(ln)
            groups.setdefault(key, (cap, []))[1].append(i)
    members = np.zeros((len(groups), len(links)), dtype=bool)
    for g, (_, idx) in enumerate(groups.values()):
        members[g, idx] = True
    return members, np.array([cap for cap, _ in groups.values()], dtype=float)


# -- reference pricing rows -----------------------------------------------------

def ref_clique_cover(adjacency):
    """Greedy clique cover of all edges as a (cliques, L) boolean matrix, by
    a plain scan: each uncovered edge (i, j) in row-major order seeds a
    clique, which then takes, in index order, every vertex adjacent to all
    its members."""
    L = adjacency.shape[0]
    covered = np.zeros_like(adjacency)
    cliques = []
    for i in range(L):
        for j in range(i + 1, L):
            if not adjacency[i, j] or covered[i, j]:
                continue
            clique = np.zeros(L, dtype=bool)
            clique[[i, j]] = True
            mask = adjacency[i] & adjacency[j]
            mask[i] = mask[j] = False
            for v in range(L):
                if mask[v]:
                    clique[v] = True
                    mask &= adjacency[v]
            members = np.nonzero(clique)[0]
            covered[np.ix_(members, members)] = True
            cliques.append(clique)
    return np.array(cliques, dtype=bool).reshape(-1, L)


def ref_static_pattern_rows(inst):
    """The pricing MILP's rows over the links alone: the reference clique
    cover's cliques, then the multiplicity caps, each (members, cap) with
    two or more members and kept where it first occurs."""
    cliques = ref_clique_cover(inst.graph.adjacency)
    groups, caps = inst.graph.cap_groups
    a = np.vstack([cliques, groups]).astype(float)
    b = np.concatenate([np.ones(len(cliques)), caps])
    rows = np.nonzero(a.sum(1) >= 2)[0]
    _, first = np.unique(np.column_stack([a, b])[rows], axis=0, return_index=True)
    rows = rows[np.sort(first)]
    return a[rows], b[rows]
