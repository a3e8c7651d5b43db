"""Pairwise interference ratios and activation-pattern validity rules."""

import itertools
import math

import numpy as np
import pytest

import helpers
from vlcopt.conflict import (
    ScheduleVector,
    build_conflict_graph,
    cross_gains,
    is_independent,
    sir_matrix,
)
from vlcopt.scenario import build_candidate_links, scenario_from_dict


def _row(positions, **kw):
    return scenario_from_dict(helpers.pinned_config(positions, **kw))


def _sir(links, i, j):
    """(SIR at link i's receiver from link j, SIR at j's receiver from i)."""
    sir = sir_matrix(links, cross_gains(links))
    return sir[i, j], sir[j, i]


def _ref_gain(victim, rival):
    return helpers.ref_channel_gain(
        rival.ac_pose.origin, rival.ac_pose.direction, rival.ac_pose.ml,
        victim.rx_position, victim.rx_normal, victim.receiver.area_m2,
        victim.receiver.fov_half_deg, victim.receiver.filter_gain,
        victim.receiver.lens_index)


def test_colocated_identical_links_have_unit_ratio():
    s = _row([(2.0, 1.0), (2.0, 1.0)])
    links = build_candidate_links(s)
    assert _sir(links, 0, 1) == (1.0, 1.0)


def test_distant_interferer_is_invisible():
    s = _row([(1.0, 1.0), (5.0, 1.0)], room=(6.0, 2.0, 3.0), grid=(5, 1))
    sab, sba = _sir(build_candidate_links(s), 0, 1)
    assert math.isinf(sab) and math.isinf(sba)


def test_ratio_ladder_frozen_values():
    """Terminals pinned under their luminaires, rivals 1, 2, and 3 cells over."""
    s = _row([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)],
             room=(6.0, 2.0, 3.0), grid=(5, 1))
    ln = build_candidate_links(s)
    assert _sir(ln, 0, 1)[0] == pytest.approx(1.4083153822938723, rel=1e-9)
    assert _sir(ln, 0, 2)[0] == pytest.approx(2.998589888666404, rel=1e-9)
    assert _sir(ln, 0, 3)[0] == pytest.approx(6.789400158638618, rel=1e-9)


def test_dead_link_reports_zero_ratio():
    doc = helpers.pinned_config([(1.0, 1.0)], room=(30.0, 2.0, 3.0), grid=(2, 1))
    doc["uts"] = [{"position": [29.0, 1.0], "demand_bps": 1e6},
                  {"position": [14.0, 1.0], "demand_bps": 1e6}]
    s = scenario_from_dict(doc)
    links = build_candidate_links(s)
    assert links[0].gain == 0.0
    assert _sir(links, 0, 1)[0] == 0.0


# -- graph construction ----------------------------------------------------------

def test_threshold_below_one_rejected():
    links = build_candidate_links(_row([(1.0, 1.0), (2.0, 1.0)]))
    with pytest.raises(ValueError):
        build_conflict_graph(links, cross_gains(links), 0.8)


def test_threshold_tie_stays_compatible():
    s = _row([(1.0, 1.0), (2.0, 1.0)])
    links = build_candidate_links(s)
    tie = min(_sir(links, 0, 1))
    assert not build_conflict_graph(links, cross_gains(links), tie).conflicts(0, 1)
    assert build_conflict_graph(links, cross_gains(links), tie * (1.0 + 1e-9)).conflicts(0, 1)


def test_huge_threshold_serializes_each_channel():
    s = _row([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)], channels=2)
    links = build_candidate_links(s)
    finite = [v for i, j in itertools.combinations(range(len(links)), 2)
              for v in _sir(links, i, j) if math.isfinite(v)]
    g = build_conflict_graph(links, cross_gains(links), max(finite) + 1.0)
    for i, j in itertools.combinations(range(len(links)), 2):
        same_channel = links[i].channel_index == links[j].channel_index
        assert g.conflicts(i, j) == same_channel


def test_shared_transmitter_and_receiver_always_conflict():
    s = _row([(2.0, 1.0), (2.0, 1.0)])  # same serving chip, ratio tie of 1.0
    links = build_candidate_links(s)
    g = build_conflict_graph(links, cross_gains(links), 1.0)
    assert g.conflicts(0, 1)


def test_edge_set_matches_reference_rule():
    """Brute-force edges from reference gains on a random three-terminal office."""
    s = scenario_from_dict(helpers.tiny_config(n_uts=3, seed=8))
    links = build_candidate_links(s)
    for threshold in (1.0, 1.5, 3.0, 6.0):
        g = build_conflict_graph(links, cross_gains(links), threshold)
        for i, j in itertools.combinations(range(len(links)), 2):
            a, b = links[i], links[j]
            if a.channel_index != b.channel_index:
                want = False
            elif (a.ap_index, a.chip_index) == (b.ap_index, b.chip_index) or \
                    (a.ut_index, a.rx_index) == (b.ut_index, b.rx_index):
                want = True
            else:
                def one_way(victim, rival):
                    signal = helpers.ref_link_gain(victim) * victim.p_ac_pp
                    noise = helpers.ref_channel_gain(
                        rival.ac_pose.origin, rival.ac_pose.direction,
                        rival.ac_pose.ml, victim.rx_position, victim.rx_normal,
                        victim.receiver.area_m2, victim.receiver.fov_half_deg,
                    ) * rival.p_ac_pp
                    return signal / noise if noise > 0 else math.inf
                want = min(one_way(a, b), one_way(b, a)) < threshold
            assert g.conflicts(i, j) == want, (i, j, threshold)


def test_cross_gains_match_reference_pairs():
    """Every entry of the batched matrix against the one-pair reference, on
    steered beams with tilted receivers, two channels and k = 2."""
    s = scenario_from_dict(helpers.tiny_config(n_uts=3, seed=4, channels=2, k=2,
                                               kind="b"))
    links = build_candidate_links(s)
    h = cross_gains(links)
    for i, j in itertools.product(range(len(links)), repeat=2):
        if i == j or links[i].channel_index != links[j].channel_index:
            assert h[i, j] == 0.0
        else:
            assert h[i, j] == pytest.approx(_ref_gain(links[i], links[j]),
                                            rel=1e-12, abs=1e-300)


def test_adjacency_symmetric_and_irreflexive():
    inst = helpers.tiny_instance(n_uts=4, seed=6, channels=2)
    adj = inst.graph.adjacency
    assert np.array_equal(adj, adj.T)
    assert not np.any(np.diag(adj))


def test_edges_grow_with_threshold():
    s = scenario_from_dict(helpers.tiny_config(n_uts=6, seed=12))
    links = build_candidate_links(s)
    previous: set = set()
    for threshold in (1.0, 1.4, 2.0, 3.0, 6.0):
        edges = set(build_conflict_graph(links, cross_gains(links), threshold).edges())
        assert previous <= edges
        previous = edges


def test_patterns_survive_threshold_relaxation():
    # anything schedulable under a strict threshold stays valid under a loose one
    strict = helpers.tiny_instance(n_uts=4, seed=2, sir=3.0)
    loose = helpers.tiny_instance(n_uts=4, seed=2, sir=1.5)
    strict_sets = set(helpers.all_independent_sets(strict))
    loose_sets = set(helpers.all_independent_sets(loose))
    assert strict_sets <= loose_sets


# -- pattern validity --------------------------------------------------------------

def test_empty_pattern_is_independent():
    inst = helpers.tiny_instance()
    assert is_independent(ScheduleVector(()), inst.graph, inst.s)


def test_singletons_are_independent():
    inst = helpers.tiny_instance(n_uts=4, seed=3, channels=2)
    for i in range(inst.graph.n_links):
        assert is_independent(ScheduleVector((i,)), inst.graph, inst.s)


def test_shared_receiver_rejected():
    s = _row([(2.0, 1.0)], channels=2)  # one terminal, one receiver, two bands
    links = build_candidate_links(s)
    g = build_conflict_graph(links, cross_gains(links), 1.0)
    assert len(links) == 2
    assert not is_independent(ScheduleVector((0, 1)), g, s)


def test_validity_matches_naive_rules():
    """Exhaustive agreement with a from-scratch constraint checker."""
    for kw in ({"n_uts": 3, "seed": 4, "channels": 2},
               {"n_uts": 5, "seed": 1},
               {"n_uts": 3, "seed": 2, "kind": "c", "k": 2}):
        inst = helpers.tiny_instance(**kw)
        g, s = inst.graph, inst.s
        n = g.n_links
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                chosen = [g.links[i] for i in combo]
                ok = all(not g.adjacency[i, j]
                         for i, j in itertools.combinations(combo, 2))
                for key in {(ln.ap_index, ln.chip_index) for ln in chosen}:
                    ok &= sum((ln.ap_index, ln.chip_index) == key
                              for ln in chosen) <= 1
                for key in {(ln.ut_index, ln.rx_index) for ln in chosen}:
                    ok &= sum((ln.ut_index, ln.rx_index) == key
                              for ln in chosen) <= 1
                for ap in {ln.ap_index for ln in chosen}:
                    ok &= sum(ln.ap_index == ap
                              for ln in chosen) <= s.ap_concurrency_cap(ap)
                for ut in {ln.ut_index for ln in chosen}:
                    ok &= sum(ln.ut_index == ut
                              for ln in chosen) <= s.uts[ut].n_receivers
                assert is_independent(ScheduleVector(combo), g, s) == ok


def test_schedule_vector_requires_sorted_unique_indices():
    with pytest.raises(ValueError):
        ScheduleVector((2, 1))
    with pytest.raises(ValueError):
        ScheduleVector((1, 1))
