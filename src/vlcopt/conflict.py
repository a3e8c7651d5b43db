"""Same-channel cross gains, interference conflicts and activation caps.

`cross_gains` builds the one L x L matrix of same-channel cross gains: entry
(i, j) is the line-of-sight gain of link j's data beam at link i's receiver.
The conflict graph thresholds the signal-to-interference ratios read from it
(ratios of received optical powers, so the photodiode responsivity cancels):
two same-channel links conflict when either direction falls below the
scheduling threshold, and outright when they share a transmitter chip or a
receiver. The validation pass reuses the same matrix for the interference
each active link actually receives.

`cap_groups` is the one table of activation caps that are not pairwise: one
group per transmitter chip and per receiver (one stream each, across all
channels), per access point and per terminal. `is_independent`, the greedy
heuristic and the pricing problem's rows all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .optics import channel_gain_many, pose_arrays

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Link, Scenario


@dataclass(frozen=True)
class ScheduleVector:
    """Sorted indices of the links a candidate activation pattern turns on."""

    active: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.active))) != self.active:
            raise ValueError("active link indices must be sorted and unique")


def _same(links: Sequence["Link"], *attrs: str) -> np.ndarray:
    """(L, L) mask of link pairs that agree on every named attribute."""
    k = np.array([[getattr(ln, a) for a in attrs] for ln in links]).reshape(len(links), len(attrs))
    return np.all(k[:, None, :] == k[None, :, :], axis=-1)


def cross_gains(links: Sequence["Link"]) -> np.ndarray:
    """H[i, j]: gain of link j's data beam at link i's receiver, seen through
    link i's field of view; zero across channels and on the diagonal."""

    def vec(values) -> np.ndarray:
        return np.array(values, dtype=float).reshape(len(links), 3)

    def num(values) -> np.ndarray:
        return np.array(values, dtype=float)

    origin, direction, ml = pose_arrays([ln.ac_pose for ln in links])
    rx = [ln.receiver for ln in links]
    # interferers j run along axis 1, victims i along axis 0
    h = channel_gain_many(
        origin[None],
        direction[None],
        ml[None],
        vec([ln.rx_position for ln in links])[:, None],
        vec([ln.rx_normal for ln in links])[:, None],
        area_m2=num([r.area_m2 for r in rx])[:, None],
        fov_half_deg=num([r.fov_half_deg for r in rx])[:, None],
        filter_gain=num([r.filter_gain for r in rx])[:, None],
        lens_index=num([r.lens_index for r in rx])[:, None],
    )
    h[~_same(links, "channel_index")] = 0.0
    np.fill_diagonal(h, 0.0)
    return h


def sir_matrix(links: Sequence["Link"], gains: np.ndarray) -> np.ndarray:
    """S[i, j]: signal-to-interference ratio at link i's receiver with link j
    as the only interferer. +inf where j's beam does not reach i; 0 for every
    j when link i's own signal gain is zero."""
    signal = np.array([ln.gain * ln.p_ac_pp for ln in links])
    interference = gains * np.array([ln.p_ac_pp for ln in links])[None, :]
    sir = np.full(gains.shape, np.inf)
    np.divide(signal[:, None], interference, out=sir, where=interference > 0.0)
    sir[signal <= 0.0] = 0.0
    return sir


@dataclass(eq=False)
class ConflictGraph:
    links: tuple
    sir_threshold: float
    adjacency: np.ndarray  # boolean, symmetric, zero diagonal

    @property
    def n_links(self) -> int:
        return len(self.links)

    def edges(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(ii.tolist(), jj.tolist()))

    def conflicts(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j])


def build_conflict_graph(links: Sequence["Link"], gains: np.ndarray,
                         sir_threshold: float) -> ConflictGraph:
    """Conflict graph over candidate links at one SIR threshold (>= 1), read
    from their cross gains `cross_gains(links)`.

    Edges are strict: a pair sitting exactly on the threshold stays compatible.
    Links on different channels never share an edge.
    """
    if not sir_threshold >= 1.0:
        raise ValueError(f"sir_threshold={sir_threshold}: must be >= 1")
    sir = sir_matrix(links, gains)
    shared = _same(links, "ap_index", "chip_index") | _same(links, "ut_index", "rx_index")
    adj = _same(links, "channel_index") & (shared | (np.minimum(sir, sir.T) < sir_threshold))
    np.fill_diagonal(adj, False)
    adj.setflags(write=False)
    return ConflictGraph(tuple(links), float(sir_threshold), adj)


def cap_groups(links: Sequence["Link"], s: "Scenario") -> tuple[np.ndarray, np.ndarray]:
    """Activation caps as (members, caps): row g of the boolean (G, L) matrix
    marks the links of group g, of which at most caps[g] may be on at once.

    Groups come per transmitter chip, then per receiver (cap 1 each, across
    all channels), then per access point and per terminal; within a kind, in
    order of first appearance among the links.
    """
    kinds = (
        lambda ln: (("tx", ln.ap_index, ln.chip_index), 1),
        lambda ln: (("rx", ln.ut_index, ln.rx_index), 1),
        lambda ln: (("ap", ln.ap_index), s.ap_concurrency_cap(ln.ap_index)),
        lambda ln: (("ut", ln.ut_index), s.uts[ln.ut_index].n_receivers),
    )
    groups: dict[tuple, tuple[int, list[int]]] = {}
    for group_of in kinds:
        for i, ln in enumerate(links):
            key, cap = group_of(ln)
            groups.setdefault(key, (cap, []))[1].append(i)
    members = np.zeros((len(groups), len(links)), dtype=bool)
    for g, (_, idx) in enumerate(groups.values()):
        members[g, idx] = True
    return members, np.array([cap for cap, _ in groups.values()], dtype=float)


def is_independent(x: ScheduleVector, g: ConflictGraph, s: "Scenario") -> bool:
    """True when the activation pattern violates no pairwise conflict and no
    multiplicity cap (per chip, per receiver, per access point, per terminal)."""
    idx = list(x.active)
    for i in idx:
        if not 0 <= i < g.n_links:
            raise IndexError(f"link index {i} out of range")
    if g.adjacency[np.ix_(idx, idx)].any():
        return False
    members, caps = cap_groups(g.links, s)
    return bool(np.all(members[:, idx].sum(axis=1) <= caps))
