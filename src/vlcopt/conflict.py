"""Same-channel cross gains, interference conflicts and activation caps.

`cross_gains` builds the one L x L matrix of same-channel cross gains: entry
(i, j) is the line-of-sight gain of link j's data beam at link i's receiver.
The conflict graph thresholds the signal-to-interference ratios read from it
(ratios of received optical powers, so the photodiode responsivity cancels):
two same-channel links conflict when either direction falls below the
scheduling threshold, and outright when they share a transmitter chip or a
receiver. The validation pass reuses the same matrix for the interference
each active link actually receives.

Everything else is read from the links' integer ids (`link_ids`, read once
per instance). `pair_table` folds the ratios and the shared-chip,
shared-receiver and same-channel masks into one threshold-free L x L table,
so the graph at any threshold is one comparison against it
(`build_conflict_graph`). `cap_groups` is the one table of activation caps
that are not pairwise: one group per transmitter chip and per receiver (one
stream each, across all channels), per access point and per terminal,
whatever the threshold.

A `ConflictGraph` holds the adjacency and the cap table and is the one
record, read by every scheduler, of which patterns a threshold allows; the
forms its readers need (bitsets, pricing rows) are built on first use and
kept on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .optics import as_components, channel_gain_many, pose_arrays

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Link, Scenario


@dataclass(frozen=True)
class ScheduleVector:
    """Sorted indices of the links a candidate activation pattern turns on."""

    active: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.active))) != self.active:
            raise ValueError("active link indices must be sorted and unique")


def link_ids(links: Sequence["Link"]) -> np.ndarray:
    """(L, 5) integer ids of each link, in the columns access point, chip,
    terminal, receiver and channel."""
    return np.array([(ln.ap_index, ln.chip_index, ln.ut_index, ln.rx_index, ln.channel_index)
                     for ln in links], dtype=int).reshape(len(links), 5)


def cross_gains(links: Sequence["Link"]) -> np.ndarray:
    """H[i, j]: gain of link j's data beam at link i's receiver, seen through
    link i's field of view; zero across channels and on the diagonal."""

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[:, None]

    origin, direction, ml = pose_arrays([ln.ac_pose for ln in links])
    rx = [ln.receiver for ln in links]
    # interferers j run along axis 1, victims i along axis 0
    h = channel_gain_many(
        origin[:, None],
        direction[:, None],
        ml[None],
        as_components([ln.rx_position for ln in links])[:, :, None],
        as_components([ln.rx_normal for ln in links])[:, :, None],
        area_m2=column([r.area_m2 for r in rx]),
        fov_half_deg=column([r.fov_half_deg for r in rx]),
        filter_gain=column([r.filter_gain for r in rx]),
        lens_index=column([r.lens_index for r in rx]),
    )
    channel = np.array([ln.channel_index for ln in links], dtype=int)
    h[channel[:, None] != channel] = 0.0
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


def _bitsets(rows: np.ndarray) -> list[int]:
    """Each row of a boolean (R, L) matrix as a Python-int bitset, bit j for column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(frozen=True)
class ConflictBits:
    """A conflict graph and its cap groups as Python-int bitsets. A link's
    neighbours join its conflict edges with the co-members of each of its
    cap-1 groups, so those are pairwise conflicts; a larger cap is a counter."""

    nbr: list[int]                  # per link: the links it cannot join
    counted: list[tuple[int, int]]  # (members, cap) of each group of cap >= 2
    counters_of: list[list[int]]    # per link: its groups in `counted`


@dataclass(eq=False)
class ConflictGraph:
    """Which activation patterns one SIR threshold allows: the pairwise
    conflicts and the `cap_groups` table of the same links."""

    adjacency: np.ndarray  # boolean, symmetric, zero diagonal
    cap_groups: tuple[np.ndarray, np.ndarray]  # (members, caps), as `cap_groups` gives them

    @property
    def n_links(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def neighbours(self) -> list[int]:
        """Each link's conflict edges as a Python-int bitset."""
        return _bitsets(self.adjacency)

    @cached_property
    def bits(self) -> ConflictBits:
        """The conflicts and the cap groups (caps at least 1) packed for
        `greedy_insert` and the max-weight search."""
        nbr = list(self.neighbours)
        counted: list[tuple[int, int]] = []
        counters_of: list[list[int]] = [[] for _ in nbr]
        groups, caps = self.cap_groups
        for members, cap in zip(_bitsets(groups), caps.astype(int).tolist()):
            if cap >= 2:
                counted.append((members, cap))
            rest = members
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                if cap == 1:
                    nbr[v] |= members ^ low
                else:
                    counters_of[v].append(len(counted) - 1)
        return ConflictBits(nbr, counted, counters_of)

    @cached_property
    def pattern_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The pricing MILP's rows A x <= b over the links alone: the cliques
        of `clique_cover`, then the caps, each (members, cap) once, where it
        first occurs, and with two or more members."""
        cliques = clique_cover(self.neighbours)
        groups, caps = self.cap_groups
        a = np.vstack([cliques, groups]).astype(float)
        b = np.concatenate([np.ones(len(cliques)), caps])
        keys = np.column_stack([a, b])
        first: dict[bytes, int] = {}
        for r in np.flatnonzero(a.sum(1) >= 2).tolist():
            first.setdefault(keys[r].tobytes(), r)
        rows = np.fromiter(first.values(), dtype=int, count=len(first))
        return a[rows], b[rows]


def pair_table(ids: np.ndarray, sir: np.ndarray) -> np.ndarray:
    """The threshold-free (L, L) table of link pairs, from the links'
    `link_ids` and their `sir_matrix`: a pair conflicts at threshold t
    exactly where its entry is below t. Entries are min(S, S^T) for
    same-channel pairs, 0 for same-channel pairs that share a transmitter
    chip or a receiver (below every threshold, which is at least 1), and
    +inf across channels and on the diagonal."""
    ap, chip, ut, rx, channel = ids.T
    shared = ((ap[:, None] == ap) & (chip[:, None] == chip)
              | (ut[:, None] == ut) & (rx[:, None] == rx))
    table = np.where(shared, 0.0, np.minimum(sir, sir.T))
    table[channel[:, None] != channel] = np.inf
    np.fill_diagonal(table, np.inf)
    table.setflags(write=False)
    return table


def build_conflict_graph(table: np.ndarray, sir_threshold: float,
                         groups: tuple[np.ndarray, np.ndarray]) -> ConflictGraph:
    """Conflict graph over candidate links at one SIR threshold (>= 1), read
    from their `pair_table`, holding `groups`, their `cap_groups` table;
    neither depends on the threshold.

    Edges are strict: a pair sitting exactly on the threshold stays compatible.
    Links on different channels never share an edge.
    """
    if not sir_threshold >= 1.0:
        raise ValueError(f"sir_threshold={sir_threshold}: must be >= 1")
    adj = table < sir_threshold
    adj.setflags(write=False)
    return ConflictGraph(adj, groups)


def cap_groups(ids: np.ndarray, s: "Scenario") -> tuple[np.ndarray, np.ndarray]:
    """Activation caps as (members, caps) over links with the given
    `link_ids`: row g of the boolean (G, L) matrix marks the links of group
    g, of which at most caps[g] may be on at once.

    Groups come per transmitter chip, then per receiver (cap 1 each, across
    all channels), then per access point and per terminal; within a kind, in
    order of first appearance among the links.
    """
    ap, chip, ut, rx = ids[:, 0], ids[:, 1], ids[:, 2], ids[:, 3]
    tx_groups, _ = _by_first_appearance(ap * (chip.max() + 1) + chip)
    rx_groups, _ = _by_first_appearance(ut * (rx.max() + 1) + rx)
    ap_groups, ap_first = _by_first_appearance(ap)
    ut_groups, ut_first = _by_first_appearance(ut)
    caps = np.concatenate([np.ones(len(tx_groups) + len(rx_groups)),
                           [s.ap_concurrency_cap(a) for a in ap[ap_first].tolist()],
                           [s.uts[u].n_receivers for u in ut[ut_first].tolist()]])
    return np.vstack([tx_groups, rx_groups, ap_groups, ut_groups]), caps


def _by_first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Links grouped by equal `key`, groups in order of first appearance:
    the (G, L) membership matrix and each group's first link."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return inverse == order[:, None], first[order]


def is_independent(x: ScheduleVector, g: ConflictGraph) -> bool:
    """True when the activation pattern violates no pairwise conflict of `g`
    and no multiplicity cap of its `cap_groups`."""
    idx = list(x.active)
    for i in idx:
        if not 0 <= i < g.n_links:
            raise IndexError(f"link index {i} out of range")
    if g.adjacency[np.ix_(idx, idx)].any():
        return False
    members, caps = g.cap_groups
    return bool(np.all(members[:, idx].sum(axis=1) <= caps))


def greedy_insert(bits: ConflictBits, order: Sequence[int]) -> list[int]:
    """Maximal independent set grown in the given link order: a link joins
    unless it conflicts with a member or one of its cap groups is full."""
    nbr, counted, counters_of = bits.nbr, bits.counted, bits.counters_of
    used = [0] * len(counted)
    barred = 0  # the links that can no longer join
    members: list[int] = []
    for i in order:
        if barred >> i & 1:
            continue
        members.append(i)
        barred |= nbr[i] | 1 << i
        for g in counters_of[i]:
            used[g] += 1
            if used[g] >= counted[g][1]:
                barred |= counted[g][0]
    return members


def clique_cover(nbr: Sequence[int]) -> np.ndarray:
    """Greedy clique cover of all edges of the graph whose neighbour bitsets
    are `nbr` (`ConflictGraph.neighbours`), deterministic by index order, as
    a (cliques, L) boolean membership matrix. Each uncovered edge (i, j), in
    row-major order, seeds a clique that then takes, in index order, every
    vertex adjacent to all its members."""
    L = len(nbr)
    nbytes = (L + 7) // 8
    covered = [0] * L  # covered[i]: the vertices j where edge (i, j) is covered
    cliques: list[int] = []
    for i in range(L):
        todo = nbr[i] >> (i + 1) << (i + 1)  # neighbours above i
        while todo := todo & ~covered[i]:
            j = (todo & -todo).bit_length() - 1
            clique = 1 << i | 1 << j
            mask = nbr[i] & nbr[j] & ~clique
            while mask:
                v = (mask & -mask).bit_length() - 1
                clique |= 1 << v
                mask = (mask & nbr[v]) >> (v + 1) << (v + 1)
            members = clique
            while members:
                u = (members & -members).bit_length() - 1
                covered[u] |= clique
                members &= members - 1
            cliques.append(clique)
    out = np.frombuffer(b"".join(c.to_bytes(nbytes, "little") for c in cliques),
                        dtype=np.uint8).reshape(len(cliques), nbytes)
    return np.unpackbits(out, axis=1, count=L, bitorder="little").astype(bool)
