"""Reachability closures, round-trip closures, and temporal components.

The closure of a snapshot sequence is the directed graph with an arc (u, v)
whenever u has a journey to v.  Strict journeys take at most one hop per
snapshot; non-strict journeys may cross a whole connected component of a
snapshot in one time step.  Round-trip closures additionally carry, per arc,
the earliest arrival and latest departure inside a window, and compose over
adjacent windows, which is what makes the divide-and-conquer parameter
searches in :mod:`tempnet.hierarchy` possible.

All of it runs on the per-snapshot bitsets of ``core._hop_rows``, one bit per
node.  A round-trip closure keeps per-node threshold masks (the sources that
arrive by time t, the targets still reached leaving at t) instead of one
entry per arc, so a compose and a round-trip test cost O(n^2) mask operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .core import (
    SnapshotSequence, StaticGraph, TemporalGraph, _check_kind, _check_limit, _hop_rows,
    _mask_bits, _node_index, _reach_masks, _tick, _union_rows, edge,
)
from .errors import ContractError, InputError


def _require_sequence(g: TemporalGraph) -> SnapshotSequence:
    if not isinstance(g, SnapshotSequence):
        raise InputError("closure operations need a snapshot sequence; discretize() first")
    return g


@dataclass(frozen=True)
class Closure:
    """Directed journey-reachability arcs over a whole sequence."""

    nodes: frozenset[str]
    kind: str
    arcs: frozenset[tuple[str, str]]

    def reaches(self, u: str, v: str) -> bool:
        return u == v or (u, v) in self.arcs

    @property
    def is_complete(self) -> bool:
        n = len(self.nodes)
        return len(self.arcs) == n * (n - 1)


def _closure(seq: SnapshotSequence, kind: str) -> Closure:
    order, reach = _reach_masks(seq, kind == "strict")
    arcs = frozenset(
        (order[i], v)
        for k, v in enumerate(order)
        for i in _mask_bits(reach[k])
        if i != k
    )
    return Closure(seq.nodes, kind, arcs)


def strict_closure(g: TemporalGraph) -> Closure:
    return _closure(_require_sequence(g), "strict")


def nonstrict_closure(g: TemporalGraph) -> Closure:
    return _closure(_require_sequence(g), "nonstrict")


Rows = tuple[tuple[int, int], ...]  # (time, node mask), one time per row


@dataclass(frozen=True)
class RoundTripClosure:
    """Per-arc earliest arrival and latest departure inside [start, end).

    Nodes are bits in the order of ``_node_index(nodes)``.  ``ea_rows[v]`` holds
    v's sources as (time, source mask) rows by ascending earliest arrival, so
    a prefix of rows ORs to a threshold mask; ``ld_rows[u]`` holds u's targets
    by descending latest departure.  A node sits in at most one row, so rows
    are canonical and ``==`` compares closures; the lists are read-only.
    ``arcs`` is the derived view (u, v) -> (ea, ld), built on first use.

    Loops are implicit: ea(u, u) = start and ld(u, u) = end, the identities
    for composition (sit out a prefix or a suffix of the window).
    """

    nodes: frozenset[str]
    window: tuple[int, int]
    kind: str
    ea_rows: list[Rows]
    ld_rows: list[Rows]

    @cached_property
    def ins(self) -> list[int]:
        """ins[v] = mask of the sources with a journey to v (rows are disjoint)."""
        return [sum(m for _, m in rows) for rows in self.ea_rows]

    @cached_property
    def outs(self) -> list[int]:
        """outs[u] = mask of the targets u has a journey to."""
        return [sum(m for _, m in rows) for rows in self.ld_rows]

    @cached_property
    def arcs(self) -> dict[tuple[str, str], tuple[int, int]]:
        order = _node_index(self.nodes)[0]
        ea = {
            (order[u], order[v]): t
            for v, rows in enumerate(self.ea_rows)
            for t, mask in rows
            for u in _mask_bits(mask)
        }
        ld = {
            (order[u], order[v]): t
            for u, rows in enumerate(self.ld_rows)
            for t, mask in rows
            for v in _mask_bits(mask)
        }
        return {pair: (t, ld[pair]) for pair, t in ea.items()}

    def ea(self, u: str, v: str) -> Optional[int]:
        return self.window[0] if u == v else self.arcs.get((u, v), (None, None))[0]

    def ld(self, u: str, v: str) -> Optional[int]:
        return self.window[1] if u == v else self.arcs.get((u, v), (None, None))[1]


def roundtrip_lift(snapshot: StaticGraph, index: int, kind: str = "strict") -> RoundTripClosure:
    """Round-trip closure of the single-snapshot window [index, index+1)."""
    strict = _check_kind(kind)
    rows = [
        ((index, row ^ 1 << i),) if row != 1 << i else ()
        for i, row in enumerate(_hop_rows(snapshot.nodes, snapshot.edges, strict))
    ]
    return RoundTripClosure(snapshot.nodes, (index, index + 1), kind, rows, rows)


def _extend(head: Rows, todo: int, tail: Rows, relays: list[int]) -> Rows:
    """head plus the rows of tail widened by relays, each todo node in its first row."""
    out = list(head)
    for t, mask in tail:
        if not todo:
            break
        wide = (mask | _union_rows(mask, relays)) & todo
        if wide:
            out.append((t, wide))
            todo ^= wide
    return tuple(out)


def concat_roundtrip(first: RoundTripClosure, second: RoundTripClosure) -> RoundTripClosure:
    """Compose closures of adjacent windows A = [a, m) and B = [m, b) into [a, b).

    Every time in A precedes every time in B, so ea(u, v) is ea_A(u, v) when
    that arc exists and otherwise the least ea_B(w, v) over relays w in
    {u} + out_A(u); walking v's B rows in ascending time and adding the
    A-sources of each relay assigns all u at once.  ld is the mirror case:
    ld_B(u, v) if it exists, else the greatest ld_A(u, w) over w in
    {v} + in_B(v).  Costs O(n^2) mask operations.
    """
    if first.nodes != second.nodes:
        raise ContractError("round-trip closures are over different node sets")
    if first.kind != second.kind:
        raise ContractError("cannot mix strict and non-strict round-trip closures")
    if first.window[1] != second.window[0]:
        raise ContractError(
            f"windows {first.window} and {second.window} are not adjacent"
        )
    full = (1 << len(first.nodes)) - 1
    ins_a, outs_b = first.ins, second.outs
    ea_rows = [
        _extend(rows, full & ~(ins_a[v] | 1 << v), second.ea_rows[v], ins_a)
        for v, rows in enumerate(first.ea_rows)
    ]
    ld_rows = [
        _extend(rows, full & ~(outs_b[u] | 1 << u), first.ld_rows[u], outs_b)
        for u, rows in enumerate(second.ld_rows)
    ]
    return RoundTripClosure(
        first.nodes, (first.window[0], second.window[1]), first.kind, ea_rows, ld_rows
    )


def roundtrip_closure(
    g: TemporalGraph,
    window: Optional[tuple[int, int]] = None,
    kind: str = "strict",
) -> RoundTripClosure:
    seq = _require_sequence(g)
    if window is None:
        window = (0, seq.delta)
    start, end = _tick(window[0], "window bound"), _tick(window[1], "window bound")
    if not 0 <= start < end <= seq.delta:
        raise InputError(f"window [{start}, {end}) outside 0..{seq.delta}")
    acc = roundtrip_lift(seq.graph_at(start), start, kind)
    for i in range(start + 1, end):
        acc = concat_roundtrip(acc, roundtrip_lift(seq.graph_at(i), i, kind))
    return acc


def is_roundtrip_connected(rt: RoundTripClosure) -> bool:
    """Every ordered pair has a journey and a return departing after arrival.

    Each source u of v needs ea(u, v) < ld(v, u) (<= when non-strict): a
    two-pointer merge of v's ea rows, latest first, against its ld rows.
    """
    full = (1 << len(rt.nodes)) - 1
    strict = rt.kind == "strict"
    for v, (ea_rows, ld_rows) in enumerate(zip(rt.ea_rows, rt.ld_rows)):
        if rt.ins[v] | 1 << v != full or rt.outs[v] | 1 << v != full:
            return False
        back = 0  # targets u with ld(v, u) late enough for the current arrival
        k = 0
        for t, sources in reversed(ea_rows):
            late = t + 1 if strict else t
            while k < len(ld_rows) and ld_rows[k][0] >= late:
                back |= ld_rows[k][1]
                k += 1
            if sources & ~back:
                return False
    return True


def _bron_kerbosch(adj: dict[str, set[str]]) -> list[frozenset[str]]:
    cliques: list[frozenset[str]] = []

    def bk(r: set, p: set, x: set):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda w: len(adj[w] & p))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(adj), set())
    return cliques


def _is_component(seq: SnapshotSequence, nodes: frozenset[str], strict: bool) -> bool:
    # closed variant: journeys must stay inside the candidate set
    if len(nodes) == 1:
        return True
    bit = _node_index(seq.nodes)[1]
    full = sum(1 << bit[v] for v in nodes)
    _, reach = _reach_masks(seq, strict, nodes)
    return all(reach[bit[v]] == full for v in nodes)


def maximal_temporal_components(
    g: TemporalGraph,
    kind: str = "strict",
    limit_n: Optional[int] = 15,
) -> list[frozenset[str]]:
    """Inclusion-maximal node sets whose induced trace is temporally connected.

    Components may overlap.  Journeys must stay within the component (closed
    semantics).  Exponential in the worst case, hence the node limit; pass
    limit_n=None to override it.
    """
    seq = _require_sequence(g)
    strict = _check_kind(kind)
    _check_limit(seq.nodes, limit_n, "component search")
    order, reach = _reach_masks(seq, strict)
    mutual: dict[str, set[str]] = {v: set() for v in order}
    for i, j in itertools.combinations(range(len(order)), 2):
        if reach[j] >> i & 1 and reach[i] >> j & 1:
            mutual[order[i]].add(order[j])
            mutual[order[j]].add(order[i])
    accepted: list[frozenset[str]] = []
    for clique in sorted(_bron_kerbosch(mutual), key=lambda c: (-len(c), sorted(c))):
        for size in range(len(clique), 0, -1):
            for combo in itertools.combinations(sorted(clique), size):
                cand = frozenset(combo)
                if any(cand <= seen for seen in accepted):
                    continue
                if _is_component(seq, cand, strict):
                    accepted.append(cand)
    maximal = [
        c for c in accepted
        if not any(c < other for other in accepted)
    ]
    return sorted(set(maximal), key=lambda c: (-len(c), sorted(c)))


def semaphore_transform(g: StaticGraph) -> SnapshotSequence:
    """Unfold a static graph into 3 snapshots with two fresh nodes per edge.

    Snapshot 0 is empty; snapshot 1 links each endpoint to its own fresh
    relay; snapshot 2 links each relay to the opposite endpoint.  The
    endpoints of every static edge then reach each other by strict journeys
    running in parallel through the two relays.
    """
    taken = set(g.nodes)

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    nodes = set(g.nodes)
    one: set = set()
    two: set = set()
    for u, v in sorted(g.edges):
        pu = fresh(f"{u}'{v}")
        pv = fresh(f"{v}'{u}")
        nodes |= {pu, pv}
        one.add(edge(u, pu))
        one.add(edge(v, pv))
        two.add(edge(pu, v))
        two.add(edge(pv, u))
    return SnapshotSequence.build(nodes, [frozenset(), one, two])
