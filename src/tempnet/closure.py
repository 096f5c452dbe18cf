"""Reachability closures, round-trip closures, and temporal components.

The closure of a snapshot sequence is the directed graph with an arc (u, v)
whenever u has a journey to v.  Strict journeys take at most one hop per
snapshot; non-strict journeys may cross a whole connected component of a
snapshot in one time step.  Round-trip closures additionally carry, per arc,
the earliest arrival and latest departure inside a window, and compose over
adjacent windows, which is what makes the divide-and-conquer parameter
searches in :mod:`tempnet.hierarchy` possible.

Closures and round-trip closures run on the per-snapshot bitsets of
``core._hop_rows``, one bit per node.  A round-trip closure keeps packed
reachability matrices by time, and composes them with ``core._join_packed``,
the product ``hierarchy.tdiameter`` uses: one spread of the relay per
composition, then at most n big-int products per row, and O(rows) for a
round-trip test.  Temporal components refine to a fixpoint, with one foremost
search per candidate member on the ticks cut to it (``core._induced``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

from .core import (
    SnapshotSequence, StaticGraph, TemporalGraph, _check_kind, _check_limit, _comb, _hop_matrix,
    _induced, _join_packed, _mask_bits, _node_index, _reach_masks, _require_sequence, _spread,
    _tick, edge,
)
from .errors import ContractError, InputError
from .journeys import _foremost


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
    return _closure(_require_sequence(g, "closure operations"), "strict")


def nonstrict_closure(g: TemporalGraph) -> Closure:
    return _closure(_require_sequence(g, "closure operations"), "nonstrict")


Rows = tuple[tuple[int, int], ...]  # (time, packed n-node matrix), one time per row


@dataclass(frozen=True)
class RoundTripClosure:
    """Per-arc earliest arrival and latest departure inside [start, end).

    A matrix packs row i of n (nodes in ``_node_index`` order) into bits
    [i*n, (i+1)*n) of one int, diagonal set.  ``ea_rows`` holds (t, P) by
    ascending t: bit (u, v) of P is set when u reaches v arriving by t.
    ``ld_rows`` holds (s, T) by descending s, transposed: row v of T holds the
    sources that reach v leaving at s or later.  Rows are cumulative and kept
    only where the matrix grows (none means the identity), so ``==`` compares
    closures.  ``arcs``, the view (u, v) -> (ea, ld), costs O(arcs + n*rows).

    Loops are implicit: ea(u, u) = start and ld(u, u) = end, the identities
    for composition (sit out a prefix or a suffix of the window).
    """

    nodes: frozenset[str]
    window: tuple[int, int]
    kind: str
    ea_rows: Rows
    ld_rows: Rows

    @cached_property
    def arcs(self) -> dict[tuple[str, str], tuple[int, int]]:
        order = _node_index(self.nodes)[0]
        n, full = len(order), (1 << len(order)) - 1
        ld = {b: s for s, new in _deltas(self.ld_rows, n) for b in _mask_bits(new)}  # bit v*n + u
        return {
            (order[u], order[v]): (t, ld[v * n + u])
            for t, new in _deltas(self.ea_rows, n)
            for u in range(n) if (row := new >> u * n & full)
            for v in _mask_bits(row)
        }

    def ea(self, u: str, v: str) -> Optional[int]:
        return self.window[0] if u == v else self.arcs.get((u, v), (None, None))[0]

    def ld(self, u: str, v: str) -> Optional[int]:
        return self.window[1] if u == v else self.arcs.get((u, v), (None, None))[1]


def _deltas(rows: Rows, n: int):
    """(time, the bits that time adds) over cumulative rows, from the identity."""
    prev = _comb(n, n + 1)
    for t, matrix in rows:
        yield t, matrix ^ prev
        prev = matrix


def roundtrip_lift(snapshot: StaticGraph, index: int, kind: str = "strict") -> RoundTripClosure:
    """Round-trip closure of [index, index+1): the symmetric hop matrix is its ea and ld row."""
    strict = _check_kind(kind)
    rows = ((index, _hop_matrix(snapshot.nodes, snapshot.edges, strict)),) if snapshot.edges else ()
    return RoundTripClosure(snapshot.nodes, (index, index + 1), kind, rows, rows)


def _extend(head: Rows, tail: Rows, n: int) -> Rows:
    """head, then its last matrix joined with each tail row's new bits, kept where it grows."""
    if not head:
        return tail
    relay = cur = head[-1][1]
    out, full, cols = list(head), (1 << n * n) - 1, None
    for t, new in _deltas(tail, n):
        if cur == full:
            break
        cols = cols or _spread(relay, n)  # spread once, at the first row joined
        grown = cur | _join_packed(relay, new, n, cols)
        if grown != cur:
            out.append((t, grown))
            cur = grown
    return tuple(out)


def concat_roundtrip(first: RoundTripClosure, second: RoundTripClosure) -> RoundTripClosure:
    """Compose closures of adjacent windows A = [a, m) and B = [m, b) into [a, b).

    Every time in A precedes every time in B, so the ea rows are A's, then
    R_A . P_B(t) for each B row, R_A being A's last ea matrix (u ~> w in A,
    then w ~> v by t in B).  ld mirrors it: B's rows, then R_B' . T_A(s) for
    each A row.  Each step joins only the bits new at that time: O(n) big-int
    operations per row of the result.
    """
    if first.nodes != second.nodes:
        raise ContractError("round-trip closures are over different node sets")
    if first.kind != second.kind:
        raise ContractError("cannot mix strict and non-strict round-trip closures")
    if first.window[1] != second.window[0]:
        raise ContractError(
            f"windows {first.window} and {second.window} are not adjacent"
        )
    n = len(first.nodes)
    return RoundTripClosure(
        first.nodes, (first.window[0], second.window[1]), first.kind,
        _extend(first.ea_rows, second.ea_rows, n), _extend(second.ld_rows, first.ld_rows, n),
    )


def roundtrip_closure(
    g: TemporalGraph,
    window: Optional[tuple[int, int]] = None,
    kind: str = "strict",
) -> RoundTripClosure:
    seq = _require_sequence(g, "closure operations")
    if window is None:
        window = (0, seq.delta)
    start, end = _tick(window[0], "window bound"), _tick(window[1], "window bound")
    if not 0 <= start < end <= seq.delta:
        raise InputError(f"window [{start}, {end}) outside 0..{seq.delta}")
    lifts = (roundtrip_lift(seq.graph_at(i), i, kind) for i in range(start, end))
    return reduce(concat_roundtrip, lifts)


def is_roundtrip_connected(rt: RoundTripClosure) -> bool:
    """Every ordered pair has a journey and a return departing after arrival.

    The last ea matrix must be full, and a pair (u, v) first reached at t needs
    ld(v, u) > t (>= when non-strict): the bits ea row t adds lie in the ld
    matrix at t + 1 (at t).  A two-pointer merge, latest first, O(rows).
    """
    n = len(rt.nodes)
    back = _comb(n, n + 1)  # the ld matrix for the current arrival, identity before any row
    if (rt.ea_rows[-1][1] if rt.ea_rows else back) != (1 << n * n) - 1:
        return False
    lds, k, wait = rt.ld_rows, 0, int(rt.kind == "strict")
    for t, new in reversed(list(_deltas(rt.ea_rows, n))):
        while k < len(lds) and lds[k][0] >= t + wait:
            back = lds[k][1]
            k += 1
        if new & ~back:
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


def _mutual(seq: SnapshotSequence, nodes: frozenset[str], kind: str) -> dict[str, set[str]]:
    """Who reaches whom both ways by journeys inside nodes: one foremost search per member."""
    sub = _induced(seq._ticks, nodes)
    reach = {v: _foremost(sub, v, 0, kind, None).arrival.keys() for v in nodes}
    return {v: {w for w in reach[v] if w != v and v in reach[w]} for v in nodes}


def maximal_temporal_components(
    g: TemporalGraph,
    kind: str = "strict",
    limit_n: Optional[int] = 15,
) -> list[frozenset[str]]:
    """Inclusion-maximal node sets whose induced trace is temporally connected.

    Components may overlap.  Journeys must stay within the component (closed
    semantics).  From the whole node set, a candidate is accepted when its
    members reach each other inside it, and otherwise gives way to the maximal
    cliques of that mutual reachability.  A component inside a candidate keeps
    its journeys there, so it lies in one of those smaller cliques, and every
    maximal component is reached.  Exponential in the worst case, hence the
    node limit; pass limit_n=None to override it.
    """
    seq = _require_sequence(g, "closure operations")
    _check_kind(kind)
    _check_limit(seq.nodes, limit_n, "component search")
    todo = [seq.nodes] if seq.nodes else []
    seen, accepted = set(todo), []
    while todo:
        cand = todo.pop()
        cliques = _bron_kerbosch(_mutual(seq, cand, kind))
        if cliques == [cand]:
            accepted.append(cand)
        todo += [c for c in cliques if c not in seen]
        seen.update(cliques)
    maximal = [c for c in accepted if not any(c < other for other in accepted)]
    return sorted(maximal, key=lambda c: (-len(c), sorted(c)))


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
