"""Temporal-graph data model.

Two representations of a dynamic network over a fixed node set:

* :class:`SnapshotSequence` -- a discrete, untimed sequence of edge sets
  indexed 0..delta-1.
* :class:`IntervalGraph` -- edges labeled with half-open presence intervals
  [s, e) over rational time, plus a global hop latency ``zeta``.

Time conventions: intervals are half-open; an edge supports a hop starting
at ``s`` iff [s, s+zeta] is contained in the closure [a, b] of one of its
presence intervals.  Snapshot indices are integers; node sets never change;
edges are undirected and self-loops are rejected.

A sequence is also an interval graph on integer ticks: snapshot i is
presence over [i, i+1) with latency 1.  Its cached ``_ticks`` view holds
that graph with plain ``int`` times; the journey kernels run on it, and
:func:`to_intervals` returns it with exact ``Fraction`` times.  An interval
graph caches integer views (``_at_scale``), every time times D (``_unit``)
or, for query times off that grid, a multiple of D.  Every interval search but
the public ``earliest_arrival`` runs on them.

Each class's invariant is checked in one place, its constructor;
``IntervalGraph.build`` only shapes raw input before calling it.  A graph
derived from a checked one (views, reversals, cuts, slices, discretizations,
snapshots) is built by ``_trusted``, which checks nothing again.  An operation
of one model given the other raises an ``InputError`` that names it.

All types are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContractError, InputError, RangeError

Edge = tuple[str, str]
Time = Union[int, Fraction]

KINDS = ("strict", "nonstrict")


def _check_kind(kind: str) -> bool:
    """Reject unknown journey kinds; True for strict."""
    if kind not in KINDS:
        raise InputError(f"journey kind must be one of {KINDS}, got {kind!r}")
    return kind == "strict"


@lru_cache(maxsize=8)
def _node_index(nodes: frozenset[str]) -> tuple[tuple[str, ...], dict[str, int]]:
    """The bitset kernels' node index: sorted order, and name -> bit (shared, read-only)."""
    order = tuple(sorted(nodes))
    return order, {v: i for i, v in enumerate(order)}


def _mask_bits(mask: int):
    """Bit positions set in mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union_rows(mask: int, rows: Sequence[int]) -> int:
    """OR of rows[j] over the bits j of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


@lru_cache(maxsize=16)
def _comb(n: int, step: int) -> int:
    """n bits, every step-th: a packed n-node matrix's column 0 (step n) or diagonal (n + 1)."""
    return sum(1 << i * step for i in range(n))


def _spread(x: int, n: int) -> list[int]:
    """Column j of a packed n-node matrix spread over its rows: bit i*n set when x[i][j] is."""
    ones = _comb(n, n)
    return [(x >> j) & ones for j in range(n)]


def _join_packed(x: int, y: int, n: int, cols: list[int] | None = None) -> int:
    """Boolean product of packed n-node matrices (row i in bits [i*n, (i+1)*n)), x's steps first.

    x's column j spread over its rows, times y's row j (below 2**n: no overlap, no carry), puts
    that row in each row of x holding column j.  cols, x's ``_spread``, lets callers spread once."""
    full, ones, out = (1 << n) - 1, _comb(n, n), 0
    for j in range(n):
        if row := (y >> j * n) & full:
            out |= (cols[j] if cols else (x >> j) & ones) * row
    return out


def _hop_rows(nodes: frozenset[str], edges: Iterable[Edge], strict: bool,
              masks: Sequence[int] | None = None) -> list[int]:
    """rows[i] = OR of masks[j] over the nodes j that i reaches within one snapshot.

    Node i reaches itself and its neighbours when strict (one hop per
    snapshot) and its whole connected component when non-strict.  masks
    default to one bit per node, which gives the snapshot's hop rows.
    """
    bit = _node_index(nodes)[1]
    units = [1 << i for i in range(len(bit))]
    masks = units if masks is None else masks
    carried = masks if strict else units  # non-strict: find the components first
    adj = list(carried)
    for u, v in edges:
        i, j = bit[u], bit[v]
        adj[i] |= carried[j]
        adj[j] |= carried[i]
    if strict:
        return adj
    rows, done = list(masks), 0
    for i, row in enumerate(adj):
        if not done >> i & 1 and row != units[i]:
            comp = frontier = row
            while frontier:
                frontier = _union_rows(frontier, adj) & ~comp
                comp |= frontier
            joined = _union_rows(comp, masks)
            for j in _mask_bits(comp):
                rows[j] = joined
            done |= comp
    return rows


def _hop_matrix(nodes: frozenset[str], edges: Iterable[Edge], strict: bool) -> int:
    """The snapshot's hop rows packed into one int, row i of n in bits [i*n, (i+1)*n)."""
    n = len(nodes)
    return sum(row << i * n for i, row in enumerate(_hop_rows(nodes, edges, strict)))


def _reach_masks(seq: SnapshotSequence, strict: bool):
    """reach[i] = bitmask of nodes with a journey to node i (i included)."""
    order = _node_index(seq.nodes)[0]
    reach = [1 << i for i in range(len(order))]
    for snap in seq.snapshots:
        if snap:
            reach = _hop_rows(seq.nodes, snap, strict, reach)
    return order, reach


def _check_limit(nodes: frozenset[str], limit_n: int | None, what: str):
    """The exponential searches' desk-scale contract: at most limit_n nodes, None for no limit."""
    if limit_n is not None and len(nodes) > limit_n:
        raise ContractError(f"{len(nodes)} nodes exceed the {what} limit {limit_n}; raise it "
                            "with limit_n (None removes it) or --limit-n on the command line "
                            "(0 removes it)")


def _check_edges(edges: Iterable[Edge], nodes: frozenset[str]):
    for u, v in edges:
        if u == v:
            raise InputError(f"self-loop at {u!r} rejected")
        if u > v:
            raise InputError(f"edge {(u, v)!r} not in canonical order")
        if u not in nodes or v not in nodes:
            raise InputError(f"edge {(u, v)!r} has endpoint outside the node set")


def edge(u: str, v: str) -> Edge:
    """Canonical unordered pair. Self-loops are rejected."""
    if not u or not v:
        raise InputError("node ids must be non-empty strings")
    if u == v:
        raise InputError(f"self-loop at {u!r} rejected")
    try:
        return (u, v) if u < v else (v, u)
    except TypeError:
        raise InputError(f"node ids must be strings, got {u!r} and {v!r}") from None


def as_time(x) -> Fraction:
    """Exact rational from int, float, Fraction, or a 'p/q' string.

    Floats go through str() so that e.g. 0.01 becomes 1/100, not the
    binary-float neighbour.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a time value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) or isinstance(x, str):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a time value: {x!r}") from exc
    raise InputError(f"not a time value: {x!r}")


def _tick(t: Time, what: str) -> int:
    """A discrete time or window argument as an int; fractions are rejected."""
    t = as_time(t)
    if t.denominator != 1:
        raise RangeError(f"discrete {what} must be an integer, got {t}")
    return int(t)


def _trusted(cls, *fields):
    """A graph of class cls from fields that already hold its invariant, because they are
    (cut from) a graph that its constructor checked: the one path that skips the check."""
    g = object.__new__(cls)
    g.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return g


@dataclass(frozen=True)
class StaticGraph:
    """Plain undirected graph on named nodes."""

    nodes: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        _check_edges(self.edges, self.nodes)

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "StaticGraph":
        node_set = frozenset(nodes)
        return StaticGraph(node_set, frozenset(edge(u, v) for u, v in edges))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def connected_components(self) -> list[frozenset[str]]:
        """Components in the order of their least node."""
        order = _node_index(self.nodes)[0]
        rows = dict.fromkeys(_hop_rows(self.nodes, self.edges, strict=False))
        return [frozenset(order[j] for j in _mask_bits(row)) for row in rows]

    def is_connected(self) -> bool:
        n = len(self.nodes)
        return n <= 1 or _hop_rows(self.nodes, self.edges, strict=False)[0] == (1 << n) - 1

    def is_complete(self) -> bool:
        n = len(self.nodes)
        return len(self.edges) == n * (n - 1) // 2


@dataclass(frozen=True)
class SnapshotSequence:
    """Ordered sequence of edge sets over a fixed node set (indices 0..delta-1)."""

    nodes: frozenset[str]
    snapshots: tuple[frozenset[Edge], ...]

    def __post_init__(self):
        if len(self.snapshots) < 1:
            raise InputError("a snapshot sequence needs at least one snapshot")
        try:
            _check_edges(set().union(*self.snapshots), self.nodes)  # once per distinct edge
        except InputError:  # name the first bad edge as the snapshot-by-snapshot check finds it
            for g in self.snapshots:
                _check_edges(g, self.nodes)
            raise

    @staticmethod
    def build(nodes: Iterable[str], snapshots: Iterable[Iterable[tuple[str, str]]]) -> "SnapshotSequence":
        node_set = frozenset(nodes)
        canon: dict[tuple, Edge] = {}  # pair as given -> its edge's one shared tuple
        snaps = []
        for g in snapshots:
            row = []
            for u, v in g:
                try:
                    e = canon.get((u, v))
                except TypeError:  # an unhashable endpoint: edge() names what it can
                    edge(u, v)
                    raise InputError(f"node ids must be strings, got {u!r} and {v!r}") from None
                if e is None:  # edge() runs once per distinct pair
                    e = edge(u, v)
                    e = canon[u, v] = canon.setdefault(e, e)
                row.append(e)
            snaps.append(frozenset(row))
        return SnapshotSequence(node_set, tuple(snaps))

    @property
    def delta(self) -> int:
        return len(self.snapshots)

    def graph_at(self, t: int) -> StaticGraph:
        if not isinstance(t, int) or not 0 <= t < self.delta:
            raise RangeError(f"snapshot index {t!r} outside 0..{self.delta - 1}")
        return _trusted(StaticGraph, self.nodes, self.snapshots[t])

    @cached_property
    def _sorted_snapshots(self) -> tuple[tuple[Edge, ...], ...]:
        """Each snapshot's edges in sorted order, the order schedules are drawn from."""
        return tuple(tuple(sorted(g)) for g in self.snapshots)

    @cached_property
    def _ticks(self) -> IntervalGraph:
        """The sequence on integer ticks: snapshot i is presence over [i, i+1), latency 1.

        Consecutive snapshots merge into one run, and every time is a plain
        int, so the interval kernels run on it without Fraction arithmetic.
        """
        runs: dict[Edge, list[list[int]]] = {}
        for i, g in enumerate(self.snapshots):
            for e in g:
                ivs = runs.setdefault(e, [])
                if ivs and ivs[-1][1] == i:
                    ivs[-1][1] = i + 1
                else:
                    ivs.append([i, i + 1])
        edges = {e: tuple(map(tuple, ivs)) for e, ivs in runs.items()}
        return _trusted(IntervalGraph, self.nodes, edges, 1, (0, self.delta))


Intervals = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class IntervalGraph:
    """Edges labeled with disjoint half-open presence intervals; global latency.

    The constructor checks the invariant every kernel relies on: times are ints or Fractions,
    the latency is >= 0, edges are canonical, each edge's runs are non-empty, sorted and apart,
    and a lifetime, if given, holds every run.  ``build`` shapes raw input and then calls it;
    graphs derived from a checked one (views, cuts, reversals) are built trusted (``_trusted``).
    """

    nodes: frozenset[str]
    edges: dict[Edge, Intervals]
    latency: Fraction
    span: tuple[Fraction, Fraction] | None = None  # explicit lifetime override

    def __post_init__(self):
        times = (x for ivs in self.edges.values() for iv in ivs for x in iv)
        for x in (self.latency, *(self.span or ()), *times):
            if type(x) is not int and not isinstance(x, Fraction):  # a bool or a float is no exact time
                raise InputError(f"times must be ints or Fractions, got {x!r}")
        for e, ivs in self.edges.items():
            if not ivs:
                raise InputError(f"edge {e!r} has no presence interval")
            for a, b in ivs:
                if not a < b:
                    raise InputError(f"empty or inverted interval [{a}, {b})")
            for (start, end), (a, b) in zip(ivs, ivs[1:]):
                if a <= end:
                    fault = "unsorted" if a < start else "overlapping" if a < end else "touching"
                    raise InputError(f"{fault} intervals at [{a}, {b})")
        if self.span is not None:
            lo, hi = self.span
            # runs are sorted and apart, so an edge's first start and last end bound them all
            if lo > hi or any(ivs[0][0] < lo or hi < ivs[-1][1] for ivs in self.edges.values()):
                raise InputError(f"lifetime [{lo}, {hi}] must be an interval that holds every run")
        if self.latency < 0:
            raise InputError("latency must be >= 0")
        _check_edges(self.edges, self.nodes)

    @staticmethod
    def build(
        nodes: Iterable[str],
        edges: Mapping[tuple[str, str], Iterable[tuple]],
        latency=1,
        span: tuple | None = None,
    ) -> "IntervalGraph":
        """Input shaping: exact times, canonical edges (no duplicate), runs sorted and merged, an
        edge given no run dropped.  The constructor checks the invariant, bad runs included."""
        canon: dict[Edge, Intervals] = {}
        for (u, v), ivs in edges.items():
            e = edge(u, v)
            if e in canon:
                raise InputError(f"duplicate edge {e!r}")
            runs: list[tuple[Fraction, Fraction]] = []
            for a, b in sorted((as_time(a), as_time(b)) for a, b in ivs):
                # touching runs are one presence; only good runs merge (non-empty, the last one apart
                # from its predecessor), so the constructor names the bad run a check before would
                last = runs[-1] if runs else None
                if last and last[0] < a == last[1] < b and (len(runs) < 2 or runs[-2][1] <= last[0]):
                    runs[-1] = (last[0], b)
                else:
                    runs.append((a, b))
            if runs:
                canon[e] = tuple(runs)
        sp = None if span is None else (as_time(span[0]), as_time(span[1]))
        return IntervalGraph(frozenset(nodes), canon, as_time(latency), sp)

    @cached_property
    def incident(self) -> dict[str, tuple[tuple[str, Intervals], ...]]:
        inc: dict[str, list[tuple[str, Intervals]]] = {v: [] for v in self.nodes}
        for (u, v), ivs in sorted(self.edges.items()):
            inc[u].append((v, ivs))
            inc[v].append((u, ivs))
        return {v: tuple(sorted(lst)) for v, lst in inc.items()}

    @cached_property
    def _reversed(self) -> "IntervalGraph":
        """The graph in reversed time: presence [a, b) becomes [-b, -a), same latency.

        A hop at s becomes one at -(s + zeta), so a journey u ~> v leaving at d
        and arriving by t is a journey v ~> u from -t arriving at -d, of the same kind.
        """
        edges = {e: tuple((-b, -a) for a, b in reversed(ivs)) for e, ivs in self.edges.items()}
        span = None if self.span is None else (-self.span[1], -self.span[0])
        return _trusted(IntervalGraph, self.nodes, edges, self.latency, span)

    @cached_property
    def _unit(self) -> int:
        """D, ticks per unit: twice the lcm of every endpoint's, the span's and the latency's
        denominator, so every time is an even tick and so is a midpoint of two of them."""
        times = (*(x for ivs in self.edges.values() for iv in ivs for x in iv), *(self.span or ()))
        return 2 * math.lcm(self.latency.denominator, *{t.denominator for t in times})

    def _at_scale(self, scale: int) -> "IntervalGraph":
        """The view in ticks of 1/scale (a multiple of ``_unit``), read off numerators with no
        Fraction arithmetic; the view at D and the last three wider ones stay cached."""
        views = self.__dict__.setdefault("_views", {})
        view = views.get(scale)
        if view is None:
            def tick(t):
                return t.numerator * (scale // t.denominator)
            edges = {e: tuple((tick(a), tick(b)) for a, b in ivs) for e, ivs in self.edges.items()}
            span = None if self.span is None else (tick(self.span[0]), tick(self.span[1]))
            for k in [k for k in list(views) if k != self._unit][:-2]:
                views.pop(k, None)
            views[scale] = view = _trusted(IntervalGraph, self.nodes, edges, tick(self.latency), span)
        return view


TemporalGraph = Union[SnapshotSequence, IntervalGraph]


def lifetime(g: TemporalGraph) -> tuple[Fraction, Fraction]:
    """Hull [lo, hi] of the graph's activity (0..delta for discrete)."""
    if isinstance(g, SnapshotSequence):
        return Fraction(0), Fraction(g.delta)
    if g.span is not None:
        return g.span
    if not g.edges:
        return Fraction(0), Fraction(0)
    return min(ivs[0][0] for ivs in g.edges.values()), max(ivs[-1][1] for ivs in g.edges.values())


def characteristic_dates(g: IntervalGraph) -> tuple[Fraction, ...]:
    """Sorted times at which some edge appears or disappears."""
    g = _require_intervals(g, "characteristic dates")
    return tuple(sorted({x for ivs in g.edges.values() for iv in ivs for x in iv}))


def _first_hop(ivs: Intervals, lb: Time, zeta: Time) -> Time | None:
    """The hop rule, stated once: the earliest s >= lb such that [s, s+zeta]
    lies inside the closure [a, b] of one run of ivs, or None."""
    for a, b in ivs:
        s = a if a > lb else lb
        if s + zeta <= b:
            return s
    return None


def supports_hop(g: IntervalGraph, e: Edge, s: Time) -> bool:
    """True iff the edge can carry a hop departing at s ([s, s+zeta] within [a, b])."""
    g, s = _require_intervals(g, "hop tests"), as_time(s)
    return _first_hop(g.edges.get(edge(*e), ()), s, g.latency) == s


def footprint(g: TemporalGraph) -> StaticGraph:
    """Edges present at least once over the lifetime."""
    edges = frozenset().union(*g.snapshots) if isinstance(g, SnapshotSequence) else frozenset(g.edges)
    return _trusted(StaticGraph, g.nodes, edges)


def intersection_graph(g: TemporalGraph) -> StaticGraph:
    """Edges present in every snapshot / over the whole lifetime."""
    if isinstance(g, SnapshotSequence):
        return _trusted(StaticGraph, g.nodes, g.snapshots[0].intersection(*g.snapshots[1:]))
    lo, hi = lifetime(g)  # holds every run, so a run over all of it is the edge's only one
    return _trusted(StaticGraph, g.nodes, frozenset(e for e, ivs in g.edges.items()
                                                    if ivs[0][0] <= lo and hi <= ivs[0][1]))


def snapshot_at(g: TemporalGraph, t: Time) -> StaticGraph:
    """The static graph of edges present at instant t."""
    if isinstance(g, SnapshotSequence):
        return g.graph_at(_tick(t, "snapshot index"))
    t = as_time(t)
    lo, hi = lifetime(g)
    if not lo <= t <= hi:
        raise RangeError(f"time {t} outside lifetime [{lo}, {hi}]")
    edges = frozenset(
        e for e, ivs in g.edges.items()
        if any(a <= t < b for a, b in ivs)
    )
    return _trusted(StaticGraph, g.nodes, edges)


def temporal_subgraph(g: TemporalGraph, window: tuple[Time, Time]) -> TemporalGraph:
    """Presence restricted to [ta, tb); the node set is unchanged."""
    ta, tb = window
    if isinstance(g, SnapshotSequence):
        a, b = _tick(ta, "window bound"), _tick(tb, "window bound")
        if not a < b:
            raise RangeError(f"empty window [{ta}, {tb})")
        a, b = max(a, 0), min(b, g.delta)
        if a >= b:
            raise RangeError(f"window [{ta}, {tb}) selects no snapshot")
        return _trusted(SnapshotSequence, g.nodes, g.snapshots[a:b])
    ta, tb = as_time(ta), as_time(tb)
    if not ta < tb:
        raise RangeError(f"empty window [{ta}, {tb})")
    lo, hi = lifetime(g)
    if tb <= lo or ta >= hi:
        raise RangeError(f"window [{ta}, {tb}) misses lifetime [{lo}, {hi}]")
    return _restrict(g, ta, tb)


def _restrict(g: IntervalGraph, ta: Time, tb: Time) -> IntervalGraph:
    """The one window restriction (ta < tb, Fractions or ticks): presence cut to [ta, tb),
    a run left empty dropped, so at zero latency a run ending at ta stays outside."""
    clipped: dict[Edge, Intervals] = {}
    for e, ivs in g.edges.items():
        kept = tuple((a if a > ta else ta, b if b < tb else tb)
                     for a, b in ivs if a < tb and ta < b)
        if kept:
            clipped[e] = kept
    return _trusted(IntervalGraph, g.nodes, clipped, g.latency, (ta, tb))


def _induced(g: IntervalGraph, keep: frozenset[str]) -> IntervalGraph:
    """The one node restriction: g on the nodes keep, with the edges between two of them."""
    edges = {e: ivs for e, ivs in g.edges.items() if e[0] in keep and e[1] in keep}
    return _trusted(IntervalGraph, keep, edges, g.latency, g.span)


@dataclass(frozen=True)
class Discretization:
    """A snapshot sequence plus the table mapping index -> elementary interval."""

    sequence: SnapshotSequence
    spans: tuple[tuple[Fraction, Fraction], ...]

    def __iter__(self):
        return iter((self.sequence, self.spans))


def discretize(g: IntervalGraph) -> Discretization:
    """One snapshot per elementary interval between consecutive characteristic dates.

    Snapshot i contains an edge iff the edge is present throughout
    [date_i, date_{i+1}).
    """
    dates = list(characteristic_dates(_require_intervals(g, "discretizations")))
    lo, hi = lifetime(g)
    if g.span is not None:
        if not dates or dates[0] > lo:
            dates.insert(0, lo)
        if dates[-1] < hi:
            dates.append(hi)
    if len(dates) < 2:
        seq = _trusted(SnapshotSequence, g.nodes, (frozenset(),))
        return Discretization(seq, ((lo, lo + 1),))
    return Discretization(_on_grid(g, dates), tuple(zip(dates, dates[1:])))


def _on_grid(g: IntervalGraph, dates: Sequence[Time]) -> SnapshotSequence:
    """Snapshot i holds the edges present throughout [dates[i], dates[i+1])."""
    return _trusted(SnapshotSequence, g.nodes, tuple(
        frozenset(e for e, ivs in g.edges.items() if any(x <= a and b <= y for x, y in ivs))
        for a, b in zip(dates, dates[1:])
    ))


def _as_sequence(g: TemporalGraph) -> SnapshotSequence:
    """g itself, or the snapshot sequence of its discretization."""
    return g if isinstance(g, SnapshotSequence) else discretize(g).sequence


def _require_sequence(g: TemporalGraph, what: str) -> SnapshotSequence:
    """g, which the operations named by what need to be a snapshot sequence."""
    if not isinstance(g, SnapshotSequence):
        raise InputError(f"{what} need a snapshot sequence; discretize() first")
    return g


def _require_intervals(g: TemporalGraph, what: str) -> IntervalGraph:
    """g, which the operations named by what need to be an interval graph."""
    if not isinstance(g, IntervalGraph):
        raise InputError(f"{what} need an interval graph; convert a snapshot sequence with to_intervals")
    return g


@dataclass(frozen=True)
class TraceStats:
    n: int
    m: int
    mu: int
    k: int
    lifetime: tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.mu > self.m:
            raise InputError("instant density cannot exceed cumulative density")


def stats(g: TemporalGraph) -> TraceStats:
    """n nodes, m cumulative edges, mu max instant density, k snapshots/dates.

    On an interval graph mu is the most runs open at once, one sweep over the run
    ends with an end before a start at a tie: an edge's runs are disjoint and
    merged, so that is the largest snapshot of the discretization.
    """
    lo, hi = lifetime(g)
    if isinstance(g, SnapshotSequence):
        mu = max(len(s) for s in g.snapshots)
        return TraceStats(len(g.nodes), len(footprint(g).edges), mu, g.delta, (lo, hi))
    ends = sorted(x for ivs in g.edges.values() for a, b in ivs for x in ((a, 1), (b, -1)))
    mu = max(itertools.accumulate(step for _, step in ends), default=0)
    k = len(characteristic_dates(g))
    return TraceStats(len(g.nodes), len(g.edges), mu, k, (lo, hi))


def to_intervals(seq: SnapshotSequence, latency=1) -> IntervalGraph:
    """Continuous representation: snapshot i becomes presence over [i, i+1)."""
    ticks = _require_sequence(seq, "conversions to intervals")._ticks
    return IntervalGraph.build(seq.nodes, ticks.edges, latency, ticks.span)


def to_snapshots(g: IntervalGraph) -> SnapshotSequence:
    """Discrete representation on the unit grid; endpoints must be integers."""
    lo, hi = lifetime(_require_intervals(g, "conversions to snapshots"))
    for d in (lo, hi, *[x for ivs in g.edges.values() for iv in ivs for x in iv]):
        if Fraction(d).denominator != 1:
            raise InputError(
                f"non-integer characteristic date {d}; discretize() handles general grids"
            )
    lo, hi = int(lo), int(hi)
    return _on_grid(g, range(lo, max(hi, lo + 1) + 1))
