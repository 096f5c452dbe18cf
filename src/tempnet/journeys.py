"""Journeys and journey metrics.

A journey is a walk whose hops carry timestamps: strictly increasing times in
the discrete model (or separated by the latency ``zeta`` in the continuous
one), non-decreasing times for non-strict journeys.  This module computes
foremost (earliest-arrival), shortest (fewest-hops) and fastest
(smallest-duration) journeys, temporal distance / eccentricity / diameter,
latest departures (temporal views), the steady-progress parameter, and the
desk-scale disjoint-journey and separator brute forces.  Each has one kernel,
written for interval graphs and run on an integer view, and the time-model
adapter ``_TimeModel``, made once per public call, is the one place where the
two models differ: it reads and checks the call's times, picks the view (a
sequence's ``_ticks``, else ``IntervalGraph._at_scale``) and maps results
back; only the public interval ``earliest_arrival`` searches ``Fraction``
times.  Latest departure is earliest arrival reversed, and the disjoint and
separator searches cut the view to each candidate node set (``core._induced``).

Discrete time conventions: arrival of a journey is the index of its last hop
and duration is t_k - t_1.  ``temporal_distance(g, u, t)`` measures journeys
departing at or after t+1 ("just after t"); ``earliest_arrival`` itself takes
the inclusive departure bound t0.  Discrete time and window arguments must
be integers; a fraction raises RangeError.  Continuous arrival is t_k + zeta.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import (
    IntervalGraph,
    SnapshotSequence,
    TemporalGraph,
    Time,
    _check_kind,
    _check_limit,
    _first_hop,
    _induced,
    _require_intervals,
    _tick,
    as_time,
    characteristic_dates,
    edge,
    footprint,
    lifetime,
    supports_hop,
    temporal_subgraph,
)
from .errors import InputError, RangeError

INF = math.inf


def _check_node(g: TemporalGraph, *nodes: str):
    for v in nodes:
        if v not in g.nodes:
            raise InputError(f"unknown node {v!r}")


class _TimeModel:
    """The one place where the two time models differ; each public call makes one.

    A snapshot sequence runs on ``_ticks`` (snapshot i is presence over [i, i+1),
    latency 1) with no scale and takes integer times in 0..delta - offset.  Offset 1
    marks a time t that journeys leave just after or arrive by: none starts there,
    so messages call it "time", and it is tick t + 1.  A non-strict hop leaves no
    idle behind it, and journeys carry latency None.  An interval graph takes any
    time in its lifetime and runs on ``_at_scale``'s view at lcm(D * factor, 2q) for
    the call's times of denominator q; a tick x maps back to Fraction(x, scale).
    """

    def __init__(self, g: TemporalGraph):
        self.g, self.seq, self.scale = g, isinstance(g, SnapshotSequence), None
        self.latency = None if self.seq else g.latency  # what returned journeys carry

    @property
    def exact(self) -> IntervalGraph:  # the graph on its own times, built only when asked for
        return self.g._ticks if self.seq else self.g

    def read(self, t: Time, what: str) -> Time:
        return _tick(t, what) if self.seq else as_time(t)

    def whole(self, t: Time) -> bool:
        """Is t a time of the model: any time, or an integer on a sequence?"""
        return not self.seq or as_time(t).denominator == 1

    def bounds(self, offset: int = 0) -> tuple[Time, Time, str]:
        """(lo, hi, how messages name them): 0..delta - offset, or the lifetime."""
        lo, hi = (0, self.g.delta - offset) if self.seq else lifetime(self.g)
        return lo, hi, f"0..{hi}" if self.seq else f"lifetime [{lo}, {hi}]"

    def at(self, t: Time, what: str = "start time", offset: int = 0) -> Time:
        what = "time" if self.seq and offset else what
        t, (lo, hi, where) = self.read(t, what), self.bounds(offset)
        if not lo <= t <= hi:
            raise RangeError(f"{what} {t} outside {where}")
        return t

    def ticks(self, *times: Time, offset=0, factor=1) -> tuple[IntervalGraph, list[int]]:
        if self.seq:
            return self.g._ticks, [int(t) + offset for t in times]
        scale = self.scale = math.lcm(self.g._unit * factor, *(2 * t.denominator for t in times))
        return self.g._at_scale(scale), [t.numerator * (scale // t.denominator) for t in times]

    def back(self, x: int) -> Time:
        return x if self.scale is None else Fraction(x, self.scale)

    def reported(self, table: ReachabilityTable) -> ReachabilityTable:
        if self.seq:  # a search on ``exact``: an arrival by tick t + 1 is one by snapshot t
            arrival = {v: t - 1 for v, t in table.arrival.items()} | {table.source: table.start}
            table = replace(table, latency=None, arrival=arrival)
        return table

    def grid(self, lo: Time, hi: Time) -> tuple[IntervalGraph, list[int]]:
        """(view, the sweeps' candidate departures in [lo, hi]): every snapshot index, or the
        characteristic dates and lo, hi, each minus k * zeta for k <= n + 1."""
        view, (ilo, ihi) = self.ticks(lo, hi)
        if self.seq:
            return view, list(range(ilo, ihi + 1))
        z, n, dates = view.latency, len(view.nodes), characteristic_dates(view)
        return view, sorted({d - k * z for d in (*dates, ilo, ihi) for k in range(n + 2)
                             if ilo <= d - k * z <= ihi})

    def fine(self, n: int) -> int:
        """Ticks per grid tick that hold every p / j, j <= n; a sequence's waits are whole."""
        return 1 if self.seq else math.lcm(*range(1, n + 1))

    def hop_cost(self, zeta: int, strict: bool) -> int:
        """Ticks from a hop's departure to the idle after it, as in Journey.max_wait."""
        return int(strict) if self.seq else zeta


@dataclass(frozen=True)
class Journey:
    """Timed walk; hops are (from, to, time) with `from`->`to` the traversal."""

    hops: tuple[tuple[str, str, Time], ...]
    kind: str = "strict"
    latency: Optional[Fraction] = None  # None means discrete time

    @property
    def hop_count(self) -> int:
        return len(self.hops)

    @property
    def departure(self) -> Optional[Time]:
        return self.hops[0][2] if self.hops else None

    @property
    def arrival(self) -> Optional[Time]:
        if not self.hops:
            return None
        last = self.hops[-1][2]
        return last if self.latency is None else last + self.latency

    @property
    def duration(self) -> Time:
        if not self.hops:
            return 0
        return self.arrival - self.departure

    @property
    def max_wait(self) -> Time:
        """Largest idle time at an intermediate node (0 for <= 1 hop)."""
        if len(self.hops) <= 1:
            return 0
        hop_cost = int(self.kind == "strict") if self.latency is None else self.latency
        waits = [
            self.hops[i + 1][2] - self.hops[i][2] - hop_cost
            for i in range(len(self.hops) - 1)
        ]
        return max(0, max(waits))


def validate_journey(g: TemporalGraph, j: Journey) -> bool:
    """True iff j is a valid journey of its kind in g."""
    strict = _check_kind(j.kind)
    m = _TimeModel(g)
    ig = m.exact
    for u, v, _ in j.hops:
        _check_node(g, u, v)
        if edge(u, v) not in ig.edges:
            raise InputError(f"edge {u!r}-{v!r} never present in the trace")
    for i in range(len(j.hops) - 1):
        if j.hops[i][1] != j.hops[i + 1][0]:
            return False  # not a walk
    if not all(m.whole(t) for _, _, t in j.hops):
        return False  # on ticks, a hop at 1/2 would fit inside a run
    if not all(supports_hop(ig, (u, v), t) for u, v, t in j.hops):
        return False
    times = [as_time(t) for _, _, t in j.hops]
    sep = ig.latency if strict else 0
    return all(t2 - t1 >= sep for t1, t2 in zip(times, times[1:]))


@dataclass(frozen=True)
class ReachabilityTable:
    """Earliest arrivals from one source; parent links form a foremost tree."""

    source: str
    start: Time
    kind: str
    latency: Optional[Fraction]
    arrival: dict[str, Time]
    parent: dict[str, tuple[str, Time]]
    hops: dict[str, int]
    dep_hi: Optional[Time] = None

    def journey_to(self, v: str) -> Optional[Journey]:
        if v == self.source:
            return Journey((), self.kind, self.latency)
        if v not in self.parent:
            return None
        chain: list[tuple[str, str, Time]] = []
        cur = v
        while True:
            prev, s = self.parent[cur]
            chain.append((prev, cur, s))
            if prev == self.source:
                # stop unless this is a re-entry hop outside the departure window
                if self.dep_hi is None or self.start <= s <= self.dep_hi:
                    break
            cur = prev
        return Journey(tuple(reversed(chain)), self.kind, self.latency)


def earliest_arrival(
    g: TemporalGraph,
    src: str,
    t0: Time,
    kind: str = "strict",
    dep_hi: Optional[Time] = None,
) -> ReachabilityTable:
    """Foremost journeys departing in [t0, dep_hi] (dep_hi defaults to the lifetime end).

    arrival[v] is minimal; ties are broken by fewer hops, then by node id, so
    parent maps are deterministic.  Unreachable nodes are simply absent.
    Both models share one kernel, on ``_TimeModel.exact``: a sequence's integer
    ticks (t0 and dep_hi must be integers; an arrival by tick t + 1 is reported
    as arrival by snapshot t), or an interval graph's own ``Fraction`` times.
    """
    _check_kind(kind)
    _check_node(g, src)
    m = _TimeModel(g)
    t0 = m.at(t0)
    if dep_hi is not None:
        dep_hi = m.read(dep_hi, "departure bound")
    return m.reported(_foremost(m.exact, src, t0, kind, dep_hi))


def _foremost(ig, src, t0, kind, dep_hi, stop=None):
    """The one earliest-arrival search; it ends once ``stop``, if given, is settled."""
    strict = kind == "strict"
    zeta = ig.latency
    arrival: dict[str, Fraction] = {}
    parent: dict[str, tuple[str, Fraction]] = {}
    hcount: dict[str, int] = {}
    heap: list = []

    def relax_from(x, base_arr, base_hops, is_start):
        dep_lb = base_arr if (is_start or strict) else base_arr - zeta
        for y, ivs in ig.incident[x]:
            if y in arrival:
                continue  # settled: an entry toward y would be popped and dropped
            s = _first_hop(ivs, dep_lb, zeta)  # the earliest hop gives the least arrival
            if s is None or is_start and dep_hi is not None and s > dep_hi:
                continue
            heapq.heappush(heap, (s + zeta, base_hops + 1, y, x, s))

    relax_from(src, t0, 0, True)
    while heap:
        arr, h, y, px, s = heapq.heappop(heap)
        if y in arrival:
            continue
        arrival[y] = arr
        parent[y] = (px, s)
        hcount[y] = h
        if y == stop:
            break  # a popped node's arrival, parent and hop count are final
        relax_from(y, arr, h, False)
    arrival[src] = t0
    return ReachabilityTable(src, t0, kind, zeta, arrival, parent, hcount, dep_hi)


def _eccentricity(m: _TimeModel, view: IntervalGraph, start: int, kind: str, sources) -> Time:
    """The largest distance from any of sources on an integer view, mapped back to graph
    time: int 0 when every node is reached at start, inf once a source misses one."""
    worst = 0
    for u in sources:
        arrival = _foremost(view, u, start, kind, None).arrival
        if len(arrival) < len(view.nodes):
            return INF
        worst = max(worst, max(arrival.values()) - start)
    return worst and m.back(worst)


def temporal_distance(g: TemporalGraph, u: str, t: Time, kind: str = "strict") -> dict[str, Time]:
    """arrival - t for journeys leaving just after t (discrete: departures >= t+1),
    keyed in sorted node order whatever the hash seed."""
    _check_node(g, u)
    _check_kind(kind)
    m = _TimeModel(g)
    view, (start,) = m.ticks(m.at(t, offset=1), offset=1)
    arrival = _foremost(view, u, start, kind, None).arrival
    return {v: 0 if v == u else m.back(arrival[v] - start) if v in arrival else INF
            for v in sorted(g.nodes)}


def eccentricity(g: TemporalGraph, u: str, t: Time, kind: str = "strict") -> Time:
    """Largest temporal distance from u at t; int 0 when every distance is 0."""
    return max(temporal_distance(g, u, t, kind).values()) or 0


def temporal_diameter_at(g: TemporalGraph, t: Time, kind: str = "strict") -> Time:
    """Largest eccentricity at t, sources in name order; stops at the first inf."""
    _check_kind(kind)
    m = _TimeModel(g)
    view, (start,) = m.ticks(m.at(t, offset=1), offset=1)
    return _eccentricity(m, view, start, kind, sorted(g.nodes))


def latest_departure(
    g: TemporalGraph, u: str, v: str, t: Time, kind: str = "strict"
) -> Optional[Time]:
    """Max departure time of a journey u ~> v arriving by t (the temporal view).

    t lies in 0..delta-1 on a sequence (an integer: arriving by snapshot t is
    arriving by tick t + 1) and inside the lifetime otherwise.  Latest departure
    is earliest arrival in reversed time: the foremost journey v ~> u from -t on
    the integer view's ``_reversed`` mirror arrives at -d for the latest
    departure d, and that search ends once u is settled.
    """
    _check_kind(kind)
    _check_node(g, u, v)
    m = _TimeModel(g)
    t = m.at(t, "time", 1)
    if u == v:
        return t
    view, (tick,) = m.ticks(t, offset=1)
    arrival = _foremost(view._reversed, v, -tick, kind, None, stop=u).arrival
    return None if u not in arrival else m.back(-arrival[u])


def shortest_journey(
    g: TemporalGraph, u: str, v: str, t0: Time, kind: str = "strict"
) -> Optional[Journey]:
    """Fewest-hops journey departing at or after t0 (checked as in earliest_arrival), on ticks."""
    strict = _check_kind(kind)
    _check_node(g, u, v)
    m = _TimeModel(g)
    g, (t0,) = m.ticks(m.at(t0))  # the search runs on the view
    if u == v:
        return Journey((), kind, m.latency)
    zeta = g.latency
    layer: dict[str, Time] = {u: t0}  # node -> earliest arrival using exactly h hops
    back: dict[tuple[str, int], tuple[str, Time]] = {}
    for h in range(1, len(g.nodes)):
        nxt: dict[str, Time] = {}
        for x in sorted(layer):
            arr = layer[x]
            lb = arr if (h == 1 or strict) else arr - zeta
            for y, ivs in g.incident[x]:
                s = _first_hop(ivs, lb, zeta)
                if s is None:
                    continue
                arr_y = s + zeta
                if y not in nxt or arr_y < nxt[y]:
                    nxt[y] = arr_y
                    back[(y, h)] = (x, s)
        if v in nxt:
            hops: list[tuple[str, str, Time]] = []
            cur, hh = v, h
            while hh > 0:
                prev, s = back[(cur, hh)]
                hops.append((prev, cur, m.back(s)))
                cur, hh = prev, hh - 1
            return Journey(tuple(reversed(hops)), kind, m.latency)
        layer = nxt
        if not layer:
            break
    return None


def fastest_journey(
    g: TemporalGraph,
    u: str,
    v: str,
    window: Optional[tuple[Time, Time]] = None,
    kind: str = "strict",
) -> Optional[Journey]:
    """Smallest-duration journey departing within [window_lo, window_hi].

    The window is clipped to the lifetime (0..delta-1 on a sequence); one
    that is inverted or misses it raises RangeError.  Ties go to the earlier
    departure.  One sweep serves both models, on the integer view of
    ``_TimeModel.grid``: it tries candidate departures d in order.  A sequence's
    candidates are every snapshot index in the window (a discrete journey
    departs at one); an interval graph's are the characteristic dates and
    window bounds minus k * zeta, and the earliest optimal departure is one
    of them (an optimal journey slides back until a presence start, an
    edge's end or a window bound pins it).  One earliest-arrival search from
    d, stopped once v is settled, finds a journey leaving u at d1 >= d.
    Every later departure arrives no earlier, so d1 scores best in [d, d1]
    as (arrival - d1, d1), and no departure up to arrival - best (d1 or
    later) lasts less than the best so far; the sweep resumes after it.  It
    stops at the first journey that lasts as little as any journey can:
    zeta times the hop distance from u to v in the footprint when strict
    (each hop leaves once the last has arrived), zeta when non-strict.  One
    more earliest-arrival search from the chosen departure rebuilds the
    journey, whose hop times then map back to graph time.
    """
    strict = _check_kind(kind)
    _check_node(g, u, v)
    m = _TimeModel(g)
    lo, hi, where = m.bounds(1)
    wlo, whi = (lo, hi) if window is None else (m.read(t, "window bound") for t in window)
    if not max(wlo, lo) <= min(whi, hi):
        raise RangeError(f"window [{wlo}, {whi}] holds no departure time in {where}")
    wlo, whi = max(wlo, lo), min(whi, hi)
    if u == v:
        return Journey((), kind, m.latency)
    (ig, grid), i = m.grid(wlo, whi), 0  # whi is the last candidate
    # a strict journey takes zeta per hop; a non-strict one may take zeta in all
    floor = ig.latency * (_footprint_hops(ig, u, v) if strict else 1)
    best: Optional[tuple[int, int]] = None  # (arrival - departure, departure) in ticks
    while i < len(grid):
        table = _foremost(ig, u, grid[i], kind, grid[-1], stop=v)
        if v not in table.arrival:
            break  # departing even later cannot help
        # the journey leaves at d1 >= grid[i], and no later departure arrives earlier
        arr, d1 = table.arrival[v], table.journey_to(v).departure
        if best is None or (arr - d1, d1) < best:
            best = (arr - d1, d1)
        if best[0] == floor:
            break  # no journey is faster, and ties go to the earlier departure
        i = bisect.bisect_right(grid, arr - best[0])  # none up to there beats best; d1 is there
    if best is None:
        return None
    hops = _foremost(ig, u, best[1], kind, grid[-1]).journey_to(v).hops
    assert hops[0][2] == best[1]
    return Journey(tuple((x, y, m.back(s)) for x, y, s in hops), kind, m.latency)


def _footprint_hops(g: IntervalGraph, u: str, v: str) -> int:
    """Hop distance from u to v in the footprint of a sweep's view (moot when v is out of reach)."""
    adj, seen, frontier, hops = footprint(g).adjacency, {u}, {u}, 0
    while frontier and v not in frontier:
        frontier = {y for x in frontier for y in adj[x]} - seen
        seen |= frontier
        hops += 1
    return hops


def foremost_tree_intervals(
    g: IntervalGraph,
    src: str,
    window: tuple[Time, Time],
    kind: str = "strict",
) -> list[tuple[tuple[Fraction, Fraction], dict[str, str]]]:
    """Partition [lo, hi) of initiation times by the shape of the foremost tree.

    The parent map (child -> parent node) of earliest_arrival is evaluated at
    the midpoint of every elementary segment of the zeta-shifted characteristic
    grid, and equal adjacent segments are merged.  Boundary instants are never
    sampled, so the reported half-open intervals are exact on that grid.
    Searches run on ``_TimeModel.grid``'s integer view; the window must lie
    inside the lifetime.  A snapshot sequence is rejected: ``to_intervals``
    converts it.
    """
    _check_node(_require_intervals(g, "foremost-tree sweeps"), src)
    wlo, whi = as_time(window[0]), as_time(window[1])
    if not wlo < whi:
        raise RangeError(f"empty window [{wlo}, {whi})")
    lo, hi = lifetime(g)
    if not lo <= wlo < whi <= hi:
        raise RangeError(f"window [{wlo}, {whi}) outside lifetime [{lo}, {hi}]")
    _check_kind(kind)
    m = _TimeModel(g)
    view, grid = m.grid(wlo, whi)
    out: list[tuple[tuple[int, int], dict[str, str]]] = []
    for a, b in zip(grid, grid[1:]):
        table = _foremost(view, src, (a + b) // 2, kind, None)  # every tick is even
        shape = {child: p for child, (p, _) in table.parent.items() if child != src}
        if out and out[-1][1] == shape:
            out[-1] = ((out[-1][0][0], b), shape)
        else:
            out.append(((a, b), shape))
    return [((m.back(a), m.back(b)), shape) for (a, b), shape in out]


def steady_progress_alpha(
    g: TemporalGraph,
    window: Optional[tuple[Time, Time]] = None,
    kind: str = "strict",
    pair: Optional[tuple[str, str]] = None,
) -> Optional[Time]:
    """Smallest alpha such that every ordered pair (or the given pair) has a
    node-distinct journey in the window whose initial wait (first hop time
    minus window start) and idles are <= alpha.

    The window [s, e) is the trace restricted to it (``temporal_subgraph``;
    at zero latency a run ending at s is outside it).  The idle between hops
    at t1 and t2 is t2 - t1 - c as in Journey.max_wait: on a sequence c is 1
    strict and 0 non-strict; on an interval graph c is zeta in both kinds (a
    non-strict hop may leave before the last arrives).  Feasibility is
    monotone in alpha, and the least feasible alpha is p / j whole ticks of
    the window's grid with j <= n (j = 1 on a sequence's slice): the search
    finds the least feasible multiple c of L = lcm(1..n) ticks at scale D * L
    (L = 1 on a sequence, ``_TimeModel.fine``), then, when L > 1, the least
    feasible c - L + L * i / j for 1 <= i <= j <= n.  Returns None when some
    pair has no such journey in the window at all.
    """
    strict = _check_kind(kind)
    if window is None:
        window = lifetime(g)
    if pair is not None:
        _check_node(g, pair[0], pair[1])
        pairs = [pair]
    else:
        pairs = list(itertools.permutations(sorted(g.nodes), 2))
    m, n = _TimeModel(temporal_subgraph(g, window)), len(g.nodes)
    step = m.fine(n)
    ig, (wlo, whi) = m.ticks(*lifetime(m.g), factor=step)
    gap, cost = ig.latency if strict else 0, m.hop_cost(ig.latency, strict)
    # each pair's least alpha known feasible; every alpha tested lies above every failure
    ok_from = [INF] * len(pairs)

    def feasible(alpha):
        for k, (a, b) in enumerate(pairs):
            if ok_from[k] > alpha:
                if not _alpha_ok(ig, a, b, wlo, alpha, gap, cost):
                    return False
                ok_from[k] = alpha
        return True

    def least(vals):
        # the least feasible of the sorted vals: gallop up (indices 0, 1, 3, 7, ...), then bisect
        lo_i, hi_i = 0, 0
        while not feasible(vals[hi_i]):
            if hi_i == len(vals) - 1:
                return None
            lo_i, hi_i = hi_i + 1, min(2 * hi_i + 1, len(vals) - 1)
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if feasible(vals[mid]):
                hi_i = mid
            else:
                lo_i = mid + 1
        return vals[lo_i]

    c = least(range(0, whi - wlo + 1, step))
    if c and step > 1:  # the answer lies in (c - step, c]
        c = least(sorted({c - step + step * i // j for j in range(1, n + 1) for i in range(1, j + 1)}))
    return None if c is None else m.back(c)


def _alpha_ok(ig, src, dst, wlo, alpha, gap, cost) -> bool:
    """Does a node-distinct src ~> dst journey in ig, a window from wlo, wait <= alpha?

    Along a fixed path and choice of runs each hop's feasible times form a
    range [lo, hi] (an exact projection), and the next hop may leave in
    [lo + gap, hi + cost + alpha].  Revisits are out: bouncing on a lasting
    edge would refresh a token forever and void the bound.  Depth first on
    an explicit stack of hop generators, neighbours in incident order.
    """
    if src == dst:
        return True
    zeta = ig.latency
    on_path = {src}

    def hops(x, lo, hi):
        first, last = lo + gap, hi + cost + alpha
        for y, ivs in ig.incident[x]:
            if y in on_path:
                continue
            for a, b in ivs:
                if a > last:
                    break  # runs are sorted
                # core._first_hop's rule as a range: [s, s + zeta] within [a, b]
                s_lo, end = a if a > first else first, b - zeta
                if s_lo <= end:
                    yield y, s_lo, end if end < last else last

    # a virtual hop before the window makes the first one leave in [wlo, wlo + alpha]
    stack = [(src, hops(src, wlo - gap, wlo - cost))]
    while stack:
        for y, lo, hi in stack[-1][1]:
            if y == dst:
                return True
            on_path.add(y)
            stack.append((y, hops(y, lo, hi)))
            break
        else:
            on_path.discard(stack.pop()[0])
    return False


def _journey_exists(view: IntervalGraph, s: str, t: str, internal, kind: str) -> bool:
    """Is there an s ~> t journey through internal nodes only, from the start of the view?"""
    if s == t:
        return True
    sub = _induced(view, frozenset(internal) | {s, t})
    return t in _foremost(sub, s, lifetime(view)[0], kind, None, stop=t).parent


def _minimal_feasible_sets(view, s, t, kind) -> Optional[list[frozenset[str]]]:
    """Inclusion-minimal internal node sets supporting an s ~> t journey on an integer view.

    Returns None when the empty set is feasible (a direct presence exists).
    """
    internal = sorted(view.nodes - {s, t})
    if _journey_exists(view, s, t, (), kind):
        return None
    minimal: list[frozenset[str]] = []
    for size in range(1, len(internal) + 1):
        for combo in itertools.combinations(internal, size):
            cset = frozenset(combo)
            if any(m <= cset for m in minimal):
                continue
            if _journey_exists(view, s, t, cset, kind):
                minimal.append(cset)
    return minimal


def max_disjoint_journeys(
    g: TemporalGraph, s: str, t: str, kind: str = "strict", limit_n: int = 12
):
    """Max number of pairwise internally node-disjoint s ~> t journeys.

    Infinity when a direct presence exists (empty interiors duplicate freely).
    """
    _check_kind(kind)
    _check_node(g, s, t)
    _check_limit(g.nodes, limit_n, "brute-force")
    minimal = _minimal_feasible_sets(_TimeModel(g).ticks()[0], s, t, kind)
    if minimal is None:
        return INF

    def pack(avail: list[frozenset[str]]) -> int:  # branch on the first set taken
        return max((1 + pack([m for m in avail[i + 1:] if not m & first])
                    for i, first in enumerate(avail)), default=0)

    return pack(minimal)


def min_temporal_separator(
    g: TemporalGraph, s: str, t: str, kind: str = "strict", limit_n: int = 12
):
    """Smallest internal node set whose removal kills all s ~> t journeys.

    Infinity when s and t share a direct presence (no internal cut exists).
    """
    _check_kind(kind)
    _check_node(g, s, t)
    _check_limit(g.nodes, limit_n, "brute-force")
    view, _ = _TimeModel(g).ticks()
    internal = sorted(g.nodes - {s, t})
    if _journey_exists(view, s, t, (), kind):
        return INF
    if not _journey_exists(view, s, t, internal, kind):
        return 0
    for size in range(1, len(internal) + 1):
        for cut in itertools.combinations(internal, size):
            remaining = set(internal) - set(cut)
            if not _journey_exists(view, s, t, remaining, kind):
                return size
