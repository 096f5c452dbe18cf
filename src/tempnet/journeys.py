"""Journeys and journey metrics.

A journey is a walk whose hops carry timestamps: strictly increasing times in
the discrete model (or separated by the latency ``zeta`` in the continuous
one), non-decreasing times for non-strict journeys.  This module computes
foremost (earliest-arrival), shortest (fewest-hops) and fastest
(smallest-duration) journeys, temporal distance / eccentricity / diameter,
latest departures (temporal views), the steady-progress parameter, and the
desk-scale disjoint-journey and separator brute forces.

Discrete time conventions: arrival of a journey is the index of its last hop
and duration is t_k - t_1.  ``temporal_distance(g, u, t)`` measures journeys
departing at or after t+1 ("just after t"); ``earliest_arrival`` itself takes
the inclusive departure bound t0.  Discrete time and window arguments must
be integers; a fraction raises RangeError.  Continuous arrival is t_k + zeta.
"""

from __future__ import annotations

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
    _hop_rows,
    _mask_bits,
    _node_index,
    _reach_masks,
    as_time,
    characteristic_dates,
    edge,
    lifetime,
    supports_hop,
    temporal_subgraph,
)
from .errors import ContractError, InputError, RangeError

INF = math.inf


def _check_node(g: TemporalGraph, v: str):
    if v not in g.nodes:
        raise InputError(f"unknown node {v!r}")


def _tick(t: Time, what: str) -> int:
    """A discrete time or window argument as an int; fractions are rejected."""
    t = as_time(t)
    if t.denominator != 1:
        raise RangeError(f"discrete {what} must be an integer, got {t}")
    return int(t)


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
        hop_cost = self.latency
        if hop_cost is None:
            hop_cost = 1 if self.kind == "strict" else 0
        waits = [
            self.hops[i + 1][2] - self.hops[i][2] - hop_cost
            for i in range(len(self.hops) - 1)
        ]
        return max(0, max(waits))


def validate_journey(g: TemporalGraph, j: Journey) -> bool:
    """True iff j is a valid journey of its kind in g."""
    strict = _check_kind(j.kind)
    discrete = isinstance(g, SnapshotSequence)
    ig = g._ticks if discrete else g
    for u, v, _ in j.hops:
        _check_node(g, u)
        _check_node(g, v)
        if edge(u, v) not in ig.edges:
            raise InputError(f"edge {u!r}-{v!r} never present in the trace")
    for i in range(len(j.hops) - 1):
        if j.hops[i][1] != j.hops[i + 1][0]:
            return False  # not a walk
    if discrete and any(as_time(t).denominator != 1 for _, _, t in j.hops):
        return False  # on ticks, a hop at 1/2 would fit inside a run
    times = []
    for u, v, t in j.hops:
        t = as_time(t)
        if not supports_hop(ig, edge(u, v), t):
            return False
        times.append(t)
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
    Both models share one kernel: a snapshot sequence runs on its integer
    ticks (t0 and dep_hi must be integers), and an arrival by tick t + 1 is
    reported as arrival by snapshot t.
    """
    _check_kind(kind)
    _check_node(g, src)
    if isinstance(g, SnapshotSequence):
        t0 = _tick(t0, "start time")
        if not 0 <= t0 <= g.delta:
            raise RangeError(f"start time {t0} outside 0..{g.delta}")
        if dep_hi is not None:
            dep_hi = _tick(dep_hi, "departure bound")
        table = _foremost(g._ticks, src, t0, kind, dep_hi)
        # an arrival by tick t + 1 is an arrival by snapshot t
        arrival = {v: t - 1 for v, t in table.arrival.items()}
        arrival[src] = t0
        return replace(table, latency=None, arrival=arrival)
    t0 = as_time(t0)
    lo, hi = lifetime(g)
    if not lo <= t0 <= hi:
        raise RangeError(f"start time {t0} outside lifetime [{lo}, {hi}]")
    if dep_hi is not None:
        dep_hi = as_time(dep_hi)
    return _foremost(g, src, t0, kind, dep_hi)


def _foremost(ig, src, t0, kind, dep_hi):
    strict = kind == "strict"
    zeta = ig.latency
    arrival: dict[str, Fraction] = {}
    parent: dict[str, tuple[str, Fraction]] = {}
    hcount: dict[str, int] = {}
    heap: list = []

    def relax_from(x, base_arr, base_hops, is_start):
        dep_lb = base_arr if (is_start or strict) else base_arr - zeta
        for y, ivs in ig.incident[x]:
            for a, b in ivs:
                s = max(dep_lb, a)
                if s + zeta > b:
                    continue
                if is_start and dep_hi is not None and s > dep_hi:
                    break  # s only grows with later intervals
                heapq.heappush(heap, (s + zeta, base_hops + 1, y, x, s))
                break  # earliest feasible interval gives minimal arrival

    relax_from(src, t0, 0, True)
    while heap:
        arr, h, y, px, s = heapq.heappop(heap)
        if y in arrival:
            continue
        arrival[y] = arr
        parent[y] = (px, s)
        hcount[y] = h
        relax_from(y, arr, h, False)
    out_arrival = dict(arrival)
    out_arrival[src] = t0
    return ReachabilityTable(src, t0, kind, zeta, out_arrival, parent, hcount, dep_hi)


def temporal_distance(g: TemporalGraph, u: str, t: Time, kind: str = "strict") -> dict[str, Time]:
    """arrival - t for journeys leaving just after t (discrete: departures >= t+1)."""
    _check_node(g, u)
    if isinstance(g, SnapshotSequence):
        t = _tick(t, "time")
        if not 0 <= t < g.delta:
            raise RangeError(f"time {t} outside 0..{g.delta - 1}")
        table = earliest_arrival(g, u, t + 1, kind)
    else:
        table = earliest_arrival(g, u, t, kind)
    dist: dict[str, Time] = {}
    for v in g.nodes:
        if v == u:
            dist[v] = 0
        elif v in table.arrival:
            dist[v] = table.arrival[v] - t
        else:
            dist[v] = INF
    return dist


def eccentricity(g: TemporalGraph, u: str, t: Time, kind: str = "strict") -> Time:
    dist = temporal_distance(g, u, t, kind)
    return max(dist.values()) if dist else 0


def temporal_diameter_at(g: TemporalGraph, t: Time, kind: str = "strict") -> Time:
    return max(eccentricity(g, u, t, kind) for u in sorted(g.nodes))


def latest_departure(
    g: TemporalGraph,
    u: str,
    v: str,
    t: Time,
    kind: str = "strict",
    src_cap: Optional[Time] = None,
) -> Optional[Time]:
    """Max departure time of a journey u ~> v arriving by t (the temporal view).

    Both models share one kernel: a snapshot sequence runs on its integer
    ticks (t must be an integer), where arriving by snapshot t is arriving
    by tick t + 1 and departures are the same.  src_cap additionally bounds
    the first hop (used by the fastest sweep).
    """
    strict = _check_kind(kind)
    _check_node(g, u)
    _check_node(g, v)
    discrete = isinstance(g, SnapshotSequence)
    t = _tick(t, "time") if discrete else as_time(t)
    if u == v:
        return t
    if src_cap is not None:
        src_cap = _tick(src_cap, "departure bound") if discrete else as_time(src_cap)
    if discrete:
        g, t = g._ticks, t + 1
    zeta = g.latency
    target_label = t if strict else t - zeta
    step = zeta if strict else 0
    incident = g.incident

    def best_dep(ivs, cap) -> Optional[Time]:
        # latest time <= cap at which the edge can carry a hop
        for a, b in reversed(ivs):
            s = min(b - zeta, cap)
            if s >= a:
                return s
        return None

    labels: dict[str, Time] = {}
    heap: list = [(-target_label, v)]
    pending = {v: target_label}
    while heap:
        neg, y = heapq.heappop(heap)
        if y in labels:
            continue
        lab = -neg
        labels[y] = lab
        cap = lab - step
        for x, ivs in incident[y]:
            if x in labels:
                continue
            s = best_dep(ivs, cap)
            if s is not None and (x not in pending or s > pending[x]):
                pending[x] = s
                heapq.heappush(heap, (-s, x))
    if src_cap is None:
        return labels.get(u)
    best: Optional[Time] = None
    for y, ivs in incident[u]:
        if y not in labels:
            continue
        s = best_dep(ivs, min(labels[y] - step, src_cap))
        if s is not None and (best is None or s > best):
            best = s
    return best


def shortest_journey(
    g: TemporalGraph, u: str, v: str, t0: Time, kind: str = "strict"
) -> Optional[Journey]:
    """Fewest-hops journey departing at or after t0."""
    strict = _check_kind(kind)
    _check_node(g, u)
    _check_node(g, v)
    if isinstance(g, SnapshotSequence):
        latency, t0, g = None, _tick(t0, "start time"), g._ticks
    else:
        latency, t0 = g.latency, as_time(t0)
    if u == v:
        return Journey((), kind, latency)
    zeta = g.latency

    def first_dep(ivs, lb) -> Optional[Time]:
        # earliest time >= lb at which the edge can carry a hop
        for a, b in ivs:
            s = max(lb, a)
            if s + zeta <= b:
                return s
        return None

    layer: dict[str, Time] = {u: t0}  # node -> earliest arrival using exactly h hops
    back: dict[tuple[str, int], tuple[str, Time]] = {}
    n = len(g.nodes)
    for h in range(1, n):
        nxt: dict[str, Time] = {}
        for x in sorted(layer):
            arr = layer[x]
            lb = arr if (h == 1 or strict) else arr - zeta
            for y, ivs in g.incident[x]:
                s = first_dep(ivs, lb)
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
                hops.append((prev, cur, s))
                cur, hh = prev, hh - 1
            return Journey(tuple(reversed(hops)), kind, latency)
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

    Ties go to the earlier departure.  On a snapshot sequence one scan over
    the snapshots keeps, per node, the latest first-hop time of any journey
    from u that has reached it (every such journey can wait there), so v's
    best (arrival - departure, departure) is read off as it is reached.
    Interval graphs sweep candidate departure times and evaluate each via
    earliest-arrival plus latest-departure.  The journey itself is rebuilt
    by one earliest-arrival search from the chosen departure.
    """
    strict = _check_kind(kind)
    _check_node(g, u)
    _check_node(g, v)
    discrete = isinstance(g, SnapshotSequence)
    if u == v:
        return Journey((), kind, None if discrete else g.latency)
    if window is None:
        lo, hi = lifetime(g)
        window = (lo, hi) if not discrete else (0, g.delta - 1)
    wlo, whi = window
    best: Optional[tuple[Time, Time]] = None  # (duration, departure)
    if discrete:
        wlo, whi = max(_tick(wlo, "window bound"), 0), min(_tick(whi, "window bound"), g.delta - 1)
        bit = _node_index(g.nodes)[1]
        ui, vi = bit[u], bit[v]
        dep = [-1] * len(bit)  # latest first-hop time of a journey that reached each node
        for t in range(wlo, g.delta):
            pre = list(dep)  # hops in snapshot t extend journeys as they stood before it
            if t <= whi:
                pre[ui] = t  # u may leave at t; dep[ui] moves only when a journey returns
            if strict:
                for a, b in g.snapshots[t]:
                    i, j = bit[a], bit[b]
                    dep[i], dep[j] = max(dep[i], pre[j]), max(dep[j], pre[i])
            else:
                for comp in set(_hop_rows(g.nodes, g.snapshots[t], False)):
                    if comp & (comp - 1):  # a lone node takes no hop
                        top = max(pre[i] for i in _mask_bits(comp))
                        for i in _mask_bits(comp):
                            dep[i] = top
            if dep[vi] >= 0 and (best is None or (t - dep[vi], dep[vi]) < best):
                best = (t - dep[vi], dep[vi])
    else:
        wlo, whi = as_time(wlo), as_time(whi)
        lo, hi = lifetime(g)
        wlo, whi = max(wlo, lo), min(whi, hi)
        n = len(g.nodes)
        cands = sorted({
            d - k * g.latency
            for d in (*characteristic_dates(g), wlo, whi)
            for k in range(n + 2)
            if wlo <= d - k * g.latency <= whi
        })
        for d in cands:
            table = earliest_arrival(g, u, d, kind, dep_hi=whi)
            if v not in table.arrival:
                break  # departing even later cannot help
            arr = table.arrival[v]
            dstar = latest_departure(g, u, v, arr, kind, src_cap=whi)
            assert dstar is not None and dstar >= d
            cand = (arr - dstar, dstar)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    journey = earliest_arrival(g, u, best[1], kind, dep_hi=whi).journey_to(v)
    assert journey is not None and journey.departure == best[1]
    return journey


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
    """
    _check_node(g, src)
    wlo, whi = as_time(window[0]), as_time(window[1])
    if not wlo < whi:
        raise RangeError(f"empty window [{wlo}, {whi})")
    n = len(g.nodes)
    grid = sorted(
        {wlo, whi}
        | {
            d - k * g.latency
            for d in characteristic_dates(g)
            for k in range(n + 2)
            if wlo < d - k * g.latency < whi
        }
    )
    out: list[tuple[tuple[Fraction, Fraction], dict[str, str]]] = []
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        table = earliest_arrival(g, src, mid, kind)
        shape = {child: p for child, (p, _) in table.parent.items() if child != src}
        if out and out[-1][1] == shape and out[-1][0][1] == lo:
            out[-1] = ((out[-1][0][0], hi), shape)
        else:
            out.append(((lo, hi), shape))
    return out


def steady_progress_alpha(
    g: TemporalGraph,
    window: Optional[tuple[Time, Time]] = None,
    kind: str = "strict",
    pair: Optional[tuple[str, str]] = None,
) -> Optional[Time]:
    """Smallest alpha such that every ordered pair (or the given pair) has a
    node-distinct journey in the window whose initial wait and inter-hop
    idles are <= alpha.

    Returns None when some pair has no such journey in the window at all.
    """
    strict = _check_kind(kind)
    discrete = isinstance(g, SnapshotSequence)
    if window is None:
        window = (0, g.delta) if discrete else lifetime(g)
    wlo, whi = window
    if pair is not None:
        _check_node(g, pair[0])
        _check_node(g, pair[1])
        pairs = [pair]
    else:
        nodes = sorted(g.nodes)
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
    if discrete:
        wlo, whi = max(_tick(wlo, "window bound"), 0), min(_tick(whi, "window bound"), g.delta)
        span = whi - wlo
        if span <= 0:
            raise RangeError(f"empty window [{wlo}, {whi})")
        feasible = lambda alpha: all(
            _alpha_ok_discrete(g, a, b, wlo, whi, alpha, strict) for a, b in pairs
        )
        cands: list = list(range(span))
    else:
        wlo, whi = as_time(wlo), as_time(whi)
        if not wlo < whi:
            raise RangeError(f"empty window [{wlo}, {whi})")
        sub = temporal_subgraph(g, (wlo, whi))
        span = whi - wlo
        n = len(g.nodes)
        anchors = set(characteristic_dates(sub)) | {wlo, whi}
        cands = sorted({
            Fraction(d2 - d1 - k * g.latency, j)
            for d1 in anchors
            for d2 in anchors
            if d2 > d1
            for k in range(n + 1)
            for j in range(1, n + 1)
            if 0 <= Fraction(d2 - d1 - k * g.latency, j) <= span
        } | {Fraction(0), span})
        feasible = lambda alpha: all(
            _alpha_ok_continuous(sub, a, b, wlo, whi, alpha) for a, b in pairs
        )
    if not feasible(cands[-1] if discrete else span):
        return None
    lo_i, hi_i = 0, len(cands) - 1
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if feasible(cands[mid]):
            hi_i = mid
        else:
            lo_i = mid + 1
    return cands[lo_i]


def _alpha_ok_discrete(seq, src, dst, wlo, whi, alpha, strict) -> bool:
    # node-distinct journeys only: bouncing on a persistent edge would let a
    # token idle forever in alpha-sized refreshes, voiding the wait bound
    if src == dst:
        return True

    def explore(x, tau, visited) -> bool:
        lb = wlo if tau is None else (tau + 1 if strict else tau)
        for s in range(lb, min(lb + alpha, whi - 1) + 1):
            for u, v in seq.snapshots[s]:
                for a, b in ((u, v), (v, u)):
                    if a != x or b in visited:
                        continue
                    if b == dst or explore(b, s, visited | {b}):
                        return True
        return False

    return explore(src, None, {src})


def _alpha_ok_continuous(ig, src, dst, wlo, whi, alpha) -> bool:
    # node-distinct journeys, strict semantics; presences already clipped to
    # the window.  Along a fixed path the feasible hop times form an interval,
    # so propagating [lo, hi] per hop is an exact projection.
    if src == dst:
        return True
    zeta = ig.latency

    def explore(x, alo, ahi, visited) -> bool:
        for y, ivs in ig.incident[x]:
            if y in visited:
                continue
            for a, b in ivs:
                s_lo = max(a, alo)
                s_hi = min(b - zeta, ahi + alpha)
                if s_lo > s_hi:
                    continue
                if y == dst or explore(y, s_lo + zeta, s_hi + zeta, visited | {y}):
                    return True
        return False

    return explore(src, wlo, wlo, {src})


def _journey_exists(g: TemporalGraph, s: str, t: str, internal, kind: str) -> bool:
    if s == t:
        return True
    keep = frozenset(internal) | {s, t}
    if isinstance(g, SnapshotSequence):
        bit = _node_index(g.nodes)[1]
        _, reach = _reach_masks(g, kind == "strict", keep)
        return bool(reach[bit[t]] >> bit[s] & 1)
    edges = {
        e: ivs for e, ivs in g.edges.items() if e[0] in keep and e[1] in keep
    }
    sub = IntervalGraph(keep, edges, g.latency, g.span)
    lo, _ = lifetime(sub)
    table = earliest_arrival(sub, s, lo, kind)
    return t in table.parent


def _minimal_feasible_sets(g, s, t, kind) -> Optional[list[frozenset[str]]]:
    """Inclusion-minimal internal node sets supporting an s ~> t journey.

    Returns None when the empty set is feasible (a direct presence exists).
    """
    internal = sorted(g.nodes - {s, t})
    if _journey_exists(g, s, t, (), kind):
        return None
    minimal: list[frozenset[str]] = []
    for size in range(1, len(internal) + 1):
        for combo in itertools.combinations(internal, size):
            cset = frozenset(combo)
            if any(m <= cset for m in minimal):
                continue
            if _journey_exists(g, s, t, cset, kind):
                minimal.append(cset)
    return minimal


def _check_limit(g, limit_n):
    if limit_n is not None and len(g.nodes) > limit_n:
        raise ContractError(
            f"{len(g.nodes)} nodes exceed the brute-force limit {limit_n}"
        )


def max_disjoint_journeys(
    g: TemporalGraph, s: str, t: str, kind: str = "strict", limit_n: int = 12
):
    """Max number of pairwise internally node-disjoint s ~> t journeys.

    Infinity when a direct presence exists (empty interiors duplicate freely).
    """
    _check_kind(kind)
    _check_node(g, s)
    _check_node(g, t)
    _check_limit(g, limit_n)
    minimal = _minimal_feasible_sets(g, s, t, kind)
    if minimal is None:
        return INF
    if not minimal:
        return 0

    def pack(avail: list[frozenset[str]]) -> int:
        if not avail:
            return 0
        first, rest = avail[0], avail[1:]
        skip = pack(rest)
        take = 1 + pack([m for m in rest if not (m & first)])
        return max(skip, take)

    return pack(minimal)


def min_temporal_separator(
    g: TemporalGraph, s: str, t: str, kind: str = "strict", limit_n: int = 12
):
    """Smallest internal node set whose removal kills all s ~> t journeys.

    Infinity when s and t share a direct presence (no internal cut exists).
    """
    _check_kind(kind)
    _check_node(g, s)
    _check_node(g, t)
    _check_limit(g, limit_n)
    internal = sorted(g.nodes - {s, t})
    if _journey_exists(g, s, t, (), kind):
        return INF
    if not _journey_exists(g, s, t, internal, kind):
        return 0
    for size in range(1, len(internal) + 1):
        for cut in itertools.combinations(internal, size):
            remaining = set(internal) - set(cut)
            if not _journey_exists(g, s, t, remaining, kind):
                return size
    return len(internal)
