"""Brute-force reference implementations used to pin expected values.

Everything here trades speed for obviousness: exhaustive journey
enumeration, fixpoint reachability over (node, time) states, literal subset
and subgraph enumeration.  Journey search, foremost times, closures and
round-trip arcs come from the (node, time) fixpoint, and interval fastest
journeys, latest departures and window eccentricities from the same fixpoint
on the lcm grid of an interval graph's times; exhaustive enumeration of
node-distinct journeys backs the journey and steady-progress oracles and
cross-checks the fixpoint on tiny traces.  Library results are compared against these on desk-scale
instances; nothing in this module shares code with the package
(`SnapshotSequence` and `IntervalGraph` serve only as containers), except
`loop_decide`, which drives the package's counting queue so that its
operation counts compare, `foremost_tree`, which samples the package's
`Fraction`-time `earliest_arrival` to check the integer-view regime sweep,
`alpha_by_candidates`, which runs the package's `_alpha_ok` on `Fraction`
times over the `Fraction` candidate list to check the integer-view alpha,
and `discretized_mu`, the largest snapshot of the package's `discretize`, to
check the one-sweep instant density of `stats`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from tempnet.core import IntervalGraph, SnapshotSequence, StaticGraph, discretize, edge
from tempnet.errors import ContractError


# ---------------------------------------------------------------------------
# discrete journeys by exhaustive enumeration

def hop_options(seq, x, lb, hi):
    """(y, t) pairs for one hop out of x at time lb <= t <= hi."""
    for t in range(max(lb, 0), min(hi, seq.delta - 1) + 1):
        for u, v in seq.snapshots[t]:
            if u == x:
                yield v, t
            elif v == x:
                yield u, t


def simple_journeys(seq, src, dst, kind, lo=0, hi=None):
    """All journeys src -> dst visiting pairwise distinct nodes.

    Simple journeys preserve every end-to-end optimum (cutting a loop keeps
    the first and last hops and the subsequence stays time-ordered), so these
    suffice for foremost/shortest/fastest/latest-departure oracles.
    """
    if hi is None:
        hi = seq.delta - 1
    out = []

    def extend(node, lb, visited, hops):
        for y, t in hop_options(seq, node, lb, hi):
            if y in visited:
                continue
            nh = hops + [(node, y, t)]
            if y == dst:
                out.append(tuple(nh))
            extend(y, t + 1 if kind == "strict" else t, visited | {y}, nh)

    if src != dst:
        extend(src, lo, {src}, [])
    return out


def reach_states(seq, src, t0, kind):
    """Fixpoint over (node, last-hop-time) states reachable from src at t0."""
    strict = kind == "strict"
    states: set[tuple[str, int]] = set()
    changed = True
    while changed:
        changed = False
        frontier = [(src, None)] + sorted(states)
        for x, t in frontier:
            lb = t0 if t is None else (t + 1 if strict else t)
            for y, s in hop_options(seq, x, lb, seq.delta - 1):
                if (y, s) not in states:
                    states.add((y, s))
                    changed = True
    return states


def brute_fastest(seq, src, dst, kind, wlo, whi):
    """Least (duration, departure) over walks src -> dst whose first hop lies
    in [wlo, whi]; None when there is none.

    Each first hop (src, y, d) is followed by every state reachable from y
    just after it, so walks may pass through src again.
    """
    best = None
    for d in range(max(wlo, 0), min(whi, seq.delta - 1) + 1):
        for y, s in hop_options(seq, src, d, d):
            after = reach_states(seq, y, d + 1 if kind == "strict" else d, kind)
            for x, t in after | {(y, d)}:
                if x == dst and (best is None or (t - d, d) < best):
                    best = (t - d, d)
    return best


def brute_closure_arcs(seq, kind):
    """(u, v) arcs with u != v and some journey u ~> v over the lifetime."""
    arcs = set()
    for u in seq.nodes:
        reached = {v for v, _ in reach_states(seq, u, 0, kind)}
        arcs |= {(u, v) for v in reached if v != u}
    return frozenset(arcs)


def brute_foremost(seq, src, t0, kind):
    """node -> earliest last-hop time, src excluded unless re-entered."""
    best: dict[str, int] = {}
    for v, t in reach_states(seq, src, t0, kind):
        if v not in best or t < best[v]:
            best[v] = t
    return best


def brute_rt_arcs(seq, start, end, kind):
    """(u, v) -> (earliest arrival, latest departure) for hops in [start, end).

    Over all journeys u ~> v (u != v) whose hops lie in the non-empty window
    [start, end), earliest arrival is the least last-hop time and latest
    departure the greatest first-hop time; the two optima may come from
    different journeys.  Arrival is the least state time at v reached from
    u; departure comes from the same fixpoint on the window with time
    reversed, started at v, since reversing time turns a journey's first hop
    into its last and keeps it strict or non-strict.  Cutting a loop out of
    a journey never delays its arrival or advances its departure, so
    journeys that revisit nodes change neither optimum.
    """
    window = SnapshotSequence(seq.nodes, tuple(seq.snapshots[start:end]))
    mirror = SnapshotSequence(seq.nodes, window.snapshots[::-1])
    last = window.delta - 1
    ahead = {u: brute_foremost(window, u, 0, kind) for u in seq.nodes}
    behind = {v: brute_foremost(mirror, v, 0, kind) for v in seq.nodes}
    return {
        (u, v): (start + t, start + last - behind[v][u])
        for u in seq.nodes
        for v, t in ahead[u].items()
        if v != u
    }


def brute_rt_arcs_enumerated(seq, start, end, kind):
    """brute_rt_arcs by enumerating every node-distinct journey; tiny traces only."""
    arcs = {}
    for u in seq.nodes:
        for v in seq.nodes:
            if u == v:
                continue
            js = simple_journeys(seq, u, v, kind, lo=start, hi=end - 1)
            if js:
                arcs[(u, v)] = (min(j[-1][2] for j in js), max(j[0][2] for j in js))
    return arcs


def brute_rt_connected(seq, start, end, kind):
    arcs = brute_rt_arcs(seq, start, end, kind)
    for u in seq.nodes:
        for v in seq.nodes:
            if u == v:
                continue
            go, back = arcs.get((u, v)), arcs.get((v, u))
            if go is None or back is None:
                return False
            composable = go[0] < back[1] if kind == "strict" else go[0] <= back[1]
            if not composable:
                return False
    return True


# ---------------------------------------------------------------------------
# components

def induced(seq, keep):
    keep = frozenset(keep)
    snaps = tuple(
        frozenset(e for e in snap if e[0] in keep and e[1] in keep)
        for snap in seq.snapshots
    )
    return SnapshotSequence(keep, snaps)


def is_tc(seq, kind):
    for u in seq.nodes:
        reached = {v for v, _ in reach_states(seq, u, 0, kind)}
        if not (seq.nodes - {u}) <= reached:
            return False
    return True


def brute_components(seq, kind):
    """Maximal node sets whose induced subsequence is temporally connected."""
    nodes = sorted(seq.nodes)
    connected_sets = [
        frozenset(combo)
        for size in range(1, len(nodes) + 1)
        for combo in itertools.combinations(nodes, size)
        if is_tc(induced(seq, combo), kind)
    ]
    return sorted(
        (s for s in connected_sets
         if not any(s < t for t in connected_sets)),
        key=lambda s: (-len(s), sorted(s)),
    )


# ---------------------------------------------------------------------------
# robust MIS

def _is_connected(nodes, edges):
    nodes = list(nodes)
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        x = stack.pop()
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == len(nodes)


def is_mis(nodes, edges, cand):
    cand = set(cand)
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if any(adj[u] & cand for u in cand):
        return False
    return all(v in cand or adj[v] & cand for v in nodes)


def spanning_trees(g: StaticGraph):
    """All spanning trees, as edge lists (include/exclude with pruning)."""
    edges = sorted(g.edges)
    nodes = sorted(g.nodes)
    n = len(nodes)
    out = []

    def rec(i, chosen, comp):
        if len(chosen) == n - 1:
            out.append(list(chosen))
            return
        if i == len(edges) or len(edges) - i < (n - 1) - len(chosen):
            return
        u, v = edges[i]
        ru, rv = comp[u], comp[v]
        if ru != rv:
            merged = {x: (ru if c == rv else c) for x, c in comp.items()}
            rec(i + 1, chosen + [edges[i]], merged)
        # skipping edges[i] must leave the rest connectable
        if _is_connected(nodes, chosen + edges[i + 1:]):
            rec(i + 1, chosen, comp)

    rec(0, [], {v: v for v in nodes})
    return out


def robust_mis_tree_oracle(g: StaticGraph, cand, trees=None):
    """Robust iff MIS of g and still maximal in every spanning tree.

    A maximality violation in any connected spanning subgraph survives in
    that subgraph's spanning trees (fewer edges, same vertex set), so trees
    are exhaustive witnesses.  Pass trees to reuse one enumeration across
    many candidate sets.
    """
    nodes = sorted(g.nodes)
    if not is_mis(nodes, g.edges, cand):
        return False
    if trees is None:
        trees = spanning_trees(g)
    return all(is_mis(nodes, t, cand) for t in trees)


def robust_mis_literal_oracle(g: StaticGraph, cand):
    """Word-for-word definition: valid in every connected spanning subgraph."""
    edges = sorted(g.edges)
    nodes = sorted(g.nodes)
    for r in range(len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            if _is_connected(nodes, list(sub)) and not is_mis(nodes, sub, cand):
                return False
    return True


def all_mis(g: StaticGraph):
    nodes = sorted(g.nodes)
    return [
        frozenset(c)
        for r in range(1, len(nodes) + 1)
        for c in itertools.combinations(nodes, r)
        if is_mis(nodes, g.edges, c)
    ]


# ---------------------------------------------------------------------------
# sliding-window properties

def window_passes(seq, prop, s, r, kind="strict", target=None):
    snaps = seq.snapshots[s:s + r]
    if prop == "tinterval":
        inter = set(snaps[0])
        for snap in snaps[1:]:
            inter &= snap
        return _is_connected(sorted(seq.nodes), sorted(inter))
    if prop == "realization":
        union = set()
        for snap in snaps:
            union |= snap
        return set(target.edges) <= union
    sub = SnapshotSequence(seq.nodes, tuple(snaps))
    if prop == "tdiam":
        return is_tc(sub, kind)
    if prop == "rtdiam":
        return brute_rt_connected(sub, 0, r, kind)
    raise ValueError(prop)


def loop_decide(algebra, seq, r):
    """(value, ops) of a fixed-r decision by its own push / test / pop loop.

    This is how ``hierarchy.decide`` ran before it fed an ``IncrementalDecide``:
    it stops at the first failing window, before that window's pop.
    """
    from tempnet.hierarchy import _Swag

    sw = _Swag(algebra)
    e = 0
    for s in range(seq.delta - r + 1):
        while e < s + r:
            sw.push(algebra.lift(e, seq.graph_at(e)))
            e += 1
        if not sw.test(sw.aggregate()):
            return False, sw.ops
        sw.pop()
    return True, sw.ops


def brute_decide(seq, prop, r, kind="strict", target=None):
    return all(
        window_passes(seq, prop, s, r, kind=kind, target=target)
        for s in range(seq.delta - r + 1)
    )


def brute_extremal(seq, prop, kind="strict", target=None):
    """Grow properties: least r with all windows passing.  Shrink: greatest."""
    rs = range(1, seq.delta + 1)
    if prop == "tinterval":
        rs = reversed(rs)
    for r in rs:
        if brute_decide(seq, prop, r, kind=kind, target=target):
            return r
    return None


# ---------------------------------------------------------------------------
# steady progress

def needed_alpha(hops, wlo, strict):
    gaps = [hops[0][2] - wlo]
    for (_, _, t1), (_, _, t2) in zip(hops, hops[1:]):
        gaps.append(t2 - (t1 + 1 if strict else t1))
    return max(gaps)


def brute_alpha(seq, kind, wlo=0, whi=None, pairs=None):
    """max over ordered pairs of min over node-distinct journeys of the
    largest idle gap (revisits are out: bouncing on a lasting edge would
    refresh the token forever and void the bound)."""
    if whi is None:
        whi = seq.delta
    strict = kind == "strict"
    if pairs is None:
        nodes = sorted(seq.nodes)
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
    worst = 0
    for a, b in pairs:
        js = simple_journeys(seq, a, b, kind, lo=wlo, hi=whi - 1)
        if not js:
            return None
        worst = max(worst, min(needed_alpha(j, wlo, strict) for j in js))
    return worst


GRID = 12  # interval hop times are enumerated on the 1/12 grid


def brute_alpha_intervals(ig, kind, wlo, whi):
    """Steady progress on an interval graph by enumerating node-distinct
    journeys whose hop times lie on the 1/12 grid of [wlo, whi].

    A hop at t needs [t, t + zeta] inside a presence run clipped to the
    window, and the clipped run must be non-empty; strict hops leave at
    least zeta after the previous one, non-strict ones not before it.  A
    journey needs max(initial wait t1 - wlo, idles t2 - t1 - zeta); the
    answer is the max over ordered pairs of the min over journeys, None when
    some pair has no journey.  Exact for n <= 3, integer endpoints and
    latency in {0, 1/2, 1}: every optimum then sits on the 1/4 grid.
    """
    zeta = ig.latency
    strict = kind == "strict"
    times = [Fraction(k, GRID) for k in range(wlo * GRID, whi * GRID + 1)]

    def carries(x, y, t):
        for a, b in ig.edges.get(edge(x, y), ()):
            a, b = max(a, wlo), min(b, whi)
            if a < b and a <= t and t + zeta <= b:
                return True
        return False

    def least_need(x, dst, prev, visited):
        best = None
        for y in sorted(ig.nodes - visited):
            for t in times:
                if prev is not None and t < prev[0] + (zeta if strict else 0):
                    continue
                if not carries(x, y, t):
                    continue
                need = max(prev[1], t - prev[0] - zeta) if prev else t - wlo
                if y != dst:
                    need = least_need(y, dst, (t, need), visited | {y})
                if need is not None and (best is None or need < best):
                    best = need
        return best

    worst = Fraction(0)
    for a, b in itertools.permutations(sorted(ig.nodes), 2):
        need = least_need(a, b, None, {a})
        if need is None:
            return None
        worst = max(worst, need)
    return worst


def alpha_by_candidates(g, kind, window, pair=None):
    """Steady progress on an interval graph over the window's ``Fraction``
    times: every candidate (d2 - d1 - k * zeta) / j in [0, span] for
    characteristic dates or window bounds d1 < d2 and k, j <= n, bisected
    (feasibility is monotone in alpha) with the package's ``_alpha_ok`` on
    the ``Fraction`` subgraph; None when some pair fails even at the span."""
    from tempnet.core import characteristic_dates, temporal_subgraph
    from tempnet.journeys import _alpha_ok

    sub = temporal_subgraph(g, window)
    (wlo, whi), zeta, n = sub.span, g.latency, len(g.nodes)
    span = whi - wlo
    anchors = {*characteristic_dates(sub), wlo, whi}
    cands = sorted({
        Fraction(d2 - d1 - k * zeta, j)
        for d1 in anchors
        for d2 in anchors
        if d2 > d1
        for k in range(n + 1)
        for j in range(1, n + 1)
        if 0 <= Fraction(d2 - d1 - k * zeta, j) <= span
    } | {Fraction(0), span})
    pairs = [pair] if pair else list(itertools.permutations(sorted(g.nodes), 2))
    gap = zeta if kind == "strict" else 0

    def feasible(i):
        return all(_alpha_ok(sub, a, b, wlo, cands[i], gap, zeta) for a, b in pairs)

    lo, hi = 0, len(cands) - 1
    if not feasible(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if feasible(mid) else (mid + 1, hi)
    return cands[lo]


def _endpoints(ig):
    """Sorted presence endpoints, or [0] when no edge is ever present."""
    return sorted({x for ivs in ig.edges.values() for run in ivs for x in run}) or [Fraction(0)]


def shifted_grid(ig, lo, hi):
    """Sorted presence endpoints and lo, hi, each minus k * zeta for
    k <= n + 1, kept inside [lo, hi]: the fastest sweep's candidates as a
    plain set of Fraction differences."""
    zeta, n = ig.latency, len(ig.nodes)
    dates = {x for ivs in ig.edges.values() for run in ivs for x in run}
    return sorted({
        d - k * zeta
        for d in (*dates, lo, hi)
        for k in range(n + 2)
        if lo <= d - k * zeta <= hi
    })


def foremost_tree(ig, src, kind, lo, hi):
    """The foremost-tree regimes of [lo, hi) by sampling: the library's
    ``earliest_arrival`` (which computes on Fraction times) at the midpoint
    of each segment of ``shifted_grid``, its parent map with src left out,
    and equal neighbouring segments merged."""
    from tempnet.journeys import earliest_arrival

    out = []
    grid = shifted_grid(ig, lo, hi)
    for a, b in zip(grid, grid[1:]):
        table = earliest_arrival(ig, src, (a + b) / 2, kind)
        shape = {child: p for child, (p, _) in table.parent.items() if child != src}
        if out and out[-1][1] == shape:
            out[-1] = ((out[-1][0][0], b), shape)
        else:
            out.append(((a, b), shape))
    return out


def grid_first_hops(ig, src, kind, wlo, whi, *times):
    """(node, hop time) -> latest first-hop time over walks from src whose
    first hop leaves in [wlo, whi] and whose last hop, into node, leaves at
    hop time; a (node, time) fixpoint on the grid of step 1/L.

    L is the lcm of the denominators of every endpoint, the latency, the
    window and the extra query times.  A hop at s needs [s, s + zeta] inside
    one presence run; a strict hop leaves at least zeta after the previous
    one, a non-strict hop not before it.  Extremal journeys (foremost,
    latest departure, fastest with its earliest departure) pin each hop
    time to one of these times plus a multiple of zeta, so they all lie on
    the grid.  Hop times are swept in order; at each one, hops are added
    until nothing changes (with zero separation hops chain within one
    instant), and walks may pass through src again.
    """
    zeta = ig.latency
    sep = zeta if kind == "strict" else 0
    ends = _endpoints(ig)
    scale = math.lcm(*(Fraction(x).denominator for x in (zeta, wlo, whi, *times, *ends)))
    grid = [Fraction(k, scale) for k in range(int(ends[0] * scale), int(ends[-1] * scale) + 1)]
    nodes = sorted(ig.nodes)
    reached = {x: {} for x in nodes}  # node -> {hop time: latest first-hop time}

    def carries(x, y, s):
        return any(a <= s and s + zeta <= b for a, b in ig.edges.get(edge(x, y), ()))

    for s in grid:
        changed = True
        while changed:
            changed = False
            for x in nodes:
                deps = [d for r, d in reached[x].items() if r + sep <= s]
                if x == src and wlo <= s <= whi:
                    deps.append(s)
                if not deps:
                    continue
                dep = max(deps)
                for y in nodes:
                    if y != x and carries(x, y, s) and (s not in reached[y] or reached[y][s] < dep):
                        reached[y][s] = dep
                        changed = True
    return {(x, s): d for x in nodes for s, d in reached[x].items()}


def brute_fastest_intervals(ig, src, kind, wlo, whi):
    """dst -> least (duration, departure) over walks src ~> dst whose first
    hop leaves in [wlo, whi]; unreachable nodes are absent."""
    best = {}
    for (x, s), d in grid_first_hops(ig, src, kind, wlo, whi).items():
        cand = (s + ig.latency - d, d)
        if x != src and (x not in best or cand < best[x]):
            best[x] = cand
    return best


def brute_latest_departure_intervals(ig, src, kind, t):
    """dst -> latest first-hop time of a journey src ~> dst arriving by t."""
    ends = _endpoints(ig)
    best = {}
    for (x, s), d in grid_first_hops(ig, src, kind, ends[0], ends[-1], t).items():
        if x != src and s + ig.latency <= t and (x not in best or d > best[x]):
            best[x] = d
    return best


def window_eccentricities(ig, width, step):
    """(s, {u: ecc}) per window [s, s + width) of an interval graph, s from the
    lifetime start by step while the window fits: ecc of u is the latest
    foremost strict arrival from u minus s, inf once a node is missed.

    A window is the trace restricted to it: each run is cut to [s, s + width)
    here, a run left empty is dropped, and arrivals are read off
    grid_first_hops on what is left, with first hops at or after s.
    """
    lo, hi = ig.span
    out = []
    s = lo
    while s + width <= hi:
        e = s + width
        runs = {}
        for pair, ivs in ig.edges.items():
            cut = ((a if a > s else s, b if b < e else e) for a, b in ivs)
            kept = tuple((a, b) for a, b in cut if a < b)
            if kept:
                runs[pair] = kept
        window = IntervalGraph(ig.nodes, runs, ig.latency, (s, e))
        eccs = {}
        for u in sorted(ig.nodes):
            arrival = {u: s}
            for (x, t), _ in grid_first_hops(window, u, "strict", s, e).items():
                arrival[x] = min(arrival.get(x, math.inf), t + ig.latency)
            missed = len(arrival) < len(ig.nodes)
            eccs[u] = math.inf if missed else max(t - s for t in arrival.values())
        out.append((s, eccs))
        s += step
    return out


# ---------------------------------------------------------------------------
# fair schedules

def exact_fair_schedules(seq):
    """Every schedule selecting each present edge exactly once per snapshot."""
    per_snap = [
        [list(p) for p in itertools.permutations(sorted(snap))]
        for snap in seq.snapshots
    ]
    for combo in itertools.product(*per_snap):
        yield [list(round_edges) for round_edges in combo]


def broadcast_under(seq, schedule, emitter):
    informed = {emitter}
    for round_edges in schedule:
        for u, v in round_edges:
            if u in informed or v in informed:
                informed |= {u, v}
    return frozenset(informed)


def circulate_counts(seq, schedule):
    """count-circulate replayed on its own copy of the forest process.

    Tokens start on every node; selecting edge (u, v) with u < v merges v
    under u when both hold tokens, or walks u's token down to its child v
    (or v's to u); a new snapshot turns children whose tree edge vanished
    into token holders.  The token sets before and after each selection
    tell which node lost its token and which one holds it: that node takes
    the lost weight.
    """
    parent = {v: None for v in seq.nodes}
    tokens = set(seq.nodes)
    counts = {v: 1 for v in seq.nodes}
    for t, round_edges in enumerate(schedule):
        if t > 0:
            for c, p in sorted(parent.items()):
                if p is not None and edge(c, p) not in seq.snapshots[t]:
                    parent[c] = None
                    tokens.add(c)
        for u, v in (edge(*e) for e in round_edges):
            before = set(tokens)
            if u in tokens and v in tokens:
                parent[v] = u
                tokens.discard(v)
            else:
                for root, other in ((u, v), (v, u)):
                    if root in tokens and parent[other] == root:
                        parent[root], parent[other] = other, None
                        tokens = tokens - {root} | {other}
                        break
            lost, gained = before - tokens, tokens - before
            if lost:
                src = lost.pop()
                dst = gained.pop() if gained else (u if u in tokens else v)
                counts[dst] += counts[src]
                counts[src] = 0
    return dict(sorted(counts.items()))


def relabel_replay(seq, algorithm, schedule, emitter=None, sentinel=None):
    """broadcast, count-sentinel or count-uniform over the whole schedule, no
    early exit, in the shape (and key order) of ``relabel.run``'s result."""
    nodes = sorted(seq.nodes)
    if algorithm == "broadcast":
        informed = broadcast_under(seq, schedule, emitter)
        return {"algorithm": algorithm, "success": informed == seq.nodes,
                "informed": sorted(informed), "labels": {v: v in informed for v in nodes}}
    if algorithm == "count-sentinel":
        met = {v for round_edges in schedule for e in round_edges if sentinel in e for v in e}
        labels = {v: "F" if v in met else "N" for v in nodes if v != sentinel}
        k = sum(label == "F" for label in labels.values())
        return {"algorithm": algorithm, "success": k == len(nodes) - 1, "k": k, "labels": labels}
    assert algorithm == "count-uniform"
    counts = {v: 1 for v in nodes}
    for round_edges in schedule:
        for u, v in round_edges:
            if counts[u] and counts[v]:
                lo, hi = sorted((u, v))
                counts[lo], counts[hi] = counts[lo] + counts[hi], 0
    return {"algorithm": algorithm, "success": max(counts.values()) == len(nodes),
            "counts": counts}


# ---------------------------------------------------------------------------
# spanning-forest invariants

def forest_invariants_per_node_walk(state):
    """The forest invariant check as first written, with a fresh path set for
    each node's walk; raises ContractError with the same messages."""
    parent = state.parent
    if state.tokens != {v for v, p in parent.items() if p is None}:
        raise ContractError("token holders differ from the forest roots")
    snap = state.sequence.snapshots[state.t]
    for child, par in parent.items():
        if par is not None and ((child, par) if child < par else (par, child)) not in snap:
            raise ContractError(f"tree edge {child!r}->{par!r} not in the snapshot")
    rooted = set()
    for v in parent:
        path, x = set(), v
        while x is not None and x not in rooted:
            if x in path:
                raise ContractError(f"cycle in parent pointers through {x!r}")
            path.add(x)
            x = parent[x]
        rooted |= path


# ---------------------------------------------------------------------------
# trace statistics


def discretized_mu(g: IntervalGraph) -> int:
    """Instant density as first computed: the largest snapshot of the discretization."""
    return max((len(s) for s in discretize(g).sequence.snapshots), default=0)
