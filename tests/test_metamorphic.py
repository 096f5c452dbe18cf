"""Metamorphic relations: the library compared with itself on a transformed input.

Mapping every time t to c * t + k (c > 0) keeps the order of every time the
kernels compare, so each answer maps the same way.  The interval sweeps
compute on an integer view whose scale depends on the times' denominators,
so a scale c with a new denominator changes the view's scale as well.

A snapshot sequence and its interval form (``to_intervals``, latency 1) hold
the same journeys: a hop in snapshot t is a hop at time t, arriving by t + 1.

Renaming the nodes maps every journey, so every node-valued answer maps
through the renaming; a witness need not, since ties break by node id.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import KINDS, interval_graphs, mixed, sequences
from tempnet.classes import CLASS_NAMES, finite_class_membership
from tempnet.closure import maximal_temporal_components, nonstrict_closure, strict_closure
from tempnet.core import IntervalGraph, SnapshotSequence, edge, to_intervals
from tempnet.journeys import (
    earliest_arrival,
    eccentricity,
    fastest_journey,
    foremost_tree_intervals,
    latest_departure,
    max_disjoint_journeys,
    min_temporal_separator,
    shortest_journey,
    steady_progress_alpha,
    temporal_diameter_at,
    temporal_distance,
)
from tempnet.windows import sliding_metric

SCALES = st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(1, 5)])
SHIFTS = st.sampled_from([Fraction(0), Fraction(7, 2), Fraction(-1, 3)])
LATENCIES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def affine(g: IntervalGraph, c, k) -> IntervalGraph:
    """g with every time t as c * t + k: endpoints and span; the latency, a duration, as c * zeta."""
    def f(t):
        return c * t + k
    edges = {e: [(f(a), f(b)) for a, b in ivs] for e, ivs in g.edges.items()}
    return IntervalGraph.build(g.nodes, edges, c * g.latency, tuple(map(f, g.span)))


def scaled(x, c):
    """A duration x under the scale c: 0 and inf stay as they are."""
    return x if x in (0, math.inf) else c * x


@settings(deadline=None)
@given(interval_graphs(latencies=LATENCIES), KINDS, SCALES, SHIFTS,
       st.lists(st.integers(0, 32).map(lambda k: Fraction(k, 4)), min_size=2, max_size=2,
                unique=True).map(sorted))
def test_fastest_journeys_and_tree_regimes_map_under_time_scale_and_shift(g, kind, c, k, window):
    h = affine(g, c, k)
    hwindow = tuple(c * t + k for t in window)
    for u in sorted(g.nodes):
        for v in sorted(g.nodes - {u}):
            for w, hw in ((None, None), (window, hwindow)):
                got, mapped = fastest_journey(g, u, v, w, kind), fastest_journey(h, u, v, hw, kind)
                if got is None:
                    assert mapped is None
                    continue
                assert mapped.duration == c * got.duration
                assert mapped.hops == tuple((x, y, c * s + k) for x, y, s in got.hops)
        # regime breakpoints map the same way, and the tree shapes are equal
        assert foremost_tree_intervals(h, u, hwindow, kind) == [
            ((c * a + k, c * b + k), shape)
            for (a, b), shape in foremost_tree_intervals(g, u, window, kind)
        ]


@settings(deadline=None)
@given(sequences(max_n=5, max_delta=6), KINDS)
def test_fastest_journeys_keep_their_hops_in_the_interval_form(seq, kind):
    # the interval form's duration counts the last hop's latency, 1
    g = to_intervals(seq)
    for u in sorted(seq.nodes):
        for v in sorted(seq.nodes - {u}):
            got = fastest_journey(seq, u, v, kind=kind)
            mapped = fastest_journey(g, u, v, (0, seq.delta - 1), kind)
            assert (got is None) == (mapped is None)
            if got is not None:
                assert mapped.hops == got.hops
                assert mapped.duration == got.duration + 1


@settings(deadline=None)
@given(sequences(min_n=1, max_n=6, max_delta=9))
def test_window_series_gain_the_last_hop_in_the_interval_form(seq):
    # the sequence walks the packed window algebra, the interval form searches each window's
    # cut of its view; a duration there counts the last hop's latency, 1, unless n < 2 (0 both)
    g = to_intervals(seq)
    shift = 1 if len(seq.nodes) >= 2 else 0
    for metric in ("tc", "tdiam", *(f"ecc:{v}" for v in sorted(seq.nodes))):
        for width in range(1, seq.delta + 1):
            got = sliding_metric(seq, metric, width, 1).points
            gain = 0 if metric == "tc" else shift
            assert sliding_metric(g, metric, width, 1).points == tuple(
                (s, x if x == math.inf else x + gain) for s, x in got)


@settings(deadline=None)
@given(sequences(min_n=1, max_n=6, max_delta=9), KINDS)
def test_closures_are_the_reach_sets_of_the_interval_form(seq, kind):
    # a bitset fold over the snapshots against Fraction foremost searches from time 0
    g = to_intervals(seq)
    closure = strict_closure if kind == "strict" else nonstrict_closure
    assert closure(seq).arcs == {(u, v) for u in seq.nodes
                                 for v in earliest_arrival(g, u, 0, kind).arrival if v != u}


@settings(deadline=None)
@given(sequences(max_n=6, max_delta=5), KINDS)
def test_separators_and_disjoint_journeys_agree_in_the_interval_form(seq, kind):
    # both cut the integer view to the kept nodes: a sequence's ticks, the interval form at D = 2
    g = to_intervals(seq)
    for s, t in itertools.permutations(sorted(seq.nodes), 2):
        assert min_temporal_separator(g, s, t, kind) == min_temporal_separator(seq, s, t, kind)
        assert max_disjoint_journeys(g, s, t, kind) == max_disjoint_journeys(seq, s, t, kind)


def renamed(g):
    """(r, g with every node v as r[v]), r a bijection that reverses the nodes' sort order,
    so every tie by node id flips."""
    nodes = sorted(g.nodes)
    r = {v: f"u{len(nodes) - i}" for i, v in enumerate(nodes)}
    if isinstance(g, SnapshotSequence):
        return r, SnapshotSequence(frozenset(r.values()), tuple(
            frozenset(edge(r[u], r[v]) for u, v in snap) for snap in g.snapshots))
    return r, IntervalGraph.build(r.values(), {(r[u], r[v]): ivs for (u, v), ivs in g.edges.items()},
                                  g.latency, g.span)


@settings(deadline=None)
@given(sequences(max_n=6, max_delta=5), KINDS)
def test_node_renaming_maps_every_node_valued_answer(seq, kind):
    r, h = renamed(seq)
    nodes = sorted(seq.nodes)
    assert ({frozenset(map(r.get, c)) for c in maximal_temporal_components(seq, kind)}
            == set(maximal_temporal_components(h, kind)))
    for closure in (strict_closure, nonstrict_closure):
        assert {(r[u], r[v]) for u, v in closure(seq).arcs} == closure(h).arcs
    for name in CLASS_NAMES:
        assert finite_class_membership(seq, name, kind)[0] == finite_class_membership(h, name, kind)[0]
    for s, t in itertools.permutations(nodes, 2):
        assert min_temporal_separator(seq, s, t, kind) == min_temporal_separator(h, r[s], r[t], kind)
        assert max_disjoint_journeys(seq, s, t, kind) == max_disjoint_journeys(h, r[s], r[t], kind)


@settings(deadline=None)
@given(sequences(max_n=5, max_delta=5)
       | interval_graphs(latencies=LATENCIES).map(lambda g: mixed(g, g.latency)), KINDS)
def test_node_renaming_keeps_steady_progress(g, kind):
    # alpha is a duration: renaming keeps its value and type, over all pairs and for each pair
    r, h = renamed(g)
    for pair in [None, *itertools.permutations(sorted(g.nodes), 2)]:
        got = steady_progress_alpha(g, kind=kind, pair=pair)
        mapped = steady_progress_alpha(h, kind=kind, pair=pair and (r[pair[0]], r[pair[1]]))
        assert (mapped, type(mapped)) == (got, type(got))


@settings(deadline=None)
@given(interval_graphs(latencies=LATENCIES), KINDS, SCALES, SHIFTS)
def test_mixed_denominators_keep_the_relation(g, kind, c, k):
    g = mixed(g)
    h = affine(g, c, k)
    for u in sorted(g.nodes):
        assert foremost_tree_intervals(h, u, h.span, kind) == [
            ((c * a + k, c * b + k), shape)
            for (a, b), shape in foremost_tree_intervals(g, u, g.span, kind)
        ]
        for v in sorted(g.nodes - {u}):
            got, mapped = fastest_journey(g, u, v, kind=kind), fastest_journey(h, u, v, kind=kind)
            assert (got is None) == (mapped is None)
            if got is not None:
                assert mapped.duration == c * got.duration
                assert mapped.departure == c * got.departure + k


@settings(deadline=None)
@given(interval_graphs(latencies=LATENCIES[1:]), KINDS, SCALES, SHIFTS,
       st.lists(st.integers(0, 32).map(lambda k: Fraction(k, 4)), min_size=2, max_size=2,
                unique=True).map(sorted))
def test_steady_progress_scales_with_time(g, kind, c, k, window):
    # alpha is a duration; at zeta > 0 every candidate it is drawn from scales with c.  Over
    # all pairs an initial wait tends to set it, so each pair is asked on its own as well.
    h = affine(g, c, k)
    for w, hw in ((None, None), (tuple(window), tuple(c * t + k for t in window))):
        for pair in [None, *itertools.permutations(sorted(g.nodes), 2)]:
            got = steady_progress_alpha(g, w, kind, pair)
            assert steady_progress_alpha(h, hw, kind, pair) == (None if got is None else c * got)


@settings(deadline=None)
@given(interval_graphs(latencies=LATENCIES), st.booleans(), KINDS, SCALES, SHIFTS,
       st.integers(0, 24).map(lambda i: Fraction(i, 24)))
def test_distances_latest_departures_and_shortest_journeys_map(g, mix, kind, c, k, at):
    # at is a share of the lifetime: on twenty-fourths, often off the graph's grid
    g = mixed(g) if mix else g
    h = affine(g, c, k)
    lo, hi = g.span
    t = lo + at * (hi - lo)
    ht = c * t + k
    assert temporal_diameter_at(h, ht, kind) == scaled(temporal_diameter_at(g, t, kind), c)
    for u in sorted(g.nodes):
        assert temporal_distance(h, u, ht, kind) == {
            v: scaled(d, c) for v, d in temporal_distance(g, u, t, kind).items()}
        assert eccentricity(h, u, ht, kind) == scaled(eccentricity(g, u, t, kind), c)
        for v in sorted(g.nodes - {u}):
            latest = latest_departure(g, u, v, t, kind)
            assert latest_departure(h, u, v, ht, kind) == (None if latest is None else c * latest + k)
            got, mapped = shortest_journey(g, u, v, t, kind), shortest_journey(h, u, v, ht, kind)
            assert (got is None) == (mapped is None)
            if got is not None:
                assert mapped.hop_count == got.hop_count
                assert mapped.hops == tuple((x, y, c * s + k) for x, y, s in got.hops)


@settings(deadline=None)
@given(interval_graphs(latencies=LATENCIES), st.booleans(),
       st.sampled_from(["tdiam", "tc", "ecc:v0", "ecc:v1"]), SCALES, SHIFTS,
       st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)]),
       st.sampled_from([Fraction(1, 8), Fraction(1, 5), Fraction(1, 3)]))
def test_window_series_map_under_time_scale_and_shift(g, mix, metric, c, k, width, step):
    # width and step are shares of the lifetime, scaled with it
    g = mixed(g) if mix else g
    h = affine(g, c, k)
    span = g.span[1] - g.span[0]
    got = sliding_metric(g, metric, width * span, step * span).points
    mapped = sliding_metric(h, metric, c * width * span, c * step * span).points
    keep = metric == "tc"  # is the window connected: a yes or no, not a duration
    assert mapped == tuple((c * s + k, x if keep else scaled(x, c)) for s, x in got)
