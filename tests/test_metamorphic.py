"""Metamorphic relations: the library compared with itself on a transformed input.

Mapping every time t to c * t + k (c > 0) keeps the order of every time the
kernels compare, so each answer maps the same way.  The interval sweeps
compute on an integer view whose scale depends on the times' denominators,
so a scale c with a new denominator changes the view's scale as well.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import KINDS, interval_graphs
from tempnet.core import IntervalGraph
from tempnet.journeys import fastest_journey, foremost_tree_intervals

SCALES = st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(1, 5)])
SHIFTS = st.sampled_from([Fraction(0), Fraction(7, 2), Fraction(-1, 3)])
LATENCIES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def affine(g: IntervalGraph, c, k) -> IntervalGraph:
    """g with every time t as c * t + k: endpoints and span; the latency, a duration, as c * zeta."""
    def f(t):
        return c * t + k
    edges = {e: [(f(a), f(b)) for a, b in ivs] for e, ivs in g.edges.items()}
    return IntervalGraph.build(g.nodes, edges, c * g.latency, tuple(map(f, g.span)))


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
@given(interval_graphs(latencies=LATENCIES), KINDS, SCALES, SHIFTS)
def test_mixed_denominators_keep_the_relation(g, kind, c, k):
    # runs on 1/3 and 1/4 steps and latency 1/2 on top of the scale's own denominator
    g = IntervalGraph.build(
        g.nodes,
        {e: [(Fraction(a, 3 + i % 2), Fraction(b, 3 + i % 2)) for a, b in ivs]
         for i, (e, ivs) in enumerate(sorted(g.edges.items()))},
        Fraction(1, 2), (0, Fraction(8, 3)),
    )
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
