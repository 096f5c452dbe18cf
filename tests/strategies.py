"""Hypothesis strategies for random temporal graphs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from tempnet.core import IntervalGraph, SnapshotSequence, edge

KINDS = st.sampled_from(["strict", "nonstrict"])


def node_names(n):
    return [f"v{i}" for i in range(n)]


@st.composite
def sequences(draw, min_n=2, max_n=5, min_delta=1, max_delta=4):
    n = draw(st.integers(min_n, max_n))
    delta = draw(st.integers(min_delta, max_delta))
    names = node_names(n)
    pairs = [edge(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    snaps = tuple(
        frozenset(e for e in pairs if draw(st.booleans()))
        for _ in range(delta)
    )
    return SnapshotSequence(frozenset(names), snaps)


@st.composite
def dense_sequences(draw, min_n=2, max_n=8, min_delta=1, max_delta=5):
    """Bigger but shaped by per-snapshot edge counts instead of coin flips."""
    n = draw(st.integers(min_n, max_n))
    delta = draw(st.integers(min_delta, max_delta))
    names = node_names(n)
    pairs = [edge(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    snaps = []
    for _ in range(delta):
        count = draw(st.integers(0, len(pairs)))
        chosen = draw(st.permutations(pairs))[:count]
        snaps.append(frozenset(chosen))
    return SnapshotSequence(frozenset(names), tuple(snaps))


@st.composite
def interval_graphs(draw, min_n=2, max_n=4, max_intervals=2, max_time=8,
                    latencies=(Fraction(1), Fraction(1, 2), Fraction(1, 4))):
    n = draw(st.integers(min_n, max_n))
    names = node_names(n)
    pairs = [edge(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    latency = draw(st.sampled_from(latencies))
    edges = {}
    for e in pairs:
        k = draw(st.integers(0, max_intervals))
        # draw disjoint non-touching intervals from a sorted cut sequence
        cuts = draw(
            st.lists(
                st.integers(0, max_time), min_size=2 * k, max_size=2 * k, unique=True
            ).map(sorted)
        )
        ivs = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(k)]
        if ivs:
            edges[e] = ivs
    return IntervalGraph.build(
        frozenset(names), edges, latency=latency, span=(0, max_time)
    )


def mixed(g: IntervalGraph, latency=Fraction(1, 2)) -> IntervalGraph:
    """g's runs on 1/3 and 1/4 steps (by edge) with the given latency over [0, 8/3], on top
    of whatever denominator a scale adds."""
    return IntervalGraph.build(
        g.nodes,
        {e: [(Fraction(a, 3 + i % 2), Fraction(b, 3 + i % 2)) for a, b in ivs]
         for i, (e, ivs) in enumerate(sorted(g.edges.items()))},
        latency, (0, Fraction(8, 3)),
    )
