"""Shared fixtures: the small graphs every suite keeps coming back to."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tempnet.core import IntervalGraph, SnapshotSequence, StaticGraph, edge


def seq_of(nodes, *snaps) -> SnapshotSequence:
    """Build a sequence from edge name pairs, e.g. seq_of("abc", ["ab"], [])."""
    return SnapshotSequence(
        frozenset(nodes),
        tuple(frozenset(edge(p[0], p[1]) if isinstance(p, str) else edge(*p)
                        for p in snap) for snap in snaps),
    )


def graph_of(nodes, edges) -> StaticGraph:
    return StaticGraph(
        frozenset(nodes),
        frozenset(edge(p[0], p[1]) if isinstance(p, str) else edge(*p)
                  for p in edges),
    )


@pytest.fixture
def journey_fig():
    # a reaches e (via c at 0, d at 1, e at 2 or 3) but e never reaches a
    return seq_of(
        "abcde",
        ["ac", "bc", "bd", "cd"],
        ["ab", "bc", "cd"],
        ["ab", "cd", "ce", "de"],
        ["ce", "de"],
    )


@pytest.fixture
def closure_fig():
    # times are snapshot indices; index 0 is empty so labels start at 1
    return seq_of(
        "abcde",
        [],
        ["ab", "ac"],
        ["bc", "bd", "cd"],
        ["cd", "ce", "de"],
        ["ce", "de"],
    )


# the 17 one-way reachability arcs of the closure example above
CLOSURE_FIG_ARCS = frozenset(
    (u, v)
    for u, targets in {
        "a": "bcde",
        "b": "acde",
        "c": "abde",
        "d": "bce",
        "e": "cd",
    }.items()
    for v in targets
)


def weekly_line(weeks: int = 6) -> SnapshotSequence:
    """Mon ab, Tue bc, Wed cd, Thu de, Fri ef, empty weekend, repeated."""
    by_day = {1: ["ab"], 2: ["bc"], 3: ["cd"], 4: ["de"], 5: ["ef"]}
    snaps = [by_day.get(t % 7, []) for t in range(7 * weeks)]
    return seq_of("abcdef", *snaps)


def long_line(n: int = 1100) -> SnapshotSequence:
    """Nodes v0000..v{n-1}; snapshot i holds the edge v_i - v_{i+1}."""
    names = [f"v{i:04d}" for i in range(n)]
    return SnapshotSequence.build(names, [[(names[i], names[i + 1])] for i in range(n - 1)])


@pytest.fixture(name="weekly_line")
def weekly_line_fixture():
    return weekly_line()


@pytest.fixture
def distance_fig():
    # four a->d routes with very different metrics; latency 0.01
    return IntervalGraph.build(
        frozenset("abcdefg"),
        {
            edge("a", "b"): [(1, 2)],
            edge("b", "c"): [(3, 4)],
            edge("c", "d"): [(5, 6)],
            edge("a", "e"): [(4, 5)],
            edge("e", "d"): [(9, 10)],
            edge("a", "f"): [(6, 8)],
            edge("f", "g"): [(6, 8)],
            edge("g", "d"): [(6, 8)],
        },
        latency=Fraction(1, 100),
        span=(0, 10),
    )


@pytest.fixture
def line_fig():
    # fastest a->d goes (ab,3),(bc,5),(cd,6); its prefix is not fastest
    return seq_of(
        "abcd",
        [],
        ["ab"],
        ["bc"],
        ["ab"],
        [],
        ["bc"],
        ["cd"],
    )


def triangle_periodic(periods: int = 3) -> IntervalGraph:
    base = {
        edge("a", "b"): [(0, 30)],
        edge("a", "c"): [(20, 60)],
        edge("b", "c"): [(10, 40), (70, 80)],
    }
    edges = {
        e: [(s + 100 * k, t + 100 * k) for k in range(periods) for s, t in ivs]
        for e, ivs in base.items()
    }
    return IntervalGraph.build(
        frozenset("abc"), edges, latency=1, span=(0, 100 * periods)
    )


@pytest.fixture(name="triangle_periodic")
def triangle_periodic_fixture():
    return triangle_periodic()


@pytest.fixture
def overlap_fig():
    # maximal temporal components {a,b,c} and {b,c,d} overlap
    return seq_of("abcd", [], ["bc"], ["ab", "cd"], ["bc"])


@pytest.fixture
def connected_g():
    # connected footprint, yet d can never reach a
    return seq_of("abcd", ["ab", "cd"], ["bc"])


@pytest.fixture
def tc_fig():
    # temporally connected although no single snapshot is connected
    return seq_of("abcd", ["ad", "bc"], [], ["ac", "bd"])


@pytest.fixture
def menger_fig():
    # δ=8, times are snapshot indices 1..7
    timed = [
        (("s", "v1"), 5), (("s", "v2"), 1), (("v1", "t"), 3), (("v1", "v2"), 2),
        (("v1", "v3"), 6), (("v2", "v3"), 4), (("v3", "t"), 7),
    ]
    snaps = [[p for p, t in timed if t == i] for i in range(8)]
    return SnapshotSequence(
        frozenset({"s", "t", "v1", "v2", "v3"}),
        tuple(frozenset(edge(*p) for p in snap) for snap in snaps),
    )


@pytest.fixture
def covering_fig():
    # square nodes; d alone dominates the footprint over time
    return seq_of("abcd", ["bd", "cd"], ["ad", "cd"], ["ac", "cd"])


@pytest.fixture
def bull():
    return graph_of("abcde", ["ab", "bc", "ce", "bd", "dc"])


@pytest.fixture
def bull_trace():
    # single-snapshot trace whose footprint is the bull graph
    return seq_of("abcde", ["ab", "bc", "ce", "bd", "dc"])


@pytest.fixture
def square():
    return graph_of("abcd", ["ab", "bc", "cd", "da"])


@pytest.fixture
def triangle():
    return graph_of("abc", ["ab", "bc", "ca"])


def moon_moser() -> StaticGraph:
    """Complete tripartite graph on 9 vertices: 27 maximal cliques."""
    parts = [[f"{c}{i}" for i in range(3)] for c in "xyz"]
    edges = [
        (u, v)
        for i, p in enumerate(parts)
        for q in parts[i + 1:]
        for u in p
        for v in q
    ]
    return graph_of([v for p in parts for v in p], edges)


@pytest.fixture(name="moon_moser")
def moon_moser_fixture():
    return moon_moser()
