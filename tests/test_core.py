"""Data model: construction rules, conversions, slicing."""

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracles
from conftest import graph_of, seq_of
from strategies import interval_graphs, mixed, sequences
from tempnet.core import (
    IntervalGraph,
    SnapshotSequence,
    StaticGraph,
    as_time,
    characteristic_dates,
    discretize,
    edge,
    footprint,
    intersection_graph,
    lifetime,
    snapshot_at,
    stats,
    supports_hop,
    temporal_subgraph,
    to_intervals,
    to_snapshots,
)
from tempnet.core import _join_packed, _spread
from tempnet.errors import InputError, RangeError


def test_as_time_accepts_the_usual_spellings():
    assert as_time(3) == Fraction(3)
    assert as_time("1/100") == Fraction(1, 100)
    assert as_time(0.01) == Fraction(1, 100)  # via str(), not binary float
    assert as_time(Fraction(7, 2)) == Fraction(7, 2)


@pytest.mark.parametrize("bad", [True, False, "abc", None, "1/0", [1]])
def test_as_time_rejects_non_times(bad):
    with pytest.raises(InputError):
        as_time(bad)


def test_edge_is_canonical_and_loop_free():
    assert edge("b", "a") == ("a", "b")
    with pytest.raises(InputError):
        edge("a", "a")
    with pytest.raises(InputError):
        edge("", "a")


def test_static_graph_rejects_malformed_edges():
    with pytest.raises(InputError):
        StaticGraph(frozenset("ab"), frozenset({("b", "a")}))
    with pytest.raises(InputError):
        StaticGraph(frozenset("ab"), frozenset({("a", "c")}))
    with pytest.raises(InputError):
        StaticGraph(frozenset("ab"), frozenset({("a", "a")}))
    with pytest.raises(InputError):
        StaticGraph.build("ab", [("a", "c")])


def test_snapshot_graphs_skip_the_check_their_sequence_made(monkeypatch):
    import tempnet.core as core
    from tempnet.hierarchy import tinterval

    seq = seq_of("abc", ["ab", "bc"], ["ab"])
    path, single = graph_of("abc", ["ab", "bc"]), graph_of("abc", ["ab"])
    checked = []
    monkeypatch.setattr(core, "_check_edges", lambda edges, nodes: checked.append(edges))
    first, second = seq.graph_at(0), seq.graph_at(1)
    both = tinterval().compose(first, second)
    assert checked == []
    assert first == path and both == single and both.adjacency["a"] == frozenset("b")
    StaticGraph(frozenset("ab"), frozenset({("a", "b")}))
    assert len(checked) == 1  # the public constructor still checks


def test_static_graph_components_and_completeness():
    g = graph_of("abcd", ["ab", "cd"])
    assert sorted(map(sorted, g.connected_components())) == [["a", "b"], ["c", "d"]]
    assert not g.is_connected()
    assert graph_of("abc", ["ab", "bc", "ac"]).is_complete()
    assert not graph_of("abc", ["ab", "bc"]).is_complete()


def test_sequence_validation_and_indexing():
    seq = seq_of("abc", ["ab"], [])
    assert seq.delta == 2
    assert seq.graph_at(0).edges == frozenset({("a", "b")})
    with pytest.raises(RangeError):
        seq.graph_at(2)
    with pytest.raises(RangeError):
        seq.graph_at(-1)
    with pytest.raises(InputError):
        SnapshotSequence(frozenset("ab"), ())


def test_build_shares_one_tuple_per_distinct_edge():
    seq = SnapshotSequence.build("abc", [[["a", "b"], ["c", "b"]], [["b", "a"]], [["b", "c"]]])
    ab = [e for snap in seq.snapshots for e in snap if e == ("a", "b")]
    bc = [e for snap in seq.snapshots for e in snap if e == ("b", "c")]
    assert len(ab) == len(bc) == 2
    assert ab[0] is ab[1] and bc[0] is bc[1]


def test_ticks_merge_consecutive_snapshots_into_int_runs():
    seq = seq_of("abc", ["ab"], ["ab", "bc"], ["ab"], [], ["ab"])
    ticks = seq._ticks
    assert ticks.edges == {("a", "b"): ((0, 3), (4, 5)), ("b", "c"): ((1, 2),)}
    assert ticks.span == (0, 5) and ticks.latency == 1
    assert ticks.nodes == seq.nodes
    assert all(type(x) is int for ivs in ticks.edges.values() for iv in ivs for x in iv)
    assert type(ticks.latency) is int
    assert seq._ticks is ticks  # cached on the sequence


def test_interval_normalization_merges_touching_presences():
    g = IntervalGraph.build(frozenset("ab"), {("a", "b"): [(0, 1), (1, 2)]})
    assert g.edges[("a", "b")] == ((Fraction(0), Fraction(2)),)
    with pytest.raises(InputError):
        IntervalGraph.build(frozenset("ab"), {("a", "b"): [(0, 2), (1, 3)]})
    with pytest.raises(InputError):
        IntervalGraph.build(frozenset("ab"), {("a", "b"): [(2, 2)]})


def test_lifetime_uses_span_override(distance_fig):
    assert lifetime(distance_fig) == (0, 10)
    bare = IntervalGraph.build(frozenset("ab"), {("a", "b"): [(3, 7)]})
    assert lifetime(bare) == (3, 7)


def test_characteristic_dates(distance_fig):
    assert characteristic_dates(distance_fig) == (1, 2, 3, 4, 5, 6, 8, 9, 10)


def test_supports_hop_is_closed_at_interval_ends(distance_fig):
    zeta = Fraction(1, 100)
    e = ("a", "b")  # present [1, 2)
    assert supports_hop(distance_fig, e, 1)
    assert supports_hop(distance_fig, e, 2 - zeta)
    assert not supports_hop(distance_fig, e, 2 - zeta + Fraction(1, 10_000))
    assert not supports_hop(distance_fig, e, Fraction(1, 2))
    assert not supports_hop(distance_fig, ("a", "d"), 1)  # never present


def test_footprint_and_intersection(journey_fig):
    fp = footprint(journey_fig)
    assert ("a", "c") in fp.edges and ("d", "e") in fp.edges
    assert intersection_graph(journey_fig).edges == frozenset()
    stable = seq_of("abc", ["ab", "bc"], ["ab"])
    assert intersection_graph(stable).edges == frozenset({("a", "b")})


@given(interval_graphs())
def test_interval_intersection_keeps_the_edges_one_run_covers(ig):
    # the drawn span covers every run, so a stable edge is one run over the whole lifetime
    lo, hi = lifetime(ig)
    stable = intersection_graph(ig)
    assert stable.nodes == ig.nodes
    assert stable.edges == {e for e, ivs in ig.edges.items() if any(a <= lo and hi <= b for a, b in ivs)}


def test_interval_graph_rejects_a_lifetime_that_misses_a_run():
    # a lifetime is the trace's whole extent: one that cuts a run off describes another trace
    runs = {("a", "b"): [(0, 1), (2, 5)]}
    for edges, span in [(runs, (2, 4)), (runs, (0, 4)), (runs, (1, 5)), ({}, (4, 2)),
                        ({("a", "b"): [(0, 1)], ("b", "c"): [(2, 3)]}, (1, 1))]:
        with pytest.raises(InputError) as raised:
            IntervalGraph.build("abc", edges, span=span)
        assert str(raised.value) == (
            f"lifetime [{span[0]}, {span[1]}] must be an interval that holds every run")
    for span in [(0, 5), (-1, 6)]:
        assert lifetime(IntervalGraph.build("ab", runs, span=span)) == span
    assert lifetime(IntervalGraph.build("ab", {}, span=(1, 1))) == (1, 1)


def test_snapshot_at(journey_fig, distance_fig):
    assert snapshot_at(journey_fig, 1).edges == journey_fig.snapshots[1]
    assert snapshot_at(distance_fig, Fraction(3, 2)).edges == {("a", "b")}
    assert snapshot_at(distance_fig, 2).edges == frozenset()  # half-open
    with pytest.raises(RangeError):
        snapshot_at(distance_fig, 11)
    with pytest.raises(RangeError):
        snapshot_at(journey_fig, Fraction(1, 2))


def test_temporal_subgraph_discrete(journey_fig):
    sub = temporal_subgraph(journey_fig, (1, 3))
    assert sub.delta == 2
    assert sub.snapshots == journey_fig.snapshots[1:3]
    with pytest.raises(RangeError):
        temporal_subgraph(journey_fig, (2, 2))
    with pytest.raises(RangeError):
        temporal_subgraph(journey_fig, (10, 12))
    # int() truncation used to turn [1/2, 5/2) into snapshots 0 and 1
    for window in [(Fraction(1, 2), Fraction(5, 2)), (0, Fraction(5, 2)), ("1/2", 3)]:
        with pytest.raises(RangeError, match="discrete window bound must be an integer"):
            temporal_subgraph(journey_fig, window)


def test_temporal_subgraph_continuous_clips(distance_fig):
    sub = temporal_subgraph(distance_fig, (Fraction(7, 2), 6))
    assert sub.span == (Fraction(7, 2), 6)
    assert sub.edges[("b", "c")] == ((Fraction(7, 2), Fraction(4)),)
    assert ("a", "b") not in sub.edges


def test_temporal_subgraph_continuous_window_must_meet_the_lifetime(distance_fig):
    # as on a sequence, a window that misses the trace is an error, not an empty trace
    for a, b in [(11, 12), (10, 11), (-2, 0), (Fraction(-1, 2), 0)]:
        with pytest.raises(RangeError, match=rf"^window \[{a}, {b}\) misses lifetime \[0, 10\]$"):
            temporal_subgraph(distance_fig, (a, b))
    assert temporal_subgraph(distance_fig, (-1, Fraction(1, 2))).span == (-1, Fraction(1, 2))


def test_discretize_triangle(triangle_periodic):
    seq, spans = discretize(triangle_periodic)
    assert spans[0] == (0, 10)
    assert seq.snapshots[0] == frozenset({("a", "b")})
    # [20, 30) carries all three sides at once
    i = spans.index((20, 30))
    assert seq.snapshots[i] == frozenset({("a", "b"), ("a", "c"), ("b", "c")})
    assert sum(b - a for a, b in spans) == 300


def test_stats(journey_fig, distance_fig):
    s = stats(journey_fig)
    assert (s.n, s.m, s.k) == (5, 7, 4)
    assert s.mu == 4
    c = stats(distance_fig)
    assert (c.n, c.m) == (7, 8)
    assert c.lifetime == (0, 10)


@given(interval_graphs(max_n=5, max_intervals=3), st.sampled_from(["plain", "mixed", "wide"]))
def test_instant_density_is_the_largest_discretized_snapshot(ig, shape):
    # 1/3 and 1/4 endpoints, or a lifetime wider than the runs
    if shape == "mixed":
        ig = mixed(ig)
    elif shape == "wide":
        ig = IntervalGraph.build(ig.nodes, ig.edges, ig.latency, (-2, 11))
    assert stats(ig).mu == oracles.discretized_mu(ig)


@pytest.mark.parametrize("span", [None, (0, 0), (1, 4)])
def test_instant_density_without_edges_is_zero(span):
    g = IntervalGraph.build("abc", {}, span=span)
    assert stats(g).mu == oracles.discretized_mu(g) == 0


@given(sequences(max_n=5, max_delta=4))
def test_snapshot_interval_snapshot_roundtrip(seq):
    assert to_snapshots(to_intervals(seq)) == seq


@pytest.mark.parametrize("span,shown", [(None, "1/2"), ((0, Fraction(7, 2)), "7/2")])
def test_to_snapshots_rejects_non_integer_dates(span, shown):
    g = IntervalGraph.build("ab", {("a", "b"): [(Fraction(1, 2), 2)]}, span=span)
    with pytest.raises(InputError) as raised:
        to_snapshots(g)
    assert str(raised.value) == (
        f"non-integer characteristic date {shown}; discretize() handles general grids")


@given(sequences(max_n=4, max_delta=3))
def test_to_intervals_preserves_presence(seq):
    ig = to_intervals(seq)
    for t in range(seq.delta):
        assert snapshot_at(ig, Fraction(2 * t + 1, 2)).edges == seq.snapshots[t]


@given(interval_graphs())
def test_discretize_matches_presence_on_midpoints(ig):
    seq, spans = discretize(ig)
    for snap, (a, b) in zip(seq.snapshots, spans):
        mid = (a + b) / 2
        assert snapshot_at(ig, mid).edges == snap


@given(st.integers(0, 9), st.data())
def test_is_connected_matches_networkx(n, data):
    names = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    oracle = nx.Graph()
    oracle.add_nodes_from(names)
    oracle.add_edges_from(edges)
    # networkx leaves the null graph undefined; one node or none counts as connected
    assert StaticGraph.build(names, edges).is_connected() == (n == 0 or nx.is_connected(oracle))


@st.composite
def packed_matrices(draw, n: int):
    """A packed n-node matrix as a row list: empty, identity, full, one row, or random."""
    full = (1 << n) - 1
    shape = draw(st.sampled_from(("empty", "identity", "full", "one row", "random")))
    if shape == "empty":
        return [0] * n
    if shape == "identity":
        return [1 << i for i in range(n)]
    if shape == "full":
        return [full] * n
    if shape == "one row":
        rows, i = [0] * n, draw(st.integers(0, n - 1))
        rows[i] = draw(st.integers(0, full))
        return rows
    return draw(st.lists(st.integers(0, full), min_size=n, max_size=n))


@given(st.data(), st.integers(1, 9))
def test_join_packed_is_the_boolean_product(data, n):
    x, y = data.draw(packed_matrices(n)), data.draw(packed_matrices(n))

    def pack(rows):
        return sum(row << i * n for i, row in enumerate(rows))

    want = pack([
        sum(1 << k for k in range(n) if any(x[i] >> j & 1 and y[j] >> k & 1 for j in range(n)))
        for i in range(n)
    ])
    assert _join_packed(pack(x), pack(y), n) == want
    cols = _spread(pack(x), n)
    assert cols == [sum(1 << i * n for i in range(n) if x[i] >> j & 1) for j in range(n)]
    assert _join_packed(pack(x), pack(y), n, cols) == want
