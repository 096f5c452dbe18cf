"""Data model: construction rules, conversions, slicing."""

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import graph_of, seq_of
from strategies import interval_graphs, sequences
from tempnet.core import (
    IntervalGraph,
    SnapshotSequence,
    StaticGraph,
    as_time,
    characteristic_dates,
    discretize,
    edge,
    footprint,
    induced_sequence,
    intersection_graph,
    lifetime,
    snapshot_at,
    stats,
    supports_hop,
    temporal_subgraph,
    to_intervals,
    to_snapshots,
)
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


def test_temporal_subgraph_continuous_clips(distance_fig):
    sub = temporal_subgraph(distance_fig, (Fraction(7, 2), 6))
    assert sub.span == (Fraction(7, 2), 6)
    assert sub.edges[("b", "c")] == ((Fraction(7, 2), Fraction(4)),)
    assert ("a", "b") not in sub.edges


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


@given(sequences(max_n=5, max_delta=4))
def test_snapshot_interval_snapshot_roundtrip(seq):
    assert to_snapshots(to_intervals(seq)) == seq


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


def test_induced_sequence(journey_fig):
    sub = induced_sequence(journey_fig, {"a", "b", "c"})
    assert sub.nodes == frozenset("abc")
    assert sub.snapshots[0] == frozenset({("a", "c"), ("b", "c")})
    assert sub.snapshots[3] == frozenset()
