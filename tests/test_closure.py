"""Closures, round-trip composition, components, semaphore unfolding."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import oracles
from conftest import CLOSURE_FIG_ARCS, graph_of, seq_of
from strategies import KINDS, dense_sequences, node_names, sequences
from tempnet import closure
from tempnet.closure import (
    concat_roundtrip,
    is_roundtrip_connected,
    maximal_temporal_components,
    nonstrict_closure,
    roundtrip_closure,
    roundtrip_lift,
    semaphore_transform,
    strict_closure,
)
from tempnet.core import SnapshotSequence, edge
from tempnet.errors import ContractError, InputError, RangeError
from tempnet.hierarchy import extremal, rt_tdiameter


def test_closure_fig_exact_arcs(closure_fig):
    assert strict_closure(closure_fig).arcs == CLOSURE_FIG_ARCS


def test_closure_fig_one_way_pair(closure_fig):
    c = strict_closure(closure_fig)
    assert c.reaches("a", "e")
    assert not c.reaches("e", "a")
    assert c.reaches("e", "e")  # trivially, by staying put


@given(sequences(), KINDS)
def test_closure_matches_bruteforce(seq, kind):
    fn = strict_closure if kind == "strict" else nonstrict_closure
    assert fn(seq).arcs == oracles.brute_closure_arcs(seq, kind)


@given(sequences())
def test_strict_arcs_survive_relaxing(seq):
    assert strict_closure(seq).arcs <= nonstrict_closure(seq).arcs


def test_is_complete(tc_fig, connected_g):
    assert strict_closure(tc_fig).is_complete
    assert not strict_closure(connected_g).is_complete


def test_closure_rejects_interval_graphs(distance_fig):
    with pytest.raises(InputError):
        strict_closure(distance_fig)


def test_roundtrip_lift_strict():
    rt = roundtrip_lift(graph_of("abc", ["ab"]), 4)
    assert rt.window == (4, 5)
    assert rt.arcs == {("a", "b"): (4, 4), ("b", "a"): (4, 4)}
    assert rt.ea("a", "a") == 4 and rt.ld("a", "a") == 5


def test_roundtrip_lift_nonstrict_crosses_components():
    rt = roundtrip_lift(graph_of("abc", ["ab", "bc"]), 0, "nonstrict")
    assert ("a", "c") in rt.arcs and ("c", "a") in rt.arcs


@given(sequences(max_n=4, max_delta=4), KINDS)
def test_roundtrip_closure_matches_bruteforce(seq, kind):
    rt = roundtrip_closure(seq, kind=kind)
    assert rt.arcs == oracles.brute_rt_arcs(seq, 0, seq.delta, kind)
    assert is_roundtrip_connected(rt) == oracles.brute_rt_connected(
        seq, 0, seq.delta, kind
    )


@given(sequences(max_n=4, max_delta=4), KINDS)
def test_roundtrip_oracle_fixpoint_matches_enumeration(seq, kind):
    # every window [start, end), so windows with start > 0 come up whenever
    # delta >= 2; both oracles report times on the trace's own clock
    for start in range(seq.delta):
        for end in range(start + 1, seq.delta + 1):
            assert oracles.brute_rt_arcs(
                seq, start, end, kind
            ) == oracles.brute_rt_arcs_enumerated(seq, start, end, kind)


@given(sequences(min_delta=2, max_delta=4), KINDS)
def test_roundtrip_concat_splits_anywhere(seq, kind):
    whole = roundtrip_closure(seq, kind=kind)
    for cut in range(1, seq.delta):
        left = roundtrip_closure(seq, (0, cut), kind)
        right = roundtrip_closure(seq, (cut, seq.delta), kind)
        assert concat_roundtrip(left, right) == whole


# empty snapshots between the hops, and a node ("d") that never meets anyone
GAPPY = seq_of("abcd", [], ["ab"], [], [], ["bc"], ["ab", "bc"], [])


@settings(deadline=None)
@given(dense_sequences(min_n=1, max_n=7, max_delta=8), KINDS)
@example(GAPPY, "strict")
@example(GAPPY, "nonstrict")
def test_roundtrip_kernel_composes_every_window(seq, kind):
    rt = {
        (a, b): roundtrip_closure(seq, (a, b), kind)
        for a in range(seq.delta)
        for b in range(a + 1, seq.delta + 1)
    }
    for (a, b), whole in rt.items():
        assert whole.arcs == oracles.brute_rt_arcs(seq, a, b, kind)
        assert is_roundtrip_connected(whole) == oracles.brute_rt_connected(seq, a, b, kind)
        for m in range(a + 1, b):
            assert concat_roundtrip(rt[a, m], rt[m, b]) == whole
            for m2 in range(m + 1, b):
                left = concat_roundtrip(concat_roundtrip(rt[a, m], rt[m, m2]), rt[m2, b])
                right = concat_roundtrip(rt[a, m], concat_roundtrip(rt[m, m2], rt[m2, b]))
                assert left == right == whole


@settings(deadline=None)
@given(dense_sequences(min_n=8, max_n=11, max_delta=5), KINDS)
def test_roundtrip_matrices_span_several_int_digits(seq, kind):
    # n >= 8 packs 64+ matrix bits, so rows and products cross 30-bit int digits
    rt = {
        (a, b): roundtrip_closure(seq, (a, b), kind)
        for a in range(seq.delta)
        for b in range(a + 1, seq.delta + 1)
    }
    for (a, b), whole in rt.items():
        assert whole.arcs == oracles.brute_rt_arcs(seq, a, b, kind)
        assert is_roundtrip_connected(whole) == oracles.brute_rt_connected(seq, a, b, kind)
        for m in range(a + 1, b):
            assert concat_roundtrip(rt[a, m], rt[m, b]) == whole
    assert extremal(rt_tdiameter(kind), seq).value == oracles.brute_extremal(seq, "rtdiam", kind)


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
@pytest.mark.parametrize("nodes", ["", "a"])
def test_roundtrip_on_one_node_and_empty_node_sequences(nodes, kind):
    seq = seq_of(nodes, [], [], [])
    rt = roundtrip_closure(seq, kind=kind)
    assert rt.arcs == {} and rt.ea_rows == rt.ld_rows == ()
    assert is_roundtrip_connected(rt)
    result = extremal(rt_tdiameter(kind), seq)
    assert result.value == 1
    assert result.ops == {"compose": 0, "test": 3}


@pytest.mark.parametrize("other, message", [
    (lambda seq: roundtrip_closure(seq_of("abc", ["ab"], ["bc"]), (1, 2)),
     "round-trip closures are over different node sets"),
    (lambda seq: roundtrip_closure(seq, (1, 2), "nonstrict"),
     "cannot mix strict and non-strict round-trip closures"),
    (lambda seq: roundtrip_closure(seq, (2, 3)),
     r"windows \(0, 1\) and \(2, 3\) are not adjacent"),
], ids=["node-sets", "kinds", "windows"])
def test_concat_roundtrip_rejects_mismatched_closures(other, message):
    seq = seq_of("ab", ["ab"], [], ["ab"])
    with pytest.raises(ContractError, match=f"^{message}$"):
        concat_roundtrip(roundtrip_closure(seq, (0, 1)), other(seq))


@pytest.mark.parametrize("make", [
    lambda seq: roundtrip_lift(seq.graph_at(0), 0, "bogus"),
    lambda seq: roundtrip_closure(seq, kind="bogus"),
])
def test_roundtrip_rejects_unknown_kind(journey_fig, make):
    with pytest.raises(InputError):
        make(journey_fig)


def test_roundtrip_closure_rejects_bad_window(journey_fig):
    with pytest.raises(InputError):
        roundtrip_closure(journey_fig, (2, 2))
    with pytest.raises(InputError):
        roundtrip_closure(journey_fig, (0, 99))
    # int() truncation used to return the window (0, 3) for (1/2, 3)
    with pytest.raises(RangeError, match="discrete window bound must be an integer, got 1/2"):
        roundtrip_closure(journey_fig, (Fraction(1, 2), 3))
    assert roundtrip_closure(journey_fig, (Fraction(1), 3)) == roundtrip_closure(journey_fig, (1, 3))


def test_overlapping_components(overlap_fig):
    comps = maximal_temporal_components(overlap_fig, "nonstrict")
    assert comps == [frozenset("abc"), frozenset("bcd")]


@given(sequences(max_n=4, max_delta=3), KINDS)
def test_components_match_bruteforce(seq, kind):
    got = maximal_temporal_components(seq, kind)
    assert got == oracles.brute_components(seq, kind)


def gnp_sequence(rng, n, delta, p):
    """delta snapshots, each with every pair of n nodes present with probability p."""
    names = node_names(n)
    pairs = [edge(a, b) for a, b in itertools.combinations(names, 2)]
    return SnapshotSequence(frozenset(names), tuple(
        frozenset(e for e in pairs if rng.random() < p) for _ in range(delta)))


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_components_of_a_connected_trace_need_no_subset_search(kind):
    # temporally connected, so the whole node set is the one component; a search over
    # the subsets of its 24-node mutual-reachability clique takes 20 s
    seq = gnp_sequence(random.Random(7), 24, 30, 0.1)
    start = time.perf_counter()
    assert maximal_temporal_components(seq, kind, limit_n=None) == [seq.nodes]
    assert time.perf_counter() - start < 2


def test_components_refine_to_the_bruteforce_answer(monkeypatch):
    real_mutual, nested = closure._mutual, []

    def mutual(seq, nodes, kind):
        found = real_mutual(seq, nodes, kind)
        if nodes != seq.nodes and any(len(w) < len(nodes) - 1 for w in found.values()):
            nested.append(nodes)  # a clique of a refined candidate is refined again
        return found

    monkeypatch.setattr(closure, "_mutual", mutual)
    rng = random.Random(28)
    for _ in range(120):
        seq = gnp_sequence(rng, rng.randint(2, 6), rng.randint(1, 4), rng.choice((0.15, 0.25, 0.35)))
        for kind in ("strict", "nonstrict"):
            assert maximal_temporal_components(seq, kind) == oracles.brute_components(seq, kind)
    assert nested


def test_components_limit_guard(journey_fig):
    with pytest.raises(ContractError):
        maximal_temporal_components(journey_fig, limit_n=3)
    maximal_temporal_components(journey_fig, limit_n=None)  # opt-out works


def test_semaphore_single_edge_gadget():
    seq = semaphore_transform(graph_of("uv", ["uv"]))
    assert seq.delta == 3
    assert seq.snapshots[0] == frozenset()
    assert seq.nodes == frozenset({"u", "v", "u'v", "v'u"})
    assert seq.snapshots[1] == frozenset({("u", "u'v"), ("v", "v'u")})
    assert seq.snapshots[2] == frozenset({("u'v", "v"), ("u", "v'u")})
    c = strict_closure(seq)
    assert c.reaches("u", "v") and c.reaches("v", "u")  # via parallel relays


def test_semaphore_avoids_name_collisions():
    g = graph_of(["u", "v", "u'v"], [("u", "v")])
    seq = semaphore_transform(g)
    assert len(seq.nodes) == 5  # the clashing relay got extra ticks


def test_semaphore_triangle_components():
    seq = semaphore_transform(graph_of("abc", ["ab", "ac", "bc"]))
    comps = maximal_temporal_components(seq, "strict", limit_n=None)
    quads = [c for c in comps if len(c) >= 3]
    assert len(quads) == 3
    originals = {frozenset(c & set("abc")) for c in quads}
    assert originals == {
        frozenset("ab"),
        frozenset("ac"),
        frozenset("bc"),
    }
