"""Journey validity and the optimal-journey searches."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import seq_of
from strategies import KINDS, sequences
from tempnet.core import to_intervals
from tempnet.errors import ContractError, InputError, RangeError
from tempnet.journeys import (
    INF,
    Journey,
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
    validate_journey,
)

Z = Fraction(1, 100)


def test_journey_arithmetic_discrete():
    j = Journey((("a", "c", 0), ("c", "d", 1), ("d", "e", 3)), "strict", None)
    assert (j.departure, j.arrival, j.duration) == (0, 3, 3)
    assert j.hop_count == 3
    assert j.max_wait == 1  # the 1->3 gap idles one step beyond the hop


def test_journey_arithmetic_continuous():
    j = Journey((("a", "b", 1), ("b", "c", 3)), "strict", Z)
    assert j.arrival == 3 + Z
    assert j.duration == 2 + Z
    assert j.max_wait == 2 - Z


def test_empty_journey_has_no_endpoints():
    j = Journey((), "strict", None)
    assert j.departure is None and j.arrival is None
    assert j.duration == 0 and j.max_wait == 0


def test_validate_discrete(journey_fig):
    ok = Journey((("a", "c", 0), ("c", "d", 1), ("d", "e", 2)), "strict", None)
    assert validate_journey(journey_fig, ok)
    same_step = Journey((("a", "b", 1), ("b", "c", 1)), "nonstrict", None)
    assert validate_journey(journey_fig, same_step)
    assert not validate_journey(journey_fig, Journey(same_step.hops, "strict", None))
    # edge exists in the footprint but not at that time
    assert not validate_journey(journey_fig, Journey((("a", "b", 0),), "strict", None))
    # c-d is present over snapshots 0..2, but no hop falls between them
    assert not validate_journey(journey_fig, Journey((("c", "d", Fraction(1, 2)),), "strict", None))
    # endpoints must chain
    broken = Journey((("a", "c", 0), ("d", "e", 2)), "strict", None)
    assert not validate_journey(journey_fig, broken)
    with pytest.raises(InputError):
        validate_journey(journey_fig, Journey((("a", "e", 0),), "strict", None))


def test_validate_continuous(distance_fig):
    # a-b present [1, 2); hops allowed up to 2 - latency
    assert validate_journey(distance_fig, Journey((("a", "b", 2 - Z),), "strict", Z))
    late = Journey((("a", "b", 2 - Z + Fraction(1, 10_000)),), "strict", Z)
    assert not validate_journey(distance_fig, late)
    relay = Journey((("a", "f", 6), ("f", "g", 6 + Z), ("g", "d", 6 + 2 * Z)), "strict", Z)
    assert validate_journey(distance_fig, relay)
    squeezed = Journey((("a", "f", 6), ("f", "g", 6)), "nonstrict", Z)
    assert validate_journey(distance_fig, squeezed)
    assert not validate_journey(distance_fig, Journey(squeezed.hops, "strict", Z))


@given(sequences(), KINDS)
def test_earliest_arrival_matches_bruteforce(seq, kind):
    for src in sorted(seq.nodes):
        for t0 in range(seq.delta):
            table = earliest_arrival(seq, src, t0, kind)
            assert table.arrival[src] == t0  # source is its own basepoint
            got = {v: t for v, t in table.arrival.items() if v != src}
            want = oracles.brute_foremost(seq, src, t0, kind)
            want.pop(src, None)  # oracle reports re-entries instead
            assert got == want
            for v in got:
                j = table.journey_to(v)
                assert validate_journey(seq, j)
                assert j.departure >= t0 and j.arrival == got[v]


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_foremost_tie_break_is_hops_then_node_id(kind):
    # d: parents a (2 hops) and z (1 hop) tie on arrival 2, so fewer hops wins
    # over the smaller id; e: parents b and c tie on arrival and hops, so b;
    # f: s may only leave at 0, so f is reached through a re-entry of s
    seq = seq_of("sabcdefyz", ["sz", "sb", "sc", "zy"], ["ab", "zy"],
                 ["ad", "dz", "be", "ce"], ["es"], ["sf"])
    table = earliest_arrival(seq, "s", 0, kind, dep_hi=0)
    if kind == "strict":
        assert table.arrival == {"s": 0, "z": 0, "b": 0, "c": 0, "a": 1, "y": 1,
                                 "d": 2, "e": 2, "f": 4}
        assert table.parent == {"z": ("s", 0), "b": ("s", 0), "c": ("s", 0),
                                "a": ("b", 1), "y": ("z", 1), "d": ("z", 2),
                                "e": ("b", 2), "s": ("e", 3), "f": ("s", 4)}
        assert table.hops == {"z": 1, "b": 1, "c": 1, "a": 2, "y": 2, "d": 2,
                              "e": 2, "s": 3, "f": 4}
        back = (("s", "b", 0), ("b", "e", 2), ("e", "s", 3), ("s", "f", 4))
    else:
        # non-strict, s re-enters at once by bouncing off b within snapshot 0
        assert table.arrival == {"s": 0, "z": 0, "b": 0, "c": 0, "y": 0, "a": 1,
                                 "d": 2, "e": 2, "f": 4}
        assert table.parent == {"z": ("s", 0), "b": ("s", 0), "c": ("s", 0),
                                "s": ("b", 0), "y": ("z", 0), "a": ("b", 1),
                                "d": ("z", 2), "e": ("b", 2), "f": ("s", 4)}
        assert table.hops == {"z": 1, "b": 1, "c": 1, "s": 2, "y": 2, "a": 2,
                              "d": 2, "e": 2, "f": 3}
        back = (("s", "b", 0), ("b", "s", 0), ("s", "f", 4))
    j = table.journey_to("f")
    assert j.hops == back and validate_journey(seq, j)


@given(sequences(max_n=4, max_delta=4), KINDS)
def test_departure_window_is_respected(seq, kind):
    for src in sorted(seq.nodes):
        table = earliest_arrival(seq, src, 0, kind, dep_hi=0)
        for v in table.arrival:
            if v == src:
                continue
            j = table.journey_to(v)
            assert j.departure == 0
            assert validate_journey(seq, j)


@given(sequences(max_delta=6), KINDS, st.none() | st.integers(-1, 7))
def test_sequence_journeys_match_their_interval_graph(seq, kind, dep_hi):
    ig = to_intervals(seq)
    nodes = sorted(seq.nodes)
    for u in nodes:
        for t0 in range(seq.delta + 1):
            got = earliest_arrival(seq, u, t0, kind, dep_hi)
            want = earliest_arrival(ig, u, t0, kind, dep_hi)
            assert got.parent == want.parent and got.hops == want.hops
            # an arrival by snapshot t is an arrival by time t + 1
            assert got.arrival == {v: t if v == u else t - 1 for v, t in want.arrival.items()}
            for v in nodes:
                sj, sj_ig = shortest_journey(seq, u, v, t0, kind), shortest_journey(ig, u, v, t0, kind)
                assert (sj and sj.hops) == (sj_ig and sj_ig.hops)
        for v in nodes:
            if v == u:
                continue
            for t in range(-1, seq.delta + 1):
                assert latest_departure(seq, u, v, t, kind) == latest_departure(ig, u, v, t + 1, kind)


@pytest.mark.parametrize("call", [
    lambda seq, t: earliest_arrival(seq, "a", t),
    lambda seq, t: earliest_arrival(seq, "a", 0, dep_hi=t),
    lambda seq, t: shortest_journey(seq, "a", "b", t),
    lambda seq, t: fastest_journey(seq, "a", "b", window=(t, 3)),
    lambda seq, t: fastest_journey(seq, "a", "b", window=(0, t)),
    lambda seq, t: latest_departure(seq, "a", "b", t - 1),
    lambda seq, t: latest_departure(seq, "a", "b", 3, src_cap=t),
    lambda seq, t: temporal_distance(seq, "a", t),
    lambda seq, t: steady_progress_alpha(seq, window=(t, 4)),
], ids=["start", "dep_hi", "shortest", "fastest-lo", "fastest-hi", "latest",
        "latest-cap", "distance", "alpha"])
def test_discrete_times_must_be_integers(call):
    seq = seq_of("abc", ["ab"], ["bc"], ["ab"], ["ac"])
    assert call(seq, Fraction(1)) == call(seq, 1)  # integral fractions are fine
    with pytest.raises(RangeError, match=r"must be an integer, got -?1/2"):
        call(seq, Fraction(1, 2))


def test_temporal_distance_conventions(weekly_line):
    d = temporal_distance(weekly_line, "a", 0)
    assert d["a"] == 0
    assert d["f"] == 5  # departures start the step after t
    assert eccentricity(weekly_line, "a", 0) == 5
    assert eccentricity(weekly_line, "a", 1) == 11
    assert eccentricity(weekly_line, "f", 0) == 29


def test_temporal_distance_unreachable_is_inf():
    seq = seq_of("abc", ["ab"], [])
    d = temporal_distance(seq, "a", 0)
    assert d["c"] == INF
    assert temporal_diameter_at(seq, 0) == INF


def test_eccentricity_rejects_out_of_range(weekly_line):
    with pytest.raises(RangeError):
        eccentricity(weekly_line, "a", weekly_line.delta)


@given(sequences(), KINDS)
def test_latest_departure_matches_bruteforce(seq, kind):
    nodes = sorted(seq.nodes)
    for u in nodes:
        for v in nodes:
            if u == v:
                assert latest_departure(seq, u, v, 0, kind) == 0
                continue
            js = oracles.simple_journeys(seq, u, v, kind)
            t = seq.delta - 1
            arriving = [j for j in js if j[-1][2] <= t]
            want = max((j[0][2] for j in arriving), default=None)
            assert latest_departure(seq, u, v, t, kind) == want


@given(sequences(), KINDS)
def test_shortest_matches_bruteforce(seq, kind):
    nodes = sorted(seq.nodes)
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            got = shortest_journey(seq, u, v, 0, kind)
            js = oracles.simple_journeys(seq, u, v, kind)
            if not js:
                assert got is None
                continue
            assert got.hop_count == min(len(j) for j in js)
            assert validate_journey(seq, got)
            assert got.hops[0][0] == u and got.hops[-1][1] == v


@given(sequences(), KINDS)
def test_fastest_matches_bruteforce(seq, kind):
    nodes = sorted(seq.nodes)
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            got = fastest_journey(seq, u, v, kind=kind)
            js = oracles.simple_journeys(seq, u, v, kind)
            if not js:
                assert got is None
                continue
            want = min((j[-1][2] - j[0][2], j[0][2]) for j in js)
            assert (got.duration, got.departure) == want
            assert validate_journey(seq, got)


@given(sequences(max_delta=6), KINDS, st.integers(-1, 7), st.integers(-1, 7))
def test_windowed_fastest_matches_walk_oracle(seq, kind, wlo, whi):
    nodes = sorted(seq.nodes)
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            got = fastest_journey(seq, u, v, window=(wlo, whi), kind=kind)
            want = oracles.brute_fastest(seq, u, v, kind, wlo, whi)
            if want is None:
                assert got is None
                continue
            assert (got.duration, got.departure) == want
            assert validate_journey(seq, got)
            assert wlo <= got.departure <= whi


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_fastest_window_forces_walk_back_through_source(kind):
    # the only departure in the window leaves u and returns before u-v opens
    seq = seq_of("uav", ["ua"], ["ua"], [], [], [], ["uv"])
    got = fastest_journey(seq, "u", "v", window=(0, 0), kind=kind)
    assert (got.duration, got.departure) == (5, 0)
    assert got.hops[-1] == ("u", "v", 5) and validate_journey(seq, got)
    late = fastest_journey(seq, "u", "v", window=(1, 4), kind=kind)
    if kind == "strict":
        assert late is None  # leaving at 1 leaves no time to come back
    else:
        assert (late.duration, late.departure) == (4, 1)
    assert fastest_journey(seq, "u", "v", window=(2, 4), kind=kind) is None


def test_distance_fig_three_optima(distance_fig):
    short = shortest_journey(distance_fig, "a", "d", 0)
    assert short.hop_count == 2
    assert [h[:2] for h in short.hops] == [("a", "e"), ("e", "d")]

    table = earliest_arrival(distance_fig, "a", 0)
    assert table.arrival["d"] == Fraction(501, 100)

    fast = fastest_journey(distance_fig, "a", "d")
    assert fast.duration == Fraction(3, 100)
    assert [h[:2] for h in fast.hops] == [("a", "f"), ("f", "g"), ("g", "d")]


def test_line_fig_fastest(line_fig):
    fast = fastest_journey(line_fig, "a", "d")
    assert fast.hops == (("a", "b", 3), ("b", "c", 5), ("c", "d", 6))
    assert fast.departure == 3 and fast.duration == 3
    prefix = Journey(fast.hops[:2], "strict", None)
    assert prefix.duration == 2
    assert fastest_journey(line_fig, "a", "c").duration == 1


def test_fastest_with_self_target(line_fig):
    assert fastest_journey(line_fig, "a", "a").hops == ()


def test_foremost_tree_partitions_triangle(triangle_periodic):
    pieces = foremost_tree_intervals(triangle_periodic, "a", (0, 100))
    assert [seg for seg, _ in pieces] == [(0, 19), (19, 29), (29, 59), (59, 100)]
    assert [tree for _, tree in pieces] == [
        {"b": "a", "c": "b"},
        {"b": "a", "c": "a"},
        {"c": "a", "b": "c"},
        {"b": "a", "c": "b"},
    ]


def test_foremost_tree_pieces_match_direct_search(triangle_periodic):
    for (lo, hi), tree in foremost_tree_intervals(triangle_periodic, "a", (0, 100)):
        mid = (lo + hi) / 2
        table = earliest_arrival(triangle_periodic, "a", mid)
        assert {v: p for v, (p, _) in table.parent.items() if v != "a"} == tree


@given(sequences(max_n=4, max_delta=4), KINDS)
def test_alpha_matches_bruteforce(seq, kind):
    assert steady_progress_alpha(seq, kind=kind) == oracles.brute_alpha(seq, kind)


def test_alpha_distance_fig(distance_fig):
    assert steady_progress_alpha(distance_fig, (0, 10), pair=("a", "d")) == Fraction(83, 50)
    assert steady_progress_alpha(distance_fig, (0, 10)) is None  # some pair never connects


def test_alpha_zero_when_relay_is_immediate():
    seq = seq_of("abc", ["ab"], ["bc"])
    assert steady_progress_alpha(seq, pair=("a", "c")) == 0
    assert steady_progress_alpha(seq, pair=("a", "c"), kind="nonstrict") == 1


def test_menger_gap(menger_fig):
    assert max_disjoint_journeys(menger_fig, "s", "t") == 1
    assert min_temporal_separator(menger_fig, "s", "t") == 2


def test_disjoint_and_separator_direct_edge():
    seq = seq_of("ab", ["ab"])
    assert max_disjoint_journeys(seq, "a", "b") == INF
    assert min_temporal_separator(seq, "a", "b") == INF


def test_separator_zero_when_never_connected():
    seq = seq_of("abc", ["ab"], [])
    assert min_temporal_separator(seq, "a", "c") == 0
    assert max_disjoint_journeys(seq, "a", "c") == 0


def test_limit_guard(menger_fig):
    with pytest.raises(ContractError):
        max_disjoint_journeys(menger_fig, "s", "t", limit_n=3)
    with pytest.raises(ContractError):
        min_temporal_separator(menger_fig, "s", "t", limit_n=3)


@given(sequences(max_n=4, max_delta=3), KINDS)
def test_disjoint_never_exceeds_separator_bound(seq, kind):
    # weak duality: a separator must hit every journey of a disjoint family
    nodes = sorted(seq.nodes)
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            dj = max_disjoint_journeys(seq, s, t, kind)
            sep = min_temporal_separator(seq, s, t, kind)
            if sep == INF or dj == INF:
                assert dj == sep
            else:
                assert dj <= sep


@settings(deadline=None)
@given(sequences(max_n=6, max_delta=4), KINDS)
def test_disjoint_and_separator_match_bruteforce(seq, kind):
    nodes = sorted(seq.nodes)

    def connected(s, t, keep):
        sub = oracles.induced(seq, set(keep) | {s, t})
        return any(v == t for v, _ in oracles.reach_states(sub, s, 0, kind))

    for s, t in itertools.permutations(nodes, 2):
        internal = [v for v in nodes if v not in (s, t)]
        if connected(s, t, ()):
            separator = INF
        else:
            separator = min(
                size
                for size in range(len(internal) + 1)
                for cut in itertools.combinations(internal, size)
                if not connected(s, t, set(internal) - set(cut))
            )
        assert min_temporal_separator(seq, s, t, kind) == separator
        interiors = {
            frozenset(v for _, v, _ in j[:-1])
            for j in oracles.simple_journeys(seq, s, t, kind)
        }
        if frozenset() in interiors:
            disjoint = INF
        else:
            disjoint = max(
                size
                for size in range(len(internal) + 1)
                for family in itertools.combinations(interiors, size)
                if all(not a & b for a, b in itertools.combinations(family, 2))
            )
        assert max_disjoint_journeys(seq, s, t, kind) == disjoint
