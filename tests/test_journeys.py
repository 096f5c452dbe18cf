"""Journey validity and the optimal-journey searches."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import long_line, seq_of, triangle_periodic
from strategies import KINDS, interval_graphs, mixed, sequences
from tempnet.core import IntervalGraph, edge, supports_hop, to_intervals
from tempnet import closure, journeys
from tempnet.closure import maximal_temporal_components
from tempnet.errors import ContractError, InputError, RangeError
from tempnet.io import dump_graph
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
from tempnet.windows import sliding_metric

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
            for t in range(seq.delta):
                assert latest_departure(seq, u, v, t, kind) == latest_departure(ig, u, v, t + 1, kind)
            # an arrival bound outside the trace is an error in both models
            for t in (-1, seq.delta):
                with pytest.raises(RangeError, match=rf"time {t} outside 0\.\.{seq.delta - 1}"):
                    latest_departure(seq, u, v, t, kind)
            with pytest.raises(RangeError, match=rf"outside lifetime \[0, {seq.delta}\]"):
                latest_departure(ig, u, v, seq.delta + 1, kind)


@pytest.mark.parametrize("call", [
    lambda seq, t: earliest_arrival(seq, "a", t),
    lambda seq, t: earliest_arrival(seq, "a", 0, dep_hi=t),
    lambda seq, t: shortest_journey(seq, "a", "b", t),
    lambda seq, t: fastest_journey(seq, "a", "b", window=(t, 3)),
    lambda seq, t: fastest_journey(seq, "a", "b", window=(0, t)),
    lambda seq, t: fastest_journey(seq, "a", "a", window=(t, 3)),
    lambda seq, t: latest_departure(seq, "a", "b", t - 1),
    lambda seq, t: temporal_distance(seq, "a", t),
    lambda seq, t: steady_progress_alpha(seq, window=(t, 4)),
], ids=["start", "dep_hi", "shortest", "fastest-lo", "fastest-hi", "fastest-self",
        "latest", "distance", "alpha"])
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


def test_zero_eccentricity_is_int_0_whatever_the_hash_seed():
    # at zeta = 0 everyone is reached at t, so every distance is Fraction 0;
    # the result must not depend on the order in which the node set iterates
    code = (
        "from tempnet.core import IntervalGraph\n"
        "from tempnet.journeys import eccentricity, temporal_diameter_at\n"
        "g = IntervalGraph.build('abc', {('a', 'b'): [(0, 2)], ('b', 'c'): [(0, 2)]}, latency=0)\n"
        "print(repr(eccentricity(g, 'b', 1)), repr(temporal_diameter_at(g, 1)))\n"
    )
    env = os.environ | {"PYTHONPATH": str(Path(journeys.__file__).parents[1])}
    for seed in range(1, 7):
        done = subprocess.run([sys.executable, "-c", code], env=env | {"PYTHONHASHSEED": str(seed)},
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0 0\n", f"PYTHONHASHSEED={seed}"


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
    if not max(wlo, 0) <= min(whi, seq.delta - 1):  # inverted, or no snapshot in it
        with pytest.raises(RangeError) as raised:
            fastest_journey(seq, "v0", "v1", window=(wlo, whi), kind=kind)
        assert str(raised.value) == f"window [{wlo}, {whi}] holds no departure time in 0..{seq.delta - 1}"
        return
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


@pytest.mark.parametrize("window,shown", [
    ((0, 2), "[0, 2)"),  # ends after the lifetime
    ((-1, 1), "[-1, 1)"),  # starts before it
    ((Fraction(1, 2), 3), "[1/2, 3)"),
    ((2, 3), "[2, 3)"),  # wholly after it
])
def test_foremost_tree_rejects_a_window_outside_the_lifetime(window, shown):
    g = IntervalGraph.build("ab", {("a", "b"): [(0, 1)]}, latency=0)
    with pytest.raises(RangeError) as raised:
        foremost_tree_intervals(g, "a", window)
    assert str(raised.value) == f"window {shown} outside lifetime [0, 1]"
    assert foremost_tree_intervals(g, "a", (0, 1)) == [((0, 1), {"b": "a"})]


@pytest.mark.parametrize("window,shown", [((1, 1), "[1, 1)"), ((1, Fraction(1, 2)), "[1, 1/2)")])
def test_foremost_tree_rejects_an_empty_window(window, shown):
    g = IntervalGraph.build("ab", {("a", "b"): [(0, 2)]}, latency=0)
    with pytest.raises(RangeError) as raised:
        foremost_tree_intervals(g, "a", window)
    assert str(raised.value) == f"empty window {shown}"


def test_foremost_tree_sweep_asks_for_the_interval_form_of_a_sequence(tmp_path):
    seq = seq_of("abc", ["ab"], ["bc"], ["ab", "bc"])
    with pytest.raises(InputError) as raised:
        foremost_tree_intervals(seq, "a", (0, 3))
    assert "to_intervals" in str(raised.value)
    # the script sweeps a snapshot trace as its interval form
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(dump_graph(seq)))
    script = Path(__file__).parents[1] / "scripts" / "foremost_tree_sweep.py"
    done = subprocess.run([sys.executable, str(script), str(path), "--root", "a"],
                          capture_output=True, text=True, check=True)
    pieces = foremost_tree_intervals(to_intervals(seq), "a", (0, 3))
    assert done.stdout.splitlines()[0] == f"root=a window=[0, 3) pieces={len(pieces)}"
    assert len(done.stdout.splitlines()) == 1 + len(pieces)


@given(sequences(max_n=4, max_delta=4), KINDS)
def test_alpha_matches_bruteforce(seq, kind):
    assert steady_progress_alpha(seq, kind=kind) == oracles.brute_alpha(seq, kind)


def test_alpha_distance_fig(distance_fig):
    assert steady_progress_alpha(distance_fig, (0, 10), pair=("a", "d")) == Fraction(83, 50)
    assert steady_progress_alpha(distance_fig, (0, 10)) is None  # some pair never connects


@pytest.mark.parametrize("window", [(5, 7), (-3, -1)])
def test_alpha_names_a_window_outside_the_trace_as_given(window):
    seq = seq_of("abc", ["ab"], ["bc"], ["ab"])
    with pytest.raises(RangeError) as raised:
        steady_progress_alpha(seq, window)
    assert str(raised.value) == f"window [{window[0]}, {window[1]}) selects no snapshot"


def test_alpha_zero_when_relay_is_immediate():
    seq = seq_of("abc", ["ab"], ["bc"])
    assert steady_progress_alpha(seq, pair=("a", "c")) == 0
    assert steady_progress_alpha(seq, pair=("a", "c"), kind="nonstrict") == 1


@settings(deadline=None)
@given(
    interval_graphs(max_n=3, max_time=4, latencies=(Fraction(0), Fraction(1, 2), Fraction(1))),
    KINDS,
    st.integers(0, 3).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 4))),
)
def test_interval_alpha_matches_bruteforce(g, kind, window):
    want = oracles.brute_alpha_intervals(g, kind, *window)
    assert steady_progress_alpha(g, window, kind) == want


# window bounds inside [0, 8/3]: on the 1/12 grid of 1/3 and 1/4 endpoints, or on fifths
GRID_OR_FIFTHS = st.integers(0, 32).map(lambda k: Fraction(k, 12)) | st.integers(0, 13).map(
    lambda k: Fraction(k, 5))


@settings(deadline=None)
@given(
    interval_graphs(latencies=(Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))),
    KINDS,
    st.lists(GRID_OR_FIFTHS, min_size=2, max_size=2, unique=True).map(sorted).map(tuple),
)
def test_interval_alpha_matches_the_fraction_candidate_search(g, kind, window):
    g = mixed(g, g.latency)  # runs on 1/3 and 1/4 steps
    # over all pairs an initial wait tends to set alpha, so each pair is asked on its own too
    for pair in [None, *itertools.permutations(sorted(g.nodes), 2)]:
        got = steady_progress_alpha(g, window, kind, pair)
        want = oracles.alpha_by_candidates(g, kind, window, pair)
        assert (got, type(got)) == (want, type(want))


@settings(deadline=None, max_examples=40)
@given(
    interval_graphs(min_n=5, max_n=6, latencies=(Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))),
    KINDS,
    st.lists(GRID_OR_FIFTHS, min_size=2, max_size=2, unique=True).map(sorted).map(tuple),
    st.integers(0, 29),
    st.none() | GRID_OR_FIFTHS.filter(lambda t: 0 < t < Fraction(8, 3)),
)
def test_interval_alpha_on_five_and_six_nodes_matches_the_fraction_candidate_search(
        g, kind, window, k, opens):
    # n = 5 or 6, so the search inside one whole tick tries every i / j with j up to 6.  A
    # line through every node whose last edge opens late spreads that wait over its hops.
    g = mixed(g, g.latency)
    nodes = sorted(g.nodes)
    if opens is not None:
        edges = g.edges | {edge(x, y): [(0, Fraction(8, 3))] for x, y in zip(nodes, nodes[1:])}
        edges[edge(nodes[-2], nodes[-1])] = [(opens, Fraction(8, 3))]
        g = IntervalGraph.build(nodes, edges, g.latency, g.span)
    pairs = list(itertools.permutations(nodes, 2))
    for pair, w in ((None, window), (pairs[k % len(pairs)], window), ((nodes[0], nodes[-1]), g.span)):
        got = steady_progress_alpha(g, w, kind, pair)
        want = oracles.alpha_by_candidates(g, kind, w, pair)
        assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize("hops", [2, 3, 4, 5])
def test_interval_alpha_spreads_one_wait_over_up_to_five_hops(hops):
    # a line whose last edge opens at 1, padded to six nodes: hops equal waits of 1 / hops
    line = "abcdef"[:hops + 1]
    edges = {(x, y): [(0, 4)] for x, y in zip(line, line[1:])}
    edges[line[-2], line[-1]] = [(1, 4)]
    g = IntervalGraph.build("abcdef", edges, latency=0)
    for kind in ("strict", "nonstrict"):
        got = steady_progress_alpha(g, kind=kind, pair=("a", line[-1]))
        assert got == oracles.alpha_by_candidates(g, kind, (0, 4), ("a", line[-1])) == Fraction(1, hops)


def test_interval_alpha_builds_no_set_from_pairs_of_dates(monkeypatch, distance_fig):
    # the least feasible alpha is found in whole ticks, then inside one tick: no date is read
    thirds = IntervalGraph.build("abcd", {
        ("a", "b"): [(0, Fraction(4, 3))], ("b", "c"): [(Fraction(1, 4), Fraction(7, 4))],
        ("c", "d"): [(Fraction(2, 3), Fraction(8, 3))], ("a", "d"): [(Fraction(9, 4), 3)],
    }, latency=Fraction(1, 3), span=(0, 3))
    cases = [(g, window, kind, pair)
             for g, windows, pairs in [
                 (distance_fig, [None, (0, 10), (Fraction(1, 2), Fraction(37, 4))], [None, ("a", "d")]),
                 (triangle_periodic(), [None, (5, 150)], [None, ("c", "a")]),
                 (thirds, [None, (Fraction(1, 5), Fraction(11, 4))], [None, ("a", "c"), ("d", "b")]),
             ]
             for window in windows for kind in ("strict", "nonstrict") for pair in pairs]
    before = [steady_progress_alpha(*case) for case in cases]
    assert any(a is not None and a.denominator > 1 for a in before)

    def no_dates(g):
        raise AssertionError("steady progress read the characteristic dates")

    monkeypatch.setattr(journeys, "characteristic_dates", no_dates)
    after = [steady_progress_alpha(*case) for case in cases]
    assert [(a, type(a)) for a in after] == [(a, type(a)) for a in before]


def test_interval_alpha_may_spread_one_wait_over_hops():
    # d is reachable from 1 on, and three equal waits of 1/3 get there: a candidate over j = 3
    g = IntervalGraph.build("abcd", {("a", "b"): [(0, 4)], ("b", "c"): [(0, 4)],
                                     ("c", "d"): [(1, 4)]}, latency=0)
    for kind in ("strict", "nonstrict"):
        assert steady_progress_alpha(g, kind=kind, pair=("a", "d")) == Fraction(1, 3)


def test_interval_alpha_and_separators_search_on_ints(monkeypatch):
    g = IntervalGraph.build("sabt", {
        ("s", "a"): [(0, Fraction(1, 2))], ("a", "t"): [(1, Fraction(4, 3))],
        ("s", "b"): [(Fraction(1, 4), Fraction(3, 4))], ("b", "t"): [(Fraction(3, 4), 2)],
    }, latency=Fraction(1, 6))
    seq = seq_of("sabt", ["sa", "sb"], ["at", "bt"])
    seen, cuts = [], []
    real_foremost, real_ok = journeys._foremost, journeys._alpha_ok

    def times(ig):
        return [ig.latency, *(x for ivs in ig.edges.values() for run in ivs for x in run)]

    def foremost(ig, src, t0, kind, dep_hi, stop=None):
        seen.append([t0, *times(ig)])
        cuts.append(ig)
        return real_foremost(ig, src, t0, kind, dep_hi, stop)

    def alpha_ok(ig, src, dst, wlo, alpha, gap, cost):
        seen.append([wlo, alpha, gap, cost, *times(ig)])
        return real_ok(ig, src, dst, wlo, alpha, gap, cost)

    def cut_to(h, search, *args):
        """The node sets of the cuts of h's integer view that search(h, *args) searches."""
        cuts.clear()
        result = search(h, *args)
        view = h._ticks if h is seq else h._at_scale(h._unit)
        for ig in cuts:  # the view's edges between two kept nodes, same latency and span
            assert ig.edges == {e: ivs for e, ivs in view.edges.items() if set(e) <= ig.nodes}
            assert (ig.latency, ig.span) == (view.latency, view.span)
        return result, {"".join(sorted(ig.nodes)) for ig in cuts}

    monkeypatch.setattr(journeys, "_foremost", foremost)
    monkeypatch.setattr(closure, "_foremost", foremost)  # closure binds the name
    monkeypatch.setattr(journeys, "_alpha_ok", alpha_ok)
    for kind in ("strict", "nonstrict"):
        for h in (g, seq):
            # s ~> t through nothing, everything, all but one node, then nothing again
            assert cut_to(h, min_temporal_separator, "s", "t", kind) == (
                2, {"st", "abst", "ast", "bst"})
            # {a, b} holds a minimal set already, so it is never tried
            assert cut_to(h, max_disjoint_journeys, "s", "t", kind) == (2, {"st", "ast", "bst"})
        assert type(steady_progress_alpha(g, kind=kind, pair=("s", "t"))) is Fraction
        assert type(steady_progress_alpha(seq, kind=kind, pair=("s", "t"))) is int
    # each candidate is the cut's node set: all nodes, then the maximal cliques of their
    # mutual reachability, each a component: strict pairs, and non-strict one snapshot's star
    components, cut = cut_to(seq, maximal_temporal_components, "strict")
    assert {"".join(sorted(c)) for c in components} == {"as", "bs", "at", "bt"}
    assert cut == {"abst", "as", "bs", "at", "bt"}
    components, cut = cut_to(seq, maximal_temporal_components, "nonstrict")
    assert {"".join(sorted(c)) for c in components} == {"abs", "abt"}
    assert cut == {"abst", "abs", "abt"}
    assert seen and all(type(x) is int for call in seen for x in call)


QUARTERS = st.integers(-4, 36).map(lambda k: Fraction(k, 4))
# times on fifths lie off the graphs' grid, so a query there rescales the integer view
FIFTHS = st.integers(-5, 45).map(lambda k: Fraction(k, 5))


@settings(deadline=None)
@given(
    interval_graphs(latencies=(Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))),
    KINDS,
    st.tuples(QUARTERS, QUARTERS),
    QUARTERS | FIFTHS,
)
def test_interval_fastest_and_latest_departure_match_grid_oracle(g, kind, window, t):
    lo, hi = g.span
    misses = not max(window[0], lo) <= min(window[1], hi)  # inverted, or outside the lifetime
    for u in sorted(g.nodes):
        fastest = oracles.brute_fastest_intervals(g, u, kind, *window)
        latest = oracles.brute_latest_departure_intervals(g, u, kind, t)
        for v in sorted(g.nodes - {u}):
            if misses:
                assert not fastest
                with pytest.raises(RangeError, match=r"holds no departure time in lifetime \[0, 8\]"):
                    fastest_journey(g, u, v, window, kind)
            elif v not in fastest:
                assert fastest_journey(g, u, v, window, kind) is None
            else:
                got = fastest_journey(g, u, v, window, kind)
                assert (got.duration, got.departure) == fastest[v]
                assert validate_journey(g, got)
            if lo <= t <= hi:
                assert latest_departure(g, u, v, t, kind) == latest.get(v)
            else:
                with pytest.raises(RangeError, match=rf"time {t} outside lifetime \[0, 8\]"):
                    latest_departure(g, u, v, t, kind)
            # over the whole lifetime, the latest departure arriving when the
            # fastest journey does is that journey's departure
            fast = fastest_journey(g, u, v, kind=kind)
            if fast is not None:
                assert latest_departure(g, u, v, fast.arrival, kind) == fast.departure


@settings(deadline=None)
@given(interval_graphs(), KINDS, st.integers(0, 32).map(lambda k: Fraction(k, 4))
       | st.integers(0, 40).map(lambda k: Fraction(k, 5)))
def test_interval_distances_match_grid_oracle(g, kind, t):
    hi = g.span[1]
    eccs = []
    for u in sorted(g.nodes):
        first_hops = oracles.grid_first_hops(g, u, kind, t, hi, t)
        want = {v: INF for v in g.nodes} | {u: 0}
        for (v, s), _ in first_hops.items():
            if v != u:
                want[v] = min(want[v], s + g.latency - t)
        assert temporal_distance(g, u, t, kind) == want
        eccs.append(eccentricity(g, u, t, kind))
        assert eccs[-1] == max(want.values())
        table = earliest_arrival(g, u, t, kind)
        assert table.journey_to(u) == Journey((), kind, g.latency)
        for v in sorted(g.nodes - {u}):
            journey = table.journey_to(v)
            if want[v] == INF:
                assert journey is None
            else:
                assert journey.arrival - t == want[v] and validate_journey(g, journey)
    assert temporal_diameter_at(g, t, kind) == max(eccs)


@settings(deadline=None, max_examples=40)
@given(interval_graphs(max_n=5), KINDS)
def test_interval_disjoint_and_separator_match_grid_oracle(g, kind):
    nodes = sorted(g.nodes)
    lo, hi = g.span
    reached = {}

    def feasible(s, t, internal):
        # a journey s ~> t on the graph restricted to internal + {s, t}, span kept
        keep = frozenset(internal) | {s, t}
        if (s, keep) not in reached:
            edges = {e: ivs for e, ivs in g.edges.items() if set(e) <= keep}
            sub = IntervalGraph(keep, edges, g.latency, g.span)
            reached[s, keep] = {x for x, _ in oracles.grid_first_hops(sub, s, kind, lo, hi)}
        return t in reached[s, keep]

    for s, t in itertools.permutations(nodes, 2):
        internal = frozenset(nodes) - {s, t}
        subsets = [frozenset(c) for size in range(len(internal) + 1)
                   for c in itertools.combinations(sorted(internal), size)]
        if feasible(s, t, ()):
            separator = disjoint = INF
        else:
            separator = min(len(cut) for cut in subsets if not feasible(s, t, internal - cut))
            usable = [c for c in subsets if feasible(s, t, c)]
            disjoint = max(
                size
                for size in range(len(internal) + 1)
                for family in itertools.combinations(usable, size)
                if all(not a & b for a, b in itertools.combinations(family, 2))
            )
        assert min_temporal_separator(g, s, t, kind) == separator
        assert max_disjoint_journeys(g, s, t, kind) == disjoint


def test_interval_alpha_nonstrict_hops_may_share_an_instant():
    # b-c closes before a-b's hop arrives, so only a non-strict journey exists
    g = IntervalGraph.build("abc", {("a", "b"): [(0, 1)], ("b", "c"): [(0, 1)]}, latency=1)
    assert steady_progress_alpha(g, pair=("a", "c")) is None
    assert steady_progress_alpha(g, pair=("a", "c"), kind="nonstrict") == 0
    assert earliest_arrival(g, "a", 0, "nonstrict").arrival["c"] == 1


def test_zero_latency_hop_may_leave_as_its_run_ends():
    # a hop at s needs [s, s + zeta] within the closure [a, b] of a run, so at
    # zeta = 0 the run [0, 1) carries a hop at 1; a window is the trace
    # restricted to it, and [1, 2) keeps nothing of that run
    g = IntervalGraph.build("ab", {("a", "b"): [(0, 1)]}, latency=0, span=(0, 2))
    assert earliest_arrival(g, "a", 1).journey_to("b").hops == (("a", "b", 1),)
    assert supports_hop(g, ("a", "b"), 1) and not supports_hop(g, ("a", "b"), Fraction(3, 2))
    assert validate_journey(g, Journey((("a", "b", 1),), "strict", Fraction(0)))
    # attained at the run's end; a half-open rule would leave only sup{s < 1}
    assert latest_departure(g, "a", "b", 2) == 1
    assert sliding_metric(g, "tc", 1, 1).points == ((0, 1), (1, 0))
    assert steady_progress_alpha(g, (1, 2)) is None
    assert steady_progress_alpha(g, (Fraction(1, 2), 2)) == 0


@settings(deadline=None)
@given(
    interval_graphs(latencies=(Fraction(0), Fraction(1, 2), Fraction(1))),
    KINDS,
    QUARTERS,
    st.none() | QUARTERS,
    st.tuples(QUARTERS, QUARTERS),
)
def test_returned_journeys_are_valid_hop_by_hop(g, kind, t, dep_hi, window):
    lo, hi = g.span
    t = min(max(t, lo), hi)  # a start or a window outside the lifetime raises
    window = window if max(window[0], lo) <= min(window[1], hi) else (lo, hi)
    found = []
    for u in sorted(g.nodes):
        table = earliest_arrival(g, u, t, kind, dep_hi)
        found += [table.journey_to(v) for v in sorted(g.nodes)]
        for v in sorted(g.nodes - {u}):
            found += [shortest_journey(g, u, v, t, kind), fastest_journey(g, u, v, window, kind)]
    for j in filter(None, found):
        assert validate_journey(g, j), j
        assert all(supports_hop(g, edge(x, y), s) for x, y, s in j.hops), j


def test_foremost_pushes_no_entry_toward_a_settled_node(monkeypatch):
    # every edge of K6 is present on one shared interval
    nodes = [f"v{i}" for i in range(6)]
    g = IntervalGraph.build(
        nodes, {(a, b): [(0, 10)] for a, b in itertools.combinations(nodes, 2)}, latency=1
    )
    pushes = []
    real_push = journeys.heapq.heappush
    monkeypatch.setattr(
        journeys.heapq, "heappush", lambda heap, item: (pushes.append(item), real_push(heap, item))
    )
    for kind in ("strict", "nonstrict"):
        pushes.clear()
        table = earliest_arrival(g, "v0", 0, kind)
        assert table.arrival == {v: 0 if v == "v0" else 1 for v in nodes}
        # 5 from the source, then the k-th settled node pushes toward the 6 - k
        # nodes still open (the source included): 5 + 5 + 4 + 3 + 2 + 1, where
        # pushing toward every neighbour makes 35
        assert len(pushes) == 20


def count_searches(monkeypatch, tables=None):
    """Record the departure of every ``_foremost`` search from here on, in graph
    time (a search on ``_shifted_grid``'s integer view reports t0 / scale, and on a
    sequence's ``_ticks`` t0), and each search's ``stop`` and table into ``tables``
    when it is given."""
    starts, views = [], {}  # id(view) -> (view, scale), the view kept alive
    real_search, real_grid = journeys._foremost, journeys._shifted_grid

    def grid(g, lo, hi):
        scale, view, cands = real_grid(g, lo, hi)
        views[id(view)] = view, scale
        return scale, view, cands

    def counted(ig, src, t0, *rest, **kw):
        starts.append(journeys._back(t0, views[id(ig)][1]) if id(ig) in views else t0)
        table = real_search(ig, src, t0, *rest, **kw)
        if tables is not None:
            tables.append((kw.get("stop"), table))
        return table

    monkeypatch.setattr(journeys, "_shifted_grid", grid)
    monkeypatch.setattr(journeys, "_foremost", counted)
    return starts


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_interval_fastest_sweep_stops_at_a_zeta_long_journey(monkeypatch, kind):
    # a-b is present throughout, so the first candidate, 0, hops at once
    g = IntervalGraph.build("ab", {("a", "b"): [(0, 10)]}, latency=1)
    starts = count_searches(monkeypatch)
    got = fastest_journey(g, "a", "b", kind=kind)
    assert got.hops == (("a", "b", 0),)
    assert starts == [0, 0]  # the score and the rebuild; candidates 7..10 are never searched


def test_interval_fastest_sweep_stops_at_zeta_per_footprint_hop(monkeypatch):
    # a-b and b-c are present throughout: departing at 0 arrives at c at 2
    g = IntervalGraph.build("abc", {("a", "b"): [(0, 10)], ("b", "c"): [(0, 10)]}, latency=1)
    starts = count_searches(monkeypatch)
    got = fastest_journey(g, "a", "c", kind="strict")
    assert got.hops == (("a", "b", 0), ("b", "c", 1))
    # two footprint hops make 2 the least a strict journey takes, so 6..9 are never searched
    assert starts == [0, 0]
    starts.clear()
    # a non-strict journey takes both hops at 0 and lasts zeta
    got = fastest_journey(g, "a", "c", kind="nonstrict")
    assert got.hops == (("a", "b", 0), ("b", "c", 0))
    assert starts == [0, 0]


def test_sequence_fastest_sweep_stops_at_one_tick_per_footprint_hop(monkeypatch):
    # a-b and b-c are in every snapshot: a strict journey from 0 reaches c by 1
    seq = seq_of("abc", *[["ab", "bc"]] * 8)
    starts = count_searches(monkeypatch)
    got = fastest_journey(seq, "a", "c", kind="strict")
    assert got.hops == (("a", "b", 0), ("b", "c", 1)) and got.duration == 1
    # two footprint hops take two ticks, so snapshots 1..7 are never searched
    assert starts == [0, 0]
    starts.clear()
    got = fastest_journey(seq, "a", "c", kind="nonstrict")
    assert got.hops == (("a", "b", 0), ("b", "c", 0)) and got.duration == 0
    assert starts == [0, 0]


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_latest_departure_search_ends_once_u_is_settled(monkeypatch, kind):
    # reversed from b at -10, a settles at -9 and c, left by 4 at the latest, at -4
    g = IntervalGraph.build("abc", {("a", "b"): [(0, 10)], ("b", "c"): [(0, 5)]}, latency=1)
    tables = []
    count_searches(monkeypatch, tables)
    assert latest_departure(g, "a", "b", 10, kind) == 9
    [(stop, table)] = tables
    assert stop == "a"
    assert list(table.parent) == ["a"]  # c is never settled


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_interval_fastest_sweep_skips_dominated_departures(monkeypatch, kind):
    # a ~> c only by a-b at 5 and b-c from 8: departing at 0..5 arrives at 9
    g = IntervalGraph.build("abc", {("a", "b"): [(5, 6)], ("b", "c"): [(8, 10)]},
                            latency=1, span=(0, 10))
    _, _, grid = journeys._shifted_grid(g, 0, 10)
    starts = count_searches(monkeypatch)
    got = fastest_journey(g, "a", "c", kind=kind)
    assert (got.duration, got.departure) == oracles.brute_fastest_intervals(g, "a", kind, 0, 10)["c"]
    assert got.hops == (("a", "b", 5), ("b", "c", 8))
    # 0 leaves at 5, which scores in its place, so 1..5 are skipped; 6 reaches
    # nothing; then the rebuild from 5
    assert starts == [0, 6, 5] and len(grid) == 11


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_sequence_fastest_sweep_skips_dominated_departures(monkeypatch, kind):
    # a ~> c only by a-b in snapshot 5 and b-c in 8: departing at 0..5 reaches c by 8
    seq = seq_of("abc", *[[]] * 5, ["ab"], [], [], ["bc"], [])
    starts = count_searches(monkeypatch)
    got = fastest_journey(seq, "a", "c", kind=kind)
    assert (got.duration, got.departure) == oracles.brute_fastest(seq, "a", "c", kind, 0, 9)
    assert got.hops == (("a", "b", 5), ("b", "c", 8))
    assert starts == [0, 6, 5]


@settings(deadline=None)
@given(
    interval_graphs(latencies=(Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))),
    KINDS,
    QUARTERS,
    st.none() | QUARTERS,
)
def test_foremost_stop_leaves_settled_entries_alone(g, kind, t, dep_hi):
    lo, hi = g.span
    t = min(max(t, lo), hi)
    for u in sorted(g.nodes):
        full = journeys._foremost(g, u, t, kind, dep_hi)
        for v in sorted(g.nodes - {u}):
            part = journeys._foremost(g, u, t, kind, dep_hi, stop=v)
            # parent keys are in settling order: the search ends right after v
            order = list(full.parent)
            assert list(part.parent) == (order[:order.index(v) + 1] if v in order else order)
            for x in part.parent:
                assert part.arrival[x] == full.arrival[x]
                assert part.parent[x] == full.parent[x]
                assert part.hops[x] == full.hops[x]
            assert part.journey_to(v) == full.journey_to(v)


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
@pytest.mark.parametrize("seq, want", [
    (seq_of("abc", ["ab", "bc", "ac"]), 0),  # the first candidate
    (seq_of("ab", [], [], [], [], [], ["ab"]), 5),  # the last candidate, delta - 1
    (seq_of("abc", ["ab"], ["ab"]), None),  # c is never reached
])
def test_alpha_search_ends_on_sequences(seq, want, kind):
    assert oracles.brute_alpha(seq, kind) == want
    assert steady_progress_alpha(seq, kind=kind) == want


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
@pytest.mark.parametrize("nodes, edges, want", [
    # the first candidate
    ("abc", {("a", "b"): [(0, 4)], ("b", "c"): [(0, 4)], ("a", "c"): [(0, 4)]}, 0),
    # the one hop fits only at 3 = span - zeta, the largest wait a journey in
    # [0, 4) can need; only the span itself, never needed, lies above it
    ("ab", {("a", "b"): [(3, 5)]}, 3),
    ("abc", {("a", "b"): [(0, 4)]}, None),  # c is never reached
])
def test_alpha_search_ends_on_interval_graphs(nodes, edges, want, kind):
    g = IntervalGraph.build(nodes, edges, latency=1)
    assert oracles.brute_alpha_intervals(g, kind, 0, 4) == want
    assert steady_progress_alpha(g, (0, 4), kind) == want


def test_alpha_on_a_long_line_needs_no_recursion():
    seq = long_line()
    assert steady_progress_alpha(seq, pair=("v0000", "v1099")) == 0
    assert steady_progress_alpha(seq, pair=("v0000", "v1099"), kind="nonstrict") == 1


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
    with pytest.raises(ContractError) as raised:
        max_disjoint_journeys(menger_fig, "s", "t", limit_n=3)
    assert str(raised.value) == (  # the message says how to lift the limit
        "5 nodes exceed the brute-force limit 3; raise it with limit_n (None removes it)"
        " or --limit-n on the command line (0 removes it)"
    )
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


FIFTHS = st.integers(0, 15).map(lambda k: Fraction(k, 5))  # window bounds inside [0, 3]


@st.composite
def thirds_and_quarters(draw):
    """An interval graph whose runs end on 1/3 or 1/4 steps, one step per edge."""
    g = draw(interval_graphs(latencies=(Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))))
    edges = {}
    for e, ivs in sorted(g.edges.items()):
        step = draw(st.sampled_from((3, 4)))
        edges[e] = [(Fraction(a, step), Fraction(b, step)) for a, b in ivs]
    return IntervalGraph.build(g.nodes, edges, latency=g.latency, span=(0, 3))


@settings(deadline=None)
@given(thirds_and_quarters(), st.lists(FIFTHS, min_size=2, max_size=2).map(sorted))
def test_shifted_grid_on_integers_matches_fraction_oracle(g, window):
    # fifths are off the thirds-and-quarters grid of the runs
    lo, hi = window
    scale, view, got = journeys._shifted_grid(g, lo, hi)
    assert [Fraction(x, scale) for x in got] == oracles.shifted_grid(g, lo, hi)
    assert all(type(x) is int and x % 2 == 0 for x in got)  # even ticks: midpoints are ticks
    assert all(a < b for a, b in zip(got, got[1:]))  # sorted and distinct
    # the view is the graph with every time in ticks
    assert view.latency == g.latency * scale and view.span == (0, 3 * scale)
    assert view.edges == {e: tuple((a * scale, b * scale) for a, b in ivs) for e, ivs in g.edges.items()}
    assert all(type(x) is int for ivs in view.edges.values() for iv in ivs for x in iv)
    assert scale % g._unit == 0 and view is g._at_scale(scale)  # a multiple of D, cached


def test_off_grid_views_are_cached_and_bounded():
    g = IntervalGraph.build("abc", {("a", "b"): [(0, 2)], ("b", "c"): [(1, 3)]}, latency=Fraction(1, 2))
    assert g._unit == 4 and "_views" not in vars(g)  # D is read without building a view
    assert latest_departure(g, "a", "c", Fraction(14, 5)) == Fraction(3, 2)
    fifths = g._at_scale(20)  # built by that query, with its reversed mirror
    assert set(g._views) == {20} and "_reversed" in fifths.__dict__
    assert temporal_distance(g, "a", Fraction(1, 5))["c"] == Fraction(13, 10)
    assert g._at_scale(20) is fifths and set(g._views) == {20}
    on_grid = g._at_scale(4)
    for q in (3, 7, 9, 11):  # D and the last three wider views stay
        eccentricity(g, "a", Fraction(1, q))
    assert set(g._views) == {4, 28, 36, 44} and g._at_scale(4) is on_grid


@settings(deadline=None)
@given(thirds_and_quarters(), KINDS, st.lists(FIFTHS, min_size=2, max_size=2, unique=True).map(sorted))
def test_foremost_tree_on_the_integer_view_matches_fraction_sampling(g, kind, window):
    # fifths are off the thirds-and-quarters grid, so the view is rescaled for the window
    for src in sorted(g.nodes):
        assert foremost_tree_intervals(g, src, window, kind) == oracles.foremost_tree(g, src, kind, *window)


def test_foremost_tree_samples_each_segment_strictly_inside():
    # at 0, c is one hop away (a-c ends there, and at zero latency a hop may
    # leave as its run ends); just after 0 it is reached through b, and from
    # 1/2 on only d is reached.  Sampling a segment's start shows c -> a.
    g = IntervalGraph.build("abcd", {("a", "c"): [(-1, 0)], ("a", "b"): [(0, Fraction(1, 2))],
                                     ("b", "c"): [(0, Fraction(1, 2))], ("a", "d"): [(0, 1)]},
                            latency=0)
    assert earliest_arrival(g, "a", 0).parent["c"] == ("a", 0)
    # dates on halves and integer bounds: every tick must split a half in two
    assert foremost_tree_intervals(g, "a", (0, 1)) == [
        ((0, Fraction(1, 2)), {"b": "a", "c": "b", "d": "a"}), ((Fraction(1, 2), 1), {"d": "a"})]
    # a bound off the view's grid rescales it, to ticks of 1/8 and not 1/4
    assert foremost_tree_intervals(g, "a", (0, Fraction(1, 4))) == [
        ((0, Fraction(1, 4)), {"b": "a", "c": "b", "d": "a"})]


@pytest.mark.parametrize("window, shown", [((5, 3), "[5, 3]"), ((20, 30), "[20, 30]"),
                                           ((-3, -1), "[-3, -1]")])
def test_interval_fastest_rejects_a_window_with_no_departure_time(window, shown):
    g = IntervalGraph.build("ab", {("a", "b"): [(2, 8)]}, latency=1, span=(0, 10))
    for u, v in (("a", "b"), ("a", "a")):
        with pytest.raises(RangeError) as raised:
            fastest_journey(g, u, v, window)
        assert str(raised.value) == f"window {shown} holds no departure time in lifetime [0, 10]"
    # a window that overlaps the lifetime is clipped to it, down to one instant
    assert fastest_journey(g, "a", "b", (-5, 3)) == fastest_journey(g, "a", "b", (0, 3))
    assert fastest_journey(g, "a", "b", (7, 30)).hops == (("a", "b", 7),)
    assert fastest_journey(g, "a", "b", (10, 30)) is None


@pytest.mark.parametrize("window, shown", [((4, 2), "[4, 2]"), ((7, 9), "[7, 9]"), ((-2, -1), "[-2, -1]")])
def test_discrete_fastest_rejects_a_window_with_no_departure_time(window, shown):
    seq = seq_of("ab", [], ["ab"], [], ["ab"], [])
    for u, v in (("a", "b"), ("a", "a")):
        with pytest.raises(RangeError) as raised:
            fastest_journey(seq, u, v, window)
        assert str(raised.value) == f"window {shown} holds no departure time in 0..4"
    assert fastest_journey(seq, "a", "b", (-5, 2)).hops == (("a", "b", 1),)
    assert fastest_journey(seq, "a", "b", (2, 9)).hops == (("a", "b", 3),)
    assert fastest_journey(seq, "a", "b", (4, 9)) is None


@pytest.mark.parametrize("model, bad, shown", [
    ("intervals", 50, "50 outside lifetime [0, 10]"),
    ("intervals", Fraction(-1, 2), "-1/2 outside lifetime [0, 10]"),
    ("sequence", 6, "6 outside 0..5"),
    ("sequence", -1, "-1 outside 0..5"),
])
def test_shortest_journey_checks_its_start_as_earliest_arrival_does(model, bad, shown):
    g = {"intervals": IntervalGraph.build("ab", {("a", "b"): [(2, 8)]}, latency=1, span=(0, 10)),
         "sequence": seq_of("ab", [], ["ab"], [], ["ab"], [])}[model]
    for call in (lambda t: earliest_arrival(g, "a", t), lambda t: shortest_journey(g, "a", "b", t),
                 lambda t: shortest_journey(g, "a", "a", t)):
        with pytest.raises(RangeError) as raised:
            call(bad)
        assert str(raised.value) == f"start time {shown}"
    # both ends of the lifetime are fine
    lo, hi = (0, 10) if model == "intervals" else (0, 5)
    assert shortest_journey(g, "a", "b", lo).hops[0][:2] == ("a", "b")
    assert shortest_journey(g, "a", "b", hi) is None


def test_temporal_distance_keys_come_in_sorted_order_whatever_the_hash_seed():
    code = (
        "from tempnet.core import IntervalGraph\n"
        "from tempnet.journeys import temporal_distance\n"
        "g = IntervalGraph.build('gfedcba', {('a', 'g'): [(0, 2)], ('c', 'd'): [(0, 2)]})\n"
        "print(list(temporal_distance(g, 'a', 0)))\n"
    )
    env = os.environ | {"PYTHONPATH": str(Path(journeys.__file__).parents[1])}
    keys = [subprocess.run([sys.executable, "-c", code], env=env | {"PYTHONHASHSEED": str(seed)},
                           capture_output=True, text=True, check=True).stdout
            for seed in (0, 1)]
    assert keys == [str(list("abcdefg")) + "\n"] * 2
