"""Relabeling protocols under fair schedules and their structural conditions."""

import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
from conftest import seq_of
from strategies import sequences
from tempnet.closure import nonstrict_closure, strict_closure
from tempnet.errors import InputError
from tempnet.relabel import (
    ALGORITHMS,
    broadcast_outcomes,
    check_conditions,
    run,
)
from tempnet.simforest import fair_schedule


def reach_set(closure, src):
    return frozenset({src} | {v for (u, v) in closure.arcs if u == src})


def test_run_input_validation(journey_fig):
    with pytest.raises(InputError):
        run(journey_fig, "gossip")
    with pytest.raises(InputError):
        run(journey_fig, "broadcast")  # emitter missing
    with pytest.raises(InputError):
        run(journey_fig, "broadcast", emitter="z")
    with pytest.raises(InputError):
        run(journey_fig, "count-sentinel")


def test_broadcast_on_weekly_line(weekly_line):
    result = run(weekly_line, "broadcast", emitter="a", rng=random.Random(0))
    assert result["success"]
    assert result["informed"] == sorted(weekly_line.nodes)
    assert all(result["labels"].values())


def test_broadcast_failure_reports_partial_informed():
    seq = seq_of("abc", ["bc"], ["ab"])  # c's edge fires before a knows
    result = run(seq, "broadcast", emitter="a", rng=random.Random(0))
    assert not result["success"]
    assert result["informed"] == ["a", "b"]


@given(sequences(max_n=5, max_delta=4), st.integers(0, 2**32 - 1))
def test_broadcast_sandwich_on_random_schedules(seq, seed):
    rng = random.Random(seed)
    for emitter in sorted(seq.nodes):
        low = reach_set(strict_closure(seq), emitter)
        high = reach_set(nonstrict_closure(seq), emitter)
        got = frozenset(run(seq, "broadcast", emitter=emitter, rng=rng)["informed"])
        assert low <= got <= high


@given(sequences(max_n=3, max_delta=3))
def test_broadcast_exhaustive_outcomes(seq):
    for emitter in sorted(seq.nodes):
        outcomes = broadcast_outcomes(seq, emitter)
        low = reach_set(strict_closure(seq), emitter)
        high = reach_set(nonstrict_closure(seq), emitter)
        assert all(low <= out <= high for out in outcomes)
        # every no-repeat fair schedule lands inside the outcome set
        for schedule in oracles.exact_fair_schedules(seq):
            assert oracles.broadcast_under(seq, schedule, emitter) in outcomes


def test_broadcast_conditions(weekly_line, connected_g):
    cond = check_conditions(weekly_line, "broadcast", emitter="a")
    assert cond == {"necessary": True, "sufficient": True}
    cond = check_conditions(connected_g, "broadcast", emitter="a")
    assert cond == {"necessary": False, "sufficient": False}


@given(sequences(max_n=5, max_delta=5))
def test_broadcast_conditions_read_the_brute_closures(seq):
    closures = {kind: oracles.brute_closure_arcs(seq, kind) for kind in ("strict", "nonstrict")}
    for emitter in sorted(seq.nodes):
        reaches_all = {kind: all((emitter, v) in arcs for v in seq.nodes - {emitter})
                       for kind, arcs in closures.items()}
        assert check_conditions(seq, "broadcast", emitter=emitter) == {
            "necessary": reaches_all["nonstrict"], "sufficient": reaches_all["strict"]}


@settings(deadline=None)  # the exhaustive branch is slow but bounded below
@given(sequences(max_n=4, max_delta=3))
def test_broadcast_conditions_are_meaningful(seq):
    n_schedules = math.prod(math.factorial(len(s)) for s in seq.snapshots)
    for emitter in sorted(seq.nodes):
        cond = check_conditions(seq, "broadcast", emitter=emitter)
        if cond["sufficient"]:
            assert cond["necessary"]  # strict spread implies non-strict spread
            if n_schedules <= 20_000:
                for schedule in oracles.exact_fair_schedules(seq):
                    assert oracles.broadcast_under(seq, schedule, emitter) == seq.nodes
        if not cond["necessary"]:
            assert all(
                out != seq.nodes for out in broadcast_outcomes(seq, emitter)
            )


SETTLING = st.sampled_from(["broadcast", "count-sentinel", "count-uniform"])


@given(sequences(max_n=5, max_delta=6), st.integers(0, 2**32 - 1), SETTLING)
def test_early_stop_matches_a_full_replay(seq, seed, algorithm):
    schedule = fair_schedule(seq, random.Random(seed), extra=2)
    node = sorted(seq.nodes)[seed % len(seq.nodes)]
    got = run(seq, algorithm, schedule=schedule, emitter=node, sentinel=node)
    want = oracles.relabel_replay(seq, algorithm, schedule, emitter=node, sentinel=node)
    assert repr(got) == repr(want)  # values and key order


@given(sequences(max_n=5, max_delta=6), st.integers(0, 2**32 - 1), st.sampled_from(ALGORITHMS),
       st.integers(1, 4))
def test_runs_sharing_an_rng_each_draw_one_whole_schedule(seq, seed, algorithm, k):
    node = sorted(seq.nodes)[seed % len(seq.nodes)]
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(k):
        run(seq, algorithm, rng=rng, emitter=node, sentinel=node)
        fair_schedule(seq, ref, extra=2)
    assert rng.getstate() == ref.getstate()


def test_count_sentinel_counts_first_meetings():
    seq = seq_of("abc", ["ab"], ["ab", "ac"])
    result = run(seq, "count-sentinel", sentinel="a", rng=random.Random(0))
    assert result["success"] and result["k"] == 2
    assert result["labels"] == {"b": "F", "c": "F"}
    away = seq_of("abc", ["bc"], ["ab"])
    result = run(away, "count-sentinel", sentinel="a", rng=random.Random(0))
    assert not result["success"] and result["k"] == 1


def test_count_sentinel_labels_come_in_sorted_order():
    # a node set whose frozenset order is rarely sorted, whatever the hash seed
    names = [f"v{i}" for i in range(12)]
    seq = seq_of(names, [("v0", v) for v in names[1:]])
    result = run(seq, "count-sentinel", sentinel="v0", rng=random.Random(0))
    assert list(result["labels"]) == sorted(names[1:])


def test_count_sentinel_conditions():
    star = seq_of("abc", ["ab"], ["ac"])
    assert check_conditions(star, "count-sentinel", sentinel="a") == {
        "necessary": True,
        "sufficient": True,
    }
    assert check_conditions(star, "count-sentinel", sentinel="b") == {
        "necessary": False,
        "sufficient": False,
    }


def test_count_uniform_on_complete_snapshot():
    seq = seq_of("abc", ["ab", "ac", "bc"])
    result = run(seq, "count-uniform", rng=random.Random(0))
    assert result["success"]
    assert sorted(result["counts"].values()) == [0, 0, 3]


def test_count_uniform_stuck_when_positives_never_meet():
    seq = seq_of("abcd", ["ab", "cd"], ["ab", "cd"])
    result = run(seq, "count-uniform", rng=random.Random(0))
    assert not result["success"]
    assert sorted(result["counts"].values()) == [0, 0, 2, 2]


@given(sequences(max_n=5, max_delta=4), st.integers(0, 2**32 - 1))
def test_count_uniform_conserves_total(seq, seed):
    result = run(seq, "count-uniform", rng=random.Random(seed))
    assert sum(result["counts"].values()) == len(seq.nodes)


def test_count_uniform_conditions(tc_fig):
    complete = seq_of("abc", ["ab", "ac", "bc"])
    assert check_conditions(complete, "count-uniform") == {
        "necessary": True,
        "sufficient": True,
    }
    # all-pairs journeys converge on every node, but no snapshot is complete
    cond = check_conditions(tc_fig, "count-uniform")
    assert cond == {"necessary": True, "sufficient": False}


def test_count_circulate_on_star():
    seq = seq_of("abcd", ["ab", "ac", "ad"])
    result = run(seq, "count-circulate", rng=random.Random(0))
    assert result["success"]
    assert max(result["counts"].values()) == 4


@given(sequences(max_n=5, max_delta=4), st.integers(0, 2**32 - 1))
def test_count_circulate_conserves_total(seq, seed):
    result = run(seq, "count-circulate", rng=random.Random(seed))
    assert sum(result["counts"].values()) == len(seq.nodes)


@given(sequences(max_n=5, max_delta=4), st.integers(0, 2**32 - 1))
def test_count_circulate_matches_token_set_replay(seq, seed):
    schedule = fair_schedule(seq, random.Random(seed), extra=2)
    result = run(seq, "count-circulate", schedule=schedule)
    assert result["counts"] == oracles.circulate_counts(seq, schedule)


def test_count_circulate_has_no_structural_conditions(journey_fig):
    assert check_conditions(journey_fig, "count-circulate") == {
        "necessary": None,
        "sufficient": None,
    }


def test_all_algorithms_report_their_name(journey_fig):
    for algo in ALGORITHMS:
        result = run(
            journey_fig,
            algo,
            rng=random.Random(1),
            emitter="a",
            sentinel="a",
        )
        assert result["algorithm"] == algo
        assert isinstance(result["success"], bool)


@pytest.mark.parametrize("call", [run, check_conditions])
def test_an_unknown_algorithm_is_named_with_the_choices(call):
    with pytest.raises(InputError, match=r"^unknown algorithm 'nope', expected one of \("):
        call(seq_of("ab", ["ab"]), "nope")
