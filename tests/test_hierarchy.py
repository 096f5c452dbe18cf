"""Sliding-window property decisions and their operation budgets."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import oracles
from conftest import graph_of, seq_of
from strategies import KINDS, dense_sequences, sequences
from tempnet.core import SnapshotSequence, footprint
from tempnet.errors import InputError, RangeError
from tempnet.hierarchy import (
    IncrementalDecide,
    WindowAlgebra,
    decide,
    extremal,
    footprint_realization,
    rt_tdiameter,
    tdiameter,
    tinterval,
)
from tempnet.windows import sliding_metric


def algebra_for(prop, seq, kind):
    if prop == "tinterval":
        return tinterval()
    if prop == "realization":
        return footprint_realization(footprint(seq))
    if prop == "tdiam":
        return tdiameter(kind)
    if prop == "ecc":  # the algebra of the ecc:v window series, v the least node: its row is full
        full = (1 << len(seq.nodes)) - 1
        return dataclasses.replace(tdiameter(kind), test=lambda x: x & full == full)
    return rt_tdiameter(kind)


PROPS = st.sampled_from(["tinterval", "realization", "tdiam", "rtdiam"])


@given(sequences(max_n=4, max_delta=6), KINDS, PROPS, st.data())
def test_decide_matches_bruteforce(seq, kind, prop, data):
    r = data.draw(st.integers(1, seq.delta))
    alg = algebra_for(prop, seq, kind)
    got = decide(alg, seq, r)
    want = oracles.brute_decide(seq, prop, r, kind=kind, target=footprint(seq))
    assert got.value == want
    assert sum(got.ops.values()) <= 6 * seq.delta


@settings(deadline=None)
@given(st.one_of(sequences(max_n=4, max_delta=7), dense_sequences(max_n=6, max_delta=7)), KINDS,
       st.sampled_from(["tinterval", "realization", "tdiam", "rtdiam", "ecc"]))
def test_decide_value_and_ops_equal_the_reference_loop(seq, kind, prop):
    alg = algebra_for(prop, seq, kind)
    for r in range(1, seq.delta + 1):
        got = decide(alg, seq, r)
        assert (got.value, got.ops) == oracles.loop_decide(alg, seq, r)


def test_a_stream_that_stops_on_a_failing_window_makes_no_pop_after_it():
    seq = seq_of("abc", ["ab"], ["ab"])  # the one 2-window shares edge ab only, which spans no tree
    inc = IncrementalDecide(tinterval(), 2)
    assert [inc.append(seq.graph_at(t)) for t in range(2)] == [None, False]
    # a pop here would move both snapshots to the front stack, one more compose
    assert inc.ops == {"compose": 1, "test": 1} == decide(tinterval(), seq, 2).ops
    assert oracles.loop_decide(tinterval(), seq, 2) == (False, inc.ops)


@given(sequences(max_n=4, max_delta=6), KINDS, PROPS)
def test_extremal_matches_bruteforce(seq, kind, prop):
    alg = algebra_for(prop, seq, kind)
    got = extremal(alg, seq)
    want = oracles.brute_extremal(seq, prop, kind=kind, target=footprint(seq))
    assert got.value == want
    assert sum(got.ops.values()) <= 10 * seq.delta


@given(sequences(max_n=4, max_delta=6), KINDS, PROPS, st.data())
def test_incremental_agrees_with_decide(seq, kind, prop, data):
    r = data.draw(st.integers(1, seq.delta))
    alg = algebra_for(prop, seq, kind)
    inc = IncrementalDecide(alg, r)
    verdicts = [inc.append(seq.graph_at(i)) for i in range(seq.delta)]
    assert verdicts[: r - 1] == [None] * (r - 1)
    for s, verdict in enumerate(verdicts[r - 1 :]):
        assert verdict == oracles.window_passes(
            seq, prop, s, r, kind=kind, target=footprint(seq)
        )
    assert inc.all_pass == decide(alg, seq, r).value
    assert sum(inc.ops.values()) <= 6 * seq.delta


@settings(deadline=None)
@given(dense_sequences(min_n=6, max_n=9, max_delta=8), KINDS, st.sampled_from(["realization", "tdiam"]),
       st.data())
def test_packed_algebras_span_several_int_digits(seq, kind, prop, data):
    # n >= 6 packs 36+ matrix bits, more than one 30-bit digit of a Python int
    r = data.draw(st.integers(1, seq.delta))
    alg, target = algebra_for(prop, seq, kind), footprint(seq)
    assert extremal(alg, seq).value == oracles.brute_extremal(seq, prop, kind=kind, target=target)
    passes = [oracles.window_passes(seq, prop, s, r, kind=kind, target=target)
              for s in range(seq.delta - r + 1)]
    assert decide(alg, seq, r).value == all(passes)
    inc = IncrementalDecide(alg, r)
    assert [inc.append(seq.graph_at(i)) for i in range(seq.delta)][r - 1:] == passes


@settings(deadline=None)
@given(dense_sequences(min_n=6, max_n=9, max_delta=8), st.data())
def test_packed_window_series_span_several_int_digits(seq, data):
    width = data.draw(st.integers(1, seq.delta))
    node = data.draw(st.sampled_from(sorted(seq.nodes)))
    starts = range(seq.delta - width + 1)
    ecc = {}  # ecc[s, u]: latest foremost arrival from u inside [s, s + width)
    for s in starts:
        window = SnapshotSequence(seq.nodes, seq.snapshots[s:s + width])
        for u in seq.nodes:
            best = oracles.brute_foremost(window, u, 0, "strict")
            arrivals = [best.get(v) for v in seq.nodes if v != u]
            ecc[s, u] = math.inf if None in arrivals else max(arrivals, default=0)
    tdiam = sliding_metric(seq, "tdiam", width, 1).points
    assert tdiam == tuple((s, max(ecc[s, u] for u in seq.nodes)) for s in starts)
    assert sliding_metric(seq, f"ecc:{node}", width, 1).points == tuple((s, ecc[s, node]) for s in starts)


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_tdiameter_on_one_node_and_empty_node_sequences(kind):
    for nodes in ("a", ""):
        seq = SnapshotSequence(frozenset(nodes), (frozenset(),) * 3)
        assert extremal(tdiameter(kind), seq).value == 1
        assert decide(tdiameter(kind), seq, 3).value


def test_constant_sequence_is_interval_connected_throughout():
    seq = seq_of("abc", *(["ab", "bc"] for _ in range(5)))
    assert extremal(tinterval(), seq).value == 5
    assert decide(tinterval(), seq, 5).value


def test_tinterval_on_rotating_star():
    seq = seq_of("abc", ["ab", "bc"], ["ab", "ac"], ["ac", "bc"])
    # every single snapshot connects, no 2-window shares a spanning set
    assert extremal(tinterval(), seq).value == 1


def test_realization_examples():
    alternating = seq_of("abc", ["ab"], ["bc"], ["ab"], ["bc"])
    assert extremal(footprint_realization(footprint(alternating)), alternating).value == 2
    sparse = seq_of("ab", ["ab"], [], [], ["ab"])
    assert extremal(footprint_realization(footprint(sparse)), sparse).value == 3
    constant = seq_of("ab", ["ab"], ["ab"])
    assert extremal(footprint_realization(footprint(constant)), constant).value == 1


def test_realization_unmet_target_is_none():
    seq = seq_of("abc", ["ab"], ["ab"])
    alg = footprint_realization(graph_of("abc", ["ab", "bc"]))
    assert extremal(alg, seq).value is None
    # a target edge on a node outside the sequence is never seen either
    outside = seq_of("ab", ["ab"], ["ab"])
    assert extremal(alg, outside).value is None


def test_tdiameter_on_weekly_line(weekly_line):
    # worst window starts just after the ef day: the f->a chain then catches
    # ef, de, cd, bc, ab six days apart each, spanning 31 slots in all
    r = extremal(tdiameter(), weekly_line).value
    assert r == 31
    assert decide(tdiameter(), weekly_line, 31).value
    assert not decide(tdiameter(), weekly_line, 30).value


def test_rt_tdiameter_needs_longer_windows_than_tdiameter():
    seq = seq_of("abc", *(["ab"], ["bc"]) * 4)
    one_way = extremal(tdiameter(), seq).value
    both_ways = extremal(rt_tdiameter(), seq).value
    assert both_ways is None or one_way is None or both_ways >= one_way


def test_decide_rejects_bad_window(journey_fig):
    with pytest.raises(RangeError):
        decide(tinterval(), journey_fig, 0)
    with pytest.raises(RangeError):
        decide(tinterval(), journey_fig, journey_fig.delta + 1)
    with pytest.raises(RangeError):
        IncrementalDecide(tinterval(), 0)


def test_algebra_rejects_unknown_direction():
    with pytest.raises(InputError):
        WindowAlgebra(lambda i, g: g, lambda a, b: a, lambda x: True, "sideways")


@pytest.mark.parametrize("make", [tdiameter, rt_tdiameter])
def test_diameter_algebras_reject_unknown_kind(journey_fig, make):
    with pytest.raises(InputError):
        extremal(make("bogus"), journey_fig)
