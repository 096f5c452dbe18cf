"""Spanning-forest maintenance: merges, token circulation, regeneration."""

import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import graph_of, seq_of
import oracles
from strategies import node_names, sequences
from tempnet import simforest
from tempnet.core import SnapshotSequence, edge
from tempnet.errors import ContractError, InputError, RangeError


def test_initial_state_is_all_singletons(journey_fig):
    state = simforest.init(journey_fig)
    assert state.t == 0
    assert state.roots() == set(journey_fig.nodes)
    assert state.tokens == set(journey_fig.nodes)
    simforest.check_invariants(state)


def test_merge_hangs_larger_id_under_smaller():
    seq = seq_of("ab", ["ab"])
    state = simforest.init(seq)
    assert simforest.select_edge(state, ("a", "b")) == "merge"
    assert state.parent["b"] == "a" and state.tokens == {"a"}
    assert state.trees() == 1
    simforest.check_invariants(state)


def test_merge_random_rule_needs_rng():
    state = simforest.init(seq_of("ab", ["ab"]))
    with pytest.raises(InputError):
        simforest.select_edge(state, ("a", "b"), merge_rule="random")
    with pytest.raises(InputError):
        simforest.select_edge(state, ("a", "b"), merge_rule="biggest")


def test_circulate_walks_the_token_down():
    seq = seq_of("ab", ["ab"])
    state = simforest.init(seq)
    simforest.select_edge(state, ("a", "b"))
    assert simforest.select_edge(state, ("a", "b")) == "circulate"
    assert state.tokens == {"b"} and state.parent["a"] == "b"
    assert simforest.select_edge(state, ("a", "b")) == "circulate"
    assert state.tokens == {"a"}  # back again
    simforest.check_invariants(state)


def test_selecting_absent_edge_is_a_contract_violation():
    state = simforest.init(seq_of("abc", ["ab"]))
    with pytest.raises(ContractError):
        simforest.select_edge(state, ("b", "c"))


def test_noop_when_neither_endpoint_helps():
    seq = seq_of("abc", ["ab", "bc", "ac"])
    state = simforest.init(seq)
    simforest.select_edge(state, ("a", "b"))  # b under a
    simforest.select_edge(state, ("a", "c"))  # c under a
    # b and c both tokenless and neither is the other's parent
    assert simforest.select_edge(state, ("b", "c")) == "noop"
    simforest.check_invariants(state)


def test_advance_regenerates_orphans():
    seq = seq_of("abc", ["ab", "bc"], ["bc"])
    state = simforest.init(seq)
    simforest.select_edge(state, ("a", "b"))
    simforest.select_edge(state, ("b", "c"))  # noop: b lost its token
    assert state.parent["b"] == "a"
    regenerated = simforest.advance_snapshot(state)
    assert regenerated == ["b"]  # ab vanished, b is a root again
    assert state.tokens == {"a", "b", "c"}
    simforest.check_invariants(state)
    with pytest.raises(RangeError):
        simforest.advance_snapshot(state)


def test_check_invariants_flags_corruption():
    state = simforest.init(seq_of("ab", ["ab"]))
    state.parent["b"] = "a"  # token set no longer matches the roots
    with pytest.raises(ContractError):
        simforest.check_invariants(state)
    state = simforest.init(seq_of("abc", ["ab"]))
    state.parent["a"] = "b"
    state.parent["b"] = "a"
    state.tokens = {"c"}
    with pytest.raises(ContractError):
        simforest.check_invariants(state)


def test_fair_schedule_covers_every_edge():
    seq = seq_of("abcd", ["ab", "cd"], ["bc"], [])
    rng = random.Random(7)
    sched = simforest.fair_schedule(seq, rng, extra=2)
    assert len(sched) == seq.delta
    for t, round_edges in enumerate(sched):
        assert set(round_edges) == seq.snapshots[t]
        assert len(round_edges) >= len(seq.snapshots[t])


def test_run_validates_schedules(journey_fig):
    with pytest.raises(InputError):
        simforest.run(journey_fig, schedule=[[]])
    unfair = [sorted(s) for s in journey_fig.snapshots]
    unfair[1] = unfair[1][:-1]
    with pytest.raises(InputError):
        simforest.run(journey_fig, schedule=unfair)


def test_run_series_shape(journey_fig):
    series = simforest.run(journey_fig, rng=random.Random(3), checks=True)
    assert [row["t"] for row in series] == list(range(journey_fig.delta))
    for row in series:
        assert row["trees"] == sum(row["trees_per_component"])
        assert row["average"] == row["trees"] / row["components"]
        assert row["components"] >= 1


def test_run_on_star_converges_in_one_round():
    # every leaf edge merges into the hub whatever the order, so one fair
    # pass is enough here (general graphs need repeats, see run_static)
    seq = seq_of("abcd", ["ab", "ac", "ad"])
    series = simforest.run(seq, rng=random.Random(1))
    assert series[-1]["trees"] == 1
    assert series[-1]["trees_per_component"] == [1]


@given(sequences(max_n=5, max_delta=4), st.integers(0, 2**32 - 1))
def test_invariants_hold_throughout_random_runs(seq, seed):
    rng = random.Random(seed)
    simforest.run(seq, rng=rng, merge_rule="random", checks=True)


@given(sequences(max_n=5, max_delta=3), st.integers(0, 2**32 - 1))
def test_trees_never_outnumber_prior_roots(seq, seed):
    # selections only merge or move tokens; regeneration is the sole source
    rng = random.Random(seed)
    sched = simforest.fair_schedule(seq, rng, extra=1)
    state = simforest.init(seq)
    prev = state.trees()
    for t in range(seq.delta):
        if t > 0:
            simforest.advance_snapshot(state)
            prev = state.trees()
        for e in sched[t]:
            simforest.select_edge(state, e, rng=rng, merge_rule="random")
            assert state.trees() <= prev
            prev = state.trees()


def test_run_static_converges_and_counts():
    ring = graph_of("abcde", ["ab", "bc", "cd", "de", "ae"])
    steps = simforest.run_static(ring, rng=random.Random(11))
    assert steps >= 4  # at least n-1 merges
    with pytest.raises(InputError):
        simforest.run_static(graph_of("abcd", ["ab", "cd"]))


def test_run_static_step_cap():
    g = graph_of("ab", ["ab"])
    with pytest.raises(ContractError):
        simforest.run_static(g, rng=random.Random(0), max_steps=0)


def _corrupt(parent, tokens, snapshot):
    # parent is a list of (child, parent) pairs, checked in this order
    nodes = "".join(v for v, _ in parent)
    state = simforest.init(seq_of(nodes, snapshot))
    state.parent = dict(parent)
    state.tokens = set(tokens)
    return state


@pytest.mark.parametrize("state, message", [
    (_corrupt([("a", None), ("b", "a")], "ab", ["ab"]), "token holders differ from the forest roots"),
    (_corrupt([("a", None), ("b", None)], "a", []), "token holders differ from the forest roots"),
    (_corrupt([("a", None), ("b", "a"), ("c", "b")], "a", ["ab"]),
     "tree edge 'c'->'b' not in the snapshot"),
    (_corrupt([("a", "b"), ("b", "a")], "", ["ab"]), "cycle in parent pointers through 'a'"),
    (_corrupt([("t", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("r", None)], "r",
              ["bt", "ab", "bc", "ac"]),
     "cycle in parent pointers through 'b'"),  # the walk from t enters the cycle at b
], ids=["token-on-non-root", "root-without-token", "absent-tree-edge", "2-cycle",
        "3-cycle-through-a-tail"])
def test_check_invariants_names_each_corruption(state, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        simforest.check_invariants(state)


@st.composite
def forest_states(draw):
    """Any parent map without self-loops, in any order: tokens are the roots
    and every tree edge is present, so only the cycle check can fail."""
    nodes = draw(st.permutations(node_names(draw(st.integers(1, 7)))))
    parent = {v: draw(st.sampled_from([None, *(w for w in nodes if w != v)])) for v in nodes}
    snap = frozenset(edge(c, p) for c, p in parent.items() if p is not None)
    state = simforest.init(SnapshotSequence(frozenset(nodes), (snap,)))
    state.parent, state.tokens = parent, {v for v, p in parent.items() if p is None}
    return state


def _complaint(check, state):
    try:
        check(state)
    except ContractError as exc:
        return str(exc)
    return None


@given(forest_states())
def test_cycle_walk_matches_the_per_node_walk(state):
    want = _complaint(oracles.forest_invariants_per_node_walk, state)
    assert _complaint(simforest.check_invariants, state) == want
