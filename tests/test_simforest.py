"""Spanning-forest maintenance: merges, token circulation, regeneration."""

import random

import pytest
from hypothesis import given, settings
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


def _repoint(state, data):
    """Re-point a node at a node it shares no edge with in the current snapshot."""
    nodes = sorted(state.parent)
    pairs = [(c, w) for c in nodes for w in nodes
             if c != w and edge(c, w) not in state.current]
    if pairs:
        c, w = data.draw(st.sampled_from(pairs))
        state.parent[c] = w


def _rehang(state, data):
    """Re-point a node at a neighbour in the current snapshot, tokens untouched."""
    pairs = [pair for e in state.current for pair in (e, e[::-1])]
    if pairs:
        c, w = data.draw(st.sampled_from(sorted(pairs)))
        state.parent[c] = w


def _cycle(size):
    def corrupt(state, data):
        """Close a cycle of size nodes; half the time take their tokens too, so that
        only the tree-edge or the cycle check is left to fail."""
        ring = data.draw(st.permutations(sorted(state.parent)))[:size]
        if len(ring) == size:
            for c, p in zip(ring, ring[1:] + ring[:1]):
                state.parent[c] = p
            if data.draw(st.booleans()):
                state.tokens -= set(ring)
    return corrupt


def _drop_token(state, data):
    if state.tokens:
        state.tokens.discard(data.draw(st.sampled_from(sorted(state.tokens))))


def _add_token(state, data):
    others = sorted(set(state.parent) - state.tokens)
    if others:
        state.tokens.add(data.draw(st.sampled_from(others)))


def _add_key(state, data):
    """A node the sequence does not have, as a root with or without a token, or a child."""
    state.parent["zz"] = data.draw(st.sampled_from([None, *sorted(state.parent)]))
    if data.draw(st.booleans()):
        state.tokens.add("zz")


def _drop_key(state, data):
    """Remove a root that no node hangs from, with or without its token."""
    leaves = sorted(state.roots() - set(state.parent.values()))
    if leaves:
        v = data.draw(st.sampled_from(leaves))
        del state.parent[v]
        if data.draw(st.booleans()):
            state.tokens.discard(v)


CORRUPTIONS = {"none": lambda state, data: None, "repoint": _repoint, "rehang": _rehang,
               "2-cycle": _cycle(2), "3-cycle": _cycle(3), "drop-token": _drop_token,
               "add-token": _add_token, "add-key": _add_key, "drop-key": _drop_key}


@settings(max_examples=300)  # nine corruptions, each needs its share of draws
@given(sequences(max_n=5, max_delta=4), st.integers(0, 2**32 - 1), st.data())
def test_step_check_rejects_what_the_full_check_rejects(seq, seed, data):
    rng = random.Random(seed)
    merge_rule = data.draw(st.sampled_from(["min", "random"]))
    sched = simforest.fair_schedule(seq, rng, extra=1)
    steps = [(t, e) for t in range(seq.delta) for e in sched[t]]
    state, last = simforest.init(seq), None
    for t, e in steps[:data.draw(st.integers(0, len(steps)))]:
        while state.t < t:
            simforest.advance_snapshot(state)
            last = simforest._recheck(state, last)
        simforest.select_edge(state, e, rng=rng, merge_rule=merge_rule)
        last = simforest._recheck(state, last)
    if state.t + 1 < seq.delta and data.draw(st.booleans()):
        simforest.advance_snapshot(state)  # unchecked: the step check must check it whole
    CORRUPTIONS[data.draw(st.sampled_from(sorted(CORRUPTIONS)))](state, data)
    want = _complaint(simforest.check_invariants, state)
    assert _complaint(lambda s: simforest._recheck(s, last), state) == want


def test_step_check_runs_the_full_check_on_a_new_snapshot():
    state = simforest.init(seq_of("ab", ["ab"], []))
    simforest.select_edge(state, ("a", "b"))
    last = simforest._recheck(state, None)
    assert simforest._recheck(state, last) is last  # nothing changed
    state.t = 1  # ab is gone, but no orphan regenerated: parent and tokens match last
    with pytest.raises(ContractError, match="^tree edge 'b'->'a' not in the snapshot$"):
        simforest._recheck(state, last)
    state.t = 0
    simforest.advance_snapshot(state)
    assert simforest._recheck(state, last)[0] == 1
