"""Self-stabilizing spanning forest over a snapshot sequence.

Every node starts as a tokened root.  Selecting a present edge either merges
two rooted trees (both endpoints tokened: one root adopts the other), walks
a token down an existing tree edge (circulation, which is what lets roots
wander until they meet), or does nothing.  When a snapshot change removes a
tree edge, the orphaned child becomes a tokened root again.

Invariants maintained after every atomic step: the parent pointers form a
forest (no cycles), every tree edge is present in the current snapshot, and
the token holders are exactly the roots.  ``run(..., checks=True)`` checks
them whole on each new snapshot and, after each selection, only what it changed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import Edge, SnapshotSequence, StaticGraph, _require_sequence, _trusted, edge
from .errors import ContractError, InputError, RangeError


@dataclass
class ForestState:
    sequence: SnapshotSequence
    t: int
    parent: dict[str, Optional[str]]
    tokens: set[str]

    @property
    def current(self) -> frozenset[Edge]:
        return self.sequence.snapshots[self.t]

    def roots(self) -> set[str]:
        return {v for v, p in self.parent.items() if p is None}

    def trees(self) -> int:
        return len(self.tokens)


def init(seq: SnapshotSequence) -> ForestState:
    return ForestState(
        sequence=seq,
        t=0,
        parent={v: None for v in seq.nodes},
        tokens=set(seq.nodes),
    )


def check_invariants(state: ForestState):
    parent = state.parent
    if state.tokens != state.roots():
        raise ContractError("token holders differ from the forest roots")
    snap = state.current
    for child, par in parent.items():
        if par is not None and ((child, par) if child < par else (par, child)) not in snap:
            raise ContractError(f"tree edge {child!r}->{par!r} not in the snapshot")
    # cycle check: walk each parent chain, marking it with the walk's id, until it
    # meets a root or a marked node; meeting its own mark closes a cycle
    walk_of: dict[str, int] = {}
    for i, v in enumerate(parent):
        x = v
        while x is not None and x not in walk_of:
            walk_of[x] = i
            x = parent[x]
        if x is not None and walk_of[x] == i:
            raise ContractError(f"cycle in parent pointers through {x!r}")


def _recheck(state: ForestState, last: Optional[tuple]) -> tuple:
    """check_invariants, in part within one snapshot: ``last`` holds (t, parent, tokens)
    copies from when the state last passed, and only a changed token or pointer can
    break since; a new cycle holds a changed pointer.  Returns the copies to keep."""
    parent, tokens, snap = state.parent, state.tokens, state.current
    if last is not None and last[0] == state.t and parent == last[1] and tokens == last[2]:
        return last
    if last is None or last[0] != state.t:
        check_invariants(state)
        return state.t, dict(parent), set(tokens)
    moved = {c for c, _ in parent.items() ^ last[1].items()}
    for v in moved | (tokens ^ last[2]):
        p = parent.get(v, v)  # a node off the parent map is no root
        if (v in tokens) != (p is None) or (
                p is not None and ((v, p) if v < p else (p, v)) not in snap):
            check_invariants(state)  # raises, with the full check's message
    for x in moved:  # n steps up from a changed child without meeting a root: a cycle
        for _ in parent:
            if (x := parent.get(x)) is None:
                break
        else:
            check_invariants(state)
    return state.t, dict(parent), set(tokens)


def select_edge(
    state: ForestState,
    e: tuple[str, str],
    rng: Optional[random.Random] = None,
    merge_rule: str = "min",
) -> str:
    """Apply one edge selection; returns "merge", "circulate", or "noop"."""
    e = edge(*e)
    if e not in state.current:
        raise ContractError(f"edge {e!r} not present in snapshot {state.t}")
    u, v = e
    if u in state.tokens and v in state.tokens:
        if merge_rule == "min":
            parent_node = u  # canonical order: u < v
        elif merge_rule == "random":
            if rng is None:
                raise InputError("merge_rule='random' needs an rng")
            parent_node = u if rng.random() < 0.5 else v
        else:
            raise InputError(f"unknown merge rule {merge_rule!r}")
        child = v if parent_node == u else u
        state.parent[child] = parent_node
        state.tokens.discard(child)
        return "merge"
    for root, other in ((u, v), (v, u)):
        if root in state.tokens and state.parent.get(other) == root:
            # walk the token down: the child becomes the new root
            state.parent[root] = other
            state.parent[other] = None
            state.tokens.discard(root)
            state.tokens.add(other)
            return "circulate"
    return "noop"


def advance_snapshot(state: ForestState) -> list[str]:
    """Move to the next snapshot; orphaned children regenerate as roots."""
    if state.t + 1 >= state.sequence.delta:
        raise RangeError(f"no snapshot after index {state.t}")
    state.t += 1
    snap = state.current
    regenerated = []
    for child in sorted(state.parent):
        par = state.parent[child]
        if par is not None and edge(child, par) not in snap:
            state.parent[child] = None
            state.tokens.add(child)
            regenerated.append(child)
    return regenerated


def fair_schedule(
    seq: SnapshotSequence,
    rng: random.Random,
    extra: int = 0,
) -> list[list[Edge]]:
    """One selection order per snapshot covering each present edge at least
    once, with up to ``extra`` additional random repeats mixed in."""
    schedule = []
    for edges in seq._sorted_snapshots:
        order = list(edges)
        rng.shuffle(order)
        if edges and extra:
            for _ in range(rng.randrange(extra + 1)):
                order.insert(rng.randrange(len(order) + 1), rng.choice(edges))
        schedule.append(order)
    return schedule


def _validate_schedule(seq: SnapshotSequence, schedule) -> list[list[Edge]]:
    if len(schedule) != seq.delta:
        raise InputError(f"schedule needs {seq.delta} rounds, got {len(schedule)}")
    canon = []
    for t, round_edges in enumerate(schedule):
        snap = seq.snapshots[t]
        sel = [edge(*e) for e in round_edges]
        for e in sel:
            if e not in snap:
                raise InputError(f"schedule selects absent edge {e!r} at {t}")
        if set(sel) != snap:
            raise InputError(f"schedule round {t} is not fair (misses an edge)")
        canon.append(sel)
    return canon


def run(
    seq: SnapshotSequence,
    schedule=None,
    rng: Optional[random.Random] = None,
    merge_rule: str = "min",
    checks: bool = False,
) -> list[dict]:
    """Simulate the whole sequence; one summary row per snapshot.

    Each row reports the snapshot's connected component count, the number of
    trees, the trees inside each component, and trees per component.
    """
    if not _require_sequence(seq, "forest simulations").nodes:
        raise InputError("the forest simulation needs at least one node")
    rng = rng or random.Random(0)
    if schedule is None:
        schedule = fair_schedule(seq, rng)
    else:
        schedule = _validate_schedule(seq, schedule)
    state = init(seq)
    series, last = [], None
    for t in range(seq.delta):
        if t > 0:
            advance_snapshot(state)
            if checks:
                last = _recheck(state, last)  # a new snapshot: the full check
        for e in schedule[t]:
            select_edge(state, e, rng=rng, merge_rule=merge_rule)
            if checks:
                last = _recheck(state, last)
        comps = state.sequence.graph_at(t).connected_components()
        per_comp = sorted(len(state.tokens & comp) for comp in comps)
        series.append({
            "t": t,
            "components": len(comps),
            "trees": state.trees(),
            "trees_per_component": per_comp,
            "average": state.trees() / len(comps),
        })
    return series


def _rule_applies(state: ForestState, e: Edge) -> bool:
    u, v = e
    if u in state.tokens and v in state.tokens:
        return True
    return (u in state.tokens and state.parent.get(v) == u) or (
        v in state.tokens and state.parent.get(u) == v
    )


def run_static(
    graph: StaticGraph,
    rng: Optional[random.Random] = None,
    max_steps: Optional[int] = None,
) -> int:
    """Random relabeling steps on a fixed connected graph until one tree
    remains; returns the number of steps used.

    Each step picks uniformly among the edges where a rule applies (a merge
    of two tokened roots, or a token walk along a tree edge).  Pair
    selections where no rule applies are not computation steps in pairwise
    interaction models, so they are not drawn and not counted.  While more
    than one tree remains some rule always applies: either every tree is a
    singleton (any edge merges) or some root has a child to walk to.
    """
    if not graph.is_connected():
        raise InputError("static convergence needs a connected graph")
    rng = rng or random.Random(0)
    if max_steps is None:
        max_steps = 10_000 * max(1, len(graph.nodes))
    seq = _trusted(SnapshotSequence, graph.nodes, (graph.edges,))
    state = init(seq)
    edges = sorted(graph.edges)
    steps = 0
    while state.trees() > 1:
        if steps >= max_steps:
            raise ContractError(f"no convergence within {max_steps} selections")
        useful = [e for e in edges if _rule_applies(state, e)]
        select_edge(state, rng.choice(useful), rng=rng, merge_rule="random")
        steps += 1
    return steps
