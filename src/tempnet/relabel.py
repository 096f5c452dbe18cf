"""Local relabeling protocols driven by fair edge schedules.

A schedule picks present edges one at a time inside each snapshot, every
present edge at least once per snapshot (fairness), in any order and with
repeats.  Information spreads at least as fast as strict journeys (one full
pass per snapshot) and at most as fast as non-strict journeys, which is the
sandwich that check_conditions turns into necessary/sufficient graph tests.

Protocols: broadcast (an emitter floods a flag), count-sentinel (a sentinel
counts the distinct nodes it meets), count-uniform (positive weights merge
pairwise and conserve their sum), and count-circulate (weights ride the
spanning-forest tokens of :mod:`tempnet.simforest` and merge when tokens
meet).
"""

from __future__ import annotations

import random
from typing import Optional

from .classes import finite_class_membership
from .core import SnapshotSequence, _node_index, _reach_masks, _require_sequence, footprint
from .errors import ContractError, InputError
from .simforest import _validate_schedule, fair_schedule, init, select_edge, advance_snapshot

ALGORITHMS = ("broadcast", "count-sentinel", "count-uniform", "count-circulate")


def _check_member(seq: SnapshotSequence, v: Optional[str], role: str) -> str:
    if v is None:
        raise InputError(f"{role} node required for this algorithm")
    if v not in seq.nodes:
        raise InputError(f"unknown {role} node {v!r}")
    return v


def run(
    seq: SnapshotSequence,
    algorithm: str,
    schedule=None,
    rng: Optional[random.Random] = None,
    emitter: Optional[str] = None,
    sentinel: Optional[str] = None,
) -> dict:
    """Run one protocol over one (possibly random) fair schedule.

    Success means: broadcast informed everyone; a counter reached n-1
    (sentinel) or n (uniform and circulate).  All but count-circulate stop
    reading the schedule once that happens, since nothing can change after.
    """
    if algorithm not in ALGORITHMS:
        raise InputError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if not _require_sequence(seq, "relabeling runs").nodes:
        raise InputError("relabeling needs at least one node")
    rng = rng or random.Random(0)
    if schedule is None:
        schedule = fair_schedule(seq, rng, extra=2)
    else:
        schedule = _validate_schedule(seq, schedule)
    n = len(seq.nodes)

    if algorithm == "broadcast":
        emitter = _check_member(seq, emitter, "emitter")
        informed = {emitter}
        for t in range(seq.delta):
            for u, v in schedule[t]:
                if u in informed or v in informed:
                    informed |= {u, v}
            if len(informed) == n:  # nothing left to inform
                break
        return {
            "algorithm": algorithm,
            "success": informed == set(seq.nodes),
            "informed": sorted(informed),
            "labels": {v: v in informed for v in sorted(seq.nodes)},
        }

    if algorithm == "count-sentinel":
        sentinel = _check_member(seq, sentinel, "sentinel")
        labels = {v: "N" for v in seq.nodes if v != sentinel}
        k = 0
        for t in range(seq.delta):
            for u, v in schedule[t]:
                if sentinel in (u, v):
                    other = v if u == sentinel else u
                    if labels.get(other) == "N":
                        labels[other] = "F"
                        k += 1
            if k == n - 1:  # the sentinel has met everyone
                break
        return {
            "algorithm": algorithm,
            "success": k == n - 1,
            "k": k,
            "labels": dict(sorted(labels.items())),
        }

    if algorithm == "count-uniform":
        counts = {v: 1 for v in seq.nodes}
        for t in range(seq.delta):
            for u, v in schedule[t]:
                if counts[u] > 0 and counts[v] > 0:
                    pair = counts[u] + counts[v]
                    receiver, giver = (u, v) if u < v else (v, u)
                    counts[receiver] += counts[giver]
                    counts[giver] = 0
                    if counts[u] + counts[v] != pair:  # a merge moves weight between u and v only
                        raise ContractError("count-uniform lost conservation")
            if n in counts.values():  # one count holds all the weight: no merge is left
                break
        return {
            "algorithm": algorithm,
            "success": max(counts.values()) == n,
            "counts": dict(sorted(counts.items())),
        }

    # count-circulate: weights ride the forest tokens and merge on meetings
    counts = {v: 1 for v in seq.nodes}
    state = init(seq)
    for t in range(seq.delta):
        if t > 0:
            advance_snapshot(state)
        for u, v in schedule[t]:
            # a merge or a circulation leaves the token on one endpoint only
            if select_edge(state, (u, v), rng=rng, merge_rule="min") != "noop":
                dst, src = (u, v) if u in state.tokens else (v, u)
                pair = counts[u] + counts[v]
                counts[dst] += counts[src]
                counts[src] = 0
                if counts[u] + counts[v] != pair:
                    raise ContractError("count-circulate lost conservation")
    return {
        "algorithm": algorithm,
        "success": max(counts.values()) == n,
        "counts": dict(sorted(counts.items())),
    }


def check_conditions(
    seq: SnapshotSequence,
    algorithm: str,
    emitter: Optional[str] = None,
    sentinel: Optional[str] = None,
) -> dict:
    """Graph-level necessary and sufficient conditions for guaranteed success.

    Information travels no faster than non-strict journeys (necessity) and,
    under fairness, at least as fast as strict journeys (sufficiency).
    count-circulate has no known structural pair, hence null/null.
    """
    if algorithm not in ALGORITHMS:
        raise InputError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    seq = _require_sequence(seq, "relabeling conditions")
    if algorithm == "broadcast":
        bit = 1 << _node_index(seq.nodes)[1][_check_member(seq, emitter, "emitter")]
        # the emitter's bit in every reach row: it reaches everyone, non-strict / strict
        necessary, sufficient = (all(row & bit for row in _reach_masks(seq, s)[1]) for s in (False, True))
        return {"necessary": necessary, "sufficient": sufficient}
    if algorithm == "count-sentinel":
        sentinel = _check_member(seq, sentinel, "sentinel")
        spanning_star = len(footprint(seq).adjacency[sentinel]) == len(seq.nodes) - 1
        return {"necessary": spanning_star, "sufficient": spanning_star}
    if algorithm == "count-uniform":
        return {
            "necessary": finite_class_membership(seq, "JA1", "nonstrict")[0],
            "sufficient": finite_class_membership(seq, "K")[0],
        }
    return {"necessary": None, "sufficient": None}


def broadcast_outcomes(seq: SnapshotSequence, emitter: str) -> set[frozenset[str]]:
    """All informed sets reachable by some fair schedule (exhaustive search).

    State space is (informed set) x (edges still owed a selection) per
    snapshot, so this is for small traces only.
    """
    emitter = _check_member(_require_sequence(seq, "broadcast outcome searches"), emitter, "emitter")
    states = {frozenset([emitter])}
    for snap_edges in seq._sorted_snapshots:
        nxt: set[frozenset[str]] = set()
        for informed in states:
            nxt |= _snapshot_outcomes(informed, snap_edges)
        states = nxt
        if len(states) > 100_000:
            raise ContractError("broadcast outcome search exceeded the desk-scale bound")
    return states


def _snapshot_outcomes(informed: frozenset[str], snap_edges) -> set[frozenset[str]]:
    start = (informed, frozenset(snap_edges))
    seen = {start}
    stack = [start]
    finals: set[frozenset[str]] = set()
    while stack:
        inf, rem = stack.pop()
        if not rem:
            finals.add(inf)
        for e in snap_edges:
            u, v = e
            ninf = inf | {u, v} if (u in inf or v in inf) else inf
            nstate = (ninf, rem - {e})
            if nstate not in seen:
                seen.add(nstate)
                stack.append(nstate)
        if len(seen) > 200_000:
            raise ContractError("broadcast outcome search exceeded the desk-scale bound")
    return finals
