"""Membership tests for finite trace classes plus related static checks.

The classes are named by what the trace guarantees:

* ``J1A`` / ``JA1``: some node has a journey to all others / from all others.
* ``TC``: every ordered pair is connected by a journey.
* ``TCrt``: every ordered pair has a journey and a later-departing return.
* ``E1A``: some node shares an edge with every other at some point.
* ``K``: every pair shares an edge at some point (complete footprint).

Each test comes in a strict and a non-strict flavour and reports a witness
node where one makes sense.  ``classify`` bundles the memberships with the
numeric parameters (realization bound, period, T-interval connectivity,
temporal diameters, steady-progress alpha) into one report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

from .core import (
    StaticGraph,
    TemporalGraph,
    _as_sequence,
    _check_kind,
    _check_limit,
    _reach_masks,
    _trusted,
    edge,
    footprint,
)
from .closure import _bron_kerbosch, is_roundtrip_connected, roundtrip_closure
from .errors import InputError
from . import hierarchy
from .journeys import steady_progress_alpha

CLASS_NAMES = ("J1A", "JA1", "TC", "TCrt", "E1A", "K")


def finite_class_membership(
    g: TemporalGraph, name: str, kind: str = "strict"
) -> tuple[bool, Optional[str]]:
    """(member, witness); witness is the smallest node id where one exists."""
    if name not in CLASS_NAMES:
        raise InputError(f"unknown class {name!r}, expected one of {CLASS_NAMES}")
    strict = _check_kind(kind)
    n = len(g.nodes)
    if name in ("E1A", "K"):  # every run spans an elementary interval: one footprint for both
        fp = footprint(g)
        if name == "K":
            return fp.is_complete(), None
        return next(((True, v) for v in sorted(g.nodes) if len(fp.adjacency[v]) == n - 1),
                    (False, None))
    seq = _as_sequence(g)
    if name == "TCrt":
        return is_roundtrip_connected(roundtrip_closure(seq, kind=kind)), None
    order, reach = _reach_masks(seq, strict)  # reach[k]: the nodes with a journey to k
    full = (1 << n) - 1
    if name == "TC":
        return all(row == full for row in reach), None
    if name == "JA1":  # the least node that everyone reaches
        return next(((True, order[k]) for k, row in enumerate(reach) if row == full), (False, None))
    common = reduce(operator.and_, reach, full)  # J1A: the nodes that reach everyone
    return (True, order[(common & -common).bit_length() - 1]) if common else (False, None)


def smallest_period(g: TemporalGraph) -> Optional[int]:
    """Smallest p < delta with snapshot t == snapshot t+p everywhere, else None."""
    seq = _as_sequence(g)
    delta = seq.delta
    for p in range(1, delta):
        if all(seq.snapshots[i] == seq.snapshots[i + p] for i in range(delta - p)):
            return p
    return None


def bounded_realization_delta(g: TemporalGraph) -> Optional[int]:
    """Smallest r such that every r-window accumulates the whole footprint."""
    seq = _as_sequence(g)
    algebra = hierarchy.footprint_realization(footprint(seq))
    return hierarchy.extremal(algebra, seq).value


def verify_covering(g: TemporalGraph, cover, mode: str = "temporal") -> bool:
    """Check a dominating-set style covering.

    temporal: one node set dominating the footprint.  evolving: one set per
    snapshot, each dominating its snapshot (so isolated nodes must be picked).
    permanent: one set dominating every single snapshot.
    """
    def dominates(graph: StaticGraph, chosen: frozenset[str]) -> bool:
        if unknown := chosen - graph.nodes:
            raise InputError(f"unknown node {min(unknown)!r} in covering")
        return all(
            v in chosen or graph.adjacency[v] & chosen for v in graph.nodes
        )

    if mode == "temporal":  # the footprint of g and of its discretization
        return dominates(footprint(g), frozenset(cover))
    if mode not in ("permanent", "evolving"):
        raise InputError(f"unknown covering mode {mode!r}")
    seq = _as_sequence(g)
    if mode == "permanent":
        chosen = frozenset(cover)
        return all(dominates(seq.graph_at(t), chosen) for t in range(seq.delta))
    stages = [frozenset(s) for s in cover]
    if len(stages) != seq.delta:
        raise InputError(
            f"evolving covering needs {seq.delta} stages, got {len(stages)}"
        )
    return all(
        dominates(seq.graph_at(t), stages[t]) for t in range(seq.delta)
    )


def is_robust_mis(g: StaticGraph, candidate: Iterable[str]) -> bool:
    """Is candidate an independent dominating set of every connected spanning
    subgraph of g?

    Independence survives edge removal, so the only way to break maximality
    is a node outside the set losing all its edges into the set while the
    graph stays connected; the check below tests exactly that, node by node.
    """
    if not g.is_connected():
        raise InputError("robustness is defined over connected graphs only")
    chosen = frozenset(candidate)
    if unknown := chosen - g.nodes:
        raise InputError(f"unknown node {min(unknown)!r} in candidate set")
    for u, v in g.edges:
        if u in chosen and v in chosen:
            return False  # not independent
    for v in g.nodes - chosen:
        if not g.adjacency[v] & chosen:
            return False  # not maximal
    for v in sorted(g.nodes - chosen):
        cut = {edge(v, w) for w in g.adjacency[v] & chosen}
        if _trusted(StaticGraph, g.nodes, g.edges - cut).is_connected():
            return False
    return True


def find_robust_mis(g: StaticGraph, limit_n: Optional[int] = 20) -> Optional[frozenset[str]]:
    """First robust maximal independent set in lexicographic order, or None."""
    if not g.is_connected():
        raise InputError("robustness is defined over connected graphs only")
    _check_limit(g.nodes, limit_n, "robust-MIS search")
    complement = {
        v: frozenset(g.nodes - g.adjacency[v] - {v}) for v in g.nodes
    }
    mises = sorted(_bron_kerbosch(dict(complement)), key=lambda s: sorted(s))
    for mis in mises:
        if is_robust_mis(g, mis):
            return mis
    return None


@dataclass(frozen=True)
class ClassReport:
    """Full classification of one trace."""

    classes: dict[str, dict[str, object]]
    delta: Optional[int]
    period: Optional[int]
    tinterval: Optional[int]
    tdiam: Optional[int]
    rtdiam: Optional[int]
    alpha: object

    def to_json(self) -> dict:
        out: dict = {name: dict(info) for name, info in self.classes.items()}
        out["delta"] = self.delta
        out["period"] = self.period
        out["tinterval"] = self.tinterval
        out["tdiam"] = self.tdiam
        out["rtdiam"] = self.rtdiam
        out["alpha"] = self.alpha
        return out


def classify(g: TemporalGraph) -> ClassReport:
    """Class memberships plus the numeric window parameters of the trace.

    Continuous traces are classified through their discretization.  The
    witness reported per class is the strict one when strict membership
    holds, otherwise the non-strict one.  Strict membership implies
    non-strict, so the non-strict test runs only when the strict one fails.
    Strict TC and TCrt are read off the tdiam and rtdiam walks: a grow walk
    finds some r <= delta exactly when its one window of length delta, the
    whole trace, passes, and that window's test is the membership test.
    """
    seq = _as_sequence(g)
    tdiam = hierarchy.extremal(hierarchy.tdiameter("strict"), seq).value
    rtdiam = hierarchy.extremal(hierarchy.rt_tdiameter("strict"), seq).value
    walked = {"TC": (tdiam is not None, None), "TCrt": (rtdiam is not None, None)}
    classes: dict[str, dict[str, object]] = {}
    for name in CLASS_NAMES:
        s_ok, s_wit = walked.get(name) or finite_class_membership(seq, name, "strict")
        n_ok, wit = (s_ok, s_wit) if s_ok else finite_class_membership(seq, name, "nonstrict")
        classes[name] = {"strict": s_ok, "nonstrict": n_ok, "witness": wit}
    return ClassReport(
        classes=classes,
        delta=bounded_realization_delta(seq),
        period=smallest_period(seq),
        tinterval=hierarchy.extremal(hierarchy.tinterval(), seq).value,
        tdiam=tdiam,
        rtdiam=rtdiam,
        alpha=steady_progress_alpha(seq, kind="strict"),
    )
