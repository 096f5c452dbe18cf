"""Window-parameterized properties decided in O(delta) compose/test calls.

A :class:`WindowAlgebra` packages a property of windows of a snapshot
sequence: snapshots lift to elements of some monoid-like carrier, adjacent
windows compose, and a window passes iff ``test`` accepts its composite.
Two monotonicity directions are supported:

* ``grow``: a passing window keeps passing when extended (reachability-style
  properties).  ``extremal`` returns the smallest r such that every window
  of length r passes.
* ``shrink``: a passing window keeps passing when shrunk (intersection-style
  properties).  ``extremal`` returns the largest such r.

Both ``decide`` (fixed r) and ``extremal`` slide a two-stack aggregation
queue over the sequence, so the number of compose plus test calls stays
linear: at most 6*delta for decide and 10*delta for extremal.  The queue
counts the calls it makes, and the results return the counts in ``ops``
so that callers can audit the bound.  The set-valued algebras pack each
element into one ``int``: a bit per target edge, or a reachability matrix.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .core import SnapshotSequence, StaticGraph, _check_kind, _hop_matrix, _join_packed
from .core import _require_sequence, _trusted
from .errors import InputError, RangeError
from .closure import concat_roundtrip, is_roundtrip_connected, roundtrip_lift

DIRECTIONS = ("grow", "shrink")


@dataclass(frozen=True)
class WindowAlgebra:
    """lift(index, snapshot) -> element; compose is associative over adjacent runs."""

    lift: Callable[[int, StaticGraph], object]
    compose: Callable[[object, object], object]
    test: Callable[[object], bool]
    direction: str

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise InputError(f"direction must be one of {DIRECTIONS}")


@dataclass(frozen=True)
class DecideResult:
    value: bool
    ops: dict[str, int]


@dataclass(frozen=True)
class HierarchyResult:
    value: Optional[int]
    ops: dict[str, int]


class _Swag:
    """Queue with running composition (two-stack sliding-window aggregation).

    Every compose and test of the algebra goes through it and is counted in ``ops``.
    """

    def __init__(self, algebra: WindowAlgebra):
        self.algebra = algebra
        self.ops = {"compose": 0, "test": 0}
        self._front: list = []  # (element, element composed with everything above)
        self._back: list = []  # (element, everything below composed with element)

    def compose(self, a, b):
        self.ops["compose"] += 1
        return self.algebra.compose(a, b)

    def test(self, x) -> bool:
        self.ops["test"] += 1
        return self.algebra.test(x)

    def push(self, x):
        agg = self.compose(self._back[-1][1], x) if self._back else x
        self._back.append((x, agg))

    def pop(self):
        if not self._front:
            while self._back:
                x, _ = self._back.pop()
                agg = self.compose(x, self._front[-1][1]) if self._front else x
                self._front.append((x, agg))
        self._front.pop()

    def aggregate(self):
        if self._front and self._back:
            return self.compose(self._front[-1][1], self._back[-1][1])
        if self._front:
            return self._front[-1][1]
        if self._back:
            return self._back[-1][1]
        raise AssertionError("aggregate of an empty window")


def decide(algebra: WindowAlgebra, seq: SnapshotSequence, r: int) -> DecideResult:
    """Do all windows of length r pass?  Costs at most 6*delta compose+test."""
    delta = _require_sequence(seq, "window decisions").delta
    if not 1 <= r <= delta:
        raise RangeError(f"window length {r} outside 1..{delta}")
    inc = IncrementalDecide(algebra, r)
    value = all(inc.append(seq.graph_at(e)) is not False for e in range(delta))  # stops at a failure
    return DecideResult(value, inc.ops)


def _walk_grow(sw: _Swag, seq: SnapshotSequence) -> list:
    # q[s] = minimal passing window length starting at s (inf if none fits)
    delta = seq.delta
    q: list = []
    e = 0
    for s in range(delta):
        passed = False
        while True:
            if e > s:
                if sw.test(sw.aggregate()):
                    passed = True
                    break
            if e == delta:
                break
            sw.push(sw.algebra.lift(e, seq.graph_at(e)))
            e += 1
        q.append(e - s if passed else math.inf)
        if e > s:
            sw.pop()
    return q


def _walk_shrink(sw: _Swag, seq: SnapshotSequence) -> list:
    # h[s] = maximal passing window length starting at s (0 if none)
    delta = seq.delta
    h: list = []
    e = 0
    for s in range(delta):
        if e < s:
            e = s  # previous start had no passing window at all
        while e < delta:
            x = sw.algebra.lift(e, seq.graph_at(e))
            cand = x if e == s else sw.compose(sw.aggregate(), x)
            if not sw.test(cand):
                break
            sw.push(x)
            e += 1
        h.append(e - s)
        if e > s:
            # dropping the front keeps the window passing (shrink direction)
            sw.pop()
    return h


def extremal(algebra: WindowAlgebra, seq: SnapshotSequence) -> HierarchyResult:
    """Best window length r such that every length-r window passes.

    grow: smallest such r; shrink: largest.  None when no r in 1..delta
    works.  Costs at most 10*delta compose+test calls.
    """
    sw = _Swag(algebra)
    delta = _require_sequence(seq, "extremal window searches").delta
    if algebra.direction == "grow":
        # running maxima of q; r works iff it covers q[s] for every s <= delta - r
        q = list(itertools.accumulate(_walk_grow(sw, seq), max))
        best = next((r for r in range(1, delta + 1) if q[delta - r] <= r), None)
    else:
        h = list(itertools.accumulate(_walk_shrink(sw, seq), min))
        best = next((r for r in range(delta, 0, -1) if h[delta - r] >= r), None)
    return HierarchyResult(best, dict(sw.ops))


class IncrementalDecide:
    """Streaming variant: feed snapshots one by one, get per-window verdicts.

    append returns the verdict of the window ending at the new snapshot
    (None until r snapshots have arrived); all_pass aggregates them.  A failing
    window keeps its oldest snapshot until the next append, so ``decide`` stops
    there without a pop.
    """

    def __init__(self, algebra: WindowAlgebra, r: int):
        if r < 1:
            raise RangeError(f"window length {r} must be >= 1")
        self.algebra = algebra
        self.r = r
        self._sw = _Swag(algebra)
        self._count = 0
        self._held = False  # the last window failed and still holds its oldest snapshot
        self.all_pass = True

    @property
    def ops(self) -> dict[str, int]:
        return dict(self._sw.ops)

    def append(self, snapshot: StaticGraph) -> Optional[bool]:
        if self._held:
            self._sw.pop()
        self._sw.push(self.algebra.lift(self._count, snapshot))
        self._count += 1
        if self._count < self.r:
            return None
        verdict = self._sw.test(self._sw.aggregate())
        self.all_pass = self.all_pass and verdict
        self._held = not verdict
        if verdict:
            self._sw.pop()
        return verdict


def tinterval() -> WindowAlgebra:
    """Largest r such that every r-window's standing edges span a connected graph."""
    return WindowAlgebra(
        lift=lambda i, gs: gs,
        compose=lambda a, b: _trusted(StaticGraph, a.nodes, a.edges & b.edges),
        test=lambda gs: gs.is_connected(),
        direction="shrink",
    )


def footprint_realization(target: StaticGraph) -> WindowAlgebra:
    """Smallest r such that every r-window's accumulated edges cover the target.

    Elements are bitsets over the target's sorted edges; compose is OR.
    """
    bit = {e: 1 << i for i, e in enumerate(sorted(target.edges))}
    full = (1 << len(bit)) - 1
    return WindowAlgebra(
        lift=lambda i, gs: sum(bit.get(e, 0) for e in gs.edges),
        compose=operator.or_,
        test=lambda x: x == full,
        direction="grow",
    )


def tdiameter(kind: str = "strict") -> WindowAlgebra:
    """Smallest r such that every r-window is temporally connected.

    Elements are reachability matrices packed into one int, row i of n in bits
    [i*n, (i+1)*n), diagonal set so that journeys may wait (its top bit gives n);
    compose is ``core._join_packed``, and a window passes when every bit is set.
    """
    strict = _check_kind(kind)
    return WindowAlgebra(
        lift=lambda i, gs: _hop_matrix(gs.nodes, gs.edges, strict),
        compose=lambda x, y: _join_packed(x, y, math.isqrt(x.bit_length())),
        test=lambda x: x == (1 << x.bit_length()) - 1,
        direction="grow",
    )


def rt_tdiameter(kind: str = "strict") -> WindowAlgebra:
    """Smallest r such that every r-window is round-trip temporally connected."""
    _check_kind(kind)
    return WindowAlgebra(
        lift=lambda i, gs: roundtrip_lift(gs, i, kind),
        compose=concat_roundtrip,
        test=is_roundtrip_connected,
        direction="grow",
    )
