"""Sliding-window observables over a trace.

Metrics are measured on the trace restricted to each window [s, s+width)
(``temporal_subgraph``; at zero latency a run ending at s is outside it), with
journeys departing at or after s.  Windows advance by a fixed step from the
start of the lifetime; a trailing partial window is dropped.

An interval window's ``tdiam`` (``tc``: is it finite?) and ``ecc:v`` are the
diameter and eccentricity at s of the window cut (``core._restrict``) out of
the graph's integer view; a series is limited to 10,000 windows.  A snapshot
sequence's pointwise eccentricity looks just after an instant, so there one
walk of the strict ``tdiameter`` window algebra (:mod:`tempnet.hierarchy`)
finds, for every start s, the length q[s] of the shortest window from s in
which everyone (for ``ecc:v``, node v) reaches everyone; every point reads off
q, so a whole series costs O(delta) compose and test calls whatever its width and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import SnapshotSequence, TemporalGraph, Time, _node_index, _restrict, as_time
from .errors import ContractError, InputError, RangeError
from .hierarchy import _Swag, _walk_grow, tdiameter
from .io import format_time
from .journeys import _eccentricity, _TimeModel

METRICS = ("tdiam", "tc")  # plus "ecc:<node>"
_MAX_WINDOWS = 10_000


@dataclass(frozen=True)
class WindowSeries:
    metric: str
    width: Time
    step: Time
    points: tuple[tuple[Time, Time], ...]

    def to_csv(self) -> str:
        lines = ["start,value"]
        for start, value in self.points:
            lines.append(f"{format_time(start)},{format_time(value)}")
        return "\n".join(lines) + "\n"


def _shortest_passing(seq: SnapshotSequence, node) -> list:
    """q[s]: length of the shortest window from s in which everyone (or node)
    reaches everyone, inf when none does.
    """
    algebra = tdiameter("strict")
    if node is not None:
        n, v = len(seq.nodes), _node_index(seq.nodes)[1][node]
        full = (1 << n) - 1
        algebra = replace(algebra, test=lambda x: (x >> v * n) & full == full)
    return _walk_grow(_Swag(algebra), seq)


def sliding_metric(g: TemporalGraph, metric: str, width, step) -> WindowSeries:
    """Evaluate a metric over windows [s, s+width) stepping by ``step``."""
    m = _TimeModel(g)
    width, step = as_time(width), as_time(step)
    for x in (width, step):
        if not m.whole(x):
            raise RangeError(f"window width and step must be whole snapshots, got {x}")
    width, step = m.read(width, "window width"), m.read(step, "window step")  # ints on a sequence
    lo, hi, _ = m.bounds()
    if width <= 0 or step <= 0:
        raise RangeError("window width and step must be positive")
    count = (hi - lo - width) // step + 1
    if count < 1:
        raise RangeError(f"no window of width {width} fits the lifetime [{lo}, {hi})")
    if not m.seq and count > _MAX_WINDOWS:  # a sequence walks the algebra once
        raise ContractError(
            f"{count} windows exceed the sliding-window limit {_MAX_WINDOWS}; use a larger --step"
        )
    starts = [lo + i * step for i in range(count)]
    node = metric.split(":", 1)[1] if metric.startswith("ecc:") else None
    if node is not None and node not in g.nodes:
        raise InputError(f"unknown node {node!r} in metric {metric!r}")
    if node is None and metric not in METRICS:
        raise InputError(f"unknown metric {metric!r}; use tdiam, tc, or ecc:<node>")
    if m.seq:  # one walk of the window algebra serves every window
        q = _shortest_passing(g, node)
        values = [q[s] - 1 if q[s] <= width else math.inf for s in starts]
    else:
        view, (first, w, dt) = m.ticks(lo, width, step)
        sources = sorted(g.nodes) if node is None else [node]
        values = [_eccentricity(m, _restrict(view, s, s + w), s, "strict", sources)
                  for s in range(first, first + count * dt, dt)]
    if metric == "tc":
        values = [int(v != math.inf) for v in values]
    return WindowSeries(metric, width, step, tuple(zip(starts, values)))
