"""Ingestion and serialization.

Formats:

* snapshot JSON   {"format":"snapshots","nodes":[...],"snapshots":[[["a","b"],...],...]}
* interval JSON   {"format":"intervals","latency":1.0,"nodes":[...],
                   "edges":[{"u":"a","v":"b","intervals":[[0,30],[70,80]]},...]}
                  plus an optional "lifetime":[lo,hi] recording empty margins
* link-stream CSV header "u,v,start,end", one presence interval per row
* DOT digraphs for closures, with ea/ld labels on round-trip arcs

Times are exact rationals end to end: integers stay integers, anything
non-integral is rendered as a "p/q" string so golden files never drift.
"""

from __future__ import annotations

import csv
import io as _io
import json
from fractions import Fraction
from typing import Any

from .core import IntervalGraph, SnapshotSequence, StaticGraph, TemporalGraph, _check_kind, as_time
from .errors import InputError


def format_time(t) -> Any:
    """JSON-friendly exact number: int when integral, 'p/q' string otherwise."""
    if t is None:
        return None
    if t == float("inf"):
        return "inf"
    t = Fraction(t)
    if t.denominator == 1:
        return int(t)
    return f"{t.numerator}/{t.denominator}"


def load_graph(data) -> TemporalGraph:
    """Parse a trace from a JSON string or an already-decoded dict."""
    decoded = isinstance(data, (str, bytes))
    if decoded:
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("trace JSON must be an object")
    fmt = data.get("format")
    if fmt == "snapshots":
        return _load_snapshots(data, decoded)
    if fmt == "intervals":
        return _load_intervals(data)
    raise InputError(f"unknown trace format {fmt!r}")


def _require_string_ids(nodes):
    # the bitset kernels sort node ids; core.edge rejects endpoints that don't compare
    for v in nodes:
        if not isinstance(v, str):
            raise InputError(f"node ids must be strings, got {v!r}")


_ARRAYS = frozenset((list, tuple))  # a JSON array, or a tuple from a Python caller


def _check_array(x, what: str, items: str = ""):
    """x is an array, and so is each of its items when ``items`` names them.  It runs after the
    reads it guards (a two-character string unpacks too), so an earlier fault is named first."""
    if type(x) not in _ARRAYS:
        raise TypeError(f"{what} must be an array, got {type(x).__name__}")
    if items and not _ARRAYS.issuperset(map(type, x)):
        _check_array(next(y for y in x if type(y) not in _ARRAYS), items)


def _load_snapshots(data, owned: bool) -> SnapshotSequence:
    try:
        nodes = list(data["nodes"])
        rows = data["snapshots"]
        for snap in rows:
            for u, v in snap:  # the shape check; build canonicalizes the pairs
                pass
            _check_array(snap, "a snapshot", "an edge")
        _check_array(rows, "snapshots")
        _check_array(data["nodes"], "nodes")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed snapshot trace: {exc}") from exc
    _require_string_ids(nodes)
    return SnapshotSequence.build(nodes, _taken(rows) if owned else rows)


def _taken(rows: list):
    """Yield each row of a decoded list and drop the list's hold on it, freeing it once built."""
    for i, row in enumerate(rows):
        rows[i] = None
        yield row


def _load_intervals(data) -> IntervalGraph:
    try:
        nodes = list(data["nodes"])
        edges = {}
        for rec in data["edges"]:
            edges[(rec["u"], rec["v"])] = [(a, b) for a, b in rec["intervals"]]
            _check_array(rec["intervals"], "intervals", "an interval")
        _check_array(data["edges"], "edges")
        _check_array(data["nodes"], "nodes")
        latency = data.get("latency", 1)
        span = data.get("lifetime")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed interval trace: {exc}") from exc
    if span is not None and not (isinstance(span, (list, tuple)) and len(span) == 2):
        raise InputError(f"malformed interval trace: lifetime must be two times, got {span!r}")
    _require_string_ids(nodes)
    return IntervalGraph.build(nodes, edges, latency=latency, span=span)


def dump_graph(g: TemporalGraph) -> dict:
    if isinstance(g, SnapshotSequence):
        return {
            "format": "snapshots",
            "nodes": sorted(g.nodes),
            "snapshots": [sorted(list(e) for e in snap) for snap in g.snapshots],
        }
    out: dict[str, Any] = {
        "format": "intervals",
        "latency": format_time(g.latency),
        "nodes": sorted(g.nodes),
        "edges": [
            {
                "u": u,
                "v": v,
                "intervals": [[format_time(a), format_time(b)] for a, b in ivs],
            }
            for (u, v), ivs in sorted(g.edges.items())
        ],
    }
    if g.span is not None:
        out["lifetime"] = [format_time(g.span[0]), format_time(g.span[1])]
    return out


def load_linkstream(text: str, latency=1) -> IntervalGraph:
    """CSV link stream: header u,v,start,end; one presence interval per row."""
    reader = csv.reader(_io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows or [c.strip() for c in rows[0]] != ["u", "v", "start", "end"]:
        raise InputError('link-stream CSV must start with header "u,v,start,end"')
    edges: dict[tuple[str, str], list[tuple[Fraction, Fraction]]] = {}
    nodes: set[str] = set()
    for row in rows[1:]:
        if len(row) != 4:
            raise InputError(f"malformed link-stream row {row!r}")
        u, v, s, e = (cell.strip() for cell in row)
        nodes.update((u, v))
        key = (u, v) if u < v else (v, u)
        edges.setdefault(key, []).append((as_time(s), as_time(e)))
    return IntervalGraph.build(nodes, edges, latency=latency)


def dump_linkstream(g: IntervalGraph) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "start", "end"])
    for (u, v), ivs in sorted(g.edges.items()):
        for a, b in ivs:
            writer.writerow([u, v, format_time(a), format_time(b)])
    return buf.getvalue()


def _dot_quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def closure_to_dot(closure) -> str:
    """DOT digraph for a Closure or RoundTripClosure (ea/ld become labels)."""
    lines = ["digraph closure {"]
    for v in sorted(closure.nodes):
        lines.append(f"  {_dot_quote(v)};")
    arcs = closure.arcs
    if isinstance(arcs, dict):
        for (u, v), (ea, ld) in sorted(arcs.items()):
            lines.append(
                f"  {_dot_quote(u)} -> {_dot_quote(v)} "
                f'[label="ea={format_time(ea)},ld={format_time(ld)}"];'
            )
    else:
        for u, v in sorted(arcs):
            lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def static_to_dot(g: StaticGraph) -> str:
    lines = ["graph g {"]
    for v in sorted(g.nodes):
        lines.append(f"  {_dot_quote(v)};")
    for u, v in sorted(g.edges):
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def closure_to_json(closure) -> dict:
    arcs = closure.arcs
    if isinstance(arcs, dict):
        ws, we = closure.window
        return {
            "nodes": sorted(closure.nodes),
            "window": [format_time(ws), format_time(we)],
            "arcs": [
                {"u": u, "v": v, "ea": format_time(ea), "ld": format_time(ld)}
                for (u, v), (ea, ld) in sorted(arcs.items())
            ],
        }
    return {
        "nodes": sorted(closure.nodes),
        "arcs": [[u, v] for u, v in sorted(arcs)],
    }


def journey_to_json(j) -> dict:
    return {
        "hops": [[u, v, format_time(t)] for (u, v, t) in j.hops],
        "kind": j.kind,
    }


def journey_from_json(data, latency=None):
    from .journeys import Journey

    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
    try:
        hops = tuple((u, v, as_time(t)) for u, v, t in data["hops"])
        _check_array(data["hops"], "hops", "a hop")
        kind = data["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed journey: {exc}") from exc
    _check_kind(kind)
    if latency is None:
        hops = tuple(
            (u, v, int(t) if t.denominator == 1 else t) for u, v, t in hops
        )
    return Journey(hops=hops, kind=kind, latency=latency)
