#!/usr/bin/env python
"""Sweep foremost-tree shapes across a trace's lifetime.

Prints one line per maximal start-date interval on which the earliest-arrival
tree out of the chosen root keeps the same parent map.  Useful for eyeballing
how routing out of one node drifts as the network evolves.  A snapshot trace
is swept as its interval form (``to_intervals``: snapshot i is presence over
[i, i+1), latency 1).

    python3 scripts/foremost_tree_sweep.py trace.json --root a [--kind nonstrict]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tempnet.core import SnapshotSequence, lifetime, to_intervals
from tempnet.io import format_time, load_graph, load_linkstream
from tempnet.journeys import foremost_tree_intervals


def load(path: str):
    text = Path(path).read_text()
    if path.endswith(".csv") or text.lstrip().startswith("u,v,start,end"):
        return load_linkstream(text)
    return load_graph(text)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="trace file (JSON or link-stream CSV)")
    ap.add_argument("--root", required=True)
    ap.add_argument("--kind", choices=["strict", "nonstrict"], default="strict")
    args = ap.parse_args()

    g = load(args.trace)
    if isinstance(g, SnapshotSequence):
        g = to_intervals(g)
    lo, hi = lifetime(g)
    pieces = foremost_tree_intervals(g, args.root, (lo, hi), kind=args.kind)
    print(f"root={args.root} window=[{format_time(lo)}, {format_time(hi)}) "
          f"pieces={len(pieces)}")
    for (a, b), shape in pieces:
        arcs = " ".join(f"{child}<-{parent}" for child, parent in sorted(shape.items()))
        print(f"  [{format_time(a)}, {format_time(b)})  {arcs or '(root only)'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
