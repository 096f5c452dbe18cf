#!/usr/bin/env python
"""Compare the journey kernels of this checkout with those of an earlier commit.

    python3 scripts/differential.py --base REV [--cases 300] [--seed 0]

Unpacks ``git archive REV src`` into a temporary directory and runs the same
seeded cases twice, in one subprocess per tree: the base commit's ``src/``
and this checkout's ``src/``.  Nothing is fetched.  The cases are random
snapshot sequences and interval graphs drawn with stdlib ``random`` (mixed
time denominators, latency in {0, 1/3, 1/2, 1}), and they call

* ``earliest_arrival`` (every table field), ``latest_departure``,
  ``shortest_journey``, ``fastest_journey``, ``foremost_tree_intervals`` and
  the interval ``sliding_metric``;
* ``steady_progress_alpha`` for both kinds, with and without ``pair`` and
  ``window``;
* the ``relabel.run`` counting protocols.

Each result is compared as a value together with its types, and each raised
error by its type and message.  Prints the number of cases and differences
per function, then the first differences.  Exits 1 when any case differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("strict", "nonstrict")
LATENCIES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
DENOMINATORS = (1, 2, 3, 4, 6)


# ---------------------------------------------------------------- case generation


def random_sequence(rng: random.Random):
    from tempnet.core import SnapshotSequence, edge

    names = [f"v{i}" for i in range(rng.randint(2, 5))]
    pairs = [edge(a, b) for a, b in itertools.combinations(names, 2)]
    p = rng.choice((0.2, 0.4, 0.7))
    snaps = tuple(
        frozenset(e for e in pairs if rng.random() < p) for _ in range(rng.randint(1, 5))
    )
    return SnapshotSequence(frozenset(names), snaps)


def random_time(rng: random.Random, hi: int) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(0, hi * den), den)


def random_interval_graph(rng: random.Random):
    from tempnet.core import IntervalGraph

    names = [f"v{i}" for i in range(rng.randint(2, 4))]
    hi = rng.randint(2, 6)
    edges = {}
    for a, b in itertools.combinations(names, 2):
        cuts = sorted({random_time(rng, hi) for _ in range(2 * rng.randint(0, 2))})
        runs = [(x, y) for x, y in zip(cuts[::2], cuts[1::2])]
        if runs:
            edges[(a, b)] = runs
    return IntervalGraph.build(names, edges, latency=rng.choice(LATENCIES), span=(0, hi))


def calls_for(rng: random.Random, g, discrete: bool):
    """(function name, call) pairs for one graph, arguments drawn up front."""
    from tempnet import journeys as J
    from tempnet import relabel, windows

    nodes = sorted(g.nodes)
    hi = g.delta if discrete else int(g.span[1])

    def when():
        # mostly valid times; now and then a fraction on a sequence or a bound
        # outside the lifetime, so error messages are compared too
        t = rng.randint(0, hi) if discrete else random_time(rng, hi)
        return Fraction(1, 2) + t if rng.random() < 0.05 else t

    def window():
        a, b = sorted((when(), when()))
        return (a, b + 1) if discrete else (a, b + Fraction(1, rng.choice(DENOMINATORS)))

    out = []
    for kind in KINDS:
        u, v = rng.choice(nodes), rng.choice(nodes)
        out += [
            ("earliest_arrival", partial(J.earliest_arrival, g, u, when(), kind,
                                         rng.choice((None, when())))),
            ("latest_departure", partial(J.latest_departure, g, u, v, when(), kind)),
            ("shortest_journey", partial(J.shortest_journey, g, u, v, when(), kind)),
            ("fastest_journey", partial(J.fastest_journey, g, u, v,
                                        rng.choice((None, window())), kind)),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, None, kind)),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, window(), kind)),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, None, kind, (u, v))),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, window(), kind, (u, v))),
        ]
        if not discrete:
            out.append(("foremost_tree_intervals",
                        partial(J.foremost_tree_intervals, g, u, window(), kind)))
    if discrete:
        for algo in ("count-sentinel", "count-uniform", "count-circulate"):
            seeded = random.Random(rng.randrange(2**32))
            out.append(("relabel.run",
                        partial(relabel.run, g, algo, rng=seeded, sentinel=rng.choice(nodes))))
    else:
        metric = rng.choice(("tc", "tdiam", f"ecc:{rng.choice(nodes)}"))
        width = Fraction(rng.randint(1, 2 * hi), 2)
        step = Fraction(1, rng.choice(DENOMINATORS))
        out.append(("sliding_metric", partial(windows.sliding_metric, g, metric, width, step)))
    return out


# ---------------------------------------------------------------- one tree


def canon(x):
    """A JSON-able form that keeps every type name, with sets in sorted order."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, float, Fraction)):
        return [type(x).__name__, str(x)]
    if dataclasses.is_dataclass(x):
        fields = {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
        return [type(x).__name__, fields]
    if isinstance(x, dict):
        return ["dict", [[canon(k), canon(v)] for k, v in x.items()]]
    if isinstance(x, (set, frozenset)):
        return [type(x).__name__, sorted((canon(v) for v in x), key=json.dumps)]
    if isinstance(x, (list, tuple)):
        return [type(x).__name__, [canon(v) for v in x]]
    return [type(x).__name__, repr(x)]


def worker(src: str, cases: int, seed: int) -> None:
    sys.path.insert(0, src)
    import tempnet

    if not Path(tempnet.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"differential: imported {tempnet.__file__}, not the tree under {src}")
    rng = random.Random(seed)
    for case in range(cases):
        discrete = case % 2 == 0
        g = random_sequence(rng) if discrete else random_interval_graph(rng)
        for i, (name, call) in enumerate(calls_for(rng, g, discrete)):
            try:
                result = ["value", canon(call())]
            except Exception as e:  # an error is an outcome to compare too
                result = ["error", type(e).__name__, str(e)]
            print(json.dumps([name, f"case {case} call {i}", result]))


def run_tree(src: Path, args) -> list:
    cmd = [sys.executable, "-s", str(Path(__file__).resolve()), "--worker", str(src),
           "--cases", str(args.cases), "--seed", str(args.seed)]
    # one hash seed for both runs, so dicts built from node sets list them alike
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONHASHSEED": "0"}
    done = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        sys.exit(f"differential: the run on {src} failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="commit to compare with (anything git rev-parse takes)")
    ap.add_argument("--cases", type=int, default=300, help="random graphs, half of each model")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker, args.cases, args.seed)
        return 0
    if not args.base:
        ap.error("--base is required")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"differential: git archive {args.base} failed: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        base = run_tree(Path(tmp) / "src", args)
    head = run_tree(ROOT / "src", args)
    if [r[:2] for r in base] != [r[:2] for r in head]:
        sys.exit("differential: the two runs made different calls")
    counts: dict[str, list[int]] = {}
    diffs = []
    for (name, where, want), (_, _, got) in zip(base, head):
        tally = counts.setdefault(name, [0, 0])
        tally[0] += 1
        if want != got:
            tally[1] += 1
            diffs.append((name, where, want, got))
    print(f"base {args.base} vs this checkout, {args.cases} graphs, seed {args.seed}")
    for name, (n, d) in sorted(counts.items()):
        print(f"  {name:26} {n:6} calls {d:6} differences")
    print(f"  {'total':26} {len(base):6} calls {len(diffs):6} differences")
    for name, where, want, got in diffs[:5]:
        print(f"\n{name}, {where}:")
        print(f"  base: {json.dumps(want)[:400]}\n  here: {json.dumps(got)[:400]}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
