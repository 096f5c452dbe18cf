#!/usr/bin/env python
"""Compare the journey kernels and the CLI of this checkout with an earlier commit.

    python3 scripts/differential.py --base REV [--cases 300] [--seed 0]
    python3 scripts/differential.py --hash-seeds 0,1,2,3 [--cases 300] [--seed 0]
    python3 scripts/differential.py --models [--cases 300] [--seed 0]

With ``--base``, unpacks ``git archive REV src`` into a temporary directory
and runs the same seeded cases twice, in one subprocess per tree: the base
commit's ``src/`` and this checkout's ``src/``, both under PYTHONHASHSEED=0.
Nothing is fetched.  With ``--hash-seeds``, runs this checkout's ``src/``
once per listed PYTHONHASHSEED and compares every later run with the first,
which shows results that depend on the order in which sets iterate.  The
cases are random snapshot sequences and interval graphs drawn with stdlib
``random`` (mixed time denominators, latency in {0, 1/3, 1/2, 1}); on
interval graphs the query times, window bounds and steps are also drawn on
fifths, off every graph's grid, so the searches rescale their integer view.
They call

* ``earliest_arrival`` (every table field), ``latest_departure``,
  ``shortest_journey``, ``fastest_journey`` (for every ordered pair, over
  the whole trace and over a drawn window),
  ``temporal_distance``, ``eccentricity``, ``temporal_diameter_at``,
  ``foremost_tree_intervals`` and the interval ``sliding_metric`` (once
  with a drawn width and step, once with a step that asks for more windows
  than the limit, which raises ``ContractError``);
* ``validate_journey`` on every journey that ``earliest_arrival`` (through
  ``journey_to``, for every node), ``shortest_journey`` and
  ``fastest_journey`` return, and on interval graphs ``supports_hop`` on
  every edge and one absent pair, at times drawn on run ends;
* ``steady_progress_alpha`` for both kinds, with and without ``pair`` and
  ``window``, and once more on interval cases, for a drawn kind, over all
  pairs or a drawn pair of a larger graph drawn for the case (5 to 7 nodes),
  whose search inside one whole tick tries fractions i / j up to j = 7;
* ``min_temporal_separator`` and ``max_disjoint_journeys`` for both kinds
  and a drawn pair of distinct nodes;
* ``relabel.run`` for every protocol, three runs sharing one rng, and
  ``simforest.run`` with ``checks=True``;
* on sequences, ``strict_closure`` and ``nonstrict_closure``, and for both
  kinds ``roundtrip_closure`` (over the whole trace and a drawn window),
  ``concat_roundtrip`` of two adjacent drawn windows,
  ``is_roundtrip_connected`` (over the same two spans) and
  ``maximal_temporal_components``, and once more, for a drawn kind, on a
  larger sparse sequence drawn for the case (8 to 12 nodes, 3 to 8
  snapshots, each pair present with probability 0.1, 0.15 or 0.2, no node
  limit), whose candidates refine over several levels;
* on sequences, the window algebra for both kinds: ``hierarchy.extremal``
  and ``hierarchy.decide`` (value and ``ops``) and ``IncrementalDecide``
  (verdicts and ``all_pass``) on ``tinterval``, ``footprint_realization``,
  ``tdiameter`` and ``rt_tdiameter``; ``relabel.check_conditions`` for every
  protocol;
* ``finite_class_membership`` for every class and kind (12 calls),
  ``classes.classify``, ``core.stats``, and ``classes.verify_covering`` in
  all three modes, with covers drawn from the nodes (an evolving cover has
  one stage per snapshot of the discretization) that now and then name an
  unknown node or, on a sequence, have one stage too many;
* every ``tempnet`` verb through ``tempnet.cli.main``, all in the worker's one
  process: random options on the case's trace (a JSON file, a link-stream
  CSV or stdin), now and then with ``--out FILE``, plus one usage error or
  ``--help`` per case.

With ``--models``, draws ``--cases`` random snapshot sequences as the cases
above do, and checks this checkout's ``src/`` against itself across the two
time models: each sequence's answers, mapped to what its interval form
(``to_intervals``, latency 1) should answer, against that form's answers.
On the sequence, a time t that journeys leave just after, or arrive by, is
t + 1 in the interval form; an earliest arrival by snapshot a is an arrival
at a + 1 there, with the same parents and hop counts; and a shortest journey
keeps its hops and lasts 1 longer (a sequence's journeys carry latency None).
The calls are ``temporal_diameter_at``, ``temporal_distance``,
``eccentricity`` and ``latest_departure`` at every t in 0..delta - 1, and
``earliest_arrival`` and ``shortest_journey`` from every t0 in 0..delta, for
every node or ordered pair and both kinds.  Times compare as values (an int
and a ``Fraction`` of one value are equal); errors compare by type and message.

Each result is compared as a value together with its types, and each raised
error by its type and message; each CLI call by its exit code, stdout,
stderr and the ``--out`` file.  Prints the number of calls and differences
per function or verb, then the differences grouped by function, base
outcome and new outcome (a value, an error's type, or a CLI exit code): a
count per group and its first few examples.  Under ``--hash-seeds`` the
first seed's run is the base, and the counts add up over the later runs.
Exits 1 when any case differs.
"""

from __future__ import annotations

import argparse
import contextlib
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
CLASS_NAMES = ("J1A", "JA1", "TC", "TCrt", "E1A", "K")
LATENCIES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
DENOMINATORS = (1, 2, 3, 4, 6)
QUERY_DENOMINATORS = (*DENOMINATORS, 5)  # interval query times; graph endpoints keep DENOMINATORS
EXAMPLES = 2  # differences printed per group


# ---------------------------------------------------------------- case generation


def random_sequence(rng: random.Random, n=(2, 5), delta=(1, 5), ps=(0.2, 0.4, 0.7)):
    from tempnet.core import SnapshotSequence, edge

    names = [f"v{i}" for i in range(rng.randint(*n))]
    pairs = [edge(a, b) for a, b in itertools.combinations(names, 2)]
    p = rng.choice(ps)
    snaps = tuple(
        frozenset(e for e in pairs if rng.random() < p) for _ in range(rng.randint(*delta))
    )
    return SnapshotSequence(frozenset(names), snaps)


def random_time(rng: random.Random, hi: int, denominators=DENOMINATORS) -> Fraction:
    den = rng.choice(denominators)
    return Fraction(rng.randint(0, hi * den), den)


def random_interval_graph(rng: random.Random, n=(2, 4)):
    from tempnet.core import IntervalGraph

    names = [f"v{i}" for i in range(rng.randint(*n))]
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
    from tempnet import classes, relabel, simforest, windows
    from tempnet import closure as C
    from tempnet import hierarchy as H
    from tempnet import journeys as J
    from tempnet.core import discretize, footprint, stats, supports_hop

    nodes = sorted(g.nodes)
    hi = g.delta if discrete else int(g.span[1])

    def when():
        # mostly valid times; now and then a fraction on a sequence or a bound
        # outside the lifetime, so error messages are compared too
        t = rng.randint(0, hi) if discrete else random_time(rng, hi, QUERY_DENOMINATORS)
        return Fraction(1, 2) + t if rng.random() < 0.05 else t

    def window():
        a, b = sorted((when(), when()))
        return (a, b + 1) if discrete else (a, b + Fraction(1, rng.choice(QUERY_DENOMINATORS)))

    out = [("finite_class_membership", partial(classes.finite_class_membership, g, name, kind))
           for name in CLASS_NAMES for kind in KINDS]
    out.append(("classify", partial(classes.classify, g)))

    def cover():
        chosen = [v for v in nodes if rng.random() < 0.5]
        return [*chosen, "v9"] if rng.random() < 0.05 else chosen

    stages = g.delta + (rng.random() < 0.05) if discrete else discretize(g).sequence.delta
    out += [("core.stats", partial(stats, g)),
            *[("verify_covering", partial(classes.verify_covering, g, cover(), mode))
              for mode in ("temporal", "permanent")],
            ("verify_covering", partial(classes.verify_covering, g,
                                        [cover() for _ in range(stages)], "evolving"))]
    for kind in KINDS:
        u, v = rng.choice(nodes), rng.choice(nodes)
        foremost = partial(J.earliest_arrival, g, u, when(), kind, rng.choice((None, when())))
        latest = partial(J.latest_departure, g, u, v, when(), kind)
        shortest = partial(J.shortest_journey, g, u, v, when(), kind)
        # the candidate sweep: every ordered pair, over the lifetime and a drawn window
        fastest = [partial(J.fastest_journey, g, a, b, w, kind)
                   for a, b in itertools.permutations(nodes, 2) for w in (None, window())]
        out += [
            ("earliest_arrival", foremost),
            ("latest_departure", latest),
            ("shortest_journey", shortest),
            *[("fastest_journey", call) for call in fastest],
            *[("validate_journey", partial(validated, g, call))
              for call in (foremost, shortest, *fastest)],
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, None, kind)),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, window(), kind)),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, None, kind, (u, v))),
            ("steady_progress_alpha", partial(J.steady_progress_alpha, g, window(), kind, (u, v))),
            ("temporal_distance", partial(J.temporal_distance, g, u, when(), kind)),
            ("eccentricity", partial(J.eccentricity, g, u, when(), kind)),
            ("temporal_diameter_at", partial(J.temporal_diameter_at, g, when(), kind)),
        ]
        s, t = rng.sample(nodes, 2)
        out += [("min_temporal_separator", partial(J.min_temporal_separator, g, s, t, kind)),
                ("max_disjoint_journeys", partial(J.max_disjoint_journeys, g, s, t, kind))]
        if not discrete:
            out.append(("foremost_tree_intervals",
                        partial(J.foremost_tree_intervals, g, u, window(), kind)))
    if discrete:
        out += [("strict_closure", partial(C.strict_closure, g)),
                ("nonstrict_closure", partial(C.nonstrict_closure, g))]
        for kind in KINDS:
            # adjacent windows [a, m) and [m, b); an empty one is an error to compare
            a, m, b = sorted(rng.randint(0, hi) for _ in range(3))
            out += [
                ("roundtrip_closure", partial(C.roundtrip_closure, g, None, kind)),
                ("roundtrip_closure", partial(C.roundtrip_closure, g, window(), kind)),
                ("concat_roundtrip", partial(concat_windows, g, a, m, b, kind)),
                ("is_roundtrip_connected", partial(roundtrip_connected, g, None, kind)),
                ("is_roundtrip_connected", partial(roundtrip_connected, g, window(), kind)),
                ("maximal_temporal_components", partial(C.maximal_temporal_components, g, kind)),
            ]
        for algo in relabel.ALGORITHMS:
            out.append(("relabel.run", partial(relabel_runs, g, algo, rng.randrange(2**32),
                                               emitter=rng.choice(nodes),
                                               sentinel=rng.choice(nodes))))
        out.append(("simforest.run",
                    partial(simforest.run, g, rng=random.Random(rng.randrange(2**32)),
                            merge_rule=rng.choice(("min", "random")), checks=True)))
        for algo in relabel.ALGORITHMS:
            out.append(("relabel.check_conditions",
                        partial(relabel.check_conditions, g, algo, emitter=rng.choice(nodes),
                                sentinel=rng.choice(nodes))))
        for kind in KINDS:
            for algebra in (H.tinterval(), H.footprint_realization(footprint(g)),
                            H.tdiameter(kind), H.rt_tdiameter(kind)):
                out += [
                    ("hierarchy.extremal", partial(H.extremal, algebra, g)),
                    # r = 0 and r = delta + 1 now and then, so range errors are compared too
                    ("hierarchy.decide", partial(H.decide, algebra, g, rng.randint(0, hi + 1))),
                    ("IncrementalDecide", partial(incremental_verdicts, algebra, g,
                                                  rng.randint(0, hi + 1))),
                ]
        # sparse enough to split into several components, so candidates refine more than once
        sparse = random_sequence(rng, (8, 12), (3, 8), (0.1, 0.15, 0.2))
        out.append(("maximal_temporal_components",
                    partial(C.maximal_temporal_components, sparse, rng.choice(KINDS), None)))
    else:
        metric = rng.choice(("tc", "tdiam", f"ecc:{rng.choice(nodes)}"))
        width = Fraction(rng.randint(1, 2 * hi), 2)
        step = Fraction(1, rng.choice(QUERY_DENOMINATORS))
        out.append(("sliding_metric", partial(windows.sliding_metric, g, metric, width, step)))
        # every lifetime is 2 or longer, so steps of 1/10,000 ask for past 10,000 windows
        out.append(("sliding_metric", partial(windows.sliding_metric, g, metric,
                                              Fraction(1, 2), Fraction(1, 10_000))))
        for e in [*sorted(g.edges), ("v0", "v9")]:  # v9 is never a node: an absent pair
            ends = [x for run in g.edges.get(e, ()) for x in run]
            for t in [*rng.sample(ends, min(len(ends), 3)), when()]:
                out.append(("supports_hop", partial(supports_hop, g, e, t)))
        big = random_interval_graph(rng, (5, 7))
        pair = rng.choice((None, tuple(rng.sample(sorted(big.nodes), 2))))
        out.append(("steady_progress_alpha",
                    partial(J.steady_progress_alpha, big, None, rng.choice(KINDS), pair)))
    return out


def validated(g, call):
    """``validate_journey`` on every journey that call returns: one journey or
    None, or a table's ``journey_to`` for every node."""
    from tempnet.journeys import ReachabilityTable, validate_journey

    found = call()
    journeys = ([found.journey_to(v) for v in sorted(g.nodes)]
                if isinstance(found, ReachabilityTable) else [found])
    return [None if j is None else validate_journey(g, j) for j in journeys]


def concat_windows(g, a: int, m: int, b: int, kind: str):
    """``concat_roundtrip`` of the round-trip closures of [a, m) and [m, b)."""
    from tempnet.closure import concat_roundtrip, roundtrip_closure

    return concat_roundtrip(roundtrip_closure(g, (a, m), kind), roundtrip_closure(g, (m, b), kind))


def roundtrip_connected(g, window, kind: str) -> bool:
    from tempnet.closure import is_roundtrip_connected, roundtrip_closure

    return is_roundtrip_connected(roundtrip_closure(g, window, kind))


def incremental_verdicts(algebra, g, r: int):
    """Every window verdict of an ``IncrementalDecide`` fed the whole sequence, and
    ``all_pass``.  Its ``ops`` are left out: a stream that ends on a failing window
    has made one pop fewer since ``decide`` runs on it."""
    from tempnet.hierarchy import IncrementalDecide

    inc = IncrementalDecide(algebra, r)
    return [inc.append(g.graph_at(t)) for t in range(g.delta)], inc.all_pass


def relabel_runs(g, algorithm: str, seed: int, **members):
    """Three runs sharing one rng, as ``sim relabel --runs`` makes them, and
    the rng's next draw, which shows whether the runs consumed it alike."""
    from tempnet import relabel

    rng = random.Random(seed)
    runs = [relabel.run(g, algorithm, rng=rng, **members) for _ in range(3)]
    return runs, rng.random()


def cli_calls_for(rng: random.Random, g, discrete: bool):
    """(verb, argv, stdin) triples on a trace of g written to the working directory."""
    from tempnet.io import dump_graph, dump_linkstream

    nodes = sorted(g.nodes)
    hi = g.delta if discrete else int(g.span[1])
    if discrete or rng.random() < 0.5:
        path, text = "trace.json", json.dumps(dump_graph(g))
    else:
        path, text = "trace.csv", dump_linkstream(g)
    Path(path).write_text(text)

    def src():
        return rng.choice((path, path, "-"))

    def when():
        t = rng.randint(0, hi) if discrete else random_time(rng, hi, QUERY_DENOMINATORS)
        return str(Fraction(1, 2) + t if rng.random() < 0.05 else t)

    def node():
        return rng.choice(nodes) if rng.random() < 0.95 else "nobody"

    def kind():
        return ["--kind", rng.choice(KINDS)]

    def maybe(*options):
        return list(options) if rng.random() < 0.5 else []

    mode = rng.choice(("foremost", "shortest", "fastest", "latest-departure",
                       "validate", "disjoint", "separator"))
    journey = ["journey", src(), "--mode", mode, "--from", node(), "--to", node(), *kind()]
    if mode == "fastest":
        journey += maybe("--window", when(), when())
    elif mode == "validate":
        walk = [rng.choice(nodes)]
        for _ in range(rng.randint(1, 3)):
            walk.append(rng.choice([v for v in nodes if v != walk[-1]]))
        times = sorted((when() for _ in walk[1:]), key=Fraction)
        hops = [[u, v, t] for u, v, t in zip(walk, walk[1:], times)]
        Path("journey.json").write_text(json.dumps({"hops": hops, "kind": rng.choice(KINDS)}))
        # mostly the walk; now and then no file, or a file that holds no journey
        journey += rng.choice(([], ["--journey", path], ["--journey", "journey.json"],
                               ["--journey", "journey.json"]))
    elif mode not in ("disjoint", "separator"):
        journey += ["--at", when()]
    name = rng.choice(("tinterval", "delta", "tdiam", "rtdiam", "period", "alpha"))
    param = ["param", src(), "--name", name, *kind()]
    if name == "alpha":
        param += maybe("--pair", node(), node()) + maybe("--window", when(), when())
    else:
        param += maybe("--decide", str(rng.randint(0, hi + 1)))
    algorithm = rng.choice(("broadcast", "count-sentinel", "count-uniform", "count-circulate"))
    step = Fraction(1, 1 if discrete else rng.choice(QUERY_DENOMINATORS))
    calls = [
        ("stats", ["stats", src()]),
        ("convert", ["convert", src(), "--to",
                     rng.choice(("snapshots", "intervals", "linkstream", "dot"))]
                    + maybe("--latency", rng.choice(("0", "1/3", "1")))),
        ("closure", ["closure", src(), *kind()]
                    + rng.choice(([], ["--dot"], ["--roundtrip"],
                                  ["--roundtrip", "--window", when(), when()]))),
        ("classify", ["classify", src()]),
        ("param", param),
        ("journey", journey),
        ("components", ["components", src(), *kind()]),
        ("robust-mis", ["robust-mis", src()] + maybe("--check", *rng.sample(nodes, 2))),
        ("sim forest", ["sim", "forest", src(), "--seed", str(rng.randint(0, 9)),
                        "--merge-rule", rng.choice(("min", "random"))] + maybe("--checks")),
        ("sim relabel", ["sim", "relabel", src(), "--algorithm", algorithm, "--runs", "3",
                         "--emitter", node(), "--sentinel", node()]
                        + maybe("--seed", str(rng.randint(0, 9)))),
        ("windows", ["windows", src(), "--metric",
                     rng.choice(("tc", "tdiam", f"ecc:{node()}")),
                     "--width", str(rng.randint(1, hi)), "--step", str(step * rng.randint(1, 2))]),
        ("usage", rng.choice((
            [], ["nope"], ["stats"], ["stats", path, "--bogus"], ["journey", path],
            ["param", path, "--name", "nope"], ["sim"], ["sim", "relabel", path],
            ["robust-mis", path, "--limit-n", "x"], ["--out"], ["--help"],
            ["journey", "--help"], ["sim", "forest", "-h"],
        ))),
    ]
    out = []
    for verb, argv in calls:
        if rng.random() < 0.1:
            argv = ["--out", "out.txt", *argv]
        out.append((verb, argv, text if "-" in argv else ""))
    return out


def run_cli(argv: list[str], stdin: str) -> list:
    from tempnet.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors and --help
                code = exc.code
            except Exception as exc:  # a traceback is an outcome to compare too
                code = ["crash", type(exc).__name__, str(exc)]
    finally:
        sys.stdin = saved
    written = Path("out.txt")
    result = ["exit", code, out.getvalue(), err.getvalue(),
              written.read_text() if written.exists() else None]
    written.unlink(missing_ok=True)
    return result


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
        cli_rng = random.Random(f"cli/{seed}/{case}")
        for i, (verb, argv, stdin) in enumerate(cli_calls_for(cli_rng, g, discrete)):
            print(json.dumps([f"cli {verb}", f"case {case}: tempnet {' '.join(argv)}",
                              run_cli(argv, stdin)]))


def outcome_kind(result: list) -> str:
    """'value', 'error <type>', 'exit <code>' or 'crash <type>': what a difference is grouped by."""
    if result[0] == "error":
        return f"error {result[1]}"
    if result[0] == "exit":
        code = result[1]
        return f"crash {code[1]}" if isinstance(code, list) else f"exit {code}"
    return result[0]


def run_tree(src: Path, args, hash_seed: int = 0) -> list:
    cmd = [sys.executable, "-s", str(Path(__file__).resolve()), "--worker", str(src),
           "--cases", str(args.cases), "--seed", str(args.seed)]
    # --base runs both trees under one hash seed, so dicts built from node
    # sets list them alike
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {
        "PYTHONHASHSEED": str(hash_seed)}
    # the CLI cases write their traces to the working directory, the same
    # relative names in both runs
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)
    if done.returncode != 0:
        sys.exit(f"differential: the run on {src} failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def report(title: str, runs: list[tuple[str, list]]) -> int:
    """Compare every run with the first; print the counts and the grouped differences."""
    (first, base), *rest = runs
    counts: dict[str, list[int]] = {}
    groups: dict[tuple[str, str, str], list] = {}
    for label, head in rest:
        if [r[:2] for r in base] != [r[:2] for r in head]:
            sys.exit(f"differential: the {first} and {label} runs made different calls")
        for (name, where, want), (_, _, got) in zip(base, head):
            tally = counts.setdefault(name, [0, 0])
            tally[0] += 1
            if want != got:
                tally[1] += 1
                key = (name, outcome_kind(want), outcome_kind(got))
                groups.setdefault(key, []).append((label, where, want, got))
    print(title)
    for name, (n, d) in sorted(counts.items()):
        print(f"  {name:26} {n:6} calls {d:6} differences")
    total = sum(d for _, d in counts.values())
    print(f"  {'total':26} {sum(n for n, _ in counts.values()):6} calls {total:6} differences")
    for (name, was, now), found in sorted(groups.items()):
        print(f"\n{name}: {was} -> {now}: {len(found)} differences")
        for label, where, want, got in found[:EXAMPLES]:
            print(f"  {where}:")
            print(f"    {first}: {json.dumps(want)[:400]}\n    {label}: {json.dumps(got)[:400]}")
    return 1 if groups else 0


# ---------------------------------------------------------------- the two time models


def plain(x):
    """x with every time as its exact value's string, so an int and a Fraction of one value
    agree, and a journey as its hops, hop count and duration."""
    from tempnet.journeys import Journey

    if isinstance(x, Journey):
        return {"hops": plain(x.hops), "hop_count": x.hop_count, "duration": plain(x.duration)}
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return str(Fraction(x))
    return x if x is None or isinstance(x, str) else repr(x)


def model_runs(cases: int, seed: int) -> list[tuple[str, list]]:
    """The ``--models`` runs: each call's sequence answer mapped to the interval form's
    conventions, and the interval form's answer, as records ``report`` compares."""
    sys.path.insert(0, str(ROOT / "src"))
    from tempnet import journeys as J
    from tempnet.core import to_intervals

    def foremost(g, u, t0, kind, gain):
        table = J.earliest_arrival(g, u, t0, kind)
        arrival = {v: a if v == u else a + gain for v, a in table.arrival.items()}
        return {"arrival": arrival, "parent": table.parent, "hops": table.hops}

    def shortest(g, u, v, t0, kind, gain):
        j = J.shortest_journey(g, u, v, t0, kind)
        out = plain(j)
        if j is not None and j.hops:
            out["duration"] = plain(j.duration + gain)
        return out

    runs: tuple[list, list] = ([], [])

    def record(name, where, *calls):
        for out, call in zip(runs, calls):
            try:
                result = ["value", plain(call())]
            except Exception as e:  # an error is an outcome to compare too
                result = ["error", type(e).__name__, str(e)]
            out.append([name, where, result])

    rng = random.Random(seed)
    for case in range(cases):
        seq = random_sequence(rng)
        g, nodes = to_intervals(seq), sorted(seq.nodes)
        for kind, t in itertools.product(KINDS, range(seq.delta)):
            where = f"case {case} {kind} t={t}"
            record("temporal_diameter_at", where, partial(J.temporal_diameter_at, seq, t, kind),
                   partial(J.temporal_diameter_at, g, t + 1, kind))
            for u in nodes:
                for name in ("temporal_distance", "eccentricity"):
                    fn = getattr(J, name)
                    record(name, f"{where} from {u}", partial(fn, seq, u, t, kind),
                           partial(fn, g, u, t + 1, kind))
                for v in nodes:
                    # a journey u ~> u departs at the bound itself: t here, t + 1 there
                    expect = ((lambda: t + 1) if u == v
                              else partial(J.latest_departure, seq, u, v, t, kind))
                    record("latest_departure", f"{where} {u}->{v}", expect,
                           partial(J.latest_departure, g, u, v, t + 1, kind))
        for kind, t0 in itertools.product(KINDS, range(seq.delta + 1)):
            where = f"case {case} {kind} t0={t0}"
            for u in nodes:
                record("earliest_arrival", f"{where} from {u}",
                       partial(foremost, seq, u, t0, kind, 1), partial(foremost, g, u, t0, kind, 0))
                for v in nodes:
                    record("shortest_journey", f"{where} {u}->{v}",
                           partial(shortest, seq, u, v, t0, kind, 1),
                           partial(shortest, g, u, v, t0, kind, 0))
    return [("sequence, mapped", runs[0]), ("interval form", runs[1])]


def hash_seed_list(text: str) -> list[int]:
    seeds = [int(x) for x in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("give at least two hash seeds, such as 0,1")
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="commit to compare with (anything git rev-parse takes)")
    ap.add_argument("--hash-seeds", type=hash_seed_list, metavar="S,S,...",
                    help="compare runs of this checkout under these PYTHONHASHSEED values")
    ap.add_argument("--models", action="store_true",
                    help="compare each random sequence's answers with its interval form's")
    ap.add_argument("--cases", type=int, default=300,
                    help="random graphs, half of each model (with --models, sequences)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker, args.cases, args.seed)
        return 0
    if sum(map(bool, (args.base, args.hash_seeds, args.models))) != 1:
        ap.error("give one of --base, --hash-seeds and --models")
    if args.models:
        return report(f"sequences vs their interval forms, {args.cases} sequences, "
                      f"seed {args.seed}", model_runs(args.cases, args.seed))
    if args.hash_seeds:
        runs = [(f"hash seed {h}", run_tree(ROOT / "src", args, h)) for h in args.hash_seeds]
        return report(f"this checkout under hash seeds {','.join(map(str, args.hash_seeds))}, "
                      f"{args.cases} graphs, seed {args.seed}", runs)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"differential: git archive {args.base} failed: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        base = run_tree(Path(tmp) / "src", args)
    head = run_tree(ROOT / "src", args)
    return report(f"base {args.base} vs this checkout, {args.cases} graphs, seed {args.seed}",
                  [("base", base), ("here", head)])


if __name__ == "__main__":
    sys.exit(main())
