"""Seeded trace generators and the job list of each benchmark workload.

Everything here is stdlib only.  A workload is built from ``--seed`` alone:
the generators write trace files into a work directory, and the program
under test sees only those files (CLI jobs) or the object loaded from them
(library jobs).  Each job is one user-visible call: a ``tempnet`` verb run
through ``tempnet.cli.main``, or one library query on a loaded trace.

Module attributes of ``tempnet`` are looked up when a job runs, never bound
here, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Full-scale sizes keep one pass near 3 s on a 2.1 GHz Xeon, so that a run
# repeats every job several times and reports per-job medians.  The toy
# scale exists for the smoke test and keeps every check on.
SCALES = {
    "full": {
        "snap-large": {"n": 24, "delta": 160, "p": 0.07},
        "interval-queries": {"n": 20, "quarters": 160, "presences": 240, "edges": 136},
        "small-many": {"traces": 16, "n": (9, 12), "delta": (10, 30), "p": 0.2},
    },
    "toy": {
        "snap-large": {"n": 8, "delta": 40, "p": 0.2},
        "interval-queries": {"n": 7, "quarters": 80, "presences": 40, "edges": 18},
        "small-many": {"traces": 3, "n": (6, 7), "delta": (6, 10), "p": 0.3},
    },
}

WORKLOADS = tuple(SCALES["full"])


@dataclass
class CliResult:
    code: int
    out: str
    err: str

    def problem(self) -> str | None:
        """A non-zero exit or a traceback makes the job fail."""
        if self.code != 0:
            return f"exit {self.code}: {self.err.strip()[:200]}"
        if "Traceback" in self.err:
            return "traceback on stderr"
        return None


@dataclass
class Job:
    name: str
    group: str
    call: Callable[[], object]
    # turns the call's result into the text whose digest is checked
    render: Callable[[object], str]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # what the output checks need: trace paths, snapshot counts, loaded objects
    context: dict = field(default_factory=dict)


def node_names(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"v{i:0{width}d}" for i in range(n)]


def gnp_snapshots(rng: random.Random, nodes, delta, p, banned=frozenset()):
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
             if (a, b) not in banned]
    return [[[a, b] for a, b in pairs if rng.random() < p] for _ in range(delta)]


def _connected(nodes, snapshots) -> bool:
    adj = {v: set() for v in nodes}
    for snap in snapshots:
        for a, b in snap:
            adj[a].add(b)
            adj[b].add(a)
    seen, stack = {nodes[0]}, [nodes[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nodes)


def write_snapshots(path: Path, nodes, snapshots) -> None:
    path.write_text(json.dumps({"format": "snapshots", "nodes": nodes,
                                "snapshots": snapshots}))


def linkstream_csv(rng: random.Random, n: int, quarters: int, presences: int,
                   edges: int) -> str:
    """Presences on a 1/4 grid over [0, quarters/4), never touching on one edge.

    The presences fall on exactly ``edges`` node pairs, each with at least
    one: with pairs drawn freely the number of edges varied by seed, and the
    pass time with it (2.3 s to 3.0 s over six seeds, against 2.4 s to 2.7 s
    with the count fixed).  Touching or overlapping presences would be merged or rejected at load
    time, so each edge's intervals keep a gap of at least one grid step.
    The first presence starts at 0 and the second ends at quarters/4, so the
    loaded lifetime is the whole range for every seed.
    """
    nodes = node_names(n)
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    pairs = rng.sample(pairs, edges)
    placed: dict[tuple[str, str], list[tuple[int, int]]] = {}
    rows = []
    while len(rows) < presences:
        k = len(rows)
        pair = pairs[k] if k < edges else pairs[rng.randrange(edges)]
        length = rng.randint(2, 16)
        start = rng.randrange(0, quarters - length + 1)
        if len(rows) < 2:
            start = 0 if not rows else quarters - length
        end = start + length
        ivs = placed.setdefault(pair, [])
        if any(start <= b and a <= end for a, b in ivs):
            continue
        ivs.append((start, end))
        rows.append(f"{pair[0]},{pair[1]},{Fraction(start, 4)},{Fraction(end, 4)}")
    return "u,v,start,end\n" + "\n".join(rows) + "\n"


def cli_call(argv: list[str]) -> CliResult:
    import tempnet.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tempnet.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_job(name, group, argv) -> Job:
    return Job(name, group, lambda: cli_call(argv), lambda r: r.out)


# ---------------------------------------------------------------- snap-large


def build_snap_large(seed: int, workdir: Path, scale: str) -> Workload:
    cfg = SCALES[scale]["snap-large"]
    rng = random.Random(f"snap-large/{seed}")
    nodes = node_names(cfg["n"])
    delta = cfg["delta"]
    snaps = gnp_snapshots(rng, nodes, delta, cfg["p"])
    path = workdir / "snap-large.json"
    write_snapshots(path, nodes, snaps)
    f = str(path)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(2)]
    emitter = rng.choice(nodes)
    width, step = max(1, delta // 8), max(1, delta // 40)
    decide_r = max(1, delta // 4)
    jobs = [
        _cli_job("closure.strict", "closure", ["closure", "--kind", "strict", f]),
        _cli_job("closure.nonstrict", "closure", ["closure", "--kind", "nonstrict", f]),
        _cli_job("closure.roundtrip", "closure", ["closure", "--roundtrip", f]),
        _cli_job("param.tinterval", "params", ["param", "--name", "tinterval", f]),
        _cli_job("param.delta", "params", ["param", "--name", "delta", f]),
        _cli_job("param.period", "params", ["param", "--name", "period", f]),
        _cli_job("param.tdiam.strict", "params",
                 ["param", "--name", "tdiam", "--kind", "strict", f]),
        _cli_job("param.tdiam.nonstrict", "params",
                 ["param", "--name", "tdiam", "--kind", "nonstrict", f]),
        _cli_job("param.rtdiam", "params", ["param", "--name", "rtdiam", f]),
        _cli_job("param.tdiam.decide", "params",
                 ["param", "--name", "tdiam", "--decide", str(decide_r), f]),
    ]
    for i, (u, v) in enumerate(pairs):
        jobs.append(_cli_job(f"journey.fastest.{i}", "fastest",
                             ["journey", "--mode", "fastest", "--from", u, "--to", v, f]))
    for metric in ("tc", "tdiam"):
        jobs.append(_cli_job(f"windows.{metric}", "windows",
                             ["windows", "--metric", metric, "--width", str(width),
                              "--step", str(step), f]))
    jobs += [
        _cli_job("sim.forest", "sim",
                 ["sim", "forest", "--checks", "--merge-rule", "random", f]),
        _cli_job("sim.relabel.broadcast", "sim",
                 ["sim", "relabel", "--algorithm", "broadcast", "--emitter", emitter,
                  "--runs", "20", f]),
        _cli_job("sim.relabel.count-uniform", "sim",
                 ["sim", "relabel", "--algorithm", "count-uniform", "--runs", "20", f]),
    ]
    return Workload("snap-large", jobs, {"path": path, "delta": delta})


# ---------------------------------------------------------- interval-queries


def _fmt(t):
    from tempnet.io import format_time

    return format_time(t)


def _render_table(table) -> str:
    return json.dumps({
        "arrival": {v: _fmt(t) for v, t in sorted(table.arrival.items())},
        "parent": {v: [p, _fmt(s)] for v, (p, s) in sorted(table.parent.items())},
    })


def _render_journey(j) -> str:
    if j is None:
        return "null"
    return json.dumps([[u, v, _fmt(t)] for u, v, t in j.hops])


def _render_tree_intervals(parts) -> str:
    return json.dumps([[[_fmt(lo), _fmt(hi)], dict(sorted(shape.items()))]
                       for (lo, hi), shape in parts])


def _render_discretization(disc) -> str:
    from tempnet.io import dump_graph

    return json.dumps({"sequence": dump_graph(disc.sequence),
                       "spans": [[_fmt(a), _fmt(b)] for a, b in disc.spans]})


def _render_closure(c) -> str:
    from tempnet.io import closure_to_json

    return json.dumps(closure_to_json(c))


def build_interval_queries(seed: int, workdir: Path, scale: str) -> Workload:
    import tempnet.closure as C
    import tempnet.core as K
    import tempnet.io as IO
    import tempnet.journeys as J
    import tempnet.windows as W

    cfg = SCALES[scale]["interval-queries"]
    rng = random.Random(f"interval-queries/{seed}")
    path = workdir / "interval-queries.csv"
    path.write_text(linkstream_csv(rng, cfg["n"], cfg["quarters"], cfg["presences"],
                                   cfg["edges"]))
    nodes = node_names(cfg["n"])
    hi = Fraction(cfg["quarters"], 4)
    latency = Fraction(1, 2)
    sources = rng.sample(nodes, 3)
    root = rng.choice(nodes)
    fastest_pairs = [rng.sample(nodes, 2) for _ in range(2)]
    width, step = hi / 5, hi / 20
    state: dict = {}

    def load():
        state["g"] = IO.load_linkstream(path.read_text(), latency=latency)
        return state["g"]

    def disc():
        state["disc"] = K.discretize(state["g"])
        return state["disc"]

    jobs = [Job("load", "load", load, lambda g: IO.dump_linkstream(g))]
    for v in nodes:
        for k in range(10):
            t0 = hi * k / 10
            jobs.append(Job(f"ea.{v}.{k}", "foremost",
                            lambda v=v, t0=t0: J.earliest_arrival(state["g"], v, t0),
                            _render_table))
    for u in sources:
        for v in nodes:
            if v == u:
                continue
            jobs.append(Job(f"shortest.{u}.{v}", "foremost",
                            lambda u=u, v=v: J.shortest_journey(state["g"], u, v, 0),
                            _render_journey))
            jobs.append(Job(f"latest.{u}.{v}", "foremost",
                            lambda u=u, v=v: J.latest_departure(state["g"], u, v, hi),
                            lambda t: json.dumps(_fmt(t))))
    jobs.append(Job("foremost_tree", "foremost",
                    lambda: J.foremost_tree_intervals(state["g"], root, (0, hi / 4)),
                    _render_tree_intervals))
    for i, (u, v) in enumerate(fastest_pairs):
        jobs.append(Job(f"fastest.{i}", "fastest",
                        lambda u=u, v=v: J.fastest_journey(state["g"], u, v),
                        _render_journey))
    jobs += [
        Job("windows.tdiam", "windows",
            lambda: W.sliding_metric(state["g"], "tdiam", width, step),
            lambda s: s.to_csv()),
        Job("discretize", "closure", disc, _render_discretization),
        Job("closure.strict", "closure",
            lambda: C.strict_closure(state["disc"].sequence), _render_closure),
        Job("closure.nonstrict", "closure",
            lambda: C.nonstrict_closure(state["disc"].sequence), _render_closure),
    ]
    return Workload("interval-queries", jobs, {"state": state})


# ---------------------------------------------------------------- small-many


def build_small_many(seed: int, workdir: Path, scale: str) -> Workload:
    cfg = SCALES[scale]["small-many"]
    rng = random.Random(f"small-many/{seed}")
    jobs: list[Job] = []
    traces, deltas = {}, {}
    (n_lo, n_hi), (d_lo, d_hi) = cfg["n"], cfg["delta"]
    for k in range(cfg["traces"]):
        # sizes cycle through fixed values, so the seed changes only edges
        nodes = node_names(n_lo + k % (n_hi - n_lo + 1))
        delta = d_lo + (4 * k) % (d_hi - d_lo + 1)
        # the searched pair never meets, so disjoint/separator really search
        s, t = sorted(rng.sample(nodes, 2))
        while True:
            snaps = gnp_snapshots(rng, nodes, delta, cfg["p"], banned={(s, t)})
            if _connected(nodes, snaps):
                break
        tag = f"t{k:02d}"
        path = workdir / f"small-{tag}.json"
        write_snapshots(path, nodes, snaps)
        traces[tag], deltas[tag] = path, delta
        f = str(path)
        width, step = max(1, delta // 2), max(1, delta // 8)
        for name, group, argv in (
            ("stats", "convert", ["stats", f]),
            ("convert", "convert", ["convert", "--to", "linkstream", f]),
            ("closure", "closure", ["closure", f]),
            ("closure.roundtrip", "closure", ["closure", "--roundtrip", f]),
            ("classify", "classify", ["classify", f]),
            ("components", "search", ["components", f]),
            ("robust-mis", "search", ["robust-mis", f]),
            ("journey.disjoint", "search",
             ["journey", "--mode", "disjoint", "--from", s, "--to", t, f]),
            ("journey.separator", "search",
             ["journey", "--mode", "separator", "--from", s, "--to", t, f]),
            ("param.alpha", "search", ["param", "--name", "alpha", f]),
            ("param.tdiam", "params", ["param", "--name", "tdiam", f]),
            ("sim.forest", "sim", ["sim", "forest", "--checks", f]),
            ("windows.tdiam", "windows",
             ["windows", "--metric", "tdiam", "--width", str(width),
              "--step", str(step), f]),
        ):
            jobs.append(_cli_job(f"{tag}.{name}", group, argv))
    return Workload("small-many", jobs, {"traces": traces, "delta": deltas})


BUILDERS = {
    "snap-large": build_snap_large,
    "interval-queries": build_interval_queries,
    "small-many": build_small_many,
}
