"""Cross-checks of one pass's outputs, valid for any seed.

Each check function takes the workload, the rendered output text of every
job and the raw results of library jobs, and returns {job name: problem}
for the jobs whose output is wrong.  Checks run after timing, with the
tracer removed, and call the library directly as a second computation.
"""

from __future__ import annotations

import json
from fractions import Fraction

from tempnet import closure as C
from tempnet import journeys as J
from tempnet.core import SnapshotSequence, footprint
from tempnet.io import format_time, journey_from_json, load_graph

from spans import HIERARCHY_BUDGET
from workloads import cli_call


def _reach_sets(g, kind):
    """Earliest-arrival tables from time 0 of every source, and their arcs."""
    tables = {u: J.earliest_arrival(g, u, 0, kind) for u in sorted(g.nodes)}
    return tables, {(u, v) for u, t in tables.items() for v in t.arrival if v != u}


def _check_closure(text, arcs):
    got = {tuple(a) for a in json.loads(text)["arcs"]}
    if got != arcs:
        return f"closure arcs differ from earliest-arrival reach sets on {len(got ^ arcs)} arcs"
    return None


def _check_prefixes(seq, lengths=(1, 2, 3)):
    """Library closures of the first snapshots equal their reach sets.

    Over a whole dense trace every pair is reachable, so a closure that
    adds arcs would still match; over one to three snapshots reach sets are
    far from complete and strict differs from non-strict.
    """
    for k in lengths:
        if k > seq.delta:
            break
        prefix = SnapshotSequence(seq.nodes, seq.snapshots[:k])
        tables, arcs = _reach_sets(prefix, "strict")
        if set(C.strict_closure(prefix).arcs) != arcs:
            return f"strict closure of the first {k} snapshots differs from reach sets"
        if set(C.nonstrict_closure(prefix).arcs) != _reach_sets(prefix, "nonstrict")[1]:
            return f"non-strict closure of the first {k} snapshots differs from reach sets"
        rt = C.roundtrip_closure(prefix)
        if {a: ea for a, (ea, _) in rt.arcs.items()} != {
                (u, v): t for u, tab in tables.items()
                for v, t in tab.arrival.items() if v != u}:
            return f"round-trip closure of the first {k} snapshots differs from reach sets"
    return None


def _check_roundtrip(text, tables):
    for arc in json.loads(text)["arcs"]:
        ea = tables[arc["u"]].arrival.get(arc["v"])
        if ea is None or format_time(ea) != arc["ea"]:
            return f"round-trip arc {arc['u']}->{arc['v']} ea {arc['ea']} != {ea}"
    reached = sum(len(t.arrival) - 1 for t in tables.values())
    if reached != len(json.loads(text)["arcs"]):
        return "round-trip arcs differ from earliest-arrival reach sets"
    return None


def _check_journey(g, j, payload=None):
    """The journey is valid and its departure and arrival match the payload."""
    if not J.validate_journey(g, j):
        return "returned journey fails validate_journey"
    if payload is not None:
        if not payload.get("valid"):
            return "payload says the journey is invalid"
        for key in ("departure", "arrival", "duration"):
            if payload[key] != format_time(getattr(j, key)):
                return f"payload {key} {payload[key]} != {format_time(getattr(j, key))}"
    return None


def _check_param_ops(text, delta, mode):
    ops = json.loads(text)["ops"]
    total = ops["compose"] + ops["test"]
    budget = HIERARCHY_BUDGET[f"hierarchy.{mode}"]
    if total > budget * delta:
        return f"{total} compose+test ops exceed the {budget}*{delta} budget"
    return None


def _check_forest(text, delta):
    series = json.loads(text)["series"]
    if len(series) != delta:
        return f"{len(series)} forest rows for {delta} snapshots"
    for row in series:
        per = row["trees_per_component"]
        if sum(per) != row["trees"] or min(per) < 1:
            return f"forest row {row['t']}: trees {row['trees']} vs per component {per}"
    return None


def _record(problems, name, problem):
    if problem is not None:
        problems[name] = problem


def check_snap_large(wl, out, results):
    problems: dict[str, str] = {}
    path, delta = wl.context["path"], wl.context["delta"]
    g = load_graph(path.read_text())
    tables, strict_arcs = _reach_sets(g, "strict")
    _, nonstrict_arcs = _reach_sets(g, "nonstrict")
    _record(problems, "closure.strict", _check_closure(out["closure.strict"], strict_arcs))
    _record(problems, "closure.nonstrict",
            _check_closure(out["closure.nonstrict"], nonstrict_arcs))
    _record(problems, "closure.roundtrip", _check_roundtrip(out["closure.roundtrip"], tables))
    _record(problems, "closure.strict", _check_prefixes(g))
    for name in out:
        if name.startswith("param.") and name != "param.period":
            mode = "decide" if name.endswith(".decide") else "extremal"
            _record(problems, name, _check_param_ops(out[name], delta, mode))
        if name.startswith("journey.fastest."):
            payload = json.loads(out[name])["journey"]
            if payload is None:
                continue
            j = journey_from_json(payload)
            problem = _check_journey(g, j, payload)
            foremost = tables[j.hops[0][0]].journey_to(j.hops[-1][1])
            if problem is None and foremost.duration < j.duration:
                problem = "a foremost journey is faster than the fastest journey"
            _record(problems, name, problem)
    tc = out["windows.tc"].split()[1:]
    tdiam = out["windows.tdiam"].split()[1:]
    for a, b in zip(tc, tdiam):
        if (a.split(",")[1] == "1") != (b.split(",")[1] != "inf"):
            _record(problems, "windows.tc", f"tc {a} disagrees with tdiam {b}")
            break
    _record(problems, "sim.forest", _check_forest(out["sim.forest"], delta))
    for name in ("sim.relabel.broadcast", "sim.relabel.count-uniform"):
        res = json.loads(out[name])
        if res["sufficient"] and res["success_rate"] != 1:
            _record(problems, name, "sufficient condition holds but a run failed")
        if res["necessary"] is False and res["success_rate"] != 0:
            _record(problems, name, "necessary condition fails but a run succeeded")
    return problems


def check_interval_queries(wl, out, results):
    problems: dict[str, str] = {}
    state = wl.context["state"]
    g = state["g"]
    tables = {u: results[f"ea.{u}.0"] for u in g.nodes}  # departures from time 0
    for name, text in out.items():
        kind = name.split(".")[0]
        if kind in ("shortest", "latest"):
            _, u, v = name.split(".")
            reachable = v in tables[u].arrival
            if (text != "null") != reachable:
                _record(problems, name, f"{kind} result {text} but reachable={reachable}")
        if kind == "shortest" and text != "null":
            j = results[name]
            problem = _check_journey(g, j)
            foremost = tables[j.hops[0][0]].journey_to(j.hops[-1][1])
            if problem is None and foremost.hop_count < j.hop_count:
                problem = "a foremost journey has fewer hops than the shortest one"
            _record(problems, name, problem)
        if kind == "fastest" and text != "null":
            j = results[name]
            problem = _check_journey(g, j)
            foremost = tables[j.hops[0][0]].journey_to(j.hops[-1][1])
            if problem is None and foremost.duration < j.duration:
                problem = "a foremost journey is faster than the fastest journey"
            _record(problems, name, problem)
    parts = json.loads(out["foremost_tree"])
    bounds = [Fraction(p[0][0]) for p in parts] + [Fraction(parts[-1][0][1])]
    ends = [Fraction(p[0][1]) for p in parts]
    if bounds[0] != 0 or bounds[1:] != ends:
        _record(problems, "foremost_tree", "tree intervals do not partition the window")
    seq = state["disc"].sequence
    for kind in ("strict", "nonstrict"):
        _, arcs = _reach_sets(seq, kind)
        _record(problems, f"closure.{kind}", _check_closure(out[f"closure.{kind}"], arcs))
    _record(problems, "closure.strict", _check_prefixes(seq))
    return problems


def _first_tc_width(path, delta):
    """Smallest width whose discrete ``windows --metric tc`` series is all 1s."""

    def all_tc(width):
        res = cli_call(["windows", "--metric", "tc", "--width", str(width),
                        "--step", "1", str(path)])
        return all(line.endswith(",1") for line in res.out.split()[1:])

    if not all_tc(delta):
        return None
    lo, hi = 1, delta  # temporal connectivity of every window grows with width
    while lo < hi:
        mid = (lo + hi) // 2
        if all_tc(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def check_small_many(wl, out, results):
    problems: dict[str, str] = {}
    for k, (tag, path) in enumerate(sorted(wl.context["traces"].items())):
        g = load_graph(path.read_text())
        delta = wl.context["delta"][tag]
        tables, arcs = _reach_sets(g, "strict")
        _record(problems, f"{tag}.closure", _check_closure(out[f"{tag}.closure"], arcs))
        _record(problems, f"{tag}.closure.roundtrip",
                _check_roundtrip(out[f"{tag}.closure.roundtrip"], tables))
        _record(problems, f"{tag}.closure", _check_prefixes(g))
        tdiam = json.loads(out[f"{tag}.param.tdiam"])["value"]
        _record(problems, f"{tag}.param.tdiam",
                _check_param_ops(out[f"{tag}.param.tdiam"], delta, "extremal"))
        if json.loads(out[f"{tag}.classify"])["tdiam"] != tdiam:
            _record(problems, f"{tag}.classify", "classify tdiam differs from param tdiam")
        if k == 0 and _first_tc_width(path, delta) != tdiam:
            _record(problems, f"{tag}.param.tdiam",
                    "param tdiam differs from the first all-tc window width")
        disjoint = json.loads(out[f"{tag}.journey.disjoint"])["value"]
        separator = json.loads(out[f"{tag}.journey.separator"])["value"]
        if not disjoint <= separator:
            _record(problems, f"{tag}.journey.disjoint",
                    f"{disjoint} disjoint journeys exceed separator size {separator}")
        comps = json.loads(out[f"{tag}.components"])["components"]
        if set().union(*map(set, comps)) != set(g.nodes):
            _record(problems, f"{tag}.components", "components do not cover the nodes")
        found = json.loads(out[f"{tag}.robust-mis"])["robust_mis"]
        if found is not None:
            res = cli_call(["robust-mis", "--check", *found, str(path)])
            if not json.loads(res.out)["valid"]:
                _record(problems, f"{tag}.robust-mis", "robust-mis --check rejects the set")
        _record(problems, f"{tag}.sim.forest", _check_forest(out[f"{tag}.sim.forest"], delta))
        if json.loads(out[f"{tag}.stats"])["m"] != len(footprint(g).edges):
            _record(problems, f"{tag}.stats", "stats m differs from the footprint size")
    return problems


CHECKS = {
    "snap-large": check_snap_large,
    "interval-queries": check_interval_queries,
    "small-many": check_small_many,
}

