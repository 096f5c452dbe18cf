"""Span tracing of ``tempnet`` from outside the package, and layer metrics.

``Tracer.install`` wraps every public module-level function of every
``tempnet`` module, at every module that binds its name: the defining
module, each module that imported it with ``from ... import``, and the
package itself.  Calls inside the package go through module globals, so
internal calls are traced too.  A layer is the module that defines the
function.  Methods and cached properties are not wrapped; their time counts
toward the layer of the wrapped function that called them.

Spans stay in memory as ``[name, parent, start, end, info]`` lists and are
written out when the run ends.  ``info`` holds a count read off the call's
arguments or result (bytes parsed, states settled, arcs produced, ...).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# The layers: every module that defines public functions.
MODULES = ("core", "io", "journeys", "closure", "classes", "hierarchy",
           "simforest", "relabel", "windows", "cli")

# Per-element helpers (one call per edge or time value).  A span on each
# would cost more than the call, so their time counts toward the caller.
UNTRACED = {"edge", "as_time", "format_time"}

# Span names grouped under one metric name.
GROUPS = {
    "io.load": {"io.load_graph", "io.load_linkstream"},
    "io.dump": {"io.dump_graph", "io.dump_linkstream", "io.closure_to_json",
                "io.closure_to_dot", "io.journey_to_json", "io.static_to_dot"},
    "closure.reach": {"closure.strict_closure", "closure.nonstrict_closure"},
    "closure.components": {"closure.maximal_temporal_components"},
    "journeys.search": {"journeys.max_disjoint_journeys",
                        "journeys.min_temporal_separator"},
}


def _hierarchy_info(args, kwargs, result):
    return [sum(result.ops.values()), result.ops["compose"], result.ops["test"],
            args[1].delta]


PROBES = {
    "io.load_graph": lambda a, k, r: len(a[0]) if isinstance(a[0], (str, bytes)) else 0,
    "io.load_linkstream": lambda a, k, r: len(a[0]),
    "journeys.earliest_arrival": lambda a, k, r: len(r.arrival),
    "closure.concat_roundtrip": lambda a, k, r: len(r.arcs),
    "closure.maximal_temporal_components": lambda a, k, r: len(r),
    "hierarchy.extremal": _hierarchy_info,
    "hierarchy.decide": _hierarchy_info,
    "windows.sliding_metric": lambda a, k, r: len(r.points),
    "simforest.select_edge": lambda a, k, r: r,
    "relabel.run": lambda a, k, r: bool(r["success"]),
}

# Linear budgets of the window algebra, in compose+test calls per snapshot.
HIERARCHY_BUDGET = {"hierarchy.decide": 6, "hierarchy.extremal": 10}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"tempnet.{m}") for m in MODULES]
        mods.append(importlib.import_module("tempnet"))
        wrappers: dict[int, object] = {}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not inspect.isfunction(value)
                        or not value.__module__.startswith("tempnet.")):
                    continue
                if id(value) not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[id(value)] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for i, (name, parent, start, end, info) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                 "start": start, "end": end, "info": info}) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("_ratio", "_per_call", "_per_point", ".max")):
        return "1"
    return "count"


def layer_metrics(spans, jobs) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of one traced pass.

    ``jobs`` holds the (start, end) clock readings of every job of the pass.
    Returns (values, reasons, problems): ``reasons`` names each metric that
    does not apply to the pass and why; ``problems`` lists broken invariants
    (a span outside its parent or job, a window-algebra call over its
    operation budget).
    """
    wall_s = sum(end - start for start, end in jobs)
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    covered = 0.0
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
        else:
            covered += dur[i]
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    under: Counter = Counter()  # (parent name, child name) -> count
    infos: defaultdict = defaultdict(list)
    for i, (name, parent, _, _, info) in enumerate(spans):
        own = dur[i] - child[i]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if parent >= 0:
            under[spans[parent][0], name] += 1
        if info is not None:
            infos[name].append(info)
    for group, members in GROUPS.items():
        calls[group] = sum(calls[m] for m in members)
        self_s[group] = sum(self_s[m] for m in members)

    def under_group(group, name):
        return sum(under[m, name] for m in GROUPS.get(group, {group}))

    reasons: dict[str, str] = {}

    def ratio(metric, num, den, why):
        if den:
            return num / den
        reasons[metric] = why
        return 0.0

    v: dict[str, float] = {}
    for layer in MODULES:
        v[f"{layer}.self_s"] = layer_self[layer]
    for name in ("cli.main", "io.load", "core.discretize", "core.temporal_subgraph",
                 "core.induced_sequence", "core.footprint", "journeys.earliest_arrival",
                 "journeys.latest_departure", "journeys.fastest_journey",
                 "closure.reach", "closure.roundtrip_lift", "closure.concat_roundtrip",
                 "hierarchy.extremal", "windows.sliding_metric", "classes.classify",
                 "classes.finite_class_membership", "simforest.select_edge",
                 "simforest.check_invariants", "relabel.run"):
        v[f"{name}.calls"] = calls[name]
    for name in ("io.load", "io.dump", "core.discretize", "core.temporal_subgraph",
                 "journeys.earliest_arrival", "journeys.latest_departure",
                 "journeys.shortest_journey", "journeys.fastest_journey",
                 "journeys.foremost_tree_intervals", "journeys.steady_progress_alpha",
                 "journeys.search", "closure.reach", "closure.concat_roundtrip",
                 "closure.components", "hierarchy.extremal", "hierarchy.decide",
                 "classes.find_robust_mis", "simforest.select_edge",
                 "simforest.check_invariants", "relabel.check_conditions"):
        v[f"{name}.self_s"] = self_s[name]

    v["io.load.bytes"] = sum(infos["io.load_graph"]) + sum(infos["io.load_linkstream"])
    v["journeys.earliest_arrival.settled"] = sum(infos["journeys.earliest_arrival"])
    v["journeys.fastest_journey.ea_per_call"] = ratio(
        "journeys.fastest_journey.ea_per_call",
        under["journeys.fastest_journey", "journeys.earliest_arrival"],
        calls["journeys.fastest_journey"], "no fastest_journey call")
    v["journeys.search.subsets"] = under_group("journeys.search", "core.induced_sequence")
    v["closure.concat_roundtrip.arcs_out"] = sum(infos["closure.concat_roundtrip"])
    candidates = under_group("closure.components", "core.induced_sequence")
    v["closure.components.candidates"] = candidates
    v["closure.components.accept_ratio"] = ratio(
        "closure.components.accept_ratio",
        sum(infos["closure.maximal_temporal_components"]), candidates,
        "no component candidate tested")

    problems: list[str] = []
    per_delta: dict[str, float] = {}
    compose = test = 0
    for name, budget in HIERARCHY_BUDGET.items():
        worst = 0.0
        for ops, c, t, delta in infos[name]:
            compose += c
            test += t
            worst = max(worst, ops / delta)
            if ops > budget * delta:
                problems.append(f"{name}: {ops} ops over the {budget}*{delta} budget")
        per_delta[name] = worst
        metric = f"{name}.ops_per_delta.max"
        v[metric] = worst
        if not infos[name]:
            reasons[metric] = f"no {name.split('.')[1]} call"
    v["hierarchy.ops.compose"] = compose
    v["hierarchy.ops.test"] = test
    v["hierarchy.ops_per_delta.max"] = max(per_delta.values())
    if not compose + test:
        reasons["hierarchy.ops_per_delta.max"] = "no window-algebra call"

    v["windows.points"] = sum(infos["windows.sliding_metric"])
    v["windows.ea_per_point"] = ratio(
        "windows.ea_per_point",
        under["windows.sliding_metric", "journeys.earliest_arrival"],
        v["windows.points"], "no sliding-window call")
    outcomes = Counter(infos["simforest.select_edge"])
    v["simforest.useful_ratio"] = ratio(
        "simforest.useful_ratio", outcomes["merge"] + outcomes["circulate"],
        calls["simforest.select_edge"], "no edge selection")
    v["relabel.success_ratio"] = ratio(
        "relabel.success_ratio", sum(infos["relabel.run"]), calls["relabel.run"],
        "no relabel run")
    # By construction the layers' self times plus uncovered_s add up to
    # wall_s; what can break is nesting, if a wrapper lost track of its parent.
    v["trace.uncovered_s"] = wall_s - covered
    starts = [start for start, _ in jobs]
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            lo, hi = spans[parent][2], spans[parent][3]
        else:
            lo, hi = jobs[max(0, bisect.bisect_right(starts, start) - 1)]
        if not lo <= start <= end <= hi or dur[i] < child[i]:
            problems.append(f"span {i} ({name}) is not nested in its parent or job")
            break
    for name, value in v.items():
        if value == 0 and name not in reasons and not name.startswith("trace."):
            reasons[name] = "the workload makes no such call"
    return v, reasons, problems
