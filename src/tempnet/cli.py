"""Command line front end.

Verbs: stats, convert, closure, classify, param, journey, components,
robust-mis, sim (forest | relabel), windows.  Traces come from JSON files,
link-stream CSVs, or stdin ("-").  Exit codes: 0 on success, 1 for input
and usage problems, 2 for contract violations (exceeded desk-scale limits,
broken invariants).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import classes, closure as closure_mod, hierarchy, relabel, simforest
from .core import (
    SnapshotSequence,
    _as_sequence,
    as_time,
    footprint,
    stats,
    to_intervals,
    to_snapshots,
)
from .errors import ContractError, InputError
from .io import (
    closure_to_dot,
    closure_to_json,
    dump_graph,
    dump_linkstream,
    format_time,
    journey_from_json,
    journey_to_json,
    load_graph,
    load_linkstream,
    static_to_dot,
)
from .journeys import (
    earliest_arrival,
    fastest_journey,
    latest_departure,
    max_disjoint_journeys,
    min_temporal_separator,
    shortest_journey,
    steady_progress_alpha,
    validate_journey,
)
from .windows import sliding_metric


class _Parser(argparse.ArgumentParser):
    # usage problems are input problems: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, Fraction):
        return format_time(x)
    if isinstance(x, float) and math.isinf(x):
        return format_time(x)
    return x


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _load_trace(args):
    text = _read_text(args.input)
    latency = getattr(args, "latency", None)
    if args.input.endswith(".csv") or text.lstrip().startswith("u,v,start,end"):
        return load_linkstream(text, latency=latency if latency is not None else 1)
    return load_graph(text)


def _limit(args) -> dict:
    # --limit-n 0 disables the desk-scale bound entirely
    if args.limit_n is None:
        return {}
    return {"limit_n": args.limit_n or None}


def _cmd_stats(args):
    g = _load_trace(args)
    s = stats(g)
    lo, hi = s.lifetime
    return {
        "n": s.n,
        "m": s.m,
        "mu": s.mu,
        "k": s.k,
        "lifetime": [format_time(lo), format_time(hi)],
    }


def _cmd_convert(args):
    g = _load_trace(args)
    if args.to == "snapshots":
        seq = g if isinstance(g, SnapshotSequence) else to_snapshots(g)
        return dump_graph(seq)
    if args.to == "intervals":
        ig = g if not isinstance(g, SnapshotSequence) else to_intervals(
            g, latency=args.latency if args.latency is not None else 1
        )
        return dump_graph(ig)
    if args.to == "linkstream":
        ig = g if not isinstance(g, SnapshotSequence) else to_intervals(
            g, latency=args.latency if args.latency is not None else 1
        )
        return dump_linkstream(ig)
    if args.to == "dot":
        return static_to_dot(footprint(g))
    raise InputError(f"unknown conversion target {args.to!r}")


def _cmd_closure(args):
    seq = _as_sequence(_load_trace(args))
    if args.roundtrip:
        window = tuple(int(x) for x in args.window) if args.window else None
        result = closure_mod.roundtrip_closure(seq, window=window, kind=args.kind)
    elif args.kind == "strict":
        result = closure_mod.strict_closure(seq)
    else:
        result = closure_mod.nonstrict_closure(seq)
    if args.dot:
        return closure_to_dot(result)
    return closure_to_json(result)


def _cmd_classify(args):
    return classes.classify(_load_trace(args)).to_json()


_PARAM_ALGEBRAS = {
    "tinterval": lambda seq, kind: hierarchy.tinterval(),
    "delta": lambda seq, kind: hierarchy.footprint_realization(footprint(seq)),
    "tdiam": lambda seq, kind: hierarchy.tdiameter(kind),
    "rtdiam": lambda seq, kind: hierarchy.rt_tdiameter(kind),
}


def _cmd_param(args):
    g = _load_trace(args)
    if args.name == "alpha":
        pair = tuple(args.pair) if args.pair else None
        window = tuple(as_time(x) for x in args.window) if args.window else None
        value = steady_progress_alpha(g, window=window, kind=args.kind, pair=pair)
        return {"value": format_time(value) if value is not None else None}
    seq = _as_sequence(g)
    if args.name == "period":
        return {"value": classes.smallest_period(seq)}
    algebra = _PARAM_ALGEBRAS[args.name](seq, args.kind)
    if args.decide is not None:
        res = hierarchy.decide(algebra, seq, args.decide)
        return {"value": res.value, "ops": res.ops}
    res = hierarchy.extremal(algebra, seq)
    return {"value": res.value, "ops": res.ops}


def _journey_payload(g, journey):
    if journey is None:
        return {"journey": None}
    payload = journey_to_json(journey)
    payload["departure"] = format_time(journey.departure)
    payload["arrival"] = format_time(journey.arrival)
    payload["duration"] = format_time(journey.duration)
    payload["valid"] = validate_journey(g, journey)
    return {"journey": payload}


def _cmd_journey(args):
    g = _load_trace(args)
    mode = args.mode
    if mode == "validate":
        if not args.journey:
            raise InputError("--journey FILE required for validate")
        latency = None if isinstance(g, SnapshotSequence) else g.latency
        j = journey_from_json(_read_text(args.journey), latency=latency)
        return {"valid": validate_journey(g, j)}
    if not args.src:
        raise InputError("--from required")
    if mode == "foremost":
        if args.at is None:
            raise InputError("--at required for foremost")
        table = earliest_arrival(g, args.src, as_time(args.at), kind=args.kind)
        if args.dst:
            out = _journey_payload(g, table.journey_to(args.dst))
            out["arrival"] = format_time(table.arrival.get(args.dst, math.inf))
            return out
        return {
            "arrival": {
                v: format_time(table.arrival.get(v, math.inf)) for v in sorted(g.nodes)
            }
        }
    if not args.dst:
        raise InputError("--to required")
    if mode == "shortest":
        if args.at is None:
            raise InputError("--at required for shortest")
        j = shortest_journey(g, args.src, args.dst, as_time(args.at), kind=args.kind)
        return _journey_payload(g, j)
    if mode == "fastest":
        window = tuple(as_time(x) for x in args.window) if args.window else None
        j = fastest_journey(g, args.src, args.dst, window=window, kind=args.kind)
        return _journey_payload(g, j)
    if mode == "latest-departure":
        if args.at is None:
            raise InputError("--at required for latest-departure")
        value = latest_departure(g, args.src, args.dst, as_time(args.at), kind=args.kind)
        return {"value": format_time(value) if value is not None else None}
    if mode in ("disjoint", "separator"):
        fn = max_disjoint_journeys if mode == "disjoint" else min_temporal_separator
        value = fn(g, args.src, args.dst, kind=args.kind, **_limit(args))
        return {"value": format_time(value) if value == math.inf else value}
    raise InputError(f"unknown journey mode {mode!r}")


def _cmd_components(args):
    seq = _as_sequence(_load_trace(args))
    comps = closure_mod.maximal_temporal_components(seq, kind=args.kind, **_limit(args))
    return {"count": len(comps), "components": [sorted(c) for c in comps]}


def _cmd_robust_mis(args):
    fp = footprint(_load_trace(args))
    if args.check:
        return {"valid": classes.is_robust_mis(fp, args.check)}
    found = classes.find_robust_mis(fp, **_limit(args))
    return {"robust_mis": sorted(found) if found is not None else None}


def _cmd_sim_forest(args):
    seq = _as_sequence(_load_trace(args))
    rng = random.Random(args.seed)
    series = simforest.run(seq, rng=rng, merge_rule=args.merge_rule, checks=args.checks)
    return {"series": series}


def _cmd_sim_relabel(args):
    if args.runs < 1:
        raise InputError(f"--runs must be at least 1, got {args.runs}")
    seq = _as_sequence(_load_trace(args))
    rng = random.Random(args.seed)
    successes = 0
    for _ in range(args.runs):
        result = relabel.run(
            seq, args.algorithm, rng=rng, emitter=args.emitter, sentinel=args.sentinel
        )
        successes += bool(result["success"])
    conditions = relabel.check_conditions(
        seq, args.algorithm, emitter=args.emitter, sentinel=args.sentinel
    )
    return {
        "success_rate": successes / args.runs,
        "necessary": conditions["necessary"],
        "sufficient": conditions["sufficient"],
    }


def _cmd_windows(args):
    g = _load_trace(args)
    series = sliding_metric(g, args.metric, as_time(args.width), as_time(args.step))
    return series.to_csv()


def _add_input(p):
    p.add_argument("input", help="trace file (JSON or link-stream CSV), '-' for stdin")


def _add_kind(p):
    p.add_argument("--kind", choices=["strict", "nonstrict"], default="strict")


def _add_limit(p):
    p.add_argument("--limit-n", type=int, default=None, metavar="N",
                   help="desk-scale bound override; 0 disables it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tempnet", description=__doc__)
    parser.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("stats", help="size, density and lifetime of a trace")
    _add_input(p)
    p.add_argument("--latency", type=as_time, default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("convert", help="translate between trace formats")
    _add_input(p)
    p.add_argument("--to", required=True,
                   choices=["snapshots", "intervals", "linkstream", "dot"])
    p.add_argument("--latency", type=as_time, default=None)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("closure", help="journey reachability closure")
    _add_input(p)
    _add_kind(p)
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--window", nargs=2, metavar=("S", "E"))
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("classify", help="class memberships and parameters")
    _add_input(p)
    p.add_argument("--latency", type=as_time, default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("param", help="window parameters (decide or extremal)")
    _add_input(p)
    p.add_argument("--name", required=True,
                   choices=["tinterval", "delta", "tdiam", "rtdiam", "period", "alpha"])
    _add_kind(p)
    p.add_argument("--decide", type=int, default=None, metavar="R",
                   help="check the fixed window length R instead of optimizing")
    p.add_argument("--pair", nargs=2, metavar=("U", "V"))
    p.add_argument("--window", nargs=2, metavar=("S", "E"))
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("journey", help="journey searches and checks")
    _add_input(p)
    p.add_argument("--mode", required=True,
                   choices=["foremost", "shortest", "fastest", "latest-departure",
                            "validate", "disjoint", "separator"])
    p.add_argument("--from", dest="src")
    p.add_argument("--to", dest="dst")
    p.add_argument("--at", default=None, help="reference time")
    p.add_argument("--window", nargs=2, metavar=("S", "E"))
    p.add_argument("--journey", help="journey JSON file for --mode validate")
    _add_kind(p)
    _add_limit(p)
    p.set_defaults(func=_cmd_journey)

    p = sub.add_parser("components", help="maximal temporally connected node sets")
    _add_input(p)
    _add_kind(p)
    _add_limit(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("robust-mis", help="robust maximal independent set of the footprint")
    _add_input(p)
    p.add_argument("--check", nargs="+", metavar="NODE",
                   help="validate this candidate instead of searching")
    _add_limit(p)
    p.set_defaults(func=_cmd_robust_mis)

    p = sub.add_parser("sim", help="schedule-driven simulations")
    sim_sub = p.add_subparsers(dest="sim_verb", required=True)

    pf = sim_sub.add_parser("forest", help="self-stabilizing spanning forest")
    _add_input(pf)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--merge-rule", choices=["min", "random"], default="min")
    pf.add_argument("--checks", action="store_true", help="verify invariants each step")
    pf.set_defaults(func=_cmd_sim_forest)

    pr = sim_sub.add_parser("relabel", help="relabeling protocols over fair schedules")
    _add_input(pr)
    pr.add_argument("--algorithm", required=True, choices=list(relabel.ALGORITHMS))
    pr.add_argument("--emitter")
    pr.add_argument("--sentinel")
    pr.add_argument("--runs", type=int, default=20)
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(func=_cmd_sim_relabel)

    p = sub.add_parser("windows", help="sliding-window metric series as CSV")
    _add_input(p)
    p.add_argument("--metric", required=True, help="tdiam, tc, or ecc:<node>")
    p.add_argument("--width", required=True)
    p.add_argument("--step", required=True)
    p.set_defaults(func=_cmd_windows)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
    except ContractError as exc:
        print(f"tempnet: error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"tempnet: error: {exc}", file=sys.stderr)
        return 1
    if output is None:
        return 0
    if isinstance(output, str):
        text = output
    else:
        text = json.dumps(_jsonable(output), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
