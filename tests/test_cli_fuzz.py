"""CLI fuzz gate: random trace files and flags end in exit 0, 1 or 2, never a traceback.

Traces are drawn as near-valid snapshot and interval JSON, arbitrary JSON
values and link-stream CSV text; every verb runs on them with node, time
and kind arguments drawn from small pools.  Sizes stay at a handful of
nodes and times so that the exponential searches finish quickly.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tempnet.cli import main

NAMES = st.sampled_from(["a", "b", "c", "d"])
ODD_IDS = st.one_of(
    st.sampled_from(["", " ", "a,b", 'q"', "é", "a\nb"]),
    st.integers(-1, 2), st.none(), st.booleans(), st.lists(NAMES, max_size=2),
)
IDS = st.one_of(NAMES, NAMES, ODD_IDS)
TIME_TEXT = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["1/2", "3/4", "5/2", "-1/2", "0.5", "1/0", "inf", "nan", "", "x", "1e3"]),
)
TIMES = st.one_of(
    st.integers(-2, 8), TIME_TEXT,
    st.sampled_from([0.5, 2.25, -1.5, float("nan"), float("inf"), None, True, [], {}]),
)
PAIRS = st.one_of(
    st.lists(IDS, min_size=2, max_size=2), st.lists(IDS, max_size=3), IDS,
    # two arrays as endpoints: they compare, so only hashing them fails
    st.lists(st.lists(NAMES, min_size=1, max_size=2), min_size=2, max_size=2),
)
SNAPSHOT_JSON = st.fixed_dictionaries({
    "format": st.just("snapshots"),
    "nodes": st.lists(IDS, max_size=5),
    "snapshots": st.lists(st.lists(PAIRS, max_size=4), max_size=4),
})
INTERVAL_JSON = st.fixed_dictionaries(
    {
        "format": st.just("intervals"),
        "nodes": st.lists(IDS, max_size=5),
        "edges": st.lists(
            st.fixed_dictionaries({
                "u": IDS,
                "v": IDS,
                "intervals": st.lists(
                    st.one_of(st.lists(TIMES, min_size=2, max_size=2), st.lists(TIMES, max_size=3), TIMES),
                    max_size=3,
                ),
            }),
            max_size=5,
        ),
    },
    optional={"latency": TIMES, "lifetime": st.one_of(st.lists(TIMES, max_size=3), TIMES)},
)


@st.composite
def good_snapshots(draw):
    nodes = draw(st.lists(NAMES, unique=True, max_size=4))
    pairs = [[u, v] for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    snaps = draw(st.lists(st.lists(st.sampled_from(pairs), max_size=4) if pairs else st.just([]),
                          min_size=1, max_size=5))
    return {"format": "snapshots", "nodes": nodes, "snapshots": snaps}


@st.composite
def odd_snapshots(draw):
    """A good_snapshots() trace with one odd pair spliced in: array endpoints, a string, three items."""
    trace = draw(good_snapshots())
    ids = st.sampled_from(trace["nodes"]) if trace["nodes"] else NAMES
    odd = draw(st.one_of(
        st.lists(st.lists(ids, min_size=1, max_size=2), min_size=2, max_size=2),
        st.tuples(ids, ids).map("".join),
        st.lists(ids, min_size=3, max_size=3),
    ))
    row = trace["snapshots"][draw(st.integers(0, len(trace["snapshots"]) - 1))]
    row.insert(draw(st.integers(0, len(row))), odd)
    return trace


@st.composite
def good_intervals(draw):
    nodes = draw(st.lists(NAMES, unique=True, max_size=4))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    times = st.sampled_from([0, 1, 2, 3, 5, 8, "1/2", "3/4", "5/2"])
    edges = [
        {"u": u, "v": v, "intervals": draw(st.lists(st.lists(times, min_size=2, max_size=2), max_size=2))}
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4) if pairs else st.just([]))
    ]
    trace = {"format": "intervals", "nodes": nodes, "edges": edges,
             "latency": draw(st.sampled_from([1, "1/2", "1/4", 0]))}
    if draw(st.booleans()):
        trace["lifetime"] = draw(st.lists(times, min_size=2, max_size=2))
    return trace


KEYS = st.sampled_from(["format", "nodes", "snapshots", "edges", "u", "v", "intervals", "latency",
                        "lifetime"])
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3), TIMES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)
CSV_CELLS = st.one_of(NAMES, TIME_TEXT, st.sampled_from(["", " a", '"b"']))
CSV_TEXT = st.builds(
    lambda header, rows: "\n".join([header, *(",".join(row) for row in rows)]),
    st.sampled_from(["u,v,start,end", "u, v, start, end", "u,v,start", "x,y", ""]),
    st.lists(st.lists(CSV_CELLS, max_size=5), max_size=5),
)
TRACES = st.one_of(
    st.tuples(st.just("trace.json"), st.one_of(good_snapshots(), good_intervals()).map(json.dumps)),
    st.tuples(st.just("trace.json"), st.one_of(good_snapshots(), good_intervals()).map(json.dumps)),
    st.tuples(st.just("trace.json"), st.one_of(SNAPSHOT_JSON, INTERVAL_JSON, ANY_JSON).map(json.dumps)),
    st.tuples(st.just("trace.json"), odd_snapshots().map(json.dumps)),
    st.tuples(st.just("trace.csv"), CSV_TEXT),
    st.tuples(st.just("trace.json"), st.sampled_from(["", "{", "[]", "null", '{"format": "snapshots"}'])),
)

KIND = st.sampled_from(["--kind=strict", "--kind=nonstrict"])
NODE = st.one_of(NAMES, NAMES, NAMES, st.sampled_from(["", "z"]))
SMALL = st.one_of(st.sampled_from(["0", "1", "2", "3"]), st.sampled_from(["1", "2", "1/2"]),
                  st.sampled_from(["-1", "1/4", "x", "", "1/0"]))


def flags(*parts):
    return st.tuples(*parts).map(lambda xs: [x for part in xs for x in part])


def opt(*parts):
    return st.one_of(st.just([]), flags(*parts))


def lit(*words):
    return st.just(list(words))


def one(s):
    return s.map(lambda x: [x])


VERBS = st.one_of(
    lit("stats"),
    flags(lit("convert", "--to"), one(st.sampled_from(["snapshots", "intervals", "linkstream", "dot"])),
          opt(lit("--latency"), one(TIME_TEXT))),
    flags(lit("closure"), one(KIND), opt(lit("--roundtrip")), opt(lit("--dot")),
          opt(lit("--roundtrip", "--window"), one(SMALL), one(SMALL))),
    lit("classify"),
    flags(lit("param", "--name"), one(st.sampled_from(["tinterval", "delta", "tdiam", "rtdiam", "period"])),
          one(KIND), opt(lit("--decide"), one(SMALL))),
    flags(lit("param", "--name", "alpha"), one(KIND), opt(lit("--pair"), one(NODE), one(NODE)),
          opt(lit("--window"), one(SMALL), one(SMALL))),
    flags(lit("journey", "--mode"),
          one(st.sampled_from(["foremost", "shortest", "fastest", "latest-departure", "disjoint",
                               "separator"])),
          one(KIND), lit("--from"), one(NODE), lit("--to"), one(NODE),
          opt(lit("--at"), one(SMALL)), opt(lit("--window"), one(SMALL), one(SMALL))),
    flags(lit("components"), one(KIND), opt(lit("--limit-n"), one(st.sampled_from(["0", "2", "-1", "x"])))),
    flags(lit("robust-mis"), opt(lit("--check"), one(NODE)),
          opt(lit("--limit-n"), one(st.sampled_from(["0", "2", "-1", "x"])))),
    flags(lit("sim", "forest"), opt(lit("--checks")),
          one(st.sampled_from(["--merge-rule=min", "--merge-rule=random"]))),
    flags(lit("sim", "relabel", "--runs", "2", "--algorithm"),
          one(st.sampled_from(["broadcast", "count-sentinel", "count-uniform", "count-circulate"])),
          opt(lit("--emitter"), one(NODE)), opt(lit("--sentinel"), one(NODE))),
    flags(lit("windows", "--metric"), one(st.sampled_from(["tc", "tdiam", "ecc:a", "ecc:z", "bogus"])),
          lit("--width"), one(SMALL), lit("--step"), one(SMALL)),
)


@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TRACES, VERBS)
def test_cli_exits_cleanly_on_random_traces(capsys, tmp_path, trace, verb):
    name, text = trace
    path = tmp_path / name
    path.write_text(text)
    argv = verb[:2] + [str(path)] + verb[2:] if verb[0] == "sim" else [verb[0], str(path)] + verb[1:]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, text)
    assert "Traceback" not in err
    if code:
        assert sum(line.startswith("tempnet: error:") for line in err.splitlines()) == 1, (argv, text, err)
