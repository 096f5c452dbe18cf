"""Command line behaviour: verbs, formats, exit codes, golden outputs."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import long_line, seq_of
import tempnet
import tempnet.cli as cli
from tempnet.cli import main
from tempnet.core import IntervalGraph, to_intervals
from tempnet.io import dump_graph, dump_linkstream, load_linkstream


@pytest.fixture
def trace_file(tmp_path):
    def write(g, name="trace.json"):
        path = tmp_path / name
        path.write_text(json.dumps(dump_graph(g)))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_stats(capsys, trace_file, journey_fig):
    data = run_json(capsys, "stats", trace_file(journey_fig))
    assert data == {"n": 5, "m": 7, "mu": 4, "k": 4, "lifetime": [0, 4]}


def test_stats_reads_stdin_linkstream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("u,v,start,end\na,b,0,2\n"))
    data = run_json(capsys, "stats", "-")
    assert data["n"] == 2 and data["lifetime"] == [0, 2]


def test_convert_roundtrip_is_identity(capsys, trace_file, journey_fig, tmp_path):
    src = trace_file(journey_fig)
    mid = str(tmp_path / "iv.json")
    back = str(tmp_path / "snap.json")
    assert main(["--out", mid, "convert", src, "--to", "intervals"]) == 0
    assert main(["--out", back, "convert", mid, "--to", "snapshots"]) == 0
    capsys.readouterr()
    original = json.dumps(dump_graph(journey_fig), indent=2, sort_keys=True) + "\n"
    with open(back) as fh:
        assert fh.read() == original


def test_convert_to_dot_and_linkstream(capsys, trace_file, distance_fig):
    src = trace_file(distance_fig)
    code, out = run_cli(capsys, "convert", src, "--to", "dot")
    assert code == 0 and out.startswith("graph g {\n")
    code, out = run_cli(capsys, "convert", src, "--to", "linkstream")
    assert code == 0 and out.startswith("u,v,start,end\n")
    assert "a,b,1,2" in out


def test_convert_to_linkstream_names_what_the_csv_drops(capsys, trace_file):
    # the CSV loads back with latency 1, lifetime [1, 2] and nodes a, b only
    lossy = IntervalGraph.build("abc", {("a", "b"): [(1, 2)]}, latency="1/2", span=(0, 5))
    assert main(["convert", trace_file(lossy), "--to", "linkstream"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "u,v,start,end\na,b,1,2\n"
    assert captured.err == (
        "tempnet: warning: the link-stream CSV drops latency 1/2; lifetime [0, 5]; "
        "isolated nodes c\n")
    lossless = IntervalGraph.build("ab", {("a", "b"): [(1, 2)]})
    assert main(["convert", trace_file(lossless), "--to", "linkstream"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("u,v,start,end\na,b,1,2\n", "")


def test_convert_to_linkstream_names_node_ids_the_csv_strips(capsys, trace_file, tmp_path):
    # a CSV cell loses its surrounding whitespace: " a" loads back as "a", and "  " not at all
    padded = IntervalGraph.build([" a", "b,c", "  ", "x"],
                                 {(" a", "b,c"): [(0, 1)], ("  ", "x"): [(1, 2)]})
    assert main(["convert", trace_file(padded), "--to", "linkstream"]) == 0
    captured = capsys.readouterr()
    assert captured.out == dump_linkstream(padded)
    assert captured.err == (
        "tempnet: warning: the link-stream CSV drops the whitespace around node ids '  ', ' a'\n")
    csv_path = tmp_path / "padded.csv"
    csv_path.write_text(captured.out)
    assert main(["stats", str(csv_path)]) == 1
    assert capsys.readouterr().err == "tempnet: error: node ids must be non-empty strings\n"


def test_convert_to_linkstream_keeps_a_node_id_the_csv_quotes(capsys, trace_file):
    quoted = IntervalGraph.build(["b,c", "x"], {("b,c", "x"): [(0, 1)]})
    assert main(["convert", trace_file(quoted), "--to", "linkstream"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ('u,v,start,end\n"b,c",x,0,1\n', "")
    assert load_linkstream(captured.out) == quoted


def test_closure_json_and_dot(capsys, trace_file, closure_fig):
    src = trace_file(closure_fig)
    data = run_json(capsys, "closure", src)
    assert len(data["arcs"]) == 17
    assert ["a", "e"] in data["arcs"] and ["e", "a"] not in data["arcs"]
    code, out = run_cli(capsys, "closure", src, "--dot")
    assert code == 0 and out.startswith("digraph closure {\n")


def test_closure_roundtrip_window(capsys, trace_file, journey_fig):
    data = run_json(
        capsys, "closure", trace_file(journey_fig), "--roundtrip", "--window", "0", "2"
    )
    assert data["window"] == [0, 2]
    assert all(set(arc) == {"u", "v", "ea", "ld"} for arc in data["arcs"])


def test_closure_nonstrict(capsys, trace_file, bull_trace):
    # one connected snapshot: strict journeys take one hop, non-strict ones cross it
    code, out = run_cli(capsys, "closure", trace_file(bull_trace), "--kind", "nonstrict")
    pairs = [[u, v] for u in "abcde" for v in "abcde" if u != v]
    assert code == 0
    assert out == json.dumps({"arcs": pairs, "nodes": list("abcde")}, indent=2) + "\n"
    arcs = {tuple(arc) for arc in json.loads(out)["arcs"]}
    assert arcs == oracles.brute_closure_arcs(bull_trace, "nonstrict")
    assert arcs != oracles.brute_closure_arcs(bull_trace, "strict")


CLOSURE_FIG_RT_LABELS = {
    "ab": (1, 1), "ac": (1, 1), "ad": (2, 1), "ae": (3, 1),
    "ba": (1, 1), "bc": (2, 2), "bd": (2, 2), "be": (3, 2),
    "ca": (1, 1), "cb": (2, 2), "cd": (2, 3), "ce": (3, 4),
    "db": (2, 2), "dc": (2, 3), "de": (3, 4),
    "ec": (3, 4), "ed": (3, 4),
}


def test_closure_roundtrip_dot(capsys, trace_file, closure_fig):
    src = trace_file(closure_fig)
    code, out = run_cli(capsys, "closure", src, "--roundtrip", "--dot")
    assert code == 0
    assert out == "".join([
        "digraph closure {\n",
        *(f'  "{v}";\n' for v in "abcde"),
        *(f'  "{a[0]}" -> "{a[1]}" [label="ea={ea},ld={ld}"];\n'
          for a, (ea, ld) in CLOSURE_FIG_RT_LABELS.items()),
        "}\n",
    ])
    for kind in ("strict", "nonstrict"):
        code, out = run_cli(capsys, "closure", src, "--roundtrip", "--dot", "--kind", kind)
        labels = {
            (u, v): (int(ea), int(ld))
            for u, v, ea, ld in re.findall(r'"(\w)" -> "(\w)" \[label="ea=(\d+),ld=(\d+)"\]', out)
        }
        assert code == 0 and labels == oracles.brute_rt_arcs(closure_fig, 0, closure_fig.delta, kind)


def test_classify(capsys, trace_file, journey_fig):
    data = run_json(capsys, "classify", trace_file(journey_fig))
    assert data["J1A"]["strict"] is True
    assert data["TC"]["strict"] is False
    assert data["delta"] == 4


def test_param_extremal_and_decide(capsys, trace_file):
    from conftest import seq_of

    constant = seq_of("abc", *(["ab", "bc"] for _ in range(4)))
    src = trace_file(constant)
    data = run_json(capsys, "param", src, "--name", "tinterval")
    assert data["value"] == 4
    data = run_json(capsys, "param", src, "--name", "tinterval", "--decide", "2")
    assert data["value"] is True
    assert sum(data["ops"].values()) <= 6 * 4


def test_param_period_and_alpha(capsys, trace_file, weekly_line, distance_fig):
    data = run_json(capsys, "param", trace_file(weekly_line), "--name", "period")
    assert data["value"] == 7
    data = run_json(
        capsys,
        "param",
        trace_file(distance_fig, "dist.json"),
        "--name",
        "alpha",
        "--pair",
        "a",
        "d",
        "--window",
        "0",
        "10",
    )
    assert data["value"] == "83/50"


def test_param_alpha_names_a_window_outside_the_trace(capsys, trace_file, tmp_path):
    seq = seq_of("abc", ["ab"], ["bc"], ["ab"])
    csv = tmp_path / "ls.csv"
    csv.write_text(dump_linkstream(to_intervals(seq)))
    for src, why in [(trace_file(seq), "selects no snapshot"), (csv, "misses lifetime [0, 3]")]:
        assert main(["param", str(src), "--name", "alpha", "--window", "5", "7"]) == 1
        assert capsys.readouterr().err == f"tempnet: error: window [5, 7) {why}\n"


def test_param_alpha_nonstrict_on_an_interval_graph(capsys, trace_file):
    # b-c closes before a-b's hop arrives: only non-strict hops may share an instant
    g = IntervalGraph.build("abc", {("a", "b"): [(0, 1)], ("b", "c"): [(0, 1)]}, latency=1)
    argv = ["param", trace_file(g), "--name", "alpha", "--pair", "a", "c"]
    assert run_json(capsys, *argv)["value"] is None
    assert run_json(capsys, *argv, "--kind", "nonstrict")["value"] == 0


def test_param_alpha_on_a_long_line(capsys, trace_file):
    argv = ["param", trace_file(long_line()), "--name", "alpha", "--pair", "v0000", "v1099"]
    assert run_json(capsys, *argv)["value"] == 0
    assert run_json(capsys, *argv, "--kind", "nonstrict")["value"] == 1


def test_journey_foremost(capsys, trace_file, distance_fig):
    src = trace_file(distance_fig)
    data = run_json(
        capsys, "journey", src, "--mode", "foremost", "--from", "a", "--at", "0"
    )
    assert data["arrival"]["d"] == "501/100"
    data = run_json(
        capsys, "journey", src, "--mode", "foremost", "--from", "a", "--at", "0",
        "--to", "d",
    )
    assert data["arrival"] == "501/100"
    assert data["journey"]["valid"] is True


def test_journey_fastest_and_shortest(capsys, trace_file, distance_fig):
    src = trace_file(distance_fig)
    data = run_json(
        capsys, "journey", src, "--mode", "fastest", "--from", "a", "--to", "d"
    )
    assert data["journey"]["duration"] == "3/100"
    data = run_json(
        capsys, "journey", src, "--mode", "shortest", "--from", "a", "--to", "d",
        "--at", "0",
    )
    assert len(data["journey"]["hops"]) == 2


def test_negative_fraction_times_are_values(capsys, trace_file, distance_fig):
    src = trace_file(distance_fig)
    fastest = ["journey", src, "--mode", "fastest", "--from", "a", "--to", "d", "--window"]
    # distance_fig lives over [0, 10], so the window is clamped to [0, 3]
    assert run_cli(capsys, *fastest, "-1/2", "3") == run_cli(capsys, *fastest, "0", "3")
    latest = ["journey", src, "--mode", "latest-departure", "--from", "a", "--to", "d"]
    assert run_cli(capsys, *latest, "--at", "-1/2") == run_cli(capsys, *latest, "--at=-1/2")


def test_journey_validate(capsys, trace_file, journey_fig, tmp_path):
    src = trace_file(journey_fig)
    jpath = tmp_path / "journey.json"
    jpath.write_text(json.dumps({
        "hops": [["a", "c", 0], ["c", "d", 1]], "kind": "strict",
    }))
    data = run_json(
        capsys, "journey", src, "--mode", "validate", "--journey", str(jpath)
    )
    assert data == {"valid": True}


@pytest.mark.parametrize("hops", [["ab1"], {"ab1": 0}], ids=["string-hop", "object-hops"])
def test_journey_validate_rejects_malformed_hops(capsys, tmp_path, hops):
    # both used to load as the hop (a, b, 1) and validate on a two-snapshot a-b trace
    trace = tmp_path / "ab.json"
    trace.write_text('{"format":"snapshots","nodes":["a","b"],"snapshots":[[["a","b"]],[["a","b"]]]}')
    jpath = tmp_path / "journey.json"
    jpath.write_text(json.dumps({"hops": hops, "kind": "strict"}))
    assert main(["journey", str(trace), "--mode", "validate", "--journey", str(jpath)]) == 1
    assert capsys.readouterr().err.startswith("tempnet: error: malformed journey: ")


def test_journey_disjoint_separator(capsys, trace_file, menger_fig):
    src = trace_file(menger_fig)
    assert run_json(
        capsys, "journey", src, "--mode", "disjoint", "--from", "s", "--to", "t"
    ) == {"value": 1}
    assert run_json(
        capsys, "journey", src, "--mode", "separator", "--from", "s", "--to", "t"
    ) == {"value": 2}


def test_components(capsys, trace_file, overlap_fig):
    data = run_json(capsys, "components", trace_file(overlap_fig), "--kind", "nonstrict")
    assert data == {
        "count": 2,
        "components": [["a", "b", "c"], ["b", "c", "d"]],
    }


def test_components_over_the_limit_says_how_to_lift_it(capsys, trace_file):
    src = trace_file(seq_of("abcdefghijklmnop", ["ab"]))  # 16 nodes, one over the default
    assert main(["components", src]) == 2
    assert capsys.readouterr().err == (
        "tempnet: error: 16 nodes exceed the component search limit 15; raise it with limit_n"
        " (None removes it) or --limit-n on the command line (0 removes it)\n"
    )


def test_robust_mis(capsys, trace_file, bull_trace):
    src = trace_file(bull_trace)
    assert run_json(capsys, "robust-mis", src) == {"robust_mis": ["a", "d", "e"]}
    assert run_json(capsys, "robust-mis", src, "--check", "a", "c") == {"valid": False}


def test_robust_mis_names_the_least_unknown_node_under_every_hash_seed(bull_trace):
    env = os.environ | {"PYTHONPATH": str(Path(tempnet.__file__).parents[1])}
    stderr = {
        subprocess.run(
            [sys.executable, "-c", "import sys; from tempnet.cli import main; sys.exit(main())",
             "robust-mis", "-", "--check", "v1", "v0"],
            input=json.dumps(dump_graph(bull_trace)), capture_output=True, text=True,
            env=env | {"PYTHONHASHSEED": str(seed)}).stderr
        for seed in range(4)
    }
    assert stderr == {"tempnet: error: unknown node 'v0' in candidate set\n"}


def test_sim_forest(capsys, trace_file, journey_fig):
    data = run_json(capsys, "sim", "forest", trace_file(journey_fig), "--seed", "5")
    assert [row["t"] for row in data["series"]] == [0, 1, 2, 3]


def test_sim_relabel(capsys, trace_file, weekly_line):
    data = run_json(
        capsys,
        "sim", "relabel", trace_file(weekly_line),
        "--algorithm", "broadcast", "--emitter", "a",
        "--runs", "5", "--seed", "1",
    )
    assert data["success_rate"] == 1.0
    assert data["necessary"] is True and data["sufficient"] is True


def test_sim_relabel_rejects_zero_runs(capsys, trace_file, weekly_line):
    code = main([
        "sim", "relabel", trace_file(weekly_line),
        "--algorithm", "broadcast", "--emitter", "a", "--runs", "0",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("tempnet: error:") and "Traceback" not in err


def test_windows_csv(capsys, trace_file, weekly_line):
    code, out = run_cli(
        capsys, "windows", trace_file(weekly_line),
        "--metric", "tc", "--width", "31", "--step", "7",
    )
    assert code == 0
    assert out == "start,value\n0,1\n7,1\n\n" or out.startswith("start,value\n0,1\n7,1\n")


@pytest.mark.parametrize("width,step,bad", [("5/2", "1", "5/2"), ("1/2", "1", "1/2"), ("2", "1/2", "1/2")])
def test_windows_rejects_fractional_snapshot_counts(capsys, trace_file, journey_fig, width, step, bad):
    code = main([
        "windows", trace_file(journey_fig), "--metric", "tc", "--width", width, "--step", step,
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"tempnet: error: window width and step must be whole snapshots, got {bad}\n"
    )


def test_windows_count_is_limited_on_interval_graphs(capsys, trace_file, distance_fig):
    # the lifetime [0, 10] holds 90,001 windows of width 1 at step 1/10000
    argv = ["windows", trace_file(distance_fig), "--metric", "tc", "--width", "1"]
    assert main([*argv, "--step", "1/10000"]) == 2
    err = capsys.readouterr().err
    assert err == "tempnet: error: 90001 windows exceed the sliding-window limit 10000; use a larger --step\n"
    code, out = run_cli(capsys, *argv, "--step", "1/1111")  # 10,000 windows
    assert code == 0 and out.count("\n") == 10_001


@pytest.mark.parametrize("args,error", [
    (["fastest", "--to", "c", "--window", "1/2", "3"], "discrete window bound must be an integer, got 1/2"),
    (["shortest", "--to", "c", "--at", "1/2"], "discrete start time must be an integer, got 1/2"),
    (["latest-departure", "--to", "c", "--at=-1/2"], "discrete time must be an integer, got -1/2"),
])
def test_journey_rejects_fractional_discrete_times(capsys, trace_file, journey_fig, args, error):
    # a-c is present at 0, which int() truncation used to return for 1/2
    assert main(["journey", trace_file(journey_fig), "--from", "a", "--mode", *args]) == 1
    assert capsys.readouterr().err == f"tempnet: error: {error}\n"


@pytest.mark.parametrize("fig,at,error", [
    ("journey_fig", "4", "time 4 outside 0..3"),  # snapshot 4 does not exist
    ("journey_fig", "-1", "time -1 outside 0..3"),
    ("distance_fig", "21/2", "time 21/2 outside lifetime [0, 10]"),
])
def test_latest_departure_rejects_an_arrival_bound_outside_the_trace(capsys, trace_file, request,
                                                                     fig, at, error):
    argv = ["journey", trace_file(request.getfixturevalue(fig)), "--mode", "latest-departure",
            "--from", "a", "--to", "d", f"--at={at}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"tempnet: error: {error}\n"


def test_closure_roundtrip_rejects_fractional_window(capsys, trace_file, journey_fig):
    argv = ["closure", trace_file(journey_fig), "--roundtrip", "--window", "1/2", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "tempnet: error: discrete window bound must be an integer, got 1/2\n"


@pytest.fixture
def fixture_traces(tmp_path, trace_file, journey_fig, distance_fig):
    """journey_fig and distance_fig, each as a JSON file and as a link-stream CSV."""
    paths = []
    for name, g in (("journey", journey_fig), ("distance", distance_fig)):
        paths.append(trace_file(g, f"{name}.json"))
        csv = tmp_path / f"{name}.csv"
        csv.write_text(dump_linkstream(g if isinstance(g, IntervalGraph) else to_intervals(g)))
        paths.append(str(csv))
    return paths


# steps stay >= 1/12 so that an interval graph never asks for millions of windows
TIME_TEXT = st.one_of(
    st.integers(-3, 12).map(str),
    st.builds("{}/{}".format, st.integers(-24, 24), st.integers(1, 12)),
    st.integers(-24, 96).map(lambda k: str(k / 8)),
    st.sampled_from(["1/0", "-1/0", "nan", "inf", "", " ", "abc", "1/", "/2", "1e3", "0x1", "--"]),
)
TIME_VERBS = [
    lambda x, y: ["journey", "--mode", "foremost", "--from", "a", f"--at={x}"],
    lambda x, y: ["journey", "--mode", "shortest", "--from", "a", "--to", "d", f"--at={x}"],
    lambda x, y: ["journey", "--mode", "latest-departure", "--from", "a", "--to", "d", f"--at={x}"],
    lambda x, y: ["journey", "--mode", "fastest", "--from", "a", "--to", "d", "--window", x, y],
    lambda x, y: ["closure", "--roundtrip", "--window", x, y],
    lambda x, y: ["param", "--name", "alpha", "--window", x, y],
    lambda x, y: ["windows", "--metric", "tc", "--width", x, "--step", y],
]


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 3), st.sampled_from(TIME_VERBS), TIME_TEXT, TIME_TEXT)
def test_time_arguments_exit_cleanly(capsys, fixture_traces, which, verb, x, y):
    argv = verb(x, y)
    argv.insert(1, fixture_traces[which])
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert sum(line.startswith("tempnet: error:") for line in err.splitlines()) == 1, err


def test_deeply_nested_json_exit_1(capsys, tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    trace = tmp_path / "deep.json"
    trace.write_text('{"format":"snapshots","nodes":' + deep + ',"snapshots":[]}')
    hops = tmp_path / "hops.json"
    hops.write_text('{"kind":"strict","hops":' + deep + "}")
    ok = tmp_path / "ok.json"
    ok.write_text('{"format":"snapshots","nodes":["a","b"],"snapshots":[[["a","b"]]]}')
    for argv in (["stats", str(trace)], ["journey", str(ok), "--mode", "validate", "--journey", str(hops)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("tempnet: error: not valid JSON") and err.count("\n") == 1
        assert "Traceback" not in err


def test_exit_code_1_on_bad_input(capsys, tmp_path):
    assert main(["stats", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stats", str(bad)]) == 1
    capsys.readouterr()


def test_non_string_node_ids_exit_1(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text('{"format":"snapshots","nodes":["a",2],"snapshots":[[["a",2]]]}')
    assert main(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tempnet: error:") and "Traceback" not in err


def test_array_endpoints_exit_1(capsys, tmp_path):
    path = tmp_path / "arrays.json"
    path.write_text('{"format":"snapshots","nodes":["x","y"],"snapshots":[[[["x"],["y"]]]]}')
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr().err == "tempnet: error: node ids must be strings, got ['x'] and ['y']\n"


@pytest.mark.parametrize("lifetime", [0, True, [], [0], {"a": 1}, [0, 1, 2]])
def test_malformed_lifetime_exits_1(capsys, tmp_path, lifetime):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "format": "intervals", "nodes": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "intervals": [[0, 1]]}], "lifetime": lifetime,
    }))
    assert main(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"tempnet: error: malformed interval trace: lifetime must be two times, got {lifetime!r}\n"


@pytest.mark.parametrize("verb", [["stats"], ["convert", "--to", "snapshots"]])
def test_a_lifetime_that_misses_a_run_exits_1(capsys, tmp_path, verb):
    # the runs reach 0 and 5, outside the lifetime, so the file names no one trace
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "format": "intervals", "nodes": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "intervals": [[0, 1], [2, 5]]}], "lifetime": [2, 4],
    }))
    assert main([*verb, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tempnet: error: lifetime [2, 4] must be an interval that holds every run\n"


@pytest.mark.parametrize("verb, message", [
    (["sim", "forest"], "the forest simulation needs at least one node"),
    (["sim", "relabel", "--algorithm", "count-uniform"], "relabeling needs at least one node"),
    (["sim", "relabel", "--algorithm", "count-circulate"], "relabeling needs at least one node"),
], ids=["forest", "count-uniform", "count-circulate"])
def test_simulations_on_an_empty_node_set_exit_1(capsys, tmp_path, verb, message):
    # used to end in ZeroDivisionError (forest) and ValueError from max() (counting)
    path = tmp_path / "empty.json"
    path.write_text('{"format":"snapshots","nodes":[],"snapshots":[[]]}')
    assert main([*verb, str(path)]) == 1
    assert capsys.readouterr().err == f"tempnet: error: {message}\n"


@pytest.mark.parametrize("interval", [[], [0], [0, 1, 2]])
def test_interval_without_two_bounds_exits_1(capsys, tmp_path, interval):
    # used to end in a ValueError traceback from unpacking inside IntervalGraph.build
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "format": "intervals", "nodes": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "intervals": [interval]}],
    }))
    assert main(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tempnet: error: malformed interval trace:") and err.count("\n") == 1


def test_exit_code_1_on_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_exit_code_2_on_contract_violations(capsys, trace_file, bull_trace):
    src = trace_file(bull_trace)
    assert main(["robust-mis", src, "--limit-n", "2"]) == 2
    capsys.readouterr()


def test_limit_n_zero_disables_the_guard(capsys, trace_file, menger_fig):
    src = trace_file(menger_fig)
    assert main([
        "journey", src, "--mode", "disjoint", "--from", "s", "--to", "t",
        "--limit-n", "0",
    ]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["components"], ["robust-mis"],
    ["journey", "--mode", "disjoint", "--from", "s", "--to", "t"],
    ["journey", "--mode", "separator", "--from", "s", "--to", "t"],
])
def test_negative_limit_n_is_an_input_error(capsys, trace_file, menger_fig, argv):
    assert main([argv[0], trace_file(menger_fig), *argv[1:], "--limit-n", "-1"]) == 1
    assert capsys.readouterr().err == "tempnet: error: --limit-n must be at least 0, got -1\n"


def test_out_writes_file(capsys, trace_file, journey_fig, tmp_path):
    target = tmp_path / "result.json"
    assert main(["--out", str(target), "stats", trace_file(journey_fig)]) == 0
    capsys.readouterr()
    assert json.loads(target.read_text())["n"] == 5


def test_main_calls_in_one_process_match_calls_run_alone(capsys, monkeypatch, trace_file,
                                                         weekly_line, tmp_path):
    src = trace_file(weekly_line)
    stdin = json.dumps(dump_graph(weekly_line))
    target = tmp_path / "result.json"
    relabel = ["sim", "relabel", src, "--algorithm", "count-circulate"]
    calls = [
        ["stats", src, "--bogus"],
        ["--out", str(target), "stats", src],
        ["stats", src],
        relabel + ["--seed", "3"],
        relabel,
        ["stats", "-"],
        ["param", "--name"],
    ]

    def in_process(argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # usage lines wrap at the terminal width, which a captured child cannot see
    monkeypatch.setenv("COLUMNS", "80")
    env = os.environ | {"PYTHONPATH": str(Path(tempnet.__file__).parents[1])}

    def alone(argv):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from tempnet.cli import main; sys.exit(main())",
             *argv], input=stdin, capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    def written(run, argv):
        target.unlink(missing_ok=True)
        return run(argv) + (target.read_text() if target.exists() else None,)

    in_sequence = [written(in_process, argv) for argv in calls]
    assert in_sequence == [written(alone, argv) for argv in calls]
    usage, to_file, to_stdout, seeded, default_seed, from_stdin, sub_usage = in_sequence
    assert usage[0] == 1 and usage[2].endswith("error: unrecognized arguments: --bogus\n")
    assert sub_usage[0] == 1 and sub_usage[2].startswith("usage: tempnet param")
    assert to_file[:3] == (0, "", "") and to_stdout == (0, to_file[3], "", None)
    assert seeded[1] != default_seed[1]
    assert from_stdin == to_stdout


def test_main_builds_the_parser_once(capsys, monkeypatch, trace_file, journey_fig):
    made = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    cli.build_parser()
    per_build = len(made)
    cli.build_parser.cache_clear()
    made.clear()
    src = trace_file(journey_fig)
    for argv in (["stats", src], ["classify", src], ["sim", "forest", src]):
        assert main(argv) == 0
    capsys.readouterr()
    assert per_build > 1 and len(made) == per_build


RUN_VERBS = """
import contextlib, io, json, sys
from tempnet.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([argv, code, out.getvalue(), err.getvalue()]))
"""


def verb_calls(path, u, v):
    """Every verb, most of their options, and a few errors, on one trace file."""
    calls = [["stats", path], ["classify", path], ["components", path], ["robust-mis", path],
             ["sim", "forest", path, "--checks"],
             # eight unknown nodes: naming the first one a set yields differs between the seeds
             ["robust-mis", path, "--check", *(f"x{i}" for i in range(8))]]
    calls += [["convert", path, "--to", to] for to in ("snapshots", "intervals", "linkstream", "dot")]
    for kind in ("strict", "nonstrict"):
        calls += [["closure", path, "--kind", kind], ["closure", path, "--kind", kind, "--roundtrip"]]
        calls += [["param", path, "--name", name, "--kind", kind]
                  for name in ("tinterval", "delta", "tdiam", "rtdiam", "period", "alpha")]
        route = ["--from", u, "--to", v, "--kind", kind]
        calls += [["journey", path, "--mode", "foremost", "--from", u, "--at", "0", "--kind", kind],
                  ["journey", path, "--mode", "shortest", *route, "--at", "0"],
                  ["journey", path, "--mode", "fastest", *route],
                  ["journey", path, "--mode", "fastest", *route, "--window", "1", "3"],
                  ["journey", path, "--mode", "fastest", *route, "--window", "3", "1"],
                  ["journey", path, "--mode", "latest-departure", *route, "--at", "4"],
                  ["journey", path, "--mode", "disjoint", *route],
                  ["journey", path, "--mode", "separator", *route]]
    calls += [["sim", "relabel", path, "--algorithm", algorithm, "--runs", "3", "--emitter", u,
               "--sentinel", v] for algorithm in ("broadcast", "count-sentinel", "count-uniform",
                                                  "count-circulate")]
    calls += [["windows", path, "--metric", metric, "--width", "2", "--step", "1"]
              for metric in ("tc", "tdiam", f"ecc:{u}")]
    return calls


def test_every_verb_prints_the_same_bytes_under_two_hash_seeds(
        tmp_path, trace_file, journey_fig, distance_fig, menger_fig, bull_trace):
    # stdout and stderr are a function of the input alone, not of set iteration order
    csv = tmp_path / "distance.csv"
    csv.write_text(dump_linkstream(distance_fig))
    calls = (verb_calls(trace_file(journey_fig, "journey.json"), "a", "e")
             + verb_calls(trace_file(distance_fig, "distance.json"), "a", "d")
             + verb_calls(str(csv), "a", "d")
             + verb_calls(trace_file(menger_fig, "menger.json"), "s", "t")
             + verb_calls(trace_file(bull_trace, "bull.json"), "a", "e"))
    env = os.environ | {"PYTHONPATH": str(Path(tempnet.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-c", RUN_VERBS], input=json.dumps(calls),
                           capture_output=True, text=True, check=True,
                           env=env | {"PYTHONHASHSEED": str(seed)}).stdout.splitlines()
            for seed in (0, 1)]
    assert len(runs[0]) == len(runs[1]) == len(calls)
    for first, second in zip(*runs):
        assert first == second
    codes = [json.loads(line)[1] for line in runs[0]]
    assert codes.count(0) > len(calls) * 2 // 3  # mostly answers, not errors
