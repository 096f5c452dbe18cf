"""Command line behaviour: verbs, formats, exit codes, golden outputs."""

import json

import pytest

from tempnet.cli import main
from tempnet.io import dump_graph


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
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("u,v,start,end\na,b,0,2\n"))
    data = run_json(capsys, "stats", "-", "--latency", "1/10")
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


def test_robust_mis(capsys, trace_file, bull_trace):
    src = trace_file(bull_trace)
    assert run_json(capsys, "robust-mis", src) == {"robust_mis": ["a", "d", "e"]}
    assert run_json(capsys, "robust-mis", src, "--check", "a", "c") == {"valid": False}


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


@pytest.mark.parametrize("args,error", [
    (["fastest", "--to", "c", "--window", "1/2", "3"], "discrete window bound must be an integer, got 1/2"),
    (["shortest", "--to", "c", "--at", "1/2"], "discrete start time must be an integer, got 1/2"),
    (["latest-departure", "--to", "c", "--at=-1/2"], "discrete time must be an integer, got -1/2"),
])
def test_journey_rejects_fractional_discrete_times(capsys, trace_file, journey_fig, args, error):
    # a-c is present at 0, which int() truncation used to return for 1/2
    assert main(["journey", trace_file(journey_fig), "--from", "a", "--mode", *args]) == 1
    assert capsys.readouterr().err == f"tempnet: error: {error}\n"


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


def test_out_writes_file(capsys, trace_file, journey_fig, tmp_path):
    target = tmp_path / "result.json"
    assert main(["--out", str(target), "stats", trace_file(journey_fig)]) == 0
    capsys.readouterr()
    assert json.loads(target.read_text())["n"] == 5
