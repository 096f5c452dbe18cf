"""Serialization round-trips and golden text formats."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seq_of
from strategies import interval_graphs, sequences
from tempnet.closure import strict_closure
from tempnet.errors import InputError
from tempnet.io import (
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
from tempnet.journeys import Journey


def test_format_time_spellings():
    assert format_time(None) is None
    assert format_time(float("inf")) == "inf"
    assert format_time(3) == 3
    assert format_time(Fraction(6, 2)) == 3
    assert format_time(Fraction(501, 100)) == "501/100"


@given(sequences())
def test_snapshot_json_roundtrip(seq):
    assert load_graph(dump_graph(seq)) == seq


@given(interval_graphs())
def test_interval_json_roundtrip(ig):
    payload = dump_graph(ig)
    assert load_graph(json.dumps(payload)) == ig


@given(interval_graphs())
def test_linkstream_roundtrip_keeps_presence(ig):
    back = load_linkstream(dump_linkstream(ig), latency=ig.latency)
    # the CSV carries no span and drops isolated nodes; compare presences
    assert back.edges == {e: ivs for e, ivs in ig.edges.items()}


def test_linkstream_rejects_bad_header_and_rows():
    with pytest.raises(InputError):
        load_linkstream("a,b,c\n")
    with pytest.raises(InputError):
        load_linkstream("u,v,start,end\na,b,0\n")


@pytest.mark.parametrize(
    "payload",
    [
        {"format": "snapshots", "nodes": ["a", 2], "snapshots": [[["a", 2]]]},
        {"format": "snapshots", "nodes": ["a", "b"], "snapshots": [[["a", 2]]]},
        {"format": "intervals", "nodes": ["a", 2],
         "edges": [{"u": "a", "v": 2, "intervals": [[0, 1]]}]},
        {"format": "intervals", "nodes": [None, "b"], "edges": []},
    ],
)
def test_load_graph_requires_string_node_ids(payload):
    with pytest.raises(InputError, match="node ids must be strings"):
        load_graph(payload)


def test_linkstream_canonicalizes_endpoint_order():
    g = load_linkstream("u,v,start,end\nb,a,0,2\n")
    assert ("a", "b") in g.edges


@pytest.mark.parametrize(
    "payload",
    ["not json", "[]", '{"format":"nope"}', '{"format":"snapshots"}'],
)
def test_load_graph_rejects_malformed(payload):
    with pytest.raises(InputError):
        load_graph(payload)


@pytest.mark.parametrize(
    "nodes, edge, message",
    [
        (["a", "b"], ["a"], "malformed snapshot trace: not enough values to unpack (expected 2, got 1)"),
        (["a", "b"], [1, "b"], "node ids must be strings, got 1 and 'b'"),
        (["a", "b"], ["a", "c"], "edge ('a', 'c') has endpoint outside the node set"),
        # malformed in shape and in ids: the shape is reported first
        (["a", 2], ["a"], "malformed snapshot trace: not enough values to unpack (expected 2, got 1)"),
        # endpoints that are JSON arrays compare, but cannot be ids
        (["a", "b"], [["x"], ["y"]], "node ids must be strings, got ['x'] and ['y']"),
        (["a", "b"], [["x"], ["x"]], "self-loop at ['x'] rejected"),
        (["a", "b"], [[], "a"], "node ids must be non-empty strings"),
    ],
)
def test_snapshot_load_error_messages(nodes, edge, message):
    with pytest.raises(InputError) as exc:
        load_graph({"format": "snapshots", "nodes": nodes, "snapshots": [[edge]]})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "payload, message",
    [
        # a two-character string unpacks into two endpoints, and an object iterates over its keys
        ({"snapshots": [["ab"]]}, "malformed snapshot trace: an edge must be an array, got str"),
        ({"snapshots": {"": 1}}, "malformed snapshot trace: a snapshot must be an array, got str"),
        ({"snapshots": [{"ab": 1}]}, "malformed snapshot trace: a snapshot must be an array, got dict"),
        ({"snapshots": {"ab": 1}}, "malformed snapshot trace: not enough values to unpack (expected 2, got 1)"),
        ({"nodes": "ab"}, "malformed snapshot trace: nodes must be an array, got str"),
        ({"nodes": {"a": 1, "b": 2}}, "malformed snapshot trace: nodes must be an array, got dict"),
        # the shape comes first, the ids after it
        ({"nodes": "a2", "snapshots": [[["a", 2]]]}, "malformed snapshot trace: nodes must be an array, got str"),
        ({"format": "intervals", "edges": [{"u": "a", "v": "b", "intervals": ["01"]}]},
         "malformed interval trace: an interval must be an array, got str"),
        ({"format": "intervals", "edges": [{"u": "a", "v": "b", "intervals": {"01": 1}}]},
         "malformed interval trace: intervals must be an array, got dict"),
        ({"format": "intervals", "edges": {}}, "malformed interval trace: edges must be an array, got dict"),
        ({"format": "intervals", "nodes": "ab", "edges": []},
         "malformed interval trace: nodes must be an array, got str"),
    ],
)
def test_load_graph_rejects_what_only_iterates_like_an_array(payload, message):
    trace = {"format": "snapshots", "nodes": ["a", "b"], "snapshots": [[]]} | payload
    for data in (trace, json.dumps(trace)):
        with pytest.raises(InputError) as exc:
            load_graph(data)
        assert str(exc.value) == message


NAMES = st.sampled_from(["a", "b", "c"])
IDS = st.one_of(NAMES, NAMES, st.sampled_from(["", None, 1]), st.lists(NAMES, max_size=2))
PAIRS = st.one_of(
    st.lists(IDS, min_size=2, max_size=2), st.lists(IDS, min_size=2, max_size=2),
    st.lists(IDS, max_size=3), st.lists(st.lists(NAMES, min_size=1, max_size=2), min_size=2, max_size=2),
)
SNAPSHOT_TRACES = st.fixed_dictionaries({
    "format": st.just("snapshots"),
    "nodes": st.one_of(st.lists(NAMES, max_size=4), st.lists(IDS, max_size=4)),
    "snapshots": st.one_of(
        st.lists(st.lists(PAIRS, max_size=4), max_size=4),
        st.sampled_from(["", {"": 0}]),  # shapes that iterate like an empty snapshot list or row
    ),
})


def _loaded(data):
    try:
        return load_graph(data)
    except InputError as exc:
        return str(exc)


@settings(max_examples=300)
@given(SNAPSHOT_TRACES)
def test_loading_text_equals_loading_its_decoded_dict(trace):
    before = copy.deepcopy(trace)
    assert _loaded(json.dumps(trace)) == _loaded(trace)
    assert trace == before  # a caller's dict is left as it was


@given(sequences(), st.randoms())
def test_each_edge_is_one_tuple_shared_by_every_snapshot(seq, rnd):
    payload = dump_graph(seq)
    for row in payload["snapshots"]:
        for pair in row:
            rnd.shuffle(pair)  # the same edge given in either order
    loaded = load_graph(json.dumps(payload))
    assert loaded == seq
    first: dict = {}
    for snap in loaded.snapshots:
        for e in snap:
            assert first.setdefault(e, e) is e


def test_lifetime_key_restores_span():
    dumped = dump_graph(
        load_graph(
            '{"format":"intervals","latency":1,"nodes":["a","b"],'
            '"edges":[{"u":"a","v":"b","intervals":[[2,3]]}],"lifetime":[0,9]}'
        )
    )
    assert dumped["lifetime"] == [0, 9]


def test_lifetime_keeps_fraction_bounds():
    g = load_graph({"format": "intervals", "nodes": ["a", "b"],
                    "edges": [{"u": "a", "v": "b", "intervals": [[1, 2]]}], "lifetime": [0, "5/2"]})
    assert g.span == (0, Fraction(5, 2))
    assert dump_graph(g)["lifetime"] == [0, "5/2"]


def test_closure_dot_is_stable(journey_fig):
    c = strict_closure(journey_fig)
    dot = closure_to_dot(c)
    assert dot == closure_to_dot(c)
    assert dot.startswith("digraph closure {\n")
    assert '"a" -> "b";' in dot


def test_closure_json_shape(journey_fig):
    data = closure_to_json(strict_closure(journey_fig))
    assert data["nodes"] == ["a", "b", "c", "d", "e"]
    assert ["a", "b"] in data["arcs"]


def test_static_dot(journey_fig):
    from tempnet.core import footprint

    dot = static_to_dot(footprint(journey_fig))
    assert dot.startswith("graph g {\n")
    assert '"a" -- "b";' in dot


def test_journey_json_roundtrip_discrete():
    j = Journey((("a", "b", 1), ("b", "c", 2)), "strict", None)
    assert journey_from_json(journey_to_json(j)) == j


def test_journey_json_roundtrip_continuous():
    z = Fraction(1, 100)
    j = Journey((("a", "b", Fraction(3, 2)),), "nonstrict", z)
    back = journey_from_json(journey_to_json(j), latency=z)
    assert back == j
    assert back.hops[0][2] == Fraction(3, 2)


def test_journey_json_rejects_bad_kind():
    with pytest.raises(InputError):
        journey_from_json({"hops": [], "kind": "loose"})


@pytest.mark.parametrize(
    "hops, message",
    [
        # a three-character string unpacks into (u, v, t), and an object iterates over its keys
        (["ab1"], "malformed journey: a hop must be an array, got str"),
        ({"ab1": 0}, "malformed journey: hops must be an array, got dict"),
        # the read names a fault it meets first
        ("ab1", "malformed journey: not enough values to unpack (expected 3, got 1)"),
    ],
    ids=["string-hop", "object-hops", "string-hops"],
)
def test_journey_json_rejects_malformed_hops(hops, message):
    with pytest.raises(InputError) as exc:
        journey_from_json(json.dumps({"hops": hops, "kind": "strict"}))
    assert str(exc.value) == message


def test_journey_json_takes_tuples_from_python_callers():
    assert journey_from_json({"hops": (("a", "b", 1),), "kind": "strict"}).hops == (("a", "b", 1),)
