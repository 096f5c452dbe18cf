"""Trace classes, coverings, periods, and robust independent sets."""

import itertools

import pytest
from hypothesis import given

import oracles
from conftest import graph_of, seq_of
from strategies import KINDS, interval_graphs, sequences
from tempnet import classes as classes_module, core, hierarchy
from tempnet.classes import (
    CLASS_NAMES,
    ClassReport,
    bounded_realization_delta,
    classify,
    find_robust_mis,
    finite_class_membership,
    is_robust_mis,
    smallest_period,
    verify_covering,
)
from tempnet.closure import roundtrip_closure
from tempnet.core import SnapshotSequence, StaticGraph, discretize, footprint, stats
from tempnet.errors import ContractError, InputError


def test_journey_fig_memberships(journey_fig):
    assert finite_class_membership(journey_fig, "J1A") == (True, "a")
    assert finite_class_membership(journey_fig, "JA1") == (True, "c")
    assert finite_class_membership(journey_fig, "TC") == (False, None)
    assert finite_class_membership(journey_fig, "TCrt") == (False, None)
    assert finite_class_membership(journey_fig, "E1A") == (True, "c")
    assert finite_class_membership(journey_fig, "K") == (False, None)


def test_membership_rejects_unknowns(journey_fig):
    with pytest.raises(InputError):
        finite_class_membership(journey_fig, "XYZ")
    with pytest.raises(InputError):
        finite_class_membership(journey_fig, "TC", kind="loose")


@given(sequences(max_n=5, max_delta=4), KINDS)
def test_class_implications(seq, kind):
    member = {
        name: finite_class_membership(seq, name, kind)[0] for name in CLASS_NAMES
    }
    if member["K"]:
        assert member["TC"]  # a shared edge is a one-hop journey
    if member["E1A"]:
        assert member["J1A"] and member["JA1"]
    if member["TCrt"]:
        assert member["TC"]
    if member["TC"]:
        assert member["J1A"] and member["JA1"]


@given(sequences(max_n=5, max_delta=5), KINDS)
def test_reach_classes_read_the_brute_closure(seq, kind):
    arcs = oracles.brute_closure_arcs(seq, kind)
    nodes = sorted(seq.nodes)

    def least(members):
        return (True, members[0]) if members else (False, None)

    reach_all = [u for u in nodes if all((u, v) in arcs for v in nodes if v != u)]
    reached_by_all = [v for v in nodes if all((u, v) in arcs for u in nodes if u != v)]
    assert finite_class_membership(seq, "J1A", kind) == least(reach_all)
    assert finite_class_membership(seq, "JA1", kind) == least(reached_by_all)
    assert finite_class_membership(seq, "TC", kind) == (len(arcs) == len(nodes) * (len(nodes) - 1), None)


@pytest.mark.parametrize("kind", ["strict", "nonstrict"])
def test_reach_classes_on_one_node_and_no_nodes(kind):
    one, empty = SnapshotSequence(frozenset("a"), (frozenset(),)), SnapshotSequence(frozenset(), (frozenset(),))
    assert [finite_class_membership(one, name, kind) for name in ("J1A", "JA1", "TC")] == [
        (True, "a"), (True, "a"), (True, None)]
    assert [finite_class_membership(empty, name, kind) for name in ("J1A", "JA1", "TC")] == [
        (False, None), (False, None), (True, None)]


@given(sequences(max_n=4, max_delta=4))
def test_strict_membership_implies_nonstrict(seq):
    for name in CLASS_NAMES:
        if finite_class_membership(seq, name, "strict")[0]:
            assert finite_class_membership(seq, name, "nonstrict")[0]


def test_smallest_period(weekly_line):
    assert smallest_period(seq_of("abc", ["ab"], ["bc"], ["ab"], ["bc"])) == 2
    assert smallest_period(seq_of("ab", ["ab"], ["ab"], ["ab"])) == 1
    assert smallest_period(seq_of("abc", ["ab"], ["bc"], ["bc"])) is None
    assert smallest_period(weekly_line) == 7


def test_bounded_realization_examples(weekly_line):
    assert bounded_realization_delta(seq_of("abc", ["ab"], ["bc"], ["ab"], ["bc"])) == 2
    assert bounded_realization_delta(seq_of("ab", ["ab"], [], [], ["ab"])) == 3
    assert bounded_realization_delta(seq_of("ab", ["ab"], ["ab"])) == 1
    assert bounded_realization_delta(weekly_line) == 7


@given(sequences(max_n=4, max_delta=6))
def test_period_bounds_realization(seq):
    p = smallest_period(seq)
    if p is not None:
        # p consecutive snapshots hit every residue, so they union everything
        assert bounded_realization_delta(seq) <= p


def test_verify_covering_modes(covering_fig):
    assert verify_covering(covering_fig, {"d"}, "temporal")
    assert not verify_covering(covering_fig, {"a"}, "temporal")
    assert verify_covering(
        covering_fig, [{"a", "d"}, {"b", "d"}, {"b", "c"}], "evolving"
    )
    # a sits isolated in the first snapshot, so it must be selected there
    assert not verify_covering(
        covering_fig, [{"d"}, {"b", "d"}, {"b", "c"}], "evolving"
    )
    assert verify_covering(covering_fig, {"a", "b", "d"}, "permanent")
    assert not verify_covering(covering_fig, {"d"}, "permanent")


def test_verify_covering_input_errors(covering_fig):
    with pytest.raises(InputError, match="^unknown node 'y' in covering$"):
        verify_covering(covering_fig, {"z", "y", "d"}, "temporal")  # the least unknown node
    with pytest.raises(InputError):
        verify_covering(covering_fig, [{"a"}], "evolving")  # wrong stage count
    with pytest.raises(InputError):
        verify_covering(covering_fig, {"d"}, "sometimes")


def test_robust_mis_fixtures(triangle, square, bull):
    assert find_robust_mis(triangle) is None
    assert find_robust_mis(square) == frozenset("ac")
    assert is_robust_mis(square, {"b", "d"})
    assert find_robust_mis(bull) == frozenset("ade")
    assert not is_robust_mis(bull, {"a", "c"})


def test_robust_mis_rejects_bad_inputs(square):
    with pytest.raises(InputError):
        is_robust_mis(graph_of("abcd", ["ab", "cd"]), {"a"})
    with pytest.raises(InputError):
        is_robust_mis(square, {"z"})
    with pytest.raises(ContractError):
        find_robust_mis(square, limit_n=2)


def test_robust_mis_non_mis_candidates(square):
    assert not is_robust_mis(square, {"a", "b"})  # not independent
    assert not is_robust_mis(square, {"a"})  # not maximal


def test_robust_check_matches_literal_oracle_on_all_4_node_graphs():
    nodes = "abcd"
    pairs = list(itertools.combinations(nodes, 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        g = StaticGraph(frozenset(nodes), edges)
        if not g.is_connected():
            continue
        for k in range(1, 5):
            for cand in itertools.combinations(nodes, k):
                assert is_robust_mis(g, cand) == oracles.robust_mis_literal_oracle(
                    g, set(cand)
                )


def test_classify_report_shape(journey_fig):
    report = classify(journey_fig)
    assert isinstance(report, ClassReport)
    data = report.to_json()
    assert set(data) == set(CLASS_NAMES) | {
        "delta", "period", "tinterval", "tdiam", "rtdiam", "alpha"
    }
    assert data["J1A"] == {"strict": True, "nonstrict": True, "witness": "a"}
    assert data["TC"]["strict"] is False
    assert data["delta"] == 4  # only the full trace accumulates the footprint
    assert data["period"] is None
    assert data["tinterval"] is None  # some snapshot is already disconnected


@given(sequences(max_n=4, max_delta=4))
def test_classify_reads_the_direct_memberships(seq):
    # classify runs the non-strict test only where the strict one fails
    report = classify(seq)
    for name in CLASS_NAMES:
        s_ok, s_wit = finite_class_membership(seq, name, "strict")
        n_ok, n_wit = finite_class_membership(seq, name, "nonstrict")
        witness = s_wit if s_ok else n_wit
        assert report.classes[name] == {"strict": s_ok, "nonstrict": n_ok, "witness": witness}
    algebras = {"delta": hierarchy.footprint_realization(footprint(seq)),
                "tinterval": hierarchy.tinterval(), "tdiam": hierarchy.tdiameter("strict"),
                "rtdiam": hierarchy.rt_tdiameter("strict")}
    for field, algebra in algebras.items():
        assert getattr(report, field) == hierarchy.extremal(algebra, seq).value


@given(sequences(max_n=4, max_delta=4))
def test_classify_builds_no_strict_roundtrip_closure(seq):
    # strict TCrt is read off the rtdiam walk; a failed strict test runs the non-strict closure
    kinds = []

    def counted(g, window=None, kind="strict"):
        kinds.append(kind)
        return roundtrip_closure(g, window, kind)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classes_module, "roundtrip_closure", counted)
        report = classify(seq)
    assert kinds == ([] if report.classes["TCrt"]["strict"] else ["nonstrict"])


@given(interval_graphs(max_n=4), KINDS)
def test_footprint_answers_of_an_interval_graph_never_discretize(ig, kind):
    # a trace and its discretization share one footprint, and mu is one sweep over the runs
    seq = discretize(ig).sequence
    covers = [set(c) for r in range(len(ig.nodes) + 1)
              for c in itertools.combinations(sorted(ig.nodes), r)]

    def answers(g):
        return ([finite_class_membership(g, name, kind) for name in ("E1A", "K")],
                [verify_covering(g, cover, "temporal") for cover in covers])

    expected = answers(seq)
    mu = max(len(s) for s in seq.snapshots)

    def refuse(g):
        raise AssertionError("discretize called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "discretize", refuse)
        assert answers(ig) == expected
        assert stats(ig).mu == mu
        with pytest.raises(InputError, match="^unknown covering mode 'sometimes'$"):
            verify_covering(ig, [], "sometimes")


def test_classify_continuous_goes_through_discretization(distance_fig):
    report = classify(distance_fig)
    assert report.classes["TC"]["strict"] is False  # nothing ever reaches a
    assert report.classes["J1A"]["strict"] is True
