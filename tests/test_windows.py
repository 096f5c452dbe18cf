"""Sliding-window metric series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import seq_of
from strategies import dense_sequences, interval_graphs
from tempnet.core import IntervalGraph, SnapshotSequence
from tempnet.errors import InputError, RangeError
from tempnet.windows import WindowSeries, sliding_metric


def test_window_count_and_starts(weekly_line):
    series = sliding_metric(weekly_line, "tc", width=12, step=7)
    assert [s for s, _ in series.points] == [0, 7, 14, 21, 28]
    assert series.width == 12 and series.step == 7


def test_partial_trailing_window_is_dropped():
    seq = seq_of("ab", ["ab"], ["ab"], ["ab"])
    series = sliding_metric(seq, "tc", width=2, step=2)
    assert [s for s, _ in series.points] == [0]


def test_tc_metric_is_binary(weekly_line):
    series = sliding_metric(weekly_line, "tc", width=31, step=1)
    assert set(v for _, v in series.points) == {1}
    narrow = sliding_metric(weekly_line, "tc", width=7, step=7)
    assert set(v for _, v in narrow.points) == {0}


def test_tdiam_metric_matches_window_worst_case(weekly_line):
    series = sliding_metric(weekly_line, "tdiam", width=31, step=1)
    assert all(v != math.inf for _, v in series.points)
    assert max(v for _, v in series.points) == 30  # last-slot arrivals
    gappy = sliding_metric(seq_of("abc", ["ab"], []), "tdiam", width=1, step=1)
    assert [v for _, v in gappy.points] == [math.inf, math.inf]


def test_ecc_metric_tracks_one_node(weekly_line):
    series = sliding_metric(weekly_line, "ecc:a", width=31, step=7)
    # from a week boundary the chain lands at f on relative day 5
    assert series.points[0] == (0, 5)
    assert all(v <= 11 for _, v in series.points)


@settings(deadline=None)
@given(dense_sequences(min_n=1, max_n=6, max_delta=10))
def test_discrete_series_match_per_window_bruteforce(seq):
    # ecc[s, e, u]: latest foremost arrival from u inside [s, e), relative to s
    nodes = sorted(seq.nodes)
    ecc = {}
    for s in range(seq.delta):
        for e in range(s + 1, seq.delta + 1):
            window = SnapshotSequence(seq.nodes, seq.snapshots[s:e])
            for u in nodes:
                best = oracles.brute_foremost(window, u, 0, "strict")
                arrivals = [best.get(v) for v in nodes if v != u]
                ecc[s, e, u] = math.inf if None in arrivals else max(arrivals, default=0)
    for width in range(1, seq.delta + 1):
        for step in (1, 2, 3):
            starts = range(0, seq.delta - width + 1, step)
            expected = {
                f"ecc:{u}": [ecc[s, s + width, u] for s in starts] for u in nodes
            }
            expected["tdiam"] = [
                max(ecc[s, s + width, u] for u in nodes) for s in starts
            ]
            expected["tc"] = [int(d != math.inf) for d in expected["tdiam"]]
            for metric, values in expected.items():
                series = sliding_metric(seq, metric, width, step)
                assert series.points == tuple(zip(starts, values)), (metric, width, step)


HALVES = st.integers(1, 16).map(lambda k: Fraction(k, 2))
# widths and steps on thirds and fifths lie off the graphs' integer grid, so
# each series cuts its windows out of a rescaled view
OFF_GRID = st.integers(1, 40).map(lambda k: Fraction(k, 5)) | st.integers(1, 24).map(
    lambda k: Fraction(k, 3))


@settings(deadline=None)
@given(interval_graphs(latencies=(Fraction(0), Fraction(1, 2), Fraction(1))), HALVES | OFF_GRID,
       (HALVES | OFF_GRID).filter(lambda x: x >= Fraction(1, 2)))
def test_interval_series_match_per_window_oracle(g, width, step):
    windows = oracles.window_eccentricities(g, width, step)
    starts = [s for s, _ in windows]
    tdiam = [max(eccs.values()) for _, eccs in windows]
    expected = {"tdiam": tdiam, "tc": [int(d != math.inf) for d in tdiam]}
    expected |= {f"ecc:{u}": [eccs[u] for _, eccs in windows] for u in sorted(g.nodes)}
    for metric, values in expected.items():
        assert sliding_metric(g, metric, width, step).points == tuple(zip(starts, values)), metric


@pytest.mark.parametrize("g", [
    SnapshotSequence(frozenset(), (frozenset(), frozenset())),
    IntervalGraph.build([], {}, span=(0, 2)),
])
def test_trace_without_nodes_is_connected(g):
    assert [v for _, v in sliding_metric(g, "tc", 1, 1).points] == [1, 1]
    assert [v for _, v in sliding_metric(g, "tdiam", 1, 1).points] == [0, 0]


def test_metric_validation(weekly_line):
    with pytest.raises(InputError):
        sliding_metric(weekly_line, "girth", 7, 7)
    with pytest.raises(InputError):
        sliding_metric(weekly_line, "ecc:z", 7, 7)


def test_window_geometry_validation(weekly_line):
    with pytest.raises(RangeError):
        sliding_metric(weekly_line, "tc", 0, 1)
    with pytest.raises(RangeError):
        sliding_metric(weekly_line, "tc", 7, 0)
    with pytest.raises(RangeError):
        sliding_metric(weekly_line, "tc", weekly_line.delta + 1, 1)


@pytest.mark.parametrize("width,step", [(Fraction(5, 2), 1), (Fraction(-1, 2), 1), (2, "1/2")])
def test_fractional_snapshot_counts_are_rejected(weekly_line, width, step):
    with pytest.raises(RangeError, match="whole snapshots, got -?[15]/2$"):
        sliding_metric(weekly_line, "tc", width, step)


def test_continuous_series_and_csv_are_exact():
    g = IntervalGraph.build(
        "abc",
        {("a", "b"): [(0, 2)], ("b", "c"): [(1, 3)]},
        latency=Fraction(1, 2),
        span=(0, 4),
    )
    series = sliding_metric(g, "ecc:a", width=2, step=2)
    assert series.points == ((0, Fraction(3, 2)), (2, math.inf))
    assert series.to_csv() == "start,value\n0,3/2\n2,inf\n"


def test_csv_is_byte_stable(weekly_line):
    a = sliding_metric(weekly_line, "tdiam", width=31, step=7).to_csv()
    b = sliding_metric(weekly_line, "tdiam", width=31, step=7).to_csv()
    assert a == b
    assert a.startswith("start,value\n0,")


def test_series_is_a_frozen_record():
    series = WindowSeries("tc", 1, 1, ((0, 1),))
    with pytest.raises(Exception):
        series.width = 2
