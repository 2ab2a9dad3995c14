"""Window aggregation: nearest-rank percentile, violations, utilization."""

import math
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import cycle_store
from dtpsim.metrics import (
    Columns,
    NormalizationTargets,
    WindowMetrics,
    aggregate_window,
    class_utilization,
    normalize,
    percentile_nearest_rank,
)
from dtpsim.pipeline import ComputeNode, Fabric


def window(*records):
    """The columns of (latency ms, met, {node: busy ms}) cycles."""
    return cycle_store(records, nodes=("R1", "R2", "E")).columns()


def test_percentile_of_1_to_100_at_95():
    assert percentile_nearest_rank(list(range(1, 101)), 0.95) == 95


def test_percentile_single_sample():
    assert percentile_nearest_rank([7.0], 0.42) == 7.0


def test_percentile_full_is_max():
    assert percentile_nearest_rank([3.0, 1.0, 2.0], 1.0) == 3.0


def test_percentile_median_of_even_list_is_lower_middle():
    assert percentile_nearest_rank(list(range(1, 11)), 0.5) == 5


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        percentile_nearest_rank([], 0.95)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile_nearest_rank([1.0], 1.5)


@given(
    samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
    p=st.sampled_from([0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]),
)
def test_percentile_matches_fraction_exact_rank(samples, p):
    # independent oracle: exact rational rank arithmetic over the full sort
    rank = math.ceil(Fraction(str(p)) * len(samples))
    expected = sorted(samples)[max(rank, 1) - 1]
    assert percentile_nearest_rank(samples, p) == expected


@given(samples=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_percentile_returns_a_member(samples):
    assert percentile_nearest_rank(samples, 0.95) in samples


@given(
    samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50),
    p_lo=st.floats(0.05, 1.0),
    p_hi=st.floats(0.05, 1.0),
)
def test_percentile_monotone_in_fraction(samples, p_lo, p_hi):
    if p_lo > p_hi:
        p_lo, p_hi = p_hi, p_lo
    assert percentile_nearest_rank(samples, p_lo) <= percentile_nearest_rank(samples, p_hi)


def small_fabric():
    return Fabric((ComputeNode("R1", "robot"), ComputeNode("E", "edge")))


def test_uniform_window_aggregates_trivially():
    records = window(*[(10.0, True, {})] * 20)
    m, per_node = aggregate_window(records, 20 * 30.0, small_fabric())
    assert (m.l95, m.violation_rate, m.util_robot, m.util_edge) == (10.0, 0.0, 0.0, 0.0)
    assert per_node == {"R1": 0.0, "R2": 0.0, "E": 0.0}


def test_one_late_cycle_in_ten():
    latencies = [5.0] * 9 + [50.0]
    records = window(*[(lat, lat <= 30.0, {}) for lat in latencies])
    m, _ = aggregate_window(records, 10 * 30.0, small_fabric())
    assert m.violation_rate == pytest.approx(0.1)
    assert m.l95 == 50.0


def test_busy_time_becomes_utilization():
    records = window(*[(5.0, True, {"R1": 10.0})] * 4)
    m, per_node = aggregate_window(records, 4 * 20.0, small_fabric())
    assert per_node["R1"] == pytest.approx(0.5)
    assert m.util_robot == pytest.approx(0.5)
    assert m.util_edge == 0.0


def test_class_utilization_averages_over_nodes():
    # 10 ms of each 20 ms cycle on R1, none on R2, over 4 cycles
    assert class_utilization({"R1": 40_000, "R2": 0}, 4 * 20.0, ["R1", "R2"]) == 0.25
    # a node without a busy sum counts as idle
    assert class_utilization({"R1": 40_000}, 4 * 20.0, ["R1", "R2"]) == 0.25


def test_class_utilization_clamps_overload():
    records = window(*[(5.0, True, {"R1": 30.0})] * 4)
    m, per_node = aggregate_window(records, 4 * 20.0, small_fabric())
    assert m.util_robot == per_node["R1"] == 1.0


@given(
    busy=st.lists(
        st.lists(st.integers(0, 10**8), min_size=1, max_size=60), min_size=1, max_size=4
    ),
    duration=st.floats(0.5, 1e5),
)
def test_node_utilization_is_the_class_utilization_of_each_node(busy, duration):
    # one pass of sums gives both: each node's share equals, to the last bit,
    # a one-node class's (the same integer sum over US_PER_MS * duration * 1),
    # overloaded (clamped) nodes included, and each class's is the class of its sums
    count = min(map(len, busy))
    nodes = [f"N{i}" for i in range(len(busy))]
    columns = Columns(
        array("q", [0] * count),
        bytearray(count),
        {node: array("q", us[:count]) for node, us in zip(nodes, busy)},
    )
    sums = {node: sum(us) for node, us in columns.busy_us.items()}
    kinds = ["edge", "robot"] * 2
    fabric = Fabric(tuple(map(ComputeNode, nodes, kinds)))
    m, per_node = aggregate_window(columns, duration, fabric)
    assert list(per_node) == nodes
    for node in nodes:
        assert per_node[node] == min(1.0, max(0.0, sums[node] / (1000.0 * duration * 1)))
        assert per_node[node] == class_utilization(sums, duration, [node])
    assert m.util_robot == class_utilization(sums, duration, nodes[1::2])
    assert m.util_edge == class_utilization(sums, duration, nodes[::2])


def test_aggregate_rejects_empty_window():
    with pytest.raises(ValueError):
        aggregate_window(window(), 100.0, small_fabric())


def test_normalize_divides_by_targets():
    m = WindowMetrics(1, l95=30.0, violation_rate=0.25, util_robot=0.8, util_edge=0.4)
    n = normalize(m, NormalizationTargets(latency=40.0, util_robot=0.8, util_edge=0.8))
    assert n.l95 == pytest.approx(0.75)
    assert n.violation_rate == 0.25
    assert n.util_robot == pytest.approx(1.0)
    assert n.util_edge == pytest.approx(0.5)


def test_window_metrics_validates_rates():
    with pytest.raises(ValueError):
        WindowMetrics(1, 10.0, violation_rate=1.5, util_robot=0.0, util_edge=0.0)
    with pytest.raises(ValueError):
        WindowMetrics(1, 10.0, violation_rate=0.0, util_robot=-0.1, util_edge=0.0)
