"""Cost scoring, switching penalty, and constrained selection."""

import pytest
from hypothesis import given, strategies as st

from conftest import make_dag
from dtpsim.cost import (
    Constraints,
    ScoredCandidate,
    Weights,
    is_feasible,
    select_placement,
    switching_penalty,
    total_cost,
)
from dtpsim.metrics import NormalizedMetrics, WindowMetrics
from dtpsim.pipeline import Placement, canonical_candidates

CANDS = canonical_candidates(make_dag())
LOC = CANDS.by_name("LOC")
SO = CANDS.by_name("SO")
HYB = CANDS.by_name("HYB")


def metrics(l95=20.0, vr=0.0, ur=0.0, ue=0.0):
    return WindowMetrics(l95, vr, ur, ue)


def scored(placement, cost, l95=20.0, per_node=None):
    return ScoredCandidate(placement, metrics(l95=l95), per_node or {}, cost)


def test_switching_penalty_examples():
    assert switching_penalty(LOC, LOC) == 0.0
    assert switching_penalty(LOC, SO) == 0.5
    assert switching_penalty(LOC, HYB) == 0.25
    assert switching_penalty(SO, HYB) == 0.25


def test_switching_penalty_is_symmetric_and_exhaustive():
    expected = {
        ("LOC", "LOC"): 0.0, ("SO", "SO"): 0.0, ("HYB", "HYB"): 0.0,
        ("LOC", "SO"): 0.5, ("SO", "LOC"): 0.5,
        ("LOC", "HYB"): 0.25, ("HYB", "LOC"): 0.25,
        ("SO", "HYB"): 0.25, ("HYB", "SO"): 0.25,
    }
    for a in CANDS:
        for b in CANDS:
            assert switching_penalty(a, b) == expected[(a.name, b.name)]


def test_switching_penalty_rejects_mismatched_task_sets():
    other = Placement("X", {"T1": "R1"})
    with pytest.raises(ValueError, match="different task sets"):
        switching_penalty(LOC, other)


def test_cost_worked_example_without_switch():
    w = Weights(1.0, 2.0, 0.5, 0.5, 0.25)
    n = NormalizedMetrics(0.75, 0.02, 0.75, 0.5)
    assert total_cost(n, LOC, LOC, w) == pytest.approx(1.415, abs=1e-12)


def test_cost_worked_example_with_switch():
    w = Weights(1.0, 2.0, 0.5, 0.5, 0.25)
    n = NormalizedMetrics(0.75, 0.02, 0.75, 0.5)
    assert total_cost(n, LOC, SO, w) == pytest.approx(1.54, abs=1e-12)


def test_cost_zero_case():
    assert total_cost(NormalizedMetrics(0, 0, 0, 0), LOC, LOC, Weights()) == 0.0


def test_cost_rejects_non_finite_metrics():
    with pytest.raises(ValueError):
        total_cost(NormalizedMetrics(float("inf"), 0, 0, 0), LOC, LOC, Weights())
    with pytest.raises(ValueError):
        total_cost(NormalizedMetrics(-0.1, 0, 0, 0), LOC, LOC, Weights())


def test_weights_reject_negative_values():
    with pytest.raises(ValueError):
        Weights(alpha_l=-0.1)


def test_weights_warn_when_violations_do_not_dominate():
    with pytest.warns(UserWarning, match="alpha_v > alpha_l > alpha_s"):
        Weights(alpha_l=1.0, alpha_v=0.5)
    with pytest.warns(UserWarning):
        Weights(alpha_s=1.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(
    n=st.tuples(*[st.floats(0.0, 10.0) for _ in range(4)]),
    w=st.tuples(*[st.floats(0.0, 5.0) for _ in range(5)]),
)
def test_cost_is_linear_in_weights(n, w):
    norm = NormalizedMetrics(*n)
    weights = Weights(*w)
    doubled = Weights(*[2 * x for x in w])
    j = total_cost(norm, LOC, SO, weights)
    assert total_cost(norm, LOC, SO, doubled) == pytest.approx(2 * j)
    # basis decomposition pins each weight to its metric
    parts = [
        total_cost(norm, LOC, SO, Weights(*[w[i] if i == k else 0.0 for i in range(5)]))
        for k in range(5)
    ]
    assert sum(parts) == pytest.approx(j)
    assert parts[0] == pytest.approx(w[0] * n[0])
    assert parts[4] == pytest.approx(w[4] * 0.5)


CONSTRAINTS = Constraints(l95_max=40.0, util_max=0.95)


def test_select_unique_minimum():
    pool = [scored(LOC, 1.2), scored(SO, 0.9), scored(HYB, 1.0)]
    choice, feasible = select_placement(pool, CONSTRAINTS, incumbent="LOC")
    assert choice.placement.name == "SO"
    assert feasible


def test_select_tie_prefers_incumbent():
    pool = [scored(LOC, 0.9), scored(SO, 0.9), scored(HYB, 1.5)]
    choice, feasible = select_placement(pool, CONSTRAINTS, incumbent="LOC")
    assert choice.placement.name == "LOC"
    assert feasible
    choice, _ = select_placement(pool, CONSTRAINTS, incumbent="SO")
    assert choice.placement.name == "SO"


def test_select_tie_prefers_smaller_move():
    # neither tied candidate is the incumbent; HYB is the smaller move away
    pool = [scored(LOC, 1.2), scored(SO, 0.8), scored(HYB, 0.8)]
    choice, _ = select_placement(pool, CONSTRAINTS, incumbent="LOC")
    assert choice.placement.name == "HYB"


def test_select_tie_falls_back_to_candidate_order():
    twin_a = Placement("A", dict(SO.assignment))
    twin_b = Placement("B", dict(SO.assignment))
    pool = [scored(Placement("I", dict(LOC.assignment)), 2.0),
            scored(twin_a, 0.8), scored(twin_b, 0.8)]
    choice, _ = select_placement(pool, CONSTRAINTS, incumbent="I")
    assert choice.placement.name == "A"


def test_select_skips_latency_infeasible_minimum():
    pool = [scored(LOC, 1.2, l95=30.0), scored(SO, 0.9, l95=45.0), scored(HYB, 1.3, l95=30.0)]
    choice, feasible = select_placement(pool, CONSTRAINTS, incumbent="LOC")
    assert choice.placement.name == "LOC"
    assert feasible


def test_select_enforces_per_node_utilization_cap():
    pool = [
        scored(LOC, 1.2, per_node={"R1": 0.3}),
        scored(SO, 0.9, per_node={"E": 0.97}),
        scored(HYB, 1.3, per_node={"E": 0.5}),
    ]
    choice, feasible = select_placement(pool, CONSTRAINTS, incumbent="LOC")
    assert choice.placement.name == "LOC"
    assert feasible
    assert not is_feasible(pool[1], CONSTRAINTS)


def test_select_all_infeasible_returns_min_with_flag():
    pool = [scored(LOC, 1.2, l95=50.0), scored(SO, 0.9, l95=60.0), scored(HYB, 1.3, l95=70.0)]
    choice, feasible = select_placement(pool, CONSTRAINTS, incumbent="LOC")
    assert choice.placement.name == "SO"
    assert not feasible


def test_select_rejects_unknown_incumbent():
    with pytest.raises(ValueError, match="incumbent"):
        select_placement([scored(LOC, 1.0)], CONSTRAINTS, incumbent="SO")


def test_constraints_validate_bounds():
    with pytest.raises(ValueError):
        Constraints(l95_max=0.0)
    with pytest.raises(ValueError):
        Constraints(l95_max=40.0, util_max=1.5)
