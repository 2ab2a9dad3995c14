"""Topology validation, candidate construction, and nominal latency."""

import pytest
from hypothesis import given, strategies as st

from conftest import NODE_PAIRS, make_dag, make_fabric
from dtpsim.pipeline import (
    CandidateSet,
    ComputeNode,
    DagEdge,
    Fabric,
    InfeasiblePlacementError,
    LinkDelayModel,
    PipelineDag,
    Placement,
    ServiceTimeModel,
    TaskStage,
    canonical_candidates,
    check_feasible,
    nominal_latency,
    validate_pipeline,
)


def test_canonical_pipeline_is_valid(fabric):
    report = validate_pipeline(make_dag(), fabric)
    assert report.ok, report.problems


def test_fabric_ids_of_each_kind_keep_the_fabric_order():
    fabric = Fabric((ComputeNode("E2", "edge"), ComputeNode("R1", "robot"),
                     ComputeNode("E1", "edge"), ComputeNode("R2", "robot")))
    assert fabric.robot_ids == ("R1", "R2")
    assert fabric.edge_ids == ("E2", "E1")
    assert fabric.robot_ids is fabric.robot_ids  # built once per fabric
    assert fabric == Fabric(fabric.nodes)


def test_candidate_names_and_assignments(dag):
    cands = canonical_candidates(dag)
    assert cands.names() == ("LOC", "SO", "HYB")
    assert cands.by_name("LOC").assignment == {"T1": "R1", "T2": "R1", "T3": "R2", "T4": "R2"}
    assert cands.by_name("SO").assignment == {"T1": "R1", "T2": "E", "T3": "E", "T4": "R2"}
    assert cands.by_name("HYB").assignment == {"T1": "R1", "T2": "E", "T3": "R2", "T4": "R2"}


def test_back_edge_is_reported_as_non_chain_topology(fabric):
    # the exact-chain check rejects every edge set with a cycle
    dag = make_dag()
    looped = PipelineDag(dag.tasks, dag.edges + (DagEdge("T3", "T1"),), dag.links)
    report = validate_pipeline(looped, fabric)
    assert not report.ok
    assert any(p.startswith("non-chain topology: edges must be") for p in report.problems)


def test_unknown_node_is_reported(fabric):
    dag = make_dag()
    t3 = dag.tasks[2]
    moved = TaskStage(t3.id, {**t3.service, "Rx": ServiceTimeModel(8.0)})
    broken = PipelineDag(dag.tasks[:2] + (moved, dag.tasks[3]), dag.edges, dag.links)
    report = validate_pipeline(broken, fabric)
    assert any("unknown node: task T3 lists Rx" in p for p in report.problems)
    assert any("infeasible anchor: T3" in p for p in report.problems)


def test_unanchored_sensing_task_is_reported(fabric):
    dag = make_dag()
    t1 = dag.tasks[0]
    floating = TaskStage(t1.id, {"R1": t1.service["R1"], "E": ServiceTimeModel(2.0)})
    broken = PipelineDag((floating,) + dag.tasks[1:], dag.edges, dag.links)
    report = validate_pipeline(broken, fabric)
    assert any("infeasible anchor: T1 must be pinned to one node" in p for p in report.problems)


def test_missing_link_model_is_reported(fabric):
    dag = make_dag()
    links = {pair: dag.links[pair] for pair in NODE_PAIRS if pair != ("R1", "E")}
    report = validate_pipeline(PipelineDag(dag.tasks, dag.edges, links), fabric)
    assert any("missing link model: R1->E" in p for p in report.problems)


def test_nonzero_self_link_is_reported(fabric):
    # co-located stages cross no link, so even a zero-delay self-link is never read
    dag = make_dag()
    for delay in (0.5, 0.0):
        links = {**dag.links, ("E", "E"): LinkDelayModel(delay)}
        report = validate_pipeline(PipelineDag(dag.tasks, dag.edges, links), fabric)
        assert report.problems == ("self-link E->E: co-located stages cross no link",)


def test_check_feasible_rejects_forbidden_node(dag):
    bad = Placement("X", {"T1": "R1", "T2": "R2", "T3": "R2", "T4": "R2"})
    with pytest.raises(InfeasiblePlacementError):
        check_feasible(dag, bad)
    check_feasible(dag, canonical_candidates(dag).by_name("SO"))


def test_duplicate_candidate_names_rejected(dag):
    loc = canonical_candidates(dag).by_name("LOC")
    with pytest.raises(ValueError, match="duplicate"):
        CandidateSet((loc, loc))


# hand-evaluated nominal latencies; the middle crossing of LOC rides the
# inter-robot link, SO pays both robot-edge hops, HYB pays upload and return
def test_nominal_latency_local_uniform_means():
    dag = make_dag(means=(5.0, 5.0, 5.0, 5.0), base=1.0)
    loc = canonical_candidates(dag).by_name("LOC")
    assert nominal_latency(dag, loc) == 21.0


def test_nominal_latency_offload_and_hybrid():
    dag = make_dag(means=(2.0, 10.0, 8.0, 2.0), base=1.0)
    cands = canonical_candidates(dag)
    assert nominal_latency(dag, cands.by_name("SO")) == 24.0
    assert nominal_latency(dag, cands.by_name("HYB")) == 24.0


def test_nominal_latency_zero_case():
    dag = make_dag(means=(0.0, 0.0, 0.0, 0.0), base=0.0)
    for placement in canonical_candidates(dag):
        assert nominal_latency(dag, placement) == 0.0


def test_nominal_latency_applies_payload_scales():
    dag = make_dag(means=(2.0, 10.0, 8.0, 2.0), base=2.0, edge_scales=(1.0, 2.0, 1.5))
    cands = canonical_candidates(dag)
    # LOC crosses only (T2,T3): 22 + 2*2
    assert nominal_latency(dag, cands.by_name("LOC")) == 26.0
    # SO crosses (T1,T2) and (T3,T4): 22 + 2 + 2*1.5
    assert nominal_latency(dag, cands.by_name("SO")) == 27.0
    # HYB crosses (T1,T2) and (T2,T3): 22 + 2 + 4
    assert nominal_latency(dag, cands.by_name("HYB")) == 28.0


def test_colocated_placement_ignores_links():
    tasks = tuple(
        TaskStage(tid, {"R1": ServiceTimeModel(mean)})
        for tid, mean in zip(("T1", "T2", "T3", "T4"), (2.0, 10.0, 8.0, 2.0))
    )
    edges = (DagEdge("T1", "T2"), DagEdge("T2", "T3"), DagEdge("T3", "T4"))
    dag = PipelineDag(tasks, edges, {("R1", "R2"): LinkDelayModel(50.0)})
    everything_local = Placement("X", {t.id: "R1" for t in tasks})
    assert nominal_latency(dag, everything_local) == 22.0


@given(
    means=st.tuples(*[st.floats(0.0, 50.0) for _ in range(4)]),
    base=st.floats(0.0, 20.0),
    extra=st.floats(0.0, 30.0),
)
def test_nominal_latency_monotone_in_base_delay(means, base, extra):
    slower = make_dag(means=means, base=base + extra)
    faster = make_dag(means=means, base=base)
    for name in ("LOC", "SO", "HYB"):
        fast = nominal_latency(faster, canonical_candidates(faster).by_name(name))
        slow = nominal_latency(slower, canonical_candidates(slower).by_name(name))
        assert slow >= fast


@given(means=st.tuples(*[st.floats(0.0, 50.0) for _ in range(4)]))
def test_nominal_latency_at_least_total_service(means):
    dag = make_dag(means=means, base=3.0)
    for placement in canonical_candidates(dag):
        assert nominal_latency(dag, placement) >= sum(means) - 1e-9
