"""Compute fabric, four-stage task chain, placements, and nominal latency.

The pipeline is a fixed chain T1 -> T2 -> T3 -> T4 (sense, perceive, plan,
act).  T1 and T4 are anchored to the robot nodes that own the sensor and
the actuator; T2 and T3 may also run on an edge server: a task runs on
the nodes its service map names.  A placement maps every task to one node,
and the end-to-end latency of a cycle is the sum of stage service times
plus the payload-scaled link delay of every edge between two nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

NodeId = str
TaskId = str

TASK_ORDER: tuple[TaskId, ...] = ("T1", "T2", "T3", "T4")
CHAIN_EDGES: tuple[tuple[TaskId, TaskId], ...] = (("T1", "T2"), ("T2", "T3"), ("T3", "T4"))
NODE_KINDS = ("robot", "edge")

LOCAL = "LOC"
STATIC_OFFLOAD = "SO"
HYBRID = "HYB"


class InfeasiblePlacementError(ValueError):
    """A placement assigns some task outside its feasible node set."""

    def __init__(self, task: TaskId, node: NodeId):
        self.task = task
        self.node = node
        super().__init__(f"task {task} cannot run on node {node}")


@dataclass(frozen=True)
class ComputeNode:
    """One compute resource in the fabric.

    utilization_target is the operating point used to normalize observed
    utilization; the per-node bound a placement must keep is
    ``cost.Constraints.util_max``.
    """

    id: NodeId
    kind: str = "robot"
    utilization_target: float = 0.8

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"node {self.id}: unknown kind {self.kind!r}")
        target = self.utilization_target
        if not 0.0 < target <= 1.0:
            raise ValueError(f"node {self.id}: utilization_target must be in (0, 1], got {target}")


@dataclass(frozen=True)
class Fabric:
    """Ordered set of compute nodes."""

    nodes: tuple[ComputeNode, ...]

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {ids}")

    def __iter__(self) -> Iterator[ComputeNode]:
        return iter(self.nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        return any(n.id == node_id for n in self.nodes)

    def ids(self) -> tuple[NodeId, ...]:
        return tuple(n.id for n in self.nodes)

    def of_kind(self, kind: str) -> tuple[ComputeNode, ...]:
        return tuple(n for n in self.nodes if n.kind == kind)

    @cached_property
    def robot_ids(self) -> tuple[NodeId, ...]:
        """The ids of the robot nodes, in fabric order, built once."""
        return tuple(n.id for n in self.of_kind("robot"))

    @cached_property
    def edge_ids(self) -> tuple[NodeId, ...]:
        """The ids of the edge nodes, in fabric order, built once."""
        return tuple(n.id for n in self.of_kind("edge"))


@dataclass(frozen=True)
class ServiceTimeModel:
    """Truncated-Gaussian service time in milliseconds.

    Samples are drawn as Gaussian(mean, cv * mean) and floored at
    floor_fraction * mean so they stay positive.  cv = 0 gives the mean
    exactly.  A zero mean is permitted for analytic edge cases and always
    samples to zero.
    """

    mean: float
    cv: float = 0.0
    floor_fraction: float = 0.01

    def __post_init__(self):
        if self.mean < 0 or not math.isfinite(self.mean):
            raise ValueError(f"service mean must be finite and >= 0, got {self.mean}")
        if not 0.0 <= self.cv < math.inf:
            raise ValueError(f"service cv must be finite and >= 0, got {self.cv}")
        if not 0.0 <= self.floor_fraction < math.inf:
            raise ValueError(f"floor_fraction must be finite and >= 0, got {self.floor_fraction}")

    @property
    def sd(self) -> float:
        return self.mean * self.cv

    @property
    def floor(self) -> float:
        return self.mean * self.floor_fraction


@dataclass(frozen=True)
class LinkDelayModel:
    """One-way delay model for an ordered node pair.

    Delay samples are max(0, Gaussian(base_delay, jitter_sigma)); the
    crossing DagEdge's payload_scale scales them.  loss_probability applies
    independently to each transmission attempt.
    """

    base_delay: float
    jitter_sigma: float = 0.0
    loss_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.base_delay < math.inf:
            raise ValueError(f"base_delay must be finite and >= 0, got {self.base_delay}")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(f"loss_probability must be in [0, 1), got {self.loss_probability}")


@dataclass(frozen=True)
class TaskStage:
    """One stage of the chain; its feasible nodes are the keys of ``service``."""

    id: TaskId
    service: Mapping[NodeId, ServiceTimeModel]

    def __post_init__(self):
        if not self.service:
            raise ValueError(f"task {self.id}: service map is empty")

    @property
    def feasible(self) -> frozenset[NodeId]:
        return frozenset(self.service)


@dataclass(frozen=True)
class DagEdge:
    """Directed dependency between consecutive stages.

    payload_scale reflects the size of the data crossing this edge and
    multiplies the link delay whenever the endpoints are on different
    nodes (raw frames are heavier than trajectory setpoints).
    """

    src: TaskId
    dst: TaskId
    payload_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.payload_scale < math.inf:
            raise ValueError(f"edge {self.src}->{self.dst}: payload_scale must be finite and >= 0")


@dataclass(frozen=True)
class PipelineDag:
    """The task chain plus the link models of the underlying network."""

    tasks: tuple[TaskStage, ...]
    edges: tuple[DagEdge, ...]
    links: Mapping[tuple[NodeId, NodeId], LinkDelayModel]

    def __post_init__(self):
        object.__setattr__(self, "links", dict(self.links))

    def task_ids(self) -> tuple[TaskId, ...]:
        return tuple(t.id for t in self.tasks)

    def task(self, task_id: TaskId) -> TaskStage:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(task_id)

    def link(self, a: NodeId, b: NodeId) -> LinkDelayModel:
        """Delay model for the ordered pair (a, b) of distinct nodes."""
        try:
            return self.links[(a, b)]
        except KeyError:
            raise KeyError(f"no link model for {a}->{b}") from None


@dataclass(frozen=True)
class Placement:
    """Total assignment of tasks to nodes, identified by name."""

    name: str
    assignment: Mapping[TaskId, NodeId]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def node_of(self, task_id: TaskId) -> NodeId:
        return self.assignment[task_id]


@dataclass(frozen=True)
class CandidateSet:
    """Ordered candidate placements; order breaks final ties."""

    members: tuple[Placement, ...]

    def __post_init__(self):
        names = [p.name for p in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate candidate names: {names}")
        if not self.members:
            raise ValueError("candidate set is empty")

    def __iter__(self) -> Iterator[Placement]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.members)

    def by_name(self, name: str) -> Placement:
        for p in self.members:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_pipeline(dag: PipelineDag, fabric: Fabric) -> ValidationReport:
    """Structural and referential checks; returns every violation found."""
    problems: list[str] = []
    ids = dag.task_ids()
    if ids != TASK_ORDER:
        problems.append(f"non-chain topology: tasks must be {list(TASK_ORDER)}, got {list(ids)}")

    # the exact chain also rules out every cycle
    edge_pairs = [(e.src, e.dst) for e in dag.edges]
    if sorted(edge_pairs) != sorted(CHAIN_EDGES):
        problems.append(
            f"non-chain topology: edges must be {list(CHAIN_EDGES)}, got {edge_pairs}"
        )

    node_ids = set(fabric.ids())
    for task in dag.tasks:
        for node in sorted(task.feasible):
            if node not in node_ids:
                problems.append(f"unknown node: task {task.id} lists {node}")

    # sink/source anchoring: sensing and actuation cannot move off their robots
    by_id = {t.id: t for t in dag.tasks}
    for anchor, expected in (("T1", "R1"), ("T4", "R2")):
        task = by_id.get(anchor)
        if task is None:
            continue
        if len(task.feasible) != 1:
            problems.append(f"infeasible anchor: {anchor} must be pinned to one node, got {sorted(task.feasible)}")
        elif {"R1", "R2", "E"} <= node_ids and task.feasible != {expected}:
            problems.append(f"infeasible anchor: {anchor} must be pinned to {expected}, got {sorted(task.feasible)}")
    if {"R1", "R2", "E"} <= node_ids:
        for movable, allowed in (("T2", {"R1", "E"}), ("T3", {"R2", "E"})):
            task = by_id.get(movable)
            if task is not None and not task.feasible <= allowed:
                problems.append(
                    f"infeasible anchor: {movable} may only use {sorted(allowed)}, got {sorted(task.feasible)}"
                )

    for a, b in sorted(dag.links):
        if a == b:
            problems.append(f"self-link {a}->{b}: co-located stages cross no link")

    for edge in dag.edges:
        if edge.src not in by_id or edge.dst not in by_id:
            problems.append(f"unknown task in edge {edge.src}->{edge.dst}")
            continue
        for a in sorted(by_id[edge.src].feasible):
            for b in sorted(by_id[edge.dst].feasible):
                if a != b and (a, b) not in dag.links:
                    problems.append(f"missing link model: {a}->{b}")

    return ValidationReport(tuple(dict.fromkeys(problems)))


def check_feasible(dag: PipelineDag, placement: Placement) -> None:
    """Raise InfeasiblePlacementError if any task sits on a forbidden node."""
    for task in dag.tasks:
        node = placement.assignment.get(task.id)
        if node is None or node not in task.feasible:
            raise InfeasiblePlacementError(task.id, str(node))


def nominal_latency(dag: PipelineDag, placement: Placement) -> float:
    """No-jitter, no-loss end-to-end latency of one cycle in milliseconds.

    Sum of the mean service time of every stage on its assigned node plus
    the scaled base delay of every edge that crosses between nodes.
    """
    check_feasible(dag, placement)
    total = 0.0
    for task in dag.tasks:
        total += task.service[placement.node_of(task.id)].mean
    for edge in dag.edges:
        a = placement.node_of(edge.src)
        b = placement.node_of(edge.dst)
        if a == b:
            continue
        total += dag.link(a, b).base_delay * edge.payload_scale
    return total


def canonical_candidates(dag: PipelineDag) -> CandidateSet:
    """The three placements the controller chooses between.

    LOC keeps perception and planning on the robots, SO offloads both to
    the edge server, HYB offloads perception only.  Requires the canonical
    R1/R2/E fabric to be reachable from the task feasible sets.
    """
    assignments = {
        LOCAL: {"T1": "R1", "T2": "R1", "T3": "R2", "T4": "R2"},
        STATIC_OFFLOAD: {"T1": "R1", "T2": "E", "T3": "E", "T4": "R2"},
        HYBRID: {"T1": "R1", "T2": "E", "T3": "R2", "T4": "R2"},
    }
    members = []
    for name, assignment in assignments.items():
        placement = Placement(name, assignment)
        try:
            check_feasible(dag, placement)
        except InfeasiblePlacementError as exc:
            raise ValueError(f"canonical candidate {name} not constructible: {exc}") from exc
        members.append(placement)
    return CandidateSet(tuple(members))
