"""Shared stochastic primitives for the engine and the static estimator.

All times are kept as integer microseconds internally so identical seeds
reproduce identical traces bit for bit; milliseconds appear only at the
API boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .pipeline import (
    DagEdge,
    LinkDelayModel,
    NodeId,
    PipelineDag,
    Placement,
    ServiceTimeModel,
    TaskId,
)
from .streams import Draws

US_PER_MS = 1000


def quantize_us(value_ms: float, resolution_us: int = 1) -> int:
    """Round a millisecond value onto the clock grid, in microseconds."""
    if resolution_us == 1:
        return round(value_ms * US_PER_MS)
    return round(value_ms * US_PER_MS / resolution_us) * resolution_us


def sample_service(
    model: ServiceTimeModel, rng: random.Random | Draws, slowdown: float = 1.0
) -> float:
    """One service time draw in ms: floored Gaussian scaled by slowdown."""
    sd = model.sd
    if sd == 0.0:
        sample = model.mean
    else:
        sample = max(rng.gauss(model.mean, sd), model.floor)
    return sample * slowdown


def sample_link(model: LinkDelayModel, rng: random.Random | Draws) -> tuple[float, bool]:
    """One transmission attempt: (delay in ms, lost flag).

    The delay is max(0, Gaussian(base_delay, jitter_sigma)) scaled by the
    link payload_scale; the loss draw happens even when loss_probability
    is zero so the draw order per attempt is fixed.
    """
    delay = max(0.0, rng.gauss(model.base_delay, model.jitter_sigma)) * model.payload_scale
    lost = rng.random() < model.loss_probability
    return delay, lost


def traverse_edge(
    model: LinkDelayModel,
    edge_scale: float,
    rng: random.Random | Draws,
    resolution_us: int,
) -> tuple[int, bool]:
    """Edge crossing with the single-retransmit rule.

    Returns (delay_us, fatal).  A lost attempt waits a timeout of four
    nominal delays and retransmits once; a second loss kills the cycle
    (fatal=True) and the caller caps its latency at the period.
    """
    delay, lost = sample_link(model, rng)
    if not lost:
        return quantize_us(delay * edge_scale, resolution_us), False
    timeout = quantize_us(4.0 * model.base_delay * model.payload_scale * edge_scale, resolution_us)
    delay2, lost2 = sample_link(model, rng)
    if not lost2:
        return timeout + quantize_us(delay2 * edge_scale, resolution_us), False
    return 0, True


@dataclass(frozen=True)
class StagePlan:
    task: TaskId
    node: NodeId
    model: ServiceTimeModel
    tag: str  # stream the stage draws its service time from
    slowdown: float = 1.0


@dataclass(frozen=True)
class EdgePlan:
    src: TaskId
    link: tuple[NodeId, NodeId] | None  # None when co-located
    model: LinkDelayModel | None
    edge_scale: float
    tag: str | None = None  # stream of the crossing; None when co-located


@dataclass(frozen=True)
class CyclePlan:
    """Placement-specific sampling plan: stage i, then its outgoing edge.

    exogenous_us lists (node, busy µs) that stress load adds to every
    cycle without delaying any stage.
    """

    placement: Placement
    stages: tuple[StagePlan, ...]
    edges: tuple[EdgePlan, ...]  # len(stages) - 1, chain order
    exogenous_us: tuple[tuple[NodeId, int], ...] = ()


def build_cycle_plan(
    dag: PipelineDag,
    placement: Placement,
    delays: Mapping[tuple[NodeId, NodeId], LinkDelayModel] | None = None,
    *,
    slowdown: Mapping[NodeId, float] | None = None,
    exogenous_us: Mapping[NodeId, int] | None = None,
) -> CyclePlan:
    """Resolve per-stage models and per-edge links for one placement.

    Service models come from the dag's tasks.  ``delays`` replaces the
    dag's link table (the engine passes it with the current window's
    faults applied).  ``slowdown`` multiplies the service time of every
    stage on a node and ``exogenous_us`` is the busy time stress adds to a
    node per cycle.
    """
    slowdown = slowdown or {}
    stages = []
    for task in dag.tasks:
        node = placement.node_of(task.id)
        stages.append(
            StagePlan(task.id, node, task.service[node], f"svc:{task.id}", slowdown.get(node, 1.0))
        )

    by_src = {e.src: e for e in dag.edges}
    edges = []
    for stage, nxt in zip(stages, stages[1:]):
        edge: DagEdge = by_src[stage.task]
        if stage.node == nxt.node:
            edges.append(EdgePlan(stage.task, None, None, edge.payload_scale))
            continue
        pair = (stage.node, nxt.node)
        model = dag.link(*pair) if delays is None else delays[pair]
        tag = f"lnk:{pair[0]}:{pair[1]}"
        edges.append(EdgePlan(stage.task, pair, model, edge.payload_scale, tag))
    return CyclePlan(
        placement, tuple(stages), tuple(edges), tuple((exogenous_us or {}).items())
    )


def sample_plan_latency(
    plan: CyclePlan,
    rng: random.Random | Draws,
    deadline_us: int,
    period_us: int,
    resolution_us: int = 1,
) -> tuple[int, bool]:
    """Draw one end-to-end latency for a plan from a sequential rng.

    Returns (latency_us, violated).  Used by the static estimator, which
    does not need per-node busy accounting or stress context.
    """
    total = 0
    for i, stage in enumerate(plan.stages):
        total += quantize_us(sample_service(stage.model, rng), resolution_us)
        if i < len(plan.edges):
            edge = plan.edges[i]
            if edge.link is None:
                continue
            delay_us, fatal = traverse_edge(edge.model, edge.edge_scale, rng, resolution_us)
            if fatal:
                return period_us, True
            total += delay_us
    return total, total > deadline_us


def nominal_node_occupancy(dag: PipelineDag, placement: Placement) -> dict[NodeId, float]:
    """Mean service milliseconds each node hosts per cycle under a placement."""
    busy: dict[NodeId, float] = {}
    for task in dag.tasks:
        node = placement.node_of(task.id)
        busy[node] = busy.get(node, 0.0) + task.service[node].mean
    return busy
