"""Stochastic primitives of the engine and the static estimator's batch kernel.

The engine draws each cycle through ``sample_service`` and
``traverse_edge`` from its counter-based streams; its window kernel
(``simulation._Engine.run_window``) computes the same values a column at a
time with the same float operations.  The static estimator
draws a whole estimate at once through ``sample_plan_latencies``, one loop
over a Mersenne Twister that takes exactly the draws those primitives
would take from it, in the same order and with the same float operations.

All times are kept as integer microseconds internally so identical seeds
reproduce identical traces bit for bit; milliseconds appear only at the
API boundary.
"""

from __future__ import annotations

import math
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

# a float: an int µs over it is the same ms as over int 1000, and faster
US_PER_MS = 1000.0


def quantize_us(value_ms: float, resolution_us: int = 1) -> int:
    """Round a millisecond value onto the clock grid, in microseconds."""
    if resolution_us == 1:
        return round(value_ms * US_PER_MS)
    return round(value_ms * US_PER_MS / resolution_us) * resolution_us


def sample_service(
    model: ServiceTimeModel, rng: random.Random | Draws, slowdown: float = 1.0
) -> float:
    """One service time draw in ms: floored Gaussian scaled by slowdown."""
    # the fields once, not through the sd and floor properties: a hot path
    mean = model.mean
    sd = mean * model.cv
    if sd == 0.0:
        sample = mean
    else:
        sample = max(rng.gauss(mean, sd), mean * model.floor_fraction)
    return sample * slowdown


def sample_link(model: LinkDelayModel, rng: random.Random | Draws) -> tuple[float, bool]:
    """One transmission attempt: (delay in ms, lost flag).

    The delay is max(0, Gaussian(base_delay, jitter_sigma)); the loss draw
    happens even when loss_probability is zero so the draw order per
    attempt is fixed.
    """
    delay = max(0.0, rng.gauss(model.base_delay, model.jitter_sigma))
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
    timeout = quantize_us(4.0 * model.base_delay * edge_scale, resolution_us)
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
            edges.append(EdgePlan(None, None, edge.payload_scale))
            continue
        pair = (stage.node, nxt.node)
        model = dag.link(*pair) if delays is None else delays[pair]
        tag = f"lnk:{pair[0]}:{pair[1]}"
        edges.append(EdgePlan(pair, model, edge.payload_scale, tag))
    return CyclePlan(
        placement, tuple(stages), tuple(edges), tuple((exogenous_us or {}).items())
    )


def _normal(random, cached: float | None) -> tuple[float, float | None]:
    """One standard normal and the new cached one, as ``random.Random.gauss``
    draws them from ``random`` given its cached ``gauss_next``."""
    if cached is not None:
        return cached, None
    x2pi = random() * math.tau
    g2rad = math.sqrt(-2.0 * math.log(1.0 - random()))
    return math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad


def sample_plan_latencies(
    plan: CyclePlan,
    rng: random.Random,
    samples: int,
    deadline_us: int,
    period_us: int,
) -> tuple[list[int], int]:
    """Draw ``samples`` end-to-end latencies for a plan from one Mersenne Twister.

    Returns (latencies_us, violations).  The static estimator's batch
    kernel: it needs no per-node busy accounting or stress context, and it
    draws exactly what ``sample_service`` and ``traverse_edge`` would draw
    stage by stage on the same ``rng``, in the same order and with the same
    float operations.  ``random.Random.gauss`` is inlined, its cached second
    normal included, and ``rng.gauss_next`` is read on entry and written
    back on exit, so ``rng.getstate()`` afterwards is the same too.  A
    double loss caps the cycle at the period and counts as a violation.
    """
    # zero-sd stages draw nothing, so their quantized time is one constant;
    # every other stage and each crossing edge is one step of the loop:
    # (is_link, mu, sigma, floor or loss, slowdown or edge scale, timeout_us)
    fixed_us = 0
    steps = []
    for stage, edge in zip(plan.stages, (*plan.edges, None)):
        model = stage.model
        sd = model.sd
        if sd == 0.0:
            fixed_us += quantize_us(model.mean * stage.slowdown)
        else:
            steps.append((False, model.mean, sd, model.floor, stage.slowdown, 0))
        if edge is not None and edge.link is not None:
            link, scale = edge.model, edge.edge_scale
            timeout_us = quantize_us(4.0 * link.base_delay * scale)
            steps.append(
                (True, link.base_delay, link.jitter_sigma, link.loss_probability, scale, timeout_us)
            )

    random = rng.random
    sqrt, log, cos, sin, tau = math.sqrt, math.log, math.cos, math.sin, math.tau
    cached = rng.gauss_next
    latencies: list[int] = []
    append = latencies.append
    violations = 0
    for _ in range(samples):
        total = fixed_us
        for is_link, mu, sigma, bound, factor, timeout_us in steps:
            # _normal inlined: a call per step costs about a fifth of the kernel
            if cached is None:
                x2pi = random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                z = cos(x2pi) * g2rad
                cached = sin(x2pi) * g2rad
            else:
                z = cached
                cached = None
            value = mu + z * sigma
            if not is_link:
                if bound > value:  # the floor, as max(value, floor)
                    value = bound
                total += round(value * factor * US_PER_MS)
                continue
            delay = value if value > 0.0 else 0.0
            if random() >= bound:
                total += round(delay * factor * US_PER_MS)
                continue
            # lost: wait the timeout and retransmit once
            z, cached = _normal(random, cached)
            value = mu + z * sigma
            delay = value if value > 0.0 else 0.0
            if random() < bound:
                break
            total += timeout_us + round(delay * factor * US_PER_MS)
        else:
            append(total)
            if total > deadline_us:
                violations += 1
            continue
        append(period_us)
        violations += 1
    rng.gauss_next = cached
    return latencies, violations


def nominal_node_occupancy(dag: PipelineDag, placement: Placement) -> dict[NodeId, float]:
    """Mean service milliseconds each node hosts per cycle under a placement."""
    busy: dict[NodeId, float] = {}
    for task in dag.tasks:
        node = placement.node_of(task.id)
        busy[node] = busy.get(node, 0.0) + task.service[node].mean
    return busy
