"""Stochastic primitives of the engine, and the static estimator's draws.

The engine's window kernel (``simulation._Engine.run_window``) computes
service times and delivered first attempts a column at a time with
``_clamped_us``, the float operations of ``sample_service`` and
``traverse_edge``; a cycle that loses a first attempt goes through those
primitives (``_Engine.run_cycle``).  The static estimator computes its
lanes the same way over ``StaticDraws`` and hands each lost lane to
``traverse_edge`` over a ``Replay`` of its draws, so only ``traverse_edge``
decides a lost crossing's delay and fatality.

All times are kept as integer microseconds internally so identical seeds
reproduce identical traces bit for bit; milliseconds appear only at the
API boundary.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

from .pipeline import (
    DagEdge,
    LinkDelayModel,
    NodeId,
    PipelineDag,
    Placement,
    ServiceTimeModel,
    TaskId,
)
from .streams import Draws, RandomStreams

# a float: an int µs over it is the same ms as over int 1000, and faster
US_PER_MS = 1000.0


def quantize_us(value_ms: float) -> int:
    """Round a millisecond value to whole microseconds."""
    return round(value_ms * US_PER_MS)


def sample_service(
    model: ServiceTimeModel, rng: Draws | Replay, slowdown: float = 1.0
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


def sample_link(model: LinkDelayModel, rng: Draws | Replay) -> tuple[float, bool]:
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
    rng: Draws | Replay,
) -> tuple[int, bool]:
    """Edge crossing with the single-retransmit rule.

    Returns (delay_us, fatal).  A lost attempt waits a timeout of four
    nominal delays and retransmits once; a second loss kills the cycle
    (fatal=True) and the caller caps its latency at the period.
    """
    delay, lost = sample_link(model, rng)
    if not lost:
        return quantize_us(delay * edge_scale), False
    timeout = quantize_us(4.0 * model.base_delay * edge_scale)
    delay2, lost2 = sample_link(model, rng)
    if not lost2:
        return timeout + quantize_us(delay2 * edge_scale), False
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


class Replay:
    """A handle over given draws, in order: ``gauss(mu, sigma)`` is ``mu +
    sigma * z`` of the next, z a standard normal; ``random()`` is the next."""

    __slots__ = ("_next",)

    def __init__(self, draws: Sequence[float]):
        self._next = iter(draws).__next__

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return mu + sigma * self._next()

    def random(self) -> float:
        return self._next()


class StaticDraws:
    """The static estimator's draws: ``samples`` lanes per tag, read by every
    candidate (common random numbers, named by task or link, never placement).

    A tag's columns come from ``streams.fresh(f"static:{tag}")`` on first
    read, in one order: standard normals (``ceil(samples / 2)`` Box-Muller
    pairs, both normals of each), then, for a lossy link, first-attempt loss
    uniforms, retransmit normals and retransmit loss uniforms.  So a column
    is a pure function of (seed, tag, which draw, samples).
    """

    def __init__(self, streams: RandomStreams, samples: int):
        self.streams = streams
        self.samples = samples
        self._draws: dict[str, list] = {}  # tag -> [its generator's random, *columns]
        self._columns: dict[tuple, array] = {}

    def drawn(self, tag: str, count: int = 1) -> list[array]:
        """The first ``count`` of ``tag``'s four draw columns, in their order."""
        if (drawn := self._draws.get(tag)) is None:
            drawn = self._draws[tag] = [self.streams.fresh(f"static:{tag}").random]
        random, n = drawn[0], self.samples
        while len(drawn) <= count:
            if len(drawn) % 2:  # normals: the pairs' cosines, then their sines
                pairs = [(math.sqrt(-2.0 * math.log(1.0 - random())), math.tau * random())
                         for _ in range((n + 1) // 2)]
                column = [r * math.cos(t) for r, t in pairs] + [r * math.sin(t) for r, t in pairs]
            else:
                column = [random() for _ in range(n)]
            drawn.append(array("d", column[:n]))
        return drawn[1:count + 1]

    def column(self, tag: str, mu: float, sigma: float, low: float, scale: float) -> array:
        """``_clamped_us`` of ``tag``'s normals, computed once per argument set;
        with ``sigma`` 0.0 it draws nothing: each lane is ``quantize_us(mu * scale)``."""
        key = (tag, mu, sigma, low, scale)
        if (column := self._columns.get(key)) is None:
            column = self._columns[key] = (
                array("q", [quantize_us(mu * scale)]) * self.samples if sigma == 0.0
                else array("q", _clamped_us(self.drawn(tag)[0], *key[1:])))
        return column

    def replay(self, tag: str, lane: int) -> Replay:
        """Lane ``lane``'s draws of ``tag`` in the order ``traverse_edge`` takes
        them: first-attempt normal and loss, retransmit normal and loss."""
        return Replay([column[lane] for column in self.drawn(tag, 4)])


def _clamped_us(normals: Sequence[float], mu: float, sigma: float, low: float,
                scale: float) -> list[int]:
    """``quantize_us(max(mu + sigma * z, low) * scale)`` of each lane's
    standard normal z, in one pass: ``sample_service``'s draw with ``low``
    its floor, or ``traverse_edge``'s first attempt with ``low`` 0.0.  Its
    ``max(0.0, v)`` differs from ``max(v, 0.0)`` only at v = -0.0, which
    rounds to the same 0 µs."""
    return [round((low if low > (v := mu + sigma * z) else v) * scale * US_PER_MS)
            for z in normals]


def _add_columns(columns: Sequence[Sequence[int]], count: int, constant: int = 0) -> list[int]:
    """The element-wise sum of ``count``-long columns, plus ``constant``."""
    return list(map(sum, zip(*columns), repeat(constant))) if columns else [constant] * count


def nominal_node_occupancy(dag: PipelineDag, placement: Placement) -> dict[NodeId, float]:
    """Mean service milliseconds each node hosts per cycle under a placement."""
    busy: dict[NodeId, float] = {}
    for task in dag.tasks:
        node = placement.node_of(task.id)
        busy[node] = busy.get(node, 0.0) + task.service[node].mean
    return busy
