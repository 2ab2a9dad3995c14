"""Shared builders for the canonical two-robot/one-edge pipeline."""

from typing import NamedTuple

import pytest

from dtpsim import simulation
from dtpsim.controller import ControllerConfig
from dtpsim.cost import Constraints, Weights
from dtpsim.metrics import CycleStore, NormalizationTargets
from dtpsim.pipeline import (
    ComputeNode,
    DagEdge,
    Fabric,
    LinkDelayModel,
    PipelineDag,
    ServiceTimeModel,
    TaskStage,
    canonical_candidates,
)

NODE_PAIRS = [
    ("R1", "E"), ("E", "R1"),
    ("R2", "E"), ("E", "R2"),
    ("R1", "R2"), ("R2", "R1"),
]


def cycle_store(records, nodes=("R1", "R2", "E"), period=30.0):
    """A store of (latency ms, met, {node: busy ms}) cycles."""
    store = CycleStore(nodes, period)
    for latency, met, busy in records:
        us = [round(busy.get(n, 0.0) * 1000) for n in nodes]
        store.append((round(latency * 1000), met, us))
    return store


def reference_rows(dag, fabric, sim, placements, window, stresses=(), faults=()):
    """Each placement's fixed-run rows by name, computed cycle by cycle by
    ``_Engine.run_cycle`` over each window's plans: the oracle that the
    window kernel's stores are checked against."""
    engine = simulation._Engine(fabric, sim)
    rows = {p.name: [] for p in placements}
    for k in range(1, sim.horizon + 1):
        plans = simulation._window_plans(k, placements, stresses, faults, dag, sim)
        cycles = range((k - 1) * window, k * window)
        for name, out in rows.items():
            out.extend(engine.run_cycle(plans[name], i) for i in cycles)
    return rows


def store_rows(store):
    """Every row of a CycleStore, read from its columns, in the
    (latency µs, met, busy µs) form of ``run_cycle``."""
    return [
        (latency, met, list(busy))
        for latency, met, busy in zip(store.latency_us, store.met, zip(*store.busy_us))
    ]


class Cycle(NamedTuple):
    """One cycle of a store in ms, as ``cycles.csv`` writes it."""

    cycle_index: int
    e2e_latency: float
    deadline_met: bool
    busy_time: dict
    release_ms: float
    placement: str


def cycle_records(trace, start=0, stop=None):
    """Cycles ``[start:stop]`` of a SimTrace as Cycles, read from the columns
    of its store, each under the placement of its window."""
    store = trace.cycles
    window = len(store) // len(trace.windows) if trace.windows else None
    return [
        Cycle(
            i,
            store.latency_us[i] / 1000.0,
            bool(store.met[i]),
            {node: column[i] / 1000.0 for node, column in zip(store.nodes, store.busy_us)},
            i * store.period,
            trace.windows[i // window].placement,
        )
        for i in range(len(store))[start:stop]
    ]


def trace_reference_rows(trace, reference, window):
    """The ``reference_rows`` row of each cycle of ``trace``, under the
    placement active in its window."""
    return [
        reference[trace.windows[i // window].placement][i] for i in range(len(trace.cycles))
    ]


def make_fabric():
    return Fabric((
        ComputeNode("R1", "robot"),
        ComputeNode("R2", "robot"),
        ComputeNode("E", "edge"),
    ))


def make_dag(
    means=(2.0, 10.0, 8.0, 2.0),
    cv=0.0,
    base=1.0,
    jitter=0.0,
    loss=0.0,
    edge_scales=(1.0, 1.0, 1.0),
):
    """Canonical 4-stage chain; every link shares one delay model."""
    feasible = {"T1": ("R1",), "T2": ("R1", "E"), "T3": ("R2", "E"), "T4": ("R2",)}
    tasks = tuple(
        TaskStage(tid, {node: ServiceTimeModel(mean, cv) for node in feasible[tid]})
        for tid, mean in zip(("T1", "T2", "T3", "T4"), means)
    )
    edges = (
        DagEdge("T1", "T2", edge_scales[0]),
        DagEdge("T2", "T3", edge_scales[1]),
        DagEdge("T3", "T4", edge_scales[2]),
    )
    links = {
        pair: LinkDelayModel(base, jitter, loss) for pair in NODE_PAIRS
    }
    return PipelineDag(tasks, edges, links)


def controller_policy(dag, window_size=8, n_min=1):
    return ControllerConfig(
        window_size=window_size,
        candidates=canonical_candidates(dag),
        weights=Weights(),
        constraints=Constraints(l95_max=40.0),
        targets=NormalizationTargets(latency=40.0),
        delta_min=0.1,
        n_min=n_min,
        initial_placement="LOC",
    )


@pytest.fixture
def fabric():
    return make_fabric()


@pytest.fixture
def dag():
    return make_dag()
