"""Candidate QoS estimation for placements that are not currently active.

The engine estimates a challenger one of two ways:

* static: Monte Carlo over the DAG's own models, with each node's
  ``sampling.nominal_node_occupancy`` over the period as its utilization,
  until the challenger has half a window of shadow cycles,
* shadow: ``aggregate_window`` over its last W shadow cycles (simulated
  under the candidate in the live environment, not actuated) after.

A static estimate reads only the DAG's base models, the fabric, the
period, the deadline, the sample count and its generator (the engine
seeds it from the run's seed and the candidate's name), never a stress or
a fault.  It is therefore the same in every scenario run with one seed,
period and deadline: ``run_simulation`` reads and fills a mapping of them
(``static_estimates``) keyed by candidate name, seed, period, deadline and
sample count, and ``dtpsim run`` shares one across all its scenarios.

``estimate_conservative`` scales an observed window by pessimistic ratios;
the engine does not call it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .metrics import (
    CycleStore,
    WindowMetrics,
    aggregate_window,
    fsum_mean,
    percentile_nearest_rank,
)
from .pipeline import Fabric, PipelineDag, Placement
from .sampling import (
    US_PER_MS,
    build_cycle_plan,
    nominal_node_occupancy,
    quantize_us,
    sample_plan_latencies,
)

MIN_STATIC_SAMPLES = 100

MECHANISM_STATIC = "static"
MECHANISM_SHADOW = "shadow"
MECHANISM_CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class EstimateReport:
    """Predicted window under a candidate placement."""

    placement: str
    metrics: WindowMetrics
    per_node_utilization: Mapping[str, float]
    sample_count: int
    mechanism: str


@dataclass(frozen=True)
class ConservativeRatios:
    """Pessimism factors per metric component; all must be >= 1."""

    latency: float = 1.5
    violation: float = 1.5
    util_robot: float = 1.2
    util_edge: float = 1.2

    def __post_init__(self):
        for name in ("latency", "violation", "util_robot", "util_edge"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"conservative ratio {name} must be >= 1")


def estimate_static(
    dag: PipelineDag,
    placement: Placement,
    fabric: Fabric,
    deadline: float,
    period: float,
    samples: int,
    rng: random.Random,
) -> EstimateReport:
    """Monte Carlo latency prediction from the DAG's service and link models.

    Draws ``samples`` end-to-end latencies (including the loss/retransmit
    rule), reports nearest-rank l95 and the fraction violating the
    deadline, and derives utilization from mean occupancy.
    """
    if samples < MIN_STATIC_SAMPLES:
        raise ValueError(f"static estimation needs >= {MIN_STATIC_SAMPLES} samples, got {samples}")
    if deadline > period:
        raise ValueError("deadline must not exceed period")
    latencies_us, violations = sample_plan_latencies(
        build_cycle_plan(dag, placement), rng, samples, quantize_us(deadline), quantize_us(period)
    )
    occupancy = nominal_node_occupancy(dag, placement)
    per_node = {n: min(1.0, max(0.0, occupancy.get(n, 0.0) / period)) for n in fabric.ids()}
    metrics = WindowMetrics(
        # the µs -> ms division is monotone, so the rank can be taken on the ints
        l95=percentile_nearest_rank(latencies_us, 0.95) / US_PER_MS,
        violation_rate=violations / samples,
        util_robot=fsum_mean([per_node[n] for n in fabric.robot_ids]),
        util_edge=fsum_mean([per_node[n] for n in fabric.edge_ids]),
    )
    return EstimateReport(placement.name, metrics, per_node, samples, MECHANISM_STATIC)


def update_shadow(
    history: CycleStore,
    placement: str,
    window_size: int,
    period: float,
    fabric: Fabric,
) -> EstimateReport:
    """Aggregate the most recent shadow cycles into a predicted window; the
    per-node utilization covers the nodes of ``history``'s columns."""
    if not history:
        raise ValueError("shadow history is empty")
    recent = history.columns(-window_size)
    count = len(recent.latency_us)
    duration = count * period
    metrics, per_node = aggregate_window(recent, duration, fabric)
    return EstimateReport(placement, metrics, per_node, count, MECHANISM_SHADOW)


def estimate_conservative(
    observed: WindowMetrics,
    placement: str,
    ratios: ConservativeRatios,
    fabric: Fabric | None = None,
    per_node_utilization: Mapping[str, float] | None = None,
) -> EstimateReport:
    """Upper-bound a candidate by inflating the active placement's window."""
    kind_ratio = {"robot": ratios.util_robot, "edge": ratios.util_edge}
    per_node = {}
    if per_node_utilization and fabric is not None:
        per_node = {
            node.id: min(1.0, per_node_utilization.get(node.id, 0.0) * kind_ratio[node.kind])
            for node in fabric
        }
    metrics = WindowMetrics(
        l95=observed.l95 * ratios.latency,
        violation_rate=min(1.0, observed.violation_rate * ratios.violation),
        util_robot=min(1.0, observed.util_robot * ratios.util_robot),
        util_edge=min(1.0, observed.util_edge * ratios.util_edge),
    )
    return EstimateReport(placement, metrics, per_node, 0, MECHANISM_CONSERVATIVE)


@dataclass(frozen=True)
class EstimatorConfig:
    """How many Monte Carlo samples a static estimate draws."""

    static_samples: int = 2000

    def __post_init__(self):
        if self.static_samples < MIN_STATIC_SAMPLES:
            raise ValueError(f"static_samples must be >= {MIN_STATIC_SAMPLES}")
