"""Deterministic cycle-level engine for the four-stage control pipeline.

Cycles are released strictly periodically.  Each cycle runs the chain in
order under the placement active at its release: sample every stage's
service time, cross every inter-node edge with jitter and the
single-retransmit loss rule, and record end-to-end latency, deadline
outcome, and per-node busy time.  There is no cross-cycle queueing; the
configuration is checked so nominal occupancy fits inside the period.

Randomness comes from per-purpose substreams addressed by cycle index, so
stress windows, faults, shadow cycles, and placement changes can never
shift the samples of unrelated draws.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .controller import (
    ACTION_MIGRATE,
    ControllerConfig,
    ControllerState,
    Decision,
    on_window_end,
)
from .cost import Weights, total_cost
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    StaticProfile,
    estimate_conservative,
    estimate_static,
    update_shadow,
)
from .metrics import (
    CycleRecord,
    NormalizationTargets,
    WindowMetrics,
    aggregate_window,
    class_utilization,
    normalize,
    percentile_nearest_rank,
)
from .pipeline import (
    Fabric,
    LinkDelayModel,
    NodeId,
    Placement,
    PipelineDag,
    validate_pipeline,
)
from .sampling import (
    CyclePlan,
    build_cycle_plan,
    nominal_node_occupancy,
    quantize_us,
    sample_service,
    traverse_edge,
)
from .streams import RandomStreams

__all__ = [
    "SimConfig",
    "StressProfile",
    "FaultInjection",
    "WindowRow",
    "SimTrace",
    "run_simulation",
    "write_cycles_csv",
    "write_windows_csv",
    "write_summary_json",
    "write_decisions_jsonl",
]

PERIOD_RANGE = (20.0, 50.0)


@dataclass(frozen=True)
class SimConfig:
    """Global timing parameters.

    period and deadline are milliseconds; horizon counts windows; the
    clock resolution is integer microseconds.
    """

    period: float
    deadline: float
    horizon: int
    seed: int = 42
    clock_resolution_us: int = 1

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if not 0 < self.deadline <= self.period:
            raise ValueError(
                f"deadline must satisfy 0 < deadline <= period, got "
                f"deadline={self.deadline} period={self.period}"
            )
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.clock_resolution_us < 1:
            raise ValueError("clock_resolution_us must be >= 1")
        if not PERIOD_RANGE[0] <= self.period <= PERIOD_RANGE[1]:
            warnings.warn(
                f"period {self.period} ms is outside the validated range "
                f"{PERIOD_RANGE[0]}-{PERIOD_RANGE[1]} ms",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class StressProfile:
    """CPU stress on one node over a window interval (inclusive, 1-based).

    slowdown multiplies every service time executed on the node;
    exogenous_load adds busy time (load * period per cycle) without
    delaying any stage.
    """

    target: NodeId
    start_window: int
    end_window: int
    slowdown: float = 1.0
    exogenous_load: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.slowdown < math.inf:
            raise ValueError(f"slowdown must be finite and >= 1, got {self.slowdown}")
        if not 0.0 <= self.exogenous_load < 1.0:
            raise ValueError("exogenous_load must be in [0, 1)")
        if self.start_window < 1 or self.end_window < self.start_window:
            raise ValueError("stress window interval must satisfy 1 <= start <= end")

    def active(self, window_index: int) -> bool:
        return self.start_window <= window_index <= self.end_window


@dataclass(frozen=True)
class FaultInjection:
    """Degraded link behavior over a window interval (inclusive, 1-based).

    By default the fault replaces the link model with
    Gaussian(mu, sigma) delay and the given loss probability; additive
    mode superimposes it on the base model instead.
    """

    links: tuple[tuple[NodeId, NodeId], ...]
    mu: float
    sigma: float
    loss_probability: float
    start_window: int
    end_window: int
    additive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "links", tuple((a, b) for a, b in self.links))
        if not (0.0 <= self.mu < math.inf and 0.0 <= self.sigma < math.inf):
            raise ValueError(
                f"fault mu and sigma must be finite and >= 0, got {self.mu} and {self.sigma}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("fault loss_probability must be in [0, 1)")
        if self.start_window < 1 or self.end_window < self.start_window:
            raise ValueError("fault window interval must satisfy 1 <= start <= end")

    def active(self, window_index: int) -> bool:
        return self.start_window <= window_index <= self.end_window

    def apply(self, base: LinkDelayModel) -> LinkDelayModel:
        if not self.additive:
            return LinkDelayModel(
                base_delay=self.mu,
                jitter_sigma=self.sigma,
                loss_probability=self.loss_probability,
                payload_scale=base.payload_scale,
            )
        combined_loss = 1.0 - (1.0 - base.loss_probability) * (1.0 - self.loss_probability)
        return LinkDelayModel(
            base_delay=base.base_delay + self.mu,
            jitter_sigma=(base.jitter_sigma**2 + self.sigma**2) ** 0.5,
            loss_probability=combined_loss,
            payload_scale=base.payload_scale,
        )


@dataclass(frozen=True)
class WindowRow:
    """One row of the per-window trace."""

    window_index: int
    metrics: WindowMetrics
    placement: str
    cost_j: float | None
    decision: Decision | None


@dataclass
class SimTrace:
    cycles: list[CycleRecord]
    windows: list[WindowRow]
    decisions: list[Decision]
    summary: dict


def _window_plans(
    window_index: int,
    placements: Sequence[Placement],
    stresses: Sequence[StressProfile],
    faults: Sequence[FaultInjection],
    dag: PipelineDag,
    sim: SimConfig,
    node_ids: Sequence[NodeId],
) -> dict[str, CyclePlan]:
    """Compile each placement's cycle plan under the stress and faults of one window."""
    slowdown: dict[NodeId, float] = {}
    exogenous: dict[NodeId, float] = {}
    for stress in stresses:
        if not stress.active(window_index):
            continue
        slowdown[stress.target] = stress.slowdown * slowdown.get(stress.target, 1.0)
        if stress.exogenous_load:
            exogenous[stress.target] = exogenous.get(stress.target, 0.0) + stress.exogenous_load
    exogenous_us = {
        node: quantize_us(load * sim.period, sim.clock_resolution_us)
        for node, load in exogenous.items()
        if node in node_ids
    }
    links = dict(dag.links)
    for fault in faults:
        if not fault.active(window_index):
            continue
        for pair in fault.links:
            links[pair] = fault.apply(links.get(pair) or dag.link(*pair))
    return {
        placement.name: build_cycle_plan(
            dag, placement, delays=links, slowdown=slowdown, exogenous_us=exogenous_us
        )
        for placement in placements
    }


class _Engine:
    def __init__(self, fabric: Fabric, sim: SimConfig, streams: RandomStreams):
        self.sim = sim
        self.streams = streams
        self.resolution = sim.clock_resolution_us
        self.period_us = quantize_us(sim.period, self.resolution)
        self.deadline_us = quantize_us(sim.deadline, self.resolution)
        self.node_ids = fabric.ids()

    def run_cycle(self, plan: CyclePlan, cycle_index: int) -> CycleRecord:
        streams = self.streams
        resolution = self.resolution
        busy_us = dict.fromkeys(self.node_ids, 0)
        latency_us = 0
        fatal = False
        edges = plan.edges
        for i, stage in enumerate(plan.stages):
            rng = streams.at(stage.tag, cycle_index)
            us = quantize_us(sample_service(stage.model, rng, stage.slowdown), resolution)
            busy_us[stage.node] += us
            latency_us += us
            if i == len(edges):
                break
            edge = edges[i]
            if edge.link is None:
                continue
            rng = streams.at(edge.tag, cycle_index)
            delay_us, fatal = traverse_edge(edge.model, edge.edge_scale, rng, resolution)
            if fatal:
                break
            latency_us += delay_us
        for node, us in plan.exogenous_us:
            busy_us[node] += us
        if fatal:
            # second loss on one edge: cycle is dead, latency capped at the period
            latency_us = self.period_us
            met = False
        else:
            met = latency_us <= self.deadline_us
        return CycleRecord(
            cycle_index=cycle_index,
            e2e_latency=latency_us / 1000.0,
            deadline_met=met,
            busy_time={n: us / 1000.0 for n, us in busy_us.items()},
            release_ms=cycle_index * self.sim.period,
            placement=plan.placement.name,
        )


def _check_occupancy(
    dag: PipelineDag,
    placements: Sequence[Placement],
    sim: SimConfig,
    stresses: Sequence[StressProfile],
) -> None:
    """Reject configs whose unstressed pipeline cannot fit in the period.

    Stress is allowed to push a node past the period (that saturation is
    exactly what the controller must react to), but it is worth a warning
    because latency stays a pure sum with no queueing behind it.
    """
    max_slowdown: dict[NodeId, float] = {}
    for stress in stresses:
        max_slowdown[stress.target] = max(max_slowdown.get(stress.target, 1.0), stress.slowdown)
    for placement in placements:
        occupancy = nominal_node_occupancy(dag, placement)
        for node, busy in occupancy.items():
            if busy > sim.period:
                raise ValueError(
                    f"nominal occupancy of node {node} under {placement.name} "
                    f"({busy} ms) exceeds the period ({sim.period} ms); "
                    "cycles would queue"
                )
            stressed = busy * max_slowdown.get(node, 1.0)
            if stressed > sim.period:
                warnings.warn(
                    f"stressed occupancy of node {node} under {placement.name} "
                    f"({stressed:.1f} ms) exceeds the period; utilization will saturate",
                    UserWarning,
                    stacklevel=3,
                )


def run_simulation(
    dag: PipelineDag,
    fabric: Fabric,
    sim: SimConfig,
    policy: ControllerConfig | Placement,
    *,
    window_size: int | None = None,
    stresses: Sequence[StressProfile] = (),
    faults: Sequence[FaultInjection] = (),
    estimator: EstimatorConfig | None = None,
    weights: Weights | None = None,
    targets: NormalizationTargets | None = None,
) -> SimTrace:
    """Simulate ``sim.horizon`` windows under a controller or a fixed placement.

    With a ControllerConfig policy the engine runs shadow cycles for the
    inactive candidates, produces estimates per window, and applies
    migrations at the next cycle release.  With a Placement policy the
    placement never changes and no controller state exists.  ``weights``
    and ``targets`` are only used to annotate fixed-placement windows with
    a comparable cost; controller runs take them from the policy.
    """
    report = validate_pipeline(dag, fabric)
    if not report.ok:
        raise ValueError("invalid pipeline: " + "; ".join(report.problems))

    controlled = isinstance(policy, ControllerConfig)
    if controlled:
        window = policy.window_size
        candidates = policy.candidates
        placements = list(candidates)
        weights = policy.weights
        targets = policy.targets
    else:
        if window_size is None:
            raise ValueError("window_size is required for a fixed-placement run")
        window = window_size
        candidates = None
        placements = [policy]
    if window < 1:
        raise ValueError("window size must be >= 1")
    for fault in faults:
        for pair in fault.links:
            try:
                dag.link(*pair)
            except KeyError:
                raise ValueError(
                    f"fault references unknown link: {pair[0]}->{pair[1]}"
                ) from None
    _check_occupancy(dag, placements, sim, stresses)

    streams = RandomStreams(sim.seed)
    engine = _Engine(fabric, sim, streams)
    node_ids = fabric.ids()
    estimator = estimator or EstimatorConfig()
    profile = StaticProfile.from_dag(dag, estimator.profile_perturbation)
    duration = window * sim.period
    shadow_stride = -(-window // 4)  # ceil(W / 4)
    shadow_min = -(-window // 2)  # ceil(W / 2)

    state = ControllerState.initial(policy) if controlled else None
    placement = state.current if controlled else policy
    static_cache: dict[str, EstimateReport] = {}
    shadow_hist: dict[str, list[CycleRecord]] = (
        {p.name: [] for p in candidates} if controlled else {}
    )

    def static_report(candidate: Placement) -> EstimateReport:
        cached = static_cache.get(candidate.name)
        if cached is None:
            cached = estimate_static(
                profile,
                dag,
                candidate,
                fabric,
                sim.deadline,
                sim.period,
                estimator.static_samples,
                streams.fresh(f"static:{candidate.name}"),
            )
            static_cache[candidate.name] = cached
        return cached

    cycles: list[CycleRecord] = []
    windows: list[WindowRow] = []
    decisions: list[Decision] = []
    placement_by_window: list[str] = []

    for k in range(1, sim.horizon + 1):
        plans = _window_plans(k, placements, stresses, faults, dag, sim, node_ids)
        plan = plans[placement.name]
        shadow_plans = [plans[c.name] for c in placements if c.name != placement.name]
        records = []
        for i in range(window):
            cycle_index = (k - 1) * window + i
            records.append(engine.run_cycle(plan, cycle_index))
            if controlled and i % shadow_stride == 0:
                for shadow_plan in shadow_plans:
                    hist = shadow_hist[shadow_plan.placement.name]
                    hist.append(engine.run_cycle(shadow_plan, cycle_index))
                    if len(hist) > window:
                        del hist[: len(hist) - window]
        cycles.extend(records)
        metrics = aggregate_window(records, duration, fabric, k)
        placement_by_window.append(placement.name)

        if controlled:
            observed_util = {
                node: class_utilization(records, duration, (node,)) for node in node_ids
            }
            estimates: dict[str, EstimateReport] = {}
            for candidate in candidates:
                hist = shadow_hist[candidate.name]
                if candidate.name == placement.name:
                    estimates[candidate.name] = static_report(candidate)
                elif estimator.mode == "conservative":
                    estimates[candidate.name] = estimate_conservative(
                        metrics, candidate.name, estimator.ratios, fabric, observed_util
                    )
                elif estimator.mode == "auto" and len(hist) >= shadow_min:
                    estimates[candidate.name] = update_shadow(
                        hist, candidate.name, window, sim.period, fabric
                    )
                else:
                    estimates[candidate.name] = static_report(candidate)
            state, decision = on_window_end(state, metrics, estimates, policy, observed_util)
            decisions.append(decision)
            windows.append(WindowRow(k, metrics, placement.name, decision.observed_cost, decision))
            if decision.action == ACTION_MIGRATE:
                placement = candidates.by_name(decision.target)
        else:
            cost_j = None
            if weights is not None and targets is not None:
                cost_j = total_cost(normalize(metrics, targets), placement, placement, weights)
            windows.append(WindowRow(k, metrics, placement.name, cost_j, None))

    summary = _build_summary(
        sim, window, policy, cycles, windows, decisions, placement_by_window, controlled
    )
    return SimTrace(cycles, windows, decisions, summary)


def _build_summary(
    sim: SimConfig,
    window: int,
    policy,
    cycles: Sequence[CycleRecord],
    windows: Sequence[WindowRow],
    decisions: Sequence[Decision],
    placement_by_window: Sequence[str],
    controlled: bool,
) -> dict:
    latencies = [c.e2e_latency for c in cycles]
    migrations = [d for d in decisions if d.action == ACTION_MIGRATE]
    occupancy: dict[str, float] = {}
    for name in placement_by_window:
        occupancy[name] = occupancy.get(name, 0.0) + 1.0
    if placement_by_window:
        occupancy = {n: c / len(placement_by_window) for n, c in sorted(occupancy.items())}
    return {
        "policy": "controller" if controlled else "fixed",
        "initial_placement": (
            policy.initial_placement if controlled else policy.name
        ),
        "seed": sim.seed,
        "period_ms": sim.period,
        "deadline_ms": sim.deadline,
        "window_size": window,
        "windows": len(windows),
        "cycles": len(cycles),
        "mean_latency_ms": (sum(latencies) / len(latencies)) if latencies else 0.0,
        "l95_latency_ms": percentile_nearest_rank(latencies, 0.95) if latencies else 0.0,
        "violation_rate": (
            sum(1 for c in cycles if not c.deadline_met) / len(cycles) if cycles else 0.0
        ),
        "mean_util_robot": (
            sum(w.metrics.util_robot for w in windows) / len(windows) if windows else 0.0
        ),
        "mean_util_edge": (
            sum(w.metrics.util_edge for w in windows) / len(windows) if windows else 0.0
        ),
        "migrations": len(migrations),
        "first_migration_window": migrations[0].window_index if migrations else None,
        "placement_occupancy": occupancy,
        "window_placements": list(placement_by_window),
    }


# fixed float formats keep repeated runs byte-identical
def _fmt_ms(value: float) -> str:
    return f"{value:.3f}"


def _fmt_rate(value: float) -> str:
    return f"{value:.6f}"


def write_cycles_csv(trace: SimTrace, fabric: Fabric, path: str | Path) -> None:
    node_ids = fabric.ids()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cycle_index", "release_ms", "latency_ms", "deadline_met"]
            + [f"busy_{n}_ms" for n in node_ids]
            + ["placement_name"]
        )
        for c in trace.cycles:
            writer.writerow(
                [
                    c.cycle_index,
                    _fmt_ms(c.release_ms),
                    _fmt_ms(c.e2e_latency),
                    "true" if c.deadline_met else "false",
                ]
                + [_fmt_ms(c.busy_time.get(n, 0.0)) for n in node_ids]
                + [c.placement]
            )


def write_windows_csv(trace: SimTrace, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "window_index",
                "l95_ms",
                "violation_rate",
                "util_robot",
                "util_edge",
                "cost_j",
                "action",
                "target_placement",
                "delta_j",
            ]
        )
        for row in trace.windows:
            decision = row.decision
            writer.writerow(
                [
                    row.window_index,
                    _fmt_ms(row.metrics.l95),
                    _fmt_rate(row.metrics.violation_rate),
                    _fmt_rate(row.metrics.util_robot),
                    _fmt_rate(row.metrics.util_edge),
                    _fmt_rate(row.cost_j) if row.cost_j is not None else "",
                    decision.action if decision else "fixed",
                    decision.target if decision else row.placement,
                    _fmt_rate(decision.delta_j)
                    if decision and decision.delta_j is not None
                    else "",
                ]
            )


def write_summary_json(trace: SimTrace, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(trace.summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_decisions_jsonl(trace: SimTrace, path: str | Path) -> None:
    with open(path, "w") as fh:
        for decision in trace.decisions:
            fh.write(decision.to_json())
            fh.write("\n")
