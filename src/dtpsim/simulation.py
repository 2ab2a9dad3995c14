"""Deterministic cycle-level engine for the four-stage control pipeline.

Cycles are released strictly periodically.  Each cycle runs the chain in
order under the placement active at its release: sample every stage's
service time, cross every inter-node edge with jitter and the
single-retransmit loss rule, and record end-to-end latency, deadline
outcome, and per-node busy time.  There is no cross-cycle queueing; the
configuration is checked so nominal occupancy fits inside the period.

A cycle is an integer row (µs) appended to the run's CycleStore, a set of
stdlib ``array`` columns; the shadow history of each candidate keeps its
rows the same way, and a shadow estimate reads its last W.  Windows, the
summary and ``cycles.csv`` are read from the columns, and
``SimTrace.cycles`` is the store itself.  Their sums are exact: integer
µs summed with ``sum()``, and window means through ``math.fsum``
(``metrics.fsum_mean``), so no byte of a run depends on the interpreter.

Randomness comes from per-purpose substreams addressed by cycle index, so
stress windows, faults, shadow cycles, and placement changes can never
shift the samples of unrelated draws.  A stream's tag names a task or a
link, never a placement, so the cycle of a placement at index i is the
same record in every run of one seed with an equal plan for its window,
whichever placement is active and whatever the scenario.  A fixed run
records what it simulated its cycles from (``CycleStore.source``): the
sim, fabric, window size and per-window plans.  ``run_simulation`` reads
the cycles of a ``DTP`` run's candidates from such stores
(``known_cycles``) instead of simulating them again, only ever as column
slices (a window of active cycles, or one strided slice of shadow rows per
window), and only from a store with the candidate's plans in this run.

Active and shadow cycles are computed column by column
(``_Engine.run_window``): all draws of each tag over a list of cycles, in
128-bit lanes of one int (``streams.WindowDraws``), then each stage's and
each crossing's µs over those cycles, one pass per column, then latency
and busy time summed across the columns.  ``run_simulation`` walks the one
schedule ``_schedule`` cuts per run: runs of windows with the same
stresses and faults active, at most ``BLOCK_CYCLES`` cycles each, with
each placement's plan, built once per such state.  It runs the active
candidate from the window the controller reaches to the end of its block,
ahead of the decisions inside it: a cycle's draws are addressed by (tag,
cycle), so its row is the same whenever it is computed, and a migration
only drops the block's unread tail.  A fixed run never migrates, so it
appends each block to its cycles at once.  The shadow indices of a whole
block are drawn once and each challenger without a store runs over them
once, the first time a window of the block needs its rows.
``run_cycle`` is the same computation one cycle at a time, with the
retransmit and fatal rules; the kernel hands it each cycle that loses a
first attempt on some crossing.

``write_cycles_csv`` writes the ``cycles.csv`` files of a seed's runs in
one pass, a window at a time, and formats a window only if no run before
it had the same rows there: a ``DTP`` window under ``LOC`` or ``SO`` is the
text of that fixed run's window.  A run can also be written from the text
an earlier pass kept of it, as ``dtpsim run`` does for a fixed run that
several scenarios share.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import warnings
from array import array
from collections import Counter
from itertools import repeat
from operator import mul, truediv
from dataclasses import KW_ONLY, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, MutableMapping, Sequence

from .controller import (
    ACTION_MIGRATE,
    ControllerConfig,
    ControllerState,
    Decision,
    EnvironmentFailure,
    on_window_end,
)
from .cost import total_cost  # noqa: F401  bench/tracing.SITES wraps this name here
from .estimator import (
    MECHANISM_STATIC,
    EstimateReport,
    EstimatorConfig,
    estimate_conservative,  # noqa: F401  bench/tracing.SITES wraps this name here
    estimate_static,
    update_shadow,
)
from .metrics import (
    CycleStore,
    Row,
    WindowMetrics,
    aggregate_window,
    fsum_mean,
    normalize,  # noqa: F401  bench/tracing.SITES wraps this name here
    percentile_nearest_rank,
)
from .pipeline import (
    CandidateSet,
    Fabric,
    LinkDelayModel,
    NodeId,
    Placement,
    PipelineDag,
    validate_pipeline,
)
from .sampling import (
    US_PER_MS,
    CyclePlan,
    StaticDraws,
    _add_columns,
    _clamped_us,
    build_cycle_plan,
    nominal_node_occupancy,
    quantize_us,
    sample_service,
    traverse_edge,
)
from .streams import RandomStreams, WindowDraws

__all__ = [
    "SimConfig",
    "StressProfile",
    "FaultInjection",
    "WindowRow",
    "SimTrace",
    "check_disturbances",
    "fixed_run_key",
    "run_horizon",
    "run_simulation",
    "write_cycles_csv",
    "write_windows_csv",
    "write_summary_json",
    "write_decisions_jsonl",
]

PERIOD_RANGE = (20.0, 50.0)
# the window kernel runs blocks of at most this many cycles: a block's draws
# are held at once, and past a few hundred lanes a bigger block is no faster
BLOCK_CYCLES = 250


@dataclass(frozen=True)
class SimConfig:
    """Global timing parameters.

    period and deadline are milliseconds; horizon counts windows.
    """

    period: float
    deadline: float
    horizon: int
    seed: int = 42

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
    mode superimposes it on the base model instead.  The fields after mu
    are keyword-only.
    """

    links: tuple[tuple[NodeId, NodeId], ...]
    mu: float
    _: KW_ONLY
    sigma: float = 0.0
    loss_probability: float = 0.0
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
            )
        combined_loss = 1.0 - (1.0 - base.loss_probability) * (1.0 - self.loss_probability)
        return LinkDelayModel(
            base_delay=base.base_delay + self.mu,
            jitter_sigma=(base.jitter_sigma**2 + self.sigma**2) ** 0.5,
            loss_probability=combined_loss,
        )


@dataclass(frozen=True)
class WindowRow:
    """One row of the per-window trace."""

    window_index: int
    metrics: WindowMetrics
    placement: str
    cost_j: float
    decision: Decision | None


@dataclass
class SimTrace:
    cycles: CycleStore
    windows: list[WindowRow]
    summary: dict

    @property
    def decisions(self) -> list[Decision]:
        """The controller's decision of each window; empty for a fixed run."""
        return [w.decision for w in self.windows if w.decision is not None]


def _window_plans(
    window_index: int,
    placements: Sequence[Placement],
    stresses: Sequence[StressProfile],
    faults: Sequence[FaultInjection],
    dag: PipelineDag,
    sim: SimConfig,
) -> dict[str, CyclePlan]:
    """Compile each placement's cycle plan under the stress and faults of one window.

    They depend on the window only through which stresses and faults are
    active in it, so ``_schedule`` builds them once per such state.
    """
    slowdown: dict[NodeId, float] = {}
    exogenous: dict[NodeId, float] = {}
    for stress in stresses:
        if not stress.active(window_index):
            continue
        slowdown[stress.target] = stress.slowdown * slowdown.get(stress.target, 1.0)
        if stress.exogenous_load:
            exogenous[stress.target] = exogenous.get(stress.target, 0.0) + stress.exogenous_load
    exogenous_us = {node: quantize_us(load * sim.period) for node, load in exogenous.items()}
    links = dict(dag.links)
    for fault in faults:
        if not fault.active(window_index):
            continue
        for pair in fault.links:
            links[pair] = fault.apply(links[pair])
    return {
        placement.name: build_cycle_plan(
            dag, placement, delays=links, slowdown=slowdown, exogenous_us=exogenous_us
        )
        for placement in placements
    }


def _schedule(
    placements: Sequence[Placement],
    stresses: Sequence[StressProfile],
    faults: Sequence[FaultInjection],
    dag: PipelineDag,
    sim: SimConfig,
    window: int,
) -> list[tuple[range, dict[str, CyclePlan]]]:
    """The horizon's windows cut into blocks, each with every placement's plan:
    a block is a run of consecutive windows in which the same stresses and
    faults are active, at most ``BLOCK_CYCLES // window`` of them and at
    least one.  The plans are built once per such state, even one that
    comes back.  A state can only change where a disturbance starts or
    ends, so only those windows are looked at."""
    built: dict[tuple[bool, ...], dict[str, CyclePlan]] = {}
    size = max(1, BLOCK_CYCLES // window)
    disturbances = (*stresses, *faults)
    ends = {1, *(d.start_window for d in disturbances), *(d.end_window + 1 for d in disturbances)}
    cuts = sorted(k for k in ends if k <= sim.horizon) + [sim.horizon + 1]
    blocks: list[tuple[range, dict[str, CyclePlan]]] = []
    for first, stop in zip(cuts, cuts[1:]):
        state = tuple(d.active(first) for d in disturbances)
        if state not in built:
            built[state] = _window_plans(first, placements, stresses, faults, dag, sim)
        plans = built[state]
        blocks.extend((range(k, min(k + size, stop)), plans) for k in range(first, stop, size))
    return blocks


class _Engine:
    def __init__(self, fabric: Fabric, sim: SimConfig):
        self.sim = sim
        self.streams = RandomStreams(sim.seed)
        self.period_us = quantize_us(sim.period)
        self.deadline_us = quantize_us(sim.deadline)
        self.node_ids = fabric.ids()

    def run_cycle(self, plan: CyclePlan, cycle_index: int) -> Row:
        streams = self.streams
        busy_us = dict.fromkeys(self.node_ids, 0)
        latency_us = 0
        fatal = False
        edges = plan.edges
        for i, stage in enumerate(plan.stages):
            rng = streams.at(stage.tag, cycle_index)
            us = quantize_us(sample_service(stage.model, rng, stage.slowdown))
            busy_us[stage.node] += us
            latency_us += us
            if i == len(edges):
                break
            edge = edges[i]
            if edge.link is None:
                continue
            rng = streams.at(edge.tag, cycle_index)
            delay_us, fatal = traverse_edge(edge.model, edge.edge_scale, rng)
            if fatal:
                break
            latency_us += delay_us
        for node, us in plan.exogenous_us:
            busy_us[node] += us
        if fatal:
            # second loss on one edge: cycle is dead, latency capped at the period
            return self.period_us, False, [*busy_us.values()]
        return latency_us, latency_us <= self.deadline_us, [*busy_us.values()]

    def run_window(
        self, plan: CyclePlan, draws: WindowDraws
    ) -> tuple[list[int], bytearray, list[list[int]]]:
        """Cycles ``draws.steps`` of a plan as columns: latency µs, met, and
        busy µs per node; row i is ``run_cycle(plan, draws.steps[i])``.

        Each stage and each crossing is one µs column, computed in one pass
        from the normal columns with the float operations of
        ``sample_service`` and ``traverse_edge`` in their order; latency and
        busy time are then summed across the columns.  That holds for a
        cycle whose first attempt on every crossing is delivered.  Each
        other cycle, found by the loss draw of its step, is recomputed as
        ``run_cycle(plan, step)``, which holds the retransmit and fatal
        rules.
        """
        count = len(draws.steps)
        stages = plan.stages
        stage_us = []
        for stage in stages:
            model = stage.model
            stage_us.append(
                [quantize_us(model.mean * stage.slowdown)] * count if model.sd == 0.0
                else _clamped_us(draws.normals(stage.tag), model.mean, model.sd, model.floor,
                                 stage.slowdown)
            )
        link_us = []
        lost: set[int] = set()  # offsets of the cycles that lose a first attempt
        for edge in plan.edges:
            if edge.link is None:
                continue
            link = edge.model
            link_us.append(_clamped_us(draws.normals(edge.tag), link.base_delay,
                                       link.jitter_sigma, 0.0, edge.edge_scale))
            loss = link.loss_probability
            if loss > 0.0:  # a draw in [0, 1) is never below a zero loss
                limit = loss * 2.0**53  # u < loss exactly when m < loss * 2**53
                lost.update(i for i, m in enumerate(draws.integers(edge.tag, 2)) if m < limit)
        latency = _add_columns([*stage_us, *link_us], count)
        exogenous = dict(plan.exogenous_us)
        busy = [
            _add_columns(
                [us for us, stage in zip(stage_us, stages) if stage.node == node],
                count,
                exogenous.get(node, 0),
            )
            for node in self.node_ids
        ]
        met = bytearray(map(self.deadline_us.__ge__, latency))
        for i in sorted(lost):
            latency[i], met[i], row_busy = self.run_cycle(plan, draws.steps[i])
            for column, us in zip(busy, row_busy):
                column[i] = us
        return latency, met, busy


def check_disturbances(
    dag: PipelineDag,
    fabric: Fabric,
    stresses: Sequence[StressProfile],
    faults: Sequence[FaultInjection],
) -> None:
    """Reject a stress on a node outside the fabric or a fault on a link
    outside ``dag.links``."""
    for stress in stresses:
        if stress.target not in fabric:
            raise ValueError(f"stress target {stress.target!r} is not a fabric node")
    for fault in faults:
        for src, dst in fault.links:
            if (src, dst) not in dag.links:
                raise ValueError(f"fault link {src}->{dst} is not in dag.links")


def _check_known_cycles(
    known: Mapping[str, CycleStore], placements: Sequence[Placement], source: Callable
) -> None:
    """Reject known cycles that are not a fixed run's of a candidate with
    this run's plans: a name outside the candidates, anything but a
    CycleStore, or a store whose ``source`` is not ``source(name)``, the
    candidate's sim, fabric, window and per-window plans in this run."""
    names = {p.name for p in placements}
    for name, store in known.items():
        if name not in names:
            raise ValueError(f"known cycles of {name!r}: not a candidate")
        if not isinstance(store, CycleStore):
            raise ValueError(
                f"known cycles of {name!r}: a {type(store).__name__}, not the CycleStore "
                "of a fixed run"
            )
        if store.source != source(name):
            raise ValueError(
                f"known cycles of {name!r}: not simulated with this run's sim, fabric, "
                "window and per-window plans of the candidate"
            )


def _source(fabric: Fabric, sim: SimConfig, window: int, schedule: list, name: str) -> tuple:
    """What the cycles of candidate ``name`` over ``schedule`` are simulated
    from: ``(sim, fabric, window, runs)``, where ``runs`` holds each
    window's plan of ``name`` run-length encoded as (windows, plan) pairs,
    equal neighbours merged.  The block cuts do not show: they move with
    disturbances the candidate may never meet."""
    runs: list[list] = []
    for windows, plans in schedule:
        plan = plans[name]
        if runs and runs[-1][1] == plan:
            runs[-1][0] += len(windows)
        else:
            runs.append([len(windows), plan])
    return sim, fabric, window, tuple(map(tuple, runs))


def _one_candidate(controller: ControllerConfig, fixed: str, sim: SimConfig) -> ControllerConfig:
    """The controller of a fixed run of ``fixed``: that one candidate behind
    a dwell gate that never opens.  A ValueError rejects a non-candidate."""
    if fixed not in (names := controller.candidates.names()):
        raise ValueError(f"fixed placement {fixed!r} is not a candidate: {', '.join(names)}")
    return replace(
        controller,
        candidates=CandidateSet((controller.candidates.by_name(fixed),)),
        initial_placement=fixed,
        n_min=sim.horizon,
    )


def fixed_run_key(
    dag: PipelineDag,
    fabric: Fabric,
    sim: SimConfig,
    controller: ControllerConfig,
    fixed: str,
    stresses: Sequence[StressProfile] = (),
    faults: Sequence[FaultInjection] = (),
) -> tuple:
    """What ``run_simulation(fixed=fixed)`` depends on: ``(controller,
    source)``, the one-candidate controller the run builds and the
    ``CycleStore.source`` of its cycles.  Two fixed runs with equal keys
    have equal traces, whatever their stresses and faults: those enter only
    through the per-window plans.  A ValueError rejects a non-candidate or
    a disturbance outside the pipeline; unlike the run, it warns of nothing."""
    controller = _one_candidate(controller, fixed, sim)
    check_disturbances(dag, fabric, stresses, faults)
    window = controller.window_size
    schedule = _schedule(list(controller.candidates), stresses, faults, dag, sim, window)
    return controller, _source(fabric, sim, window, schedule, fixed)


def _check_static_estimates(reports: Mapping[tuple, EstimateReport]) -> None:
    """Reject static estimates that cannot come from ``estimate_static`` under
    their key, (candidate name, seed, period, deadline, samples): anything
    but an EstimateReport, or a report of another placement, mechanism or
    sample count than its key's."""
    for key, report in reports.items():
        if not isinstance(report, EstimateReport):
            raise ValueError(
                f"static estimate of {key!r}: a {type(report).__name__}, not an EstimateReport"
            )
        name, *_, samples = key
        shape = (report.placement, report.mechanism, report.sample_count)
        if shape != (name, MECHANISM_STATIC, samples):
            raise ValueError(
                f"static estimate of {key!r}: placement, mechanism and samples {shape}, "
                f"expected {(name, MECHANISM_STATIC, samples)}"
            )


def _check_run(
    dag: PipelineDag,
    fabric: Fabric,
    placements: Sequence[Placement],
    sim: SimConfig,
    stresses: Sequence[StressProfile],
    faults: Sequence[FaultInjection],
) -> None:
    """Reject an invalid pipeline, a disturbance outside it, or a config whose
    unstressed pipeline cannot fit in the period.

    Stress is allowed to push a node past the period (that saturation is
    exactly what the controller must react to), but it is worth a warning
    because latency stays a pure sum with no queueing behind it.
    """
    report = validate_pipeline(dag, fabric)
    if not report.ok:
        raise ValueError("invalid pipeline: " + "; ".join(report.problems))
    check_disturbances(dag, fabric, stresses, faults)
    # stresses active together multiply (_window_plans); every set of them is
    # active at the window where its latest stress starts
    max_slowdown: dict[NodeId, float] = {}
    for stress in stresses:
        product = math.prod(s.slowdown for s in stresses
                            if s.target == stress.target and s.active(stress.start_window))
        max_slowdown[stress.target] = max(max_slowdown.get(stress.target, 1.0), product)
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


def run_horizon(
    config: ControllerConfig,
    environment: Callable[[int, Placement], tuple[WindowMetrics, Mapping, Mapping]],
    horizon: int,
) -> list[Decision]:
    """Drive the controller for ``horizon`` windows over an environment.

    The environment maps (window_index, active placement) to the observed
    WindowMetrics, the observed per-node utilization and the estimate per
    challenger.  Failures propagate as EnvironmentFailure carrying the
    window index.  Every run goes through this loop: run_simulation passes
    the engine in as the environment.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    state = ControllerState.initial(config)
    decisions: list[Decision] = []
    for k in range(1, horizon + 1):
        try:
            observed, observed_util, estimates = environment(k, state.current)
        except Exception as exc:
            raise EnvironmentFailure(k, exc) from exc
        state, decision = on_window_end(state, observed, estimates, config, observed_util)
        decisions.append(decision)
    return decisions


def run_simulation(
    dag: PipelineDag,
    fabric: Fabric,
    sim: SimConfig,
    controller: ControllerConfig,
    *,
    fixed: str | None = None,
    stresses: Sequence[StressProfile] = (),
    faults: Sequence[FaultInjection] = (),
    estimator: EstimatorConfig | None = None,
    known_cycles: Mapping[str, CycleStore] | None = None,
    static_estimates: MutableMapping[str, EstimateReport] | None = None,
    normals: MutableMapping[tuple[int, str], array] | None = None,
) -> SimTrace:
    """Simulate ``sim.horizon`` windows of ``controller.window_size`` cycles.

    The engine is the environment of ``run_horizon``: per window it reads
    the active cycles, adds the shadow rows of the inactive candidates at
    every ``ceil(W / 4)``-th index, and returns the estimates.  Migrations
    apply at the next cycle release.  The windows fall in the blocks
    ``_schedule`` cuts: at a window of the active candidate that no rows
    cover, one ``WindowDraws`` and one ``_Engine.run_window`` call compute
    its rows to the end of the window's block, and later windows of the
    block read them while it stays active.  At most one such run is held; a
    migration drops its unread tail.  The shadow indices of every window of
    a block share one strided ``WindowDraws``, and an inactive candidate
    without a store runs one ``run_window`` over it, at the first window of
    the block that needs its rows (after a migration inside a block, the
    old incumbent's is that window); each window then reads its rows.
    ``fixed`` names a member of ``controller.candidates`` (else ValueError)
    that stays active for the whole run: the controller then runs over that
    one candidate behind a dwell gate that never opens, so a fixed window
    is scored by the same code as a controlled one and none is selected.
    A fixed run appends each block straight to its ``cycles``, whose
    ``source`` records the run's sim, fabric, window and per-window plans
    (see ``fixed_run_key``).

    ``known_cycles`` maps a candidate's name to the ``cycles`` store of a
    fixed run of it, of this scenario or of any other with equal
    per-window plans of the candidate.  Its active windows and its shadow
    rows (one strided slice per window) are read from there, not
    simulated, and the trace is the same.  A ValueError rejects anything
    but a store whose ``source`` is the candidate's sim, fabric, window and
    per-window plans in this run.

    ``static_estimates`` maps (candidate name, seed, period, deadline,
    ``estimator.static_samples``) to an ``estimate_static`` report over the
    run's one ``StaticDraws``, read and filled by the run; None keeps them
    to the run.  The key holds every input but the dag and fabric (an
    estimate reads no stress or fault, and its draws depend on the seed and
    samples alone), so share one mapping per dag, fabric and candidate set.
    A ValueError rejects anything but an EstimateReport, or a report of
    another placement, mechanism or sample count than its key's.

    ``normals`` maps (seed, tag) to the tag's standard normals from cycle 0,
    read and filled by every ``WindowDraws`` of the run (see
    ``streams.WindowDraws``); None keeps each block's to its block.  The
    key holds every input of a draw, so share one mapping among the runs
    of a seed, whatever their scenario.
    """
    if fixed is not None:
        controller = _one_candidate(controller, fixed, sim)
    window = controller.window_size
    placements = list(controller.candidates)
    _check_run(dag, fabric, placements, sim, stresses, faults)
    known_cycles = known_cycles or {}
    schedule = _schedule(placements, stresses, faults, dag, sim, window)
    _check_known_cycles(
        known_cycles, placements, lambda name: _source(fabric, sim, window, schedule, name)
    )
    estimator = estimator or EstimatorConfig()
    static = {} if static_estimates is None else static_estimates
    _check_static_estimates(static)

    engine = _Engine(fabric, sim)
    duration = window * sim.period
    shadow_stride = -(-window // 4)  # ceil(W / 4)
    shadow_min = -(-window // 2)  # ceil(W / 2)

    shadow_hist = {p.name: CycleStore(engine.node_ids, sim.period) for p in placements}

    # one source for every static estimate of the run; it draws a tag on first read
    static_draws = StaticDraws(engine.streams, estimator.static_samples)

    def static_report(candidate: Placement) -> EstimateReport:
        key = (candidate.name, sim.seed, sim.period, sim.deadline, estimator.static_samples)
        report = static.get(key)
        if report is None:
            report = static[key] = estimate_static(
                dag, candidate, fabric, sim.deadline, sim.period, static_draws
            )
        return report

    cycles = CycleStore(engine.node_ids, sim.period)
    cycles.source = None if fixed is None else _source(fabric, sim, window, schedule, fixed)
    observed: list[tuple[WindowMetrics, str]] = []

    block_of = [block for block in schedule for _ in block[0]]  # window k's at k - 1
    ahead: tuple[str, range, int, CycleStore] | None = None  # name, block, first cycle, rows
    per_window = len(range(0, window, shadow_stride))  # shadow rows of a window
    # block, draws of its shadow indices, shadow rows of each candidate run over them
    shadow: tuple[range, WindowDraws, dict[str, tuple]] | None = None

    def environment(k: int, placement: Placement):
        nonlocal ahead, shadow
        windows, plans = block_of[k - 1]
        start = (k - 1) * window
        stop = start + window
        known = known_cycles.get(placement.name)
        if known is None:
            if ahead is None or ahead[:2] != (placement.name, windows):
                # window k's rows to the end of its block, read while the candidate
                # stays active; a fixed run never migrates, so they are its cycles
                draws = WindowDraws(sim.seed, range(start, (windows.stop - 1) * window), normals)
                rows = cycles if fixed else CycleStore(engine.node_ids, sim.period)
                rows.append_columns(*engine.run_window(plans[placement.name], draws))
                ahead = placement.name, windows, start, rows
            _, _, first, rows = ahead
            if rows is not cycles:
                cycles.extend(rows, start - first, stop - first)
        else:
            cycles.extend(known, start, stop)
        cut = slice((k - windows.start) * per_window, (k - windows.start + 1) * per_window)
        for name, plan in plans.items():
            if name == placement.name:
                continue
            if name in known_cycles:
                shadow_hist[name].extend(known_cycles[name], start, stop, shadow_stride)
                continue
            if shadow is None or shadow[0] != windows:
                # the shadow indices of every window of the block, drawn once for
                # every candidate; rows are addressed by (tag, cycle), so the rows
                # of later windows are the ones those windows would compute
                steps = [i for w in windows for i in range((w - 1) * window, w * window,
                                                           shadow_stride)]
                shadow = windows, WindowDraws(sim.seed, steps, normals), {}
            _, draws, made = shadow
            if name not in made:
                made[name] = engine.run_window(plan, draws)
            latency, met, busy = made[name]
            shadow_hist[name].append_columns(latency[cut], met[cut], [c[cut] for c in busy])
        metrics, observed_util = aggregate_window(cycles.columns(start, stop), duration, fabric)
        observed.append((metrics, placement.name))
        estimates: dict[str, EstimateReport] = {}
        for candidate in placements:
            if candidate.name == placement.name:
                continue
            hist = shadow_hist[candidate.name]
            estimates[candidate.name] = (
                update_shadow(hist, candidate.name, window, sim.period, fabric)
                if len(hist) >= shadow_min
                else static_report(candidate)
            )
        return metrics, observed_util, estimates

    decisions = run_horizon(controller, environment, sim.horizon)
    windows = [
        WindowRow(k, metrics, name, decision.observed_cost, decision if fixed is None else None)
        for k, ((metrics, name), decision) in enumerate(zip(observed, decisions), 1)
    ]
    return SimTrace(cycles, windows, _build_summary(sim, controller, fixed, cycles, windows))


def _build_summary(
    sim: SimConfig,
    controller: ControllerConfig,
    fixed: str | None,
    cycles: CycleStore,
    windows: Sequence[WindowRow],
) -> dict:
    columns = cycles.columns()
    latencies = columns.latency_us
    migrations = [
        w.decision for w in windows if w.decision and w.decision.action == ACTION_MIGRATE
    ]
    placements = [w.placement for w in windows]
    occupancy = {n: c / len(placements) for n, c in sorted(Counter(placements).items())}
    return {
        "policy": "controller" if fixed is None else "fixed",
        "initial_placement": controller.initial_placement,
        "seed": sim.seed,
        "period_ms": sim.period,
        "deadline_ms": sim.deadline,
        "window_size": controller.window_size,
        "windows": len(windows),
        "cycles": len(latencies),
        "mean_latency_ms": sum(latencies) / (US_PER_MS * len(latencies)) if latencies else 0.0,
        "l95_latency_ms": (
            percentile_nearest_rank(latencies, 0.95) / US_PER_MS if latencies else 0.0
        ),
        "violation_rate": (
            (len(latencies) - columns.met.count(1)) / len(latencies) if latencies else 0.0
        ),
        "mean_util_robot": fsum_mean([w.metrics.util_robot for w in windows]),
        "mean_util_edge": fsum_mean([w.metrics.util_edge for w in windows]),
        "migrations": len(migrations),
        "first_migration_window": migrations[0].window_index if migrations else None,
        "placement_occupancy": occupancy,
        "window_placements": placements,
    }


# fixed float formats keep repeated runs byte-identical
_fmt_ms = "{:.3f}".format
_fmt_rate = "{:.6f}".format


def _csv_row(fields: Sequence[str]) -> str:
    """``fields`` as ``csv.writer`` writes them: quoted where needed, CRLF."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()


def write_cycles_csv(
    trace: SimTrace,
    fabric: Fabric,
    path: str | Path,
    *,
    others: Sequence[tuple[SimTrace, str | Path]] = (),
    texts: Sequence[list[str] | None] = (),
) -> None:
    """One row per cycle of ``trace`` into ``path``, and of each trace of
    ``others`` into its path; a cycle's placement is that of its window.
    The runs share one window grid (window count and size), and each store
    holds every node of ``fabric``.  A ValueError rejects a trace whose
    cycles do not fill its windows evenly, a grid other than the first
    run's, or a store that lacks a fabric node, before any file is opened.

    The files are written together, one window at a time, so each holds
    one window of text.  A window whose placement name, period and columns
    equal those of a window already formatted in this pass, as a ``DTP``
    window equals that window of the fixed run of its placement, is written
    from that text; each other window is formatted column by column.
    ``texts`` holds a list or None per run of ``(trace, *others)``: a run
    whose list is empty appends each window's text it writes to it, and a
    run whose list holds text, written by an earlier call with the same
    grid, is written from it instead of being formatted again.

    The bytes are those of ``csv.writer``: only the header and the
    placement names can need quoting, so they go through it once, each
    distinct name once, and every row is one ``%`` of a template.
    """
    node_ids = fabric.ids()
    header = _csv_row(
        ["cycle_index", "release_ms", "latency_ms", "deadline_met"]
        + [f"busy_{n}_ms" for n in node_ids]
        + ["placement_name"]
    )
    row = ",".join(["%d", "%.3f", "%.3f", "%s", *["%.3f"] * len(node_ids), "%s"]) + "\r\n"
    runs = [(trace, path), *others]
    placements = {w.placement for t, _ in runs for w in t.windows}
    quoted = {name: _csv_row([name])[:-2] for name in placements}
    grid = None
    stores = []  # per run: quoted name per window, period, columns
    for t, _ in runs:
        cycles = t.cycles
        size, rest = divmod(len(cycles), len(t.windows)) if t.windows else (0, len(cycles))
        if rest:
            raise ValueError(f"{len(cycles)} cycles do not fill {len(t.windows)} windows evenly")
        grid = grid or (len(t.windows), size)
        if (len(t.windows), size) != grid:
            raise ValueError(f"window grid {len(t.windows)}x{size} differs from the "
                             f"pass's {grid[0]}x{grid[1]} (windows x cycles)")
        busy = dict(zip(cycles.nodes, cycles.busy_us))
        if missing := [n for n in node_ids if n not in busy]:
            raise ValueError(f"the cycles lack fabric nodes {', '.join(missing)}")
        columns = [cycles.latency_us, cycles.met, *map(busy.get, node_ids)]
        stores.append(([quoted[w.placement] for w in t.windows], cycles.period, columns))
    size = max(1, grid[1])
    texts = list(texts) or [None] * len(runs)
    fills = [known is not None and not known for known in texts]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", newline="")) for _, p in runs]
        for fh in files:
            fh.write(header)
        for index, start in enumerate(range(0, len(trace.cycles), size)):
            cut = slice(start, start + size)
            written: list[tuple[list, str]] = []  # (key, text) of this window's runs
            for (names, period, columns), fh, known, fill in zip(stores, files, texts, fills):
                key = [names[index], period, *(column[cut] for column in columns)]
                text = next((text for seen, text in written if seen == key), None)
                if text is None:
                    text = _cycle_rows(row, start, *key) if fill or not known else known[index]
                    written.append((key, text))
                if fill:
                    known.append(text)
                fh.write(text)


def _cycle_rows(row: str, start: int, name, period, latency_us, met, *busy_us) -> str:
    """The ``cycles.csv`` rows of one window's cycles ``start, start + 1,
    ...``, placement ``name`` (quoted): each ``row % fields`` of its columns."""
    cycles = range(start, start + len(latency_us))

    def ms(values_us):
        return map(truediv, values_us, repeat(US_PER_MS))

    return "".join(
        map(
            row.__mod__,
            zip(
                cycles,
                map(mul, cycles, repeat(period)),
                ms(latency_us),
                map(("false", "true").__getitem__, met),
                *map(ms, busy_us),
                repeat(name),
            ),
        )
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
                    _fmt_rate(row.cost_j),
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
