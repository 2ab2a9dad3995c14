"""Window-based placement controller with dwell gating and hysteresis.

At the end of every window the controller scores the just-observed window
under the active placement, scores every candidate from the estimates,
and migrates only when the best candidate beats the observed cost by more
than delta_min and the placement has been stable for at least n_min
windows.  Both guards exist to prevent chattering between near-equal
placements.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .cost import Constraints, ScoredCandidate, Weights, select_placement, total_cost
from .estimator import EstimateReport
from .metrics import NormalizationTargets, WindowMetrics, normalize
from .pipeline import CandidateSet, Placement

ACTION_HOLD = "hold"
ACTION_MIGRATE = "migrate"

REASON_DWELL = "dwell-gate"
REASON_BELOW_THRESHOLD = "below-threshold"
REASON_MIGRATED = "migrated"
REASON_ESTIMATE_ERROR = "estimate-error"


class EnvironmentFailure(RuntimeError):
    """An environment callback failed while producing a window."""

    def __init__(self, window_index: int, cause: BaseException):
        self.window_index = window_index
        super().__init__(f"environment failed at window {window_index}: {cause}")


@dataclass(frozen=True)
class ControllerConfig:
    window_size: int
    candidates: CandidateSet
    weights: Weights
    constraints: Constraints
    targets: NormalizationTargets
    delta_min: float = 0.1
    n_min: int = 3
    initial_placement: str = "LOC"

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.delta_min < 0 or math.isnan(self.delta_min):
            raise ValueError("delta_min must be >= 0")
        if self.n_min < 0:
            raise ValueError("n_min must be >= 0")
        self.candidates.by_name(self.initial_placement)


@dataclass(frozen=True)
class ControllerState:
    """window_index is the last processed window (0 before the first)."""

    window_index: int
    current: Placement
    previous: Placement
    dwell: int

    @classmethod
    def initial(cls, config: ControllerConfig) -> "ControllerState":
        start = config.candidates.by_name(config.initial_placement)
        # before the first window the previous placement is defined as the
        # initial one, so the first observed window carries no switching cost
        return cls(window_index=0, current=start, previous=start, dwell=0)


@dataclass(frozen=True)
class Decision:
    """One per window; serialized as one JSON line in the decision log."""

    window_index: int
    action: str
    target: str
    observed_cost: float
    best_alternative_cost: float | None
    delta_j: float | None
    reason: str
    feasible: bool = True

    def to_json(self) -> str:
        payload = {
            "window": self.window_index,
            "action": self.action,
            "target": self.target,
            "observed_cost": self.observed_cost,
            "best_alternative_cost": self.best_alternative_cost,
            "delta_j": self.delta_j,
            "reason": self.reason,
            "feasible": self.feasible,
        }
        return json.dumps(payload, sort_keys=True)


def on_window_end(
    state: ControllerState,
    observed: WindowMetrics,
    estimates: Mapping[str, EstimateReport],
    config: ControllerConfig,
    observed_per_node_util: Mapping[str, float] | None = None,
) -> tuple[ControllerState, Decision]:
    """Advance the controller by one observed window.

    The active placement is scored from ``observed`` rather than its
    estimate.  ``estimates`` must cover every challenger, and the active
    placement too when ``observed_per_node_util`` is not given (its
    per-node utilization then comes from the estimate).  A missing
    estimate aborts the decision and holds.  Migrations returned here
    take effect from the next window.
    """
    k = state.window_index + 1
    observed_cost = total_cost(
        normalize(observed, config.targets), state.current, state.previous, config.weights
    )

    def hold(reason: str, best: float | None = None, delta: float | None = None,
             feasible: bool = True) -> tuple[ControllerState, Decision]:
        new_state = ControllerState(k, state.current, state.current, state.dwell + 1)
        return new_state, Decision(
            k, ACTION_HOLD, state.current.name, observed_cost, best, delta, reason, feasible
        )

    if state.dwell < config.n_min:
        return hold(REASON_DWELL)

    incumbent_needed = observed_per_node_util is None
    missing = [
        name for name in config.candidates.names()
        if name not in estimates and (incumbent_needed or name != state.current.name)
    ]
    if missing:
        return hold(REASON_ESTIMATE_ERROR)

    scored = []
    for candidate in config.candidates:
        if candidate.name == state.current.name:
            metrics = observed
            per_node = observed_per_node_util
            if per_node is None:
                per_node = estimates[candidate.name].per_node_utilization
        else:
            report = estimates[candidate.name]
            metrics = report.metrics
            per_node = report.per_node_utilization
        j = total_cost(normalize(metrics, config.targets), candidate, state.current, config.weights)
        scored.append(ScoredCandidate(candidate, metrics, per_node, j))

    choice, feasible = select_placement(scored, config.constraints, state.current.name)
    delta = observed_cost - choice.cost
    if delta > config.delta_min and choice.placement.name != state.current.name:
        new_state = ControllerState(k, choice.placement, state.current, 0)
        decision = Decision(
            k, ACTION_MIGRATE, choice.placement.name, observed_cost,
            choice.cost, delta, REASON_MIGRATED, feasible,
        )
        return new_state, decision
    return hold(REASON_BELOW_THRESHOLD, choice.cost, delta, feasible)


Environment = Callable[[int, Placement], tuple[WindowMetrics, Mapping[str, EstimateReport]]]


def run_horizon(
    config: ControllerConfig,
    environment: Environment,
    horizon: int,
) -> list[Decision]:
    """Drive the controller for ``horizon`` windows over an environment.

    The environment maps (window_index, active placement) to the observed
    WindowMetrics and the estimate per candidate.  Failures propagate as
    EnvironmentFailure carrying the window index.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    state = ControllerState.initial(config)
    decisions: list[Decision] = []
    for k in range(1, horizon + 1):
        try:
            observed, estimates = environment(k, state.current)
        except Exception as exc:
            raise EnvironmentFailure(k, exc) from exc
        state, decision = on_window_end(state, observed, estimates, config)
        decisions.append(decision)
    return decisions


def migration_count(decisions: Sequence[Decision]) -> int:
    return sum(1 for d in decisions if d.action == ACTION_MIGRATE)
