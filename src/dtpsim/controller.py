"""Window-based placement controller with dwell gating and hysteresis.

At the end of every window the controller scores the just-observed window
under the active placement, scores every candidate from the estimates,
and migrates only when the best candidate beats the observed cost by more
than delta_min and the placement has been stable for at least n_min
windows.  Both guards exist to prevent chattering between near-equal
placements.  The window loop that drives it is ``simulation.run_horizon``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping

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
        payload = asdict(self)
        payload["window"] = payload.pop("window_index")
        return json.dumps(payload, sort_keys=True)


def on_window_end(
    state: ControllerState,
    observed: WindowMetrics,
    estimates: Mapping[str, EstimateReport],
    config: ControllerConfig,
    observed_per_node_util: Mapping[str, float],
) -> tuple[ControllerState, Decision]:
    """Advance the controller by one observed window.

    The active placement is scored from ``observed`` and
    ``observed_per_node_util`` rather than from an estimate.  ``estimates``
    must cover every challenger; a missing one aborts the decision and
    holds.  Migrations returned here take effect from the next window.
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

    if any(
        name != state.current.name and name not in estimates
        for name in config.candidates.names()
    ):
        return hold(REASON_ESTIMATE_ERROR)

    scored = []
    for candidate in config.candidates:
        if candidate.name == state.current.name:
            metrics, per_node = observed, observed_per_node_util
        else:
            report = estimates[candidate.name]
            metrics, per_node = report.metrics, report.per_node_utilization
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
