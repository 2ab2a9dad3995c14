"""Dwell gating, hysteresis, migration bookkeeping, and chatter bounds."""

import json
import math
import random

import pytest

from conftest import make_dag
from dtpsim.controller import (
    ACTION_HOLD,
    ACTION_MIGRATE,
    ControllerConfig,
    ControllerState,
    EnvironmentFailure,
    on_window_end,
)
from dtpsim.cost import Constraints, Weights
from dtpsim.estimator import EstimateReport
from dtpsim.metrics import NormalizationTargets, WindowMetrics
from dtpsim.pipeline import canonical_candidates
from dtpsim.simulation import run_horizon

CANDS = canonical_candidates(make_dag())

# alpha_s = 0 keeps costs equal to normalized l95 so traces can pin exact
# numbers; the weight ordering warning does not apply (2 > 1 > 0)
PURE_LATENCY = Weights(1.0, 2.0, 0.0, 0.0, 0.0)
TARGETS = NormalizationTargets(latency=40.0)
CONSTRAINTS = Constraints(l95_max=1000.0)
# the observed per-node utilization of the incumbent; far below util_max
UTIL = {"R1": 0.3, "R2": 0.3, "E": 0.0}


def config(n_min=3, delta_min=0.1, initial="LOC", window_size=50):
    return ControllerConfig(
        window_size=window_size,
        candidates=CANDS,
        weights=PURE_LATENCY,
        constraints=CONSTRAINTS,
        targets=TARGETS,
        delta_min=delta_min,
        n_min=n_min,
        initial_placement=initial,
    )


def window(l95):
    return WindowMetrics(l95, 0.0, 0.0, 0.0)


def estimate(name, l95):
    return EstimateReport(name, window(l95), {}, 100, "static")


def flat_estimates(loc=40.0, so=40.0, hyb=40.0):
    return {"LOC": estimate("LOC", loc), "SO": estimate("SO", so), "HYB": estimate("HYB", hyb)}


def state_with_dwell(cfg, dwell):
    start = ControllerState.initial(cfg)
    return ControllerState(start.window_index, start.current, start.previous, dwell)


def test_dwell_gate_holds_regardless_of_estimates():
    cfg = config(n_min=3)
    state = state_with_dwell(cfg, 1)
    new_state, decision = on_window_end(state, window(60.0), flat_estimates(so=4.0), cfg, UTIL)
    assert decision.action == ACTION_HOLD
    assert decision.reason == "dwell-gate"
    assert new_state.dwell == 2
    assert new_state.current.name == "LOC"


def test_migrates_when_improvement_clears_threshold():
    cfg = config(n_min=3)
    state = state_with_dwell(cfg, 3)
    # observed 60/40 = 1.5 against the best alternative 40/40 = 1.0
    estimates = flat_estimates(so=40.0, hyb=48.0)
    new_state, decision = on_window_end(state, window(60.0), estimates, cfg, UTIL)
    assert decision.action == ACTION_MIGRATE
    assert decision.target == "SO"
    assert decision.observed_cost == pytest.approx(1.5)
    assert decision.best_alternative_cost == pytest.approx(1.0)
    assert decision.delta_j == pytest.approx(0.5)
    assert decision.reason == "migrated"
    assert new_state.current.name == "SO"
    assert new_state.previous.name == "LOC"
    assert new_state.dwell == 0


def test_holds_when_improvement_is_below_threshold():
    cfg = config(n_min=3)
    state = state_with_dwell(cfg, 3)
    # observed 42/40 = 1.05 against 1.0: improvement 0.05 <= 0.1
    new_state, decision = on_window_end(state, window(42.0), flat_estimates(so=40.0), cfg, UTIL)
    assert decision.action == ACTION_HOLD
    assert decision.reason == "below-threshold"
    assert decision.best_alternative_cost == pytest.approx(1.0)
    assert decision.delta_j == pytest.approx(0.05)
    assert new_state.dwell == 4


def test_missing_estimate_aborts_the_decision():
    cfg = config(n_min=0)
    state = state_with_dwell(cfg, 5)
    estimates = flat_estimates()
    del estimates["HYB"]
    _, decision = on_window_end(state, window(60.0), estimates, cfg, UTIL)
    assert decision.action == ACTION_HOLD
    assert decision.reason == "estimate-error"


def test_observed_utilization_makes_the_incumbent_estimate_optional():
    cfg = config(n_min=0)
    state = state_with_dwell(cfg, 5)
    estimates = flat_estimates(so=30.0)
    del estimates["LOC"]
    _, decision = on_window_end(state, window(60.0), estimates, cfg, UTIL)
    assert (decision.action, decision.target) == (ACTION_MIGRATE, "SO")


def test_incumbent_is_scored_from_observation_not_estimate():
    cfg = config(n_min=0, delta_min=0.0)
    state = state_with_dwell(cfg, 1)
    # the stale LOC estimate says 80 ms but the observation says 36 ms;
    # no alternative beats the observed cost, so the controller holds
    estimates = flat_estimates(loc=80.0, so=38.0, hyb=38.0)
    _, decision = on_window_end(state, window(36.0), estimates, cfg, UTIL)
    assert decision.action == ACTION_HOLD


def test_never_migrates_to_itself():
    cfg = ControllerConfig(
        window_size=50, candidates=CANDS, weights=Weights(1.0, 2.0, 0.0, 0.0, 0.5),
        constraints=CONSTRAINTS, targets=TARGETS, delta_min=0.0, n_min=0,
        initial_placement="SO",
    )
    # right after a migration the observed window still pays the switching
    # penalty, so the incumbent re-scored without it looks strictly better
    start = CANDS.by_name("SO")
    state = ControllerState(4, start, CANDS.by_name("LOC"), 0)
    _, decision = on_window_end(state, window(40.0), flat_estimates(loc=80.0, hyb=80.0), cfg, UTIL)
    assert decision.action == ACTION_HOLD
    assert decision.target == "SO"


def environment_from_table(table):
    def env(window_index, current):
        loc, so, hyb = table(window_index)
        active = loc if current.name == "LOC" else so if current.name == "SO" else hyb
        return window(active), UTIL, flat_estimates(loc, so, hyb)
    return env


def test_first_migration_lands_exactly_after_dwell():
    # SO strictly dominates from the start; windows 1-2 are dwell-gated
    cfg = config(n_min=2)
    decisions = run_horizon(cfg, environment_from_table(lambda k: (60.0, 40.0, 48.0)), 6)
    actions = [(d.window_index, d.action) for d in decisions]
    assert actions == [
        (1, ACTION_HOLD), (2, ACTION_HOLD), (3, ACTION_MIGRATE),
        (4, ACTION_HOLD), (5, ACTION_HOLD), (6, ACTION_HOLD),
    ]
    assert decisions[2].target == "SO"
    assert [d.reason for d in decisions[:2]] == ["dwell-gate", "dwell-gate"]


def test_stationary_optimum_never_migrates():
    cfg = config(n_min=3)
    decisions = run_horizon(cfg, environment_from_table(lambda k: (40.0, 60.0, 60.0)), 50)
    assert not any(d.action == ACTION_MIGRATE for d in decisions)


def test_infinite_threshold_freezes_the_placement():
    cfg = config(n_min=0, delta_min=math.inf)
    swings = environment_from_table(lambda k: (400.0, 4.0, 4.0))
    decisions = run_horizon(cfg, swings, 50)
    assert not any(d.action == ACTION_MIGRATE for d in decisions)


def test_environment_failure_carries_window_index():
    cfg = config()

    def broken(window_index, current):
        if window_index == 5:
            raise RuntimeError("sensor went away")
        return window(40.0), UTIL, flat_estimates()

    with pytest.raises(EnvironmentFailure) as err:
        run_horizon(cfg, broken, 10)
    assert err.value.window_index == 5


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        run_horizon(config(), environment_from_table(lambda k: (1, 1, 1)), -1)


def test_zero_horizon_is_empty():
    assert run_horizon(config(), environment_from_table(lambda k: (1, 1, 1)), 0) == []


def test_chatter_bound_over_randomized_environments():
    for trial in range(50):
        rng = random.Random(1000 + trial)
        n_min = rng.randrange(0, 5)
        horizon = 40
        cfg = config(n_min=n_min, delta_min=rng.choice([0.0, 0.05, 0.1, 0.5]))

        def noisy(window_index, current, rng=rng):
            return environment_from_table(
                lambda k: (rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(20, 80))
            )(window_index, current)

        decisions = run_horizon(cfg, noisy, horizon)
        migrations = [d.window_index for d in decisions if d.action == ACTION_MIGRATE]
        assert len(migrations) <= math.ceil(horizon / (n_min + 1))
        for earlier, later in zip(migrations, migrations[1:]):
            assert later - earlier >= n_min + 1


def test_decision_serializes_to_single_json_line():
    cfg = config(n_min=0)
    state = state_with_dwell(cfg, 1)
    _, decision = on_window_end(state, window(60.0), flat_estimates(so=36.0), cfg, UTIL)
    line = decision.to_json()
    assert "\n" not in line
    payload = json.loads(line)
    assert payload["action"] == ACTION_MIGRATE
    assert payload["window"] == 1
    assert payload["target"] == "SO"
    assert payload["reason"] == "migrated"


def test_initial_placement_must_be_a_candidate():
    with pytest.raises(KeyError):
        config(initial="EDGE")


def test_config_validates_thresholds():
    with pytest.raises(ValueError):
        config(delta_min=-0.5)
    with pytest.raises(ValueError):
        config(n_min=-1)
