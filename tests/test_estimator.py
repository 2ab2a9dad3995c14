"""Candidate estimation: static Monte Carlo, shadow windows, ratio scaling."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import controller_policy, cycle_store, make_dag, make_fabric
from dtpsim.estimator import (
    ConservativeRatios,
    EstimatorConfig,
    estimate_conservative,
    estimate_static,
    update_shadow,
)
from dtpsim.harness import load_config
from dtpsim.metrics import WindowMetrics
from dtpsim.pipeline import canonical_candidates, nominal_latency
from dtpsim.sampling import nominal_node_occupancy
from dtpsim.simulation import SimConfig, run_simulation
from dtpsim.streams import RandomStreams

FABRIC = make_fabric()


def test_static_estimate_degenerate_profile_is_exact():
    dag = make_dag()
    for placement in canonical_candidates(dag):
        report = estimate_static(
            dag, placement, FABRIC,
            deadline=30.0, period=50.0, samples=200, rng=random.Random(1),
        )
        assert report.metrics.l95 == nominal_latency(dag, placement)
        assert report.metrics.violation_rate == 0.0
        assert report.mechanism == "static"
        assert report.sample_count == 200


def test_static_estimate_all_violations_past_deadline():
    dag = make_dag()
    loc = canonical_candidates(dag).by_name("LOC")
    report = estimate_static(
        dag, loc, FABRIC,
        deadline=20.0, period=50.0, samples=200, rng=random.Random(1),
    )
    # 23 ms deterministic latency misses a 20 ms deadline every time
    assert report.metrics.violation_rate == 1.0


def test_static_estimate_validates_inputs():
    dag = make_dag()
    loc = canonical_candidates(dag).by_name("LOC")
    with pytest.raises(ValueError, match="samples"):
        estimate_static(dag, loc, FABRIC, 30.0, 50.0, samples=50, rng=random.Random(1))
    with pytest.raises(ValueError, match="deadline"):
        estimate_static(dag, loc, FABRIC, 60.0, 50.0, samples=200, rng=random.Random(1))


def test_static_estimate_is_stable_across_seeds():
    dag = make_dag(cv=0.2, jitter=0.1)
    so = canonical_candidates(dag).by_name("SO")
    reports = [
        estimate_static(dag, so, FABRIC, 40.0, 50.0, 10_000, random.Random(seed))
        for seed in (11, 97)
    ]
    a, b = (r.metrics.l95 for r in reports)
    assert abs(a - b) / b < 0.05


# (deadline ms, lossy links) -> {candidate: (l95, violation_rate)}, pinned
# from the per-sample estimator on the shipped DAG; the lossy table adds
# 1 ms jitter and a 0.3 loss probability to every link, so cycles retransmit
# and some end fatal at the period.
SHIPPED_STATIC = {
    (40.0, False): {"LOC": (30.186, 0.0), "SO": (29.993, 0.0), "HYB": (33.444, 0.0)},
    (30.0, False): {"LOC": (30.186, 0.058), "SO": (29.993, 0.049), "HYB": (33.444, 0.339)},
    (40.0, True): {"LOC": (45.528, 0.235), "SO": (40.544, 0.2285), "HYB": (52.024, 0.4345)},
}


@pytest.mark.parametrize("deadline,lossy", list(SHIPPED_STATIC))
def test_static_estimate_pins_the_shipped_dag(deadline, lossy):
    config = load_config()
    dag = config.dag
    if lossy:
        links = {
            pair: dataclasses.replace(model, jitter_sigma=1.0, loss_probability=0.3)
            for pair, model in dag.links.items()
        }
        dag = dataclasses.replace(dag, links=links)
    samples = config.estimator.static_samples
    for placement in config.candidates:
        report = estimate_static(
            dag, placement, config.fabric, deadline, config.sim.period, samples,
            RandomStreams(1).fresh(f"static:{placement.name}"),
        )
        metrics = report.metrics
        assert (metrics.l95, metrics.violation_rate) == SHIPPED_STATIC[deadline, lossy][
            placement.name
        ]
        assert report.sample_count == samples == 2000


@settings(deadline=None)
@example(means=(2.0, 10.0, 8.0, 2.0), period=40.0)  # LOC R1 0.3, R2 0.25; SO E 0.45
@given(
    means=st.tuples(*[st.floats(0.0, 50.0) for _ in range(4)]),
    period=st.floats(1.0, 100.0),
)
def test_static_utilization_is_the_engines_nominal_occupancy(means, period):
    # one occupancy rule: a node's summed mean service, divided once by the
    # period; dividing each task's mean first can differ in the last bit
    dag = make_dag(means=means)
    for placement in canonical_candidates(dag):
        report = estimate_static(dag, placement, FABRIC, period, period, 100, random.Random(1))
        occupancy = nominal_node_occupancy(dag, placement)
        assert report.per_node_utilization == {
            n: min(1.0, max(0.0, occupancy.get(n, 0.0) / period)) for n in FABRIC.ids()
        }


def test_static_and_shadow_estimates_agree_without_randomness():
    # one clock and one utilization model: the static estimate rounds as the
    # engine does, and its occupancy is the busy time the engine books
    sim = SimConfig(period=50.0, deadline=23.5, horizon=1, seed=3)
    inputs = [
        # LOC's 23 ms meets the deadline, SO's and HYB's 24 ms miss it
        (make_dag(), (23.0, 24.0, 24.0)),
        # sub-millisecond stage and link means: every candidate misses
        (make_dag(means=(2.4, 10.4, 8.4, 2.4), base=1.4), (25.0, 26.4, 26.4)),
    ]
    for dag, l95s in inputs:
        for placement, l95 in zip(canonical_candidates(dag), l95s, strict=True):
            trace = run_simulation(dag, FABRIC, sim, controller_policy(dag), fixed=placement.name)
            shadow = update_shadow(trace.cycles, placement.name, 8, sim.period, FABRIC)
            static = estimate_static(
                dag, placement, FABRIC, sim.deadline, sim.period, 200, random.Random(1)
            )
            assert static.metrics.l95 == shadow.metrics.l95 == nominal_latency(dag, placement)
            assert static.metrics.l95 == l95
            assert static.metrics.violation_rate == shadow.metrics.violation_rate
            for name in ("util_robot", "util_edge"):
                assert getattr(static.metrics, name) == pytest.approx(
                    getattr(shadow.metrics, name)
                )
            assert static.per_node_utilization == pytest.approx(shadow.per_node_utilization)


def shadow_record(i, latency, met=True, busy=None):
    return latency, met, busy or {"R1": 0.0}


def test_shadow_uniform_history():
    history = [shadow_record(i, 10.0) for i in range(20)]
    report = update_shadow(cycle_store(history), "SO", window_size=20, period=30.0, fabric=FABRIC)
    assert report.metrics.l95 == 10.0
    assert report.metrics.violation_rate == 0.0
    assert report.mechanism == "shadow"
    assert report.sample_count == 20


def test_shadow_counts_violations():
    latencies = [5.0] * 9 + [50.0]
    history = [shadow_record(i, lat, met=lat <= 30.0) for i, lat in enumerate(latencies)]
    report = update_shadow(cycle_store(history), "SO", window_size=10, period=30.0, fabric=FABRIC)
    assert report.metrics.violation_rate == pytest.approx(0.1)
    assert report.metrics.l95 == 50.0


def test_shadow_uses_only_most_recent_window():
    old = [shadow_record(i, 100.0, met=False) for i in range(10)]
    new = [shadow_record(10 + i, 10.0) for i in range(10)]
    report = update_shadow(cycle_store(old + new), "SO", window_size=10, period=30.0, fabric=FABRIC)
    assert report.metrics.l95 == 10.0
    assert report.metrics.violation_rate == 0.0


def test_shadow_tracks_per_node_busy_time():
    history = [shadow_record(i, 10.0, busy={"R1": 10.0, "E": 5.0}) for i in range(10)]
    report = update_shadow(cycle_store(history), "SO", window_size=10, period=20.0, fabric=FABRIC)
    assert report.per_node_utilization["R1"] == pytest.approx(0.5)
    assert report.per_node_utilization["E"] == pytest.approx(0.25)
    assert report.per_node_utilization["R2"] == 0.0


def test_shadow_rejects_empty_history():
    with pytest.raises(ValueError, match="empty"):
        update_shadow(cycle_store([]), "SO", window_size=10, period=30.0, fabric=FABRIC)


OBSERVED = WindowMetrics(l95=20.0, violation_rate=0.1, util_robot=0.4, util_edge=0.3)


def test_conservative_scales_latency():
    report = estimate_conservative(OBSERVED, "SO", ConservativeRatios(latency=1.5))
    assert report.metrics.l95 == pytest.approx(30.0)
    assert report.mechanism == "conservative"


def test_conservative_identity_ratios():
    ratios = ConservativeRatios(1.0, 1.0, 1.0, 1.0)
    report = estimate_conservative(OBSERVED, "SO", ratios)
    assert report.metrics.l95 == OBSERVED.l95
    assert report.metrics.violation_rate == OBSERVED.violation_rate
    assert report.metrics.util_robot == OBSERVED.util_robot
    assert report.metrics.util_edge == OBSERVED.util_edge


def test_conservative_clamps_rates_and_utils():
    high = WindowMetrics(l95=20.0, violation_rate=0.8, util_robot=0.9, util_edge=0.9)
    report = estimate_conservative(high, "SO", ConservativeRatios(violation=2.0))
    assert report.metrics.violation_rate == 1.0
    assert report.metrics.util_robot == 1.0


def test_conservative_scales_per_node_by_kind():
    ratios = ConservativeRatios(util_robot=1.5, util_edge=2.0)
    report = estimate_conservative(
        OBSERVED, "SO", ratios, fabric=FABRIC,
        per_node_utilization={"R1": 0.4, "R2": 0.2, "E": 0.6},
    )
    assert report.per_node_utilization["R1"] == pytest.approx(0.6)
    assert report.per_node_utilization["R2"] == pytest.approx(0.3)
    assert report.per_node_utilization["E"] == 1.0


def test_ratios_must_not_shrink():
    with pytest.raises(ValueError):
        ConservativeRatios(latency=0.9)


def test_estimator_config_validates_mode_and_samples():
    with pytest.raises(ValueError):
        EstimatorConfig(static_samples=10)
