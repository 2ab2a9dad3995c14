"""Engine behavior: determinism, stress, faults, and controller wiring."""

import math
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    NODE_PAIRS,
    controller_policy,
    cycle_records,
    fixed_stores,
    make_dag,
    make_fabric,
    reference_rows,
    store_rows,
    trace_reference_rows,
)
from dtpsim import controller as controller_module, sampling, simulation
from dtpsim.controller import on_window_end
from dtpsim.estimator import (
    MECHANISM_SHADOW,
    MECHANISM_STATIC,
    EstimatorConfig,
    estimate_static,
)
from dtpsim.pipeline import canonical_candidates, nominal_latency
from dtpsim.sampling import StaticDraws, build_cycle_plan, quantize_us
from dtpsim.simulation import (
    FaultInjection,
    SimConfig,
    StressProfile,
    run_simulation,
)
from dtpsim.harness import load_config
from dtpsim.streams import RandomStreams

FABRIC = make_fabric()


def fixed_run(dag, placement_name, sim, window_size=5, stresses=(), faults=()):
    return run_simulation(
        dag, FABRIC, sim, controller_policy(dag, window_size), fixed=placement_name,
        stresses=stresses, faults=faults,
    )


def test_deterministic_limit_matches_nominal_latency():
    dag = make_dag()
    sim = SimConfig(period=50.0, deadline=30.0, horizon=2, seed=1)
    for placement in canonical_candidates(dag):
        trace = fixed_run(dag, placement.name, sim)
        expected = nominal_latency(dag, placement)
        assert trace.cycles, placement.name
        for record in cycle_records(trace):
            assert record.e2e_latency == expected
            assert record.deadline_met
            assert record.placement == placement.name


def test_summary_means_are_exact_on_every_python():
    # the latency mean is the integer µs sum divided once, correctly rounded;
    # the utilization means divide the correctly rounded sum of their windows
    dag = make_dag(cv=0.3, jitter=0.2)
    for seed in (2, 3):
        trace = fixed_run(dag, "SO", SimConfig(40.0, 40.0, horizon=4, seed=seed))
        latency_us = trace.cycles.columns().latency_us
        assert trace.summary["mean_latency_ms"] == float(
            Fraction(sum(latency_us), 1000 * len(latency_us))
        )
        for key in ("util_robot", "util_edge"):
            values = [getattr(w.metrics, key) for w in trace.windows]
            assert trace.summary[f"mean_{key}"] == math.fsum(values) / len(values)


def test_horizon_zero_produces_empty_trace():
    trace = fixed_run(make_dag(), "LOC", SimConfig(50.0, 30.0, horizon=0))
    assert len(trace.cycles) == 0
    assert cycle_records(trace) == []
    assert trace.windows == []
    assert trace.summary["cycles"] == 0
    assert trace.summary["violation_rate"] == 0.0


def test_same_seed_reproduces_the_trace():
    dag = make_dag(cv=0.3, jitter=0.2)
    sim = SimConfig(40.0, 40.0, horizon=3, seed=77)
    a = fixed_run(dag, "SO", sim)
    b = fixed_run(dag, "SO", sim)
    assert cycle_records(a) == cycle_records(b)
    assert [w.metrics for w in a.windows] == [w.metrics for w in b.windows]
    assert a.summary == b.summary


def test_different_seeds_differ():
    dag = make_dag(cv=0.3)
    a = fixed_run(dag, "SO", SimConfig(40.0, 40.0, horizon=1, seed=1))
    b = fixed_run(dag, "SO", SimConfig(40.0, 40.0, horizon=1, seed=2))
    assert cycle_records(a) != cycle_records(b)


def test_link_fault_override_shifts_latency():
    dag = make_dag()
    fault = FaultInjection(
        links=(("E", "R2"),), mu=25.0, sigma=0.0, loss_probability=0.0,
        start_window=2, end_window=3,
    )
    sim = SimConfig(period=50.0, deadline=30.0, horizon=4, seed=11)
    trace = fixed_run(dag, "SO", sim, faults=(fault,))
    by_window = [cycle_records(trace, i * 5, (i + 1) * 5) for i in range(4)]
    # 22 ms of service, 1 ms upload, then 25 ms on the faulted return link
    assert all(r.e2e_latency == 48.0 and not r.deadline_met for r in by_window[1])
    assert all(r.e2e_latency == 48.0 for r in by_window[2])
    assert all(r.e2e_latency == 24.0 and r.deadline_met for r in by_window[0])
    assert all(r.e2e_latency == 24.0 for r in by_window[3])
    assert [w.metrics.violation_rate for w in trace.windows] == [0.0, 1.0, 1.0, 0.0]


def test_cycles_outside_fault_window_are_bit_identical():
    dag = make_dag(cv=0.25, jitter=0.1)
    sim = SimConfig(period=50.0, deadline=40.0, horizon=4, seed=23)
    fault = FaultInjection(
        links=(("E", "R2"), ("R1", "E")), mu=25.0, sigma=5.0, loss_probability=0.1,
        start_window=2, end_window=3,
    )
    clean = fixed_run(dag, "SO", sim)
    faulted = fixed_run(dag, "SO", sim, faults=(fault,))
    for start, stop in ((0, 5), (15, 20)):
        assert cycle_records(faulted, start, stop) == cycle_records(clean, start, stop)
    assert cycle_records(faulted, 5, 15) != cycle_records(clean, 5, 15)


def test_additive_fault_stacks_on_base_delay():
    dag = make_dag()
    fault = FaultInjection(
        links=(("E", "R2"),), mu=25.0, sigma=0.0, loss_probability=0.0,
        start_window=1, end_window=1, additive=True,
    )
    sim = SimConfig(period=50.0, deadline=30.0, horizon=1, seed=3)
    trace = fixed_run(dag, "SO", sim, faults=(fault,))
    assert all(r.e2e_latency == 49.0 for r in cycle_records(trace))


def test_unresolvable_fault_link_is_rejected():
    dag = make_dag()
    fault = FaultInjection(
        links=(("E", "R9"),), mu=25.0, sigma=0.0, loss_probability=0.0,
        start_window=1, end_window=1,
    )
    with pytest.raises(ValueError, match="R9"):
        fixed_run(dag, "SO", SimConfig(50.0, 30.0, horizon=1), faults=(fault,))


@pytest.mark.parametrize(
    "disturbance, named",
    [
        ({"stresses": (StressProfile("R9", 1, 1, slowdown=2.0),)}, "R9"),
        # a self-pair is free to cross, but it is not a link a fault can degrade
        ({"faults": (FaultInjection((("R1", "R1"),), 5.0, start_window=1, end_window=1),)},
         "R1->R1"),
    ],
    ids=["stress-target", "fault-self-pair"],
)
def test_unknown_disturbance_reference_is_rejected(disturbance, named):
    with pytest.raises(ValueError, match=named):
        fixed_run(make_dag(), "SO", SimConfig(50.0, 30.0, horizon=1), **disturbance)


def test_cpu_stress_multiplies_service_times():
    dag = make_dag()
    stress = StressProfile("R1", start_window=1, end_window=2, slowdown=3.0)
    sim = SimConfig(period=50.0, deadline=50.0, horizon=3, seed=5)
    trace = fixed_run(dag, "LOC", sim, stresses=(stress,))
    # T1 and T2 run on R1: (2 + 10) * 3 + 8 + 2 + 1 while stressed
    assert all(r.e2e_latency == 47.0 for r in cycle_records(trace, 0, 10))
    assert all(r.e2e_latency == 23.0 for r in cycle_records(trace, 10))


def test_exogenous_load_adds_busy_time_only():
    dag = make_dag()
    sim = SimConfig(period=20.0, deadline=20.0, horizon=1, seed=9)
    stress = StressProfile("R1", 1, 1, slowdown=1.0, exogenous_load=0.5)
    loaded = fixed_run(dag, "LOC", sim, window_size=10, stresses=(stress,))
    baseline = fixed_run(dag, "LOC", sim, window_size=10)
    extra = sum(loaded.cycles.columns().busy_us["R1"]) - sum(
        baseline.cycles.columns().busy_us["R1"]
    )
    assert extra == 0.5 * 20.0 * 10 * 1000
    assert loaded.cycles.latency_us == baseline.cycles.latency_us


def test_lost_twice_caps_latency_and_skips_downstream_stages():
    dag = make_dag(loss=0.999999999)
    sim = SimConfig(period=50.0, deadline=30.0, horizon=1, seed=13)
    trace = fixed_run(dag, "LOC", sim)
    for record in cycle_records(trace):
        assert record.e2e_latency == 50.0
        assert not record.deadline_met
        assert record.busy_time["R1"] == 12.0
        assert record.busy_time["R2"] == 0.0


def test_deadline_above_period_rejected():
    with pytest.raises(ValueError, match="deadline"):
        SimConfig(period=40.0, deadline=50.0, horizon=1)


def test_period_outside_supported_band_warns():
    with pytest.warns(UserWarning, match="period"):
        SimConfig(period=10.0, deadline=10.0, horizon=1)


def test_queueing_configurations_are_rejected():
    dag = make_dag(means=(2.0, 30.0, 8.0, 2.0))
    with pytest.raises(ValueError, match="queue"):
        fixed_run(dag, "LOC", SimConfig(period=25.0, deadline=25.0, horizon=1))


def test_stressed_overload_warns_but_runs():
    dag = make_dag()
    stress = StressProfile("R1", 1, 1, slowdown=4.0)
    with pytest.warns(UserWarning, match="saturate"):
        trace = fixed_run(dag, "LOC", SimConfig(40.0, 40.0, horizon=1, seed=2),
                          stresses=(stress,))
    assert trace.cycles


def test_migration_applies_at_the_next_window_boundary():
    # The middle hop is the heavy one, so offloading both T2 and T3 beats
    # the half-offload once R1 slows down.
    dag = make_dag(edge_scales=(3.0, 4.0, 0.5))
    stress = StressProfile("R1", start_window=1, end_window=10, slowdown=3.0)
    sim = SimConfig(period=40.0, deadline=40.0, horizon=6, seed=21)
    trace = run_simulation(
        dag, FABRIC, sim, controller_policy(dag), stresses=(stress,),
    )
    migrate_windows = [d.window_index for d in trace.decisions if d.action == "migrate"]
    assert migrate_windows == [2]
    names = [r.placement for r in cycle_records(trace)]
    w = 8
    assert set(names[:2 * w]) == {"LOC"}
    assert set(names[2 * w:]) == {"SO"}
    assert trace.summary["migrations"] == 1
    assert trace.summary["first_migration_window"] == 2
    assert trace.summary["placement_occupancy"] == {"LOC": pytest.approx(2 / 6),
                                                    "SO": pytest.approx(4 / 6)}


def test_run_estimates_only_the_challengers(monkeypatch):
    # the incumbent is scored from the observed window, so its static
    # Monte Carlo estimate would never be read
    estimated = []

    def recording(dag, placement, *args):
        estimated.append(placement.name)
        return estimate_static(dag, placement, *args)

    monkeypatch.setattr(simulation, "estimate_static", recording)
    dag = make_dag()
    # window 1 holds 4 shadow rows per challenger, fewer than the 25 a
    # shadow estimate needs, so both challengers are estimated statically
    sim = SimConfig(period=40.0, deadline=40.0, horizon=1, seed=5)
    trace = run_simulation(
        dag, FABRIC, sim, controller_policy(dag, window_size=50, n_min=0),
        estimator=EstimatorConfig(static_samples=200),
    )
    assert trace.summary["migrations"] == 0
    assert sorted(estimated) == ["HYB", "SO"]


@pytest.mark.parametrize("window_size, first_shadow", [(50, 7), (8, 1)])
def test_challengers_switch_from_static_to_shadow_at_half_a_window(
    monkeypatch, window_size, first_shadow
):
    # a challenger gains 4 shadow rows per window (one every ceil(W / 4)
    # cycles) and is estimated from them once it holds ceil(W / 2): after
    # window 7 (28 >= 25) at W = 50, after window 1 (4 >= 4) at W = 8
    mechanisms = []

    def recording(state, observed, estimates, *args):
        mechanisms.append({name: report.mechanism for name, report in estimates.items()})
        return on_window_end(state, observed, estimates, *args)

    monkeypatch.setattr(simulation, "on_window_end", recording)
    dag = make_dag()
    horizon = 8
    sim = SimConfig(period=40.0, deadline=40.0, horizon=horizon, seed=5)
    # the dwell gate never opens, so LOC stays the incumbent throughout
    controller = controller_policy(dag, window_size=window_size, n_min=horizon + 1)
    trace = run_simulation(
        dag, FABRIC, sim, controller, estimator=EstimatorConfig(static_samples=200)
    )
    assert trace.summary["migrations"] == 0
    expected = [MECHANISM_STATIC] * (first_shadow - 1)
    expected += [MECHANISM_SHADOW] * (horizon - first_shadow + 1)
    assert mechanisms == [{"SO": m, "HYB": m} for m in expected]


def test_fixed_run_summary_reports_single_placement():
    trace = fixed_run(make_dag(), "HYB", SimConfig(50.0, 30.0, horizon=2, seed=4))
    assert trace.summary["policy"] == "fixed"
    assert trace.summary["initial_placement"] == "HYB"
    assert trace.summary["placement_occupancy"] == {"HYB": 1.0}
    assert trace.summary["migrations"] == 0
    assert trace.summary["first_migration_window"] is None
    assert trace.decisions == []


def test_fixed_run_scores_windows_with_the_controller_cost():
    dag = make_dag(cv=0.2)
    trace = fixed_run(dag, "SO", SimConfig(40.0, 40.0, horizon=2, seed=3))
    assert all(w.cost_j is not None and w.cost_j > 0 for w in trace.windows)


@settings(max_examples=25, deadline=None)
@given(
    placement=st.sampled_from(["LOC", "SO", "HYB"]),
    cv=st.floats(0.0, 0.4),
    jitter=st.floats(0.0, 0.5),
    loss=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**31),
    window_size=st.integers(1, 6),
    horizon=st.integers(2, 4),
    data=st.data(),
)
def test_a_fault_in_one_window_leaves_every_other_window_unchanged(
    placement, cv, jitter, loss, seed, window_size, horizon, data
):
    dag = make_dag(cv=cv, jitter=jitter, loss=loss)
    k = data.draw(st.integers(1, horizon), label="fault window")
    fault = FaultInjection(
        tuple(data.draw(st.lists(st.sampled_from(NODE_PAIRS), min_size=1, unique=True))),
        data.draw(st.floats(0.0, 20.0), label="mu"),
        sigma=data.draw(st.floats(0.0, 5.0), label="sigma"),
        loss_probability=data.draw(st.floats(0.0, 0.9), label="fault loss"),
        start_window=k,
        end_window=k,
        additive=data.draw(st.booleans(), label="additive"),
    )
    sim = SimConfig(period=50.0, deadline=30.0, horizon=horizon, seed=seed)
    clean = fixed_run(dag, placement, sim, window_size=window_size)
    faulted = fixed_run(dag, placement, sim, window_size=window_size, faults=(fault,))
    assert len(faulted.cycles) == len(clean.cycles) == horizon * window_size
    for j in range(1, horizon + 1):
        if j != k:
            start, stop = (j - 1) * window_size, j * window_size
            assert cycle_records(faulted, start, stop) == cycle_records(clean, start, stop), j


def test_every_fatal_cycle_is_capped_at_the_period():
    # (row, whether an edge crossing of its cycle was lost twice) for every
    # shadow cycle the engine runs and every cycle of the run_cycle oracle,
    # which the window kernel's active cycles must equal
    cycles = []
    crossing_fatal = [False]
    run_cycle = simulation._Engine.run_cycle
    traverse_edge = simulation.traverse_edge

    def recording_traverse(*args):
        delay_us, fatal = traverse_edge(*args)
        crossing_fatal[0] |= fatal
        return delay_us, fatal

    def recording_run_cycle(engine, plan, cycle_index):
        crossing_fatal[0] = False
        row = run_cycle(engine, plan, cycle_index)
        cycles.append((row, crossing_fatal[0]))
        return row

    fatal_seen = []

    @settings(max_examples=20, deadline=None)
    @given(
        fixed=st.sampled_from([None, "LOC", "SO", "HYB"]),
        cv=st.floats(0.0, 0.4),
        jitter=st.floats(0.0, 0.5),
        loss=st.floats(0.3, 0.9),
        seed=st.integers(0, 2**31),
        period=st.sampled_from([40.0, 50.0]),
    )
    def check(fixed, cv, jitter, loss, seed, period):
        dag = make_dag(cv=cv, jitter=jitter, loss=loss)
        sim = SimConfig(period, period, horizon=3, seed=seed)
        controller = controller_policy(dag, window_size=4, n_min=0)
        cycles.clear()
        with mock.patch.object(simulation, "traverse_edge", recording_traverse), \
                mock.patch.object(simulation._Engine, "run_cycle", recording_run_cycle):
            trace = run_simulation(
                dag, FABRIC, sim, controller,
                fixed=fixed, estimator=EstimatorConfig(static_samples=100),
            )
            reference = reference_rows(dag, FABRIC, sim, controller.candidates, 4)
        assert store_rows(trace.cycles) == trace_reference_rows(trace, reference, 4)
        for (latency_us, met, _), fatal in cycles:
            if fatal:
                assert latency_us == period * 1000
                assert not met
        fatal_seen.append(sum(fatal for _, fatal in cycles))

    check()
    assert sum(fatal_seen) > 0


# Common random numbers: draws are keyed by (task or link tag, cycle), never by
# placement, so a DTP run's active and shadow cycles are the fixed runs' cycles.
@settings(max_examples=40, deadline=None)
@given(
    cv=st.floats(0.0, 0.4),
    jitter=st.floats(0.0, 0.5),
    loss=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**31),
    slowdown=st.floats(1.0, 2.5),
    stressed=st.sampled_from(["R1", "R2", "E"]),
    data=st.data(),
)
def test_every_dtp_cycle_equals_the_fixed_run_cycle_of_its_placement(
    cv, jitter, loss, seed, slowdown, stressed, data
):
    dag = make_dag(cv=cv, jitter=jitter, loss=loss)
    horizon, window_size = 8, 4
    stress = StressProfile(
        stressed,
        start_window=data.draw(st.integers(1, horizon), label="stress start"),
        end_window=horizon,
        slowdown=slowdown,
        exogenous_load=data.draw(st.floats(0.0, 0.3), label="exogenous load"),
    )
    fault = FaultInjection(
        tuple(data.draw(st.lists(st.sampled_from(NODE_PAIRS), min_size=1, unique=True))),
        data.draw(st.floats(0.0, 10.0), label="mu"),
        sigma=data.draw(st.floats(0.0, 3.0), label="sigma"),
        loss_probability=data.draw(st.floats(0.0, 0.5), label="fault loss"),
        start_window=data.draw(st.integers(1, horizon), label="fault window"),
        end_window=horizon,
    )
    sim = SimConfig(period=50.0, deadline=30.0, horizon=horizon, seed=seed)
    controller = controller_policy(dag, window_size=window_size, n_min=0)
    disturbances = {"stresses": (stress,), "faults": (fault,)}
    # (placement, cycle, row) of every cycle the kernel computes: a block's
    # shadow indices (drawn from a step list) and the active blocks, run ahead
    # (drawn from a range)
    shadow, active = [], []
    run_window = simulation._Engine.run_window

    def recording_run_window(engine, plan, draws):
        latency, met, busy = columns = run_window(engine, plan, draws)
        (active if isinstance(draws.steps, range) else shadow).extend(
            (plan.placement.name, cycle_index, (latency[i], met[i], [c[i] for c in busy]))
            for i, cycle_index in enumerate(draws.steps)
        )
        return columns

    with mock.patch.object(simulation._Engine, "run_window", recording_run_window):
        run_simulation(dag, FABRIC, sim, controller,
                       estimator=EstimatorConfig(static_samples=100), **disturbances)
    ran = shadow + active
    fixed = {
        name: run_simulation(dag, FABRIC, sim, controller, fixed=name, **disturbances).cycles
        for name in {name for name, _, _ in ran}
    }
    assert all(plan.placement.name == name
               for name, store in fixed.items() for _, plan in store.source[-1])
    fixed_rows = {name: store_rows(store) for name, store in fixed.items()}
    # a block run ahead can outlive a migration, so only a shadow block proves a shadow ran
    assert shadow and len(active) >= horizon * window_size
    for name, cycle_index, row in ran:
        assert row == fixed_rows[name][cycle_index]


def known_cycles_case(horizon=6):
    dag = make_dag(cv=0.3, jitter=0.5, loss=0.05)
    stress = StressProfile("R1", start_window=2, end_window=6, slowdown=2.5)
    sim = SimConfig(period=50.0, deadline=30.0, horizon=6, seed=7)
    controller = controller_policy(dag, window_size=4, n_min=0)
    known = {
        name: fixed_run(
            dag, name, replace(sim, horizon=horizon), window_size=4, stresses=(stress,)
        ).cycles
        for name in ("LOC", "SO")
    }

    def run(known_cycles):
        return run_simulation(
            dag, FABRIC, sim, controller, stresses=(stress,),
            estimator=EstimatorConfig(static_samples=100), known_cycles=known_cycles,
        )

    return known, run


def test_known_cycles_are_read_and_leave_the_trace_unchanged():
    known, run = known_cycles_case()
    simulated = []  # the placement of every cycle the kernel or run_cycle computes
    run_cycle = simulation._Engine.run_cycle
    run_window = simulation._Engine.run_window

    def recording_run_cycle(engine, plan, cycle_index):
        simulated.append(plan.placement.name)
        return run_cycle(engine, plan, cycle_index)

    def recording_run_window(engine, plan, draws):
        simulated.extend(plan.placement.name for _ in draws.steps)
        return run_window(engine, plan, draws)

    with mock.patch.object(simulation._Engine, "run_cycle", recording_run_cycle), \
            mock.patch.object(simulation._Engine, "run_window", recording_run_window):
        reused = run(known)
    assert set(simulated) == {"HYB"}
    fresh = run(None)
    assert cycle_records(fresh) == cycle_records(reused)
    assert fresh.windows == reused.windows
    assert fresh.summary == reused.summary


def test_every_candidate_builds_its_plans_once_per_disturbance_state():
    # a known store is checked against its candidate's plans in this run, so
    # a candidate with a store builds them too, but only once per state
    known, run = known_cycles_case()
    dag = make_dag(cv=0.3)
    sim = SimConfig(50.0, 30.0, horizon=3, seed=4)
    controller = controller_policy(dag, window_size=4)
    loc = fixed_stores(dag, FABRIC, sim, [controller.candidates.by_name("LOC")], 4)["LOC"]
    built = []
    build_cycle_plan = simulation.build_cycle_plan

    def counting_build_cycle_plan(dag, placement, **kwargs):
        built.append(placement.name)
        return build_cycle_plan(dag, placement, **kwargs)

    with mock.patch.object(simulation, "build_cycle_plan", counting_build_cycle_plan):
        run_simulation(dag, FABRIC, sim, controller, fixed="LOC", known_cycles={"LOC": loc})
        assert built == ["LOC"]
        built.clear()
        run(known)
    # once per disturbance state: R1 unstressed, then stressed
    assert Counter(built) == dict.fromkeys(["LOC", "SO", "HYB"], 2)


def switching_case(disturbed=True):
    """W = 50 over 12 windows: a stress over windows 3-7, then an additive
    lossy fault over windows 9-10, so the disturbance state goes off, on, off,
    on, off and a fixed run ends a block at each switch.  Undisturbed,
    its blocks are ``BLOCK_CYCLES // 50`` = 5 windows long."""
    dag = make_dag(cv=0.3, jitter=0.2, loss=0.05)
    stress = StressProfile("R1", 3, 7, slowdown=2.5, exogenous_load=0.1)
    fault = FaultInjection((("R1", "E"), ("E", "R2")), 2.0, sigma=0.5, loss_probability=0.3,
                           start_window=9, end_window=10, additive=True)
    sim = SimConfig(50.0, 30.0, horizon=12, seed=11)
    disturbances = {"stresses": (stress,), "faults": (fault,)} if disturbed else {}
    return dag, sim, controller_policy(dag, window_size=50, n_min=0), disturbances


@pytest.mark.parametrize(
    "disturbed, blocks",
    [
        (True, [(0, 100), (100, 350), (350, 400), (400, 500), (500, 600)]),
        (False, [(0, 250), (250, 500), (500, 600)]),
    ],
    ids=["switching", "undisturbed"],
)
def test_blocks_and_state_switches_keep_every_row_of_the_oracle(disturbed, blocks):
    dag, sim, controller, disturbances = switching_case(disturbed)
    placements = list(controller.candidates)
    assert simulation.BLOCK_CYCLES // 50 == 5
    ran = []  # the placement and cycles of every run_window call
    run_window = simulation._Engine.run_window

    def recording_run_window(engine, plan, draws):
        ran.append((plan.placement.name, draws.steps.start, draws.steps.stop))
        return run_window(engine, plan, draws)

    built = []  # the placement of every plan built
    build_cycle_plan = simulation.build_cycle_plan

    def counting_build_cycle_plan(dag, placement, **kwargs):
        built.append(placement.name)
        return build_cycle_plan(dag, placement, **kwargs)

    reference = reference_rows(dag, FABRIC, sim, placements, 50, **disturbances)
    for placement in placements:
        ran.clear()
        built.clear()
        with mock.patch.object(simulation._Engine, "run_window", recording_run_window), \
                mock.patch.object(simulation, "build_cycle_plan", counting_build_cycle_plan):
            store = run_simulation(dag, FABRIC, sim, controller, fixed=placement.name,
                                   **disturbances).cycles
        assert ran == [(placement.name, *block) for block in blocks], placement.name
        # one plan per disturbance state, even one that comes back: none, the stress, the fault
        assert built == [placement.name] * (3 if disturbed else 1)
        assert store_rows(store) == reference[placement.name], placement.name
    dtp = run_simulation(dag, FABRIC, sim, controller,
                         estimator=EstimatorConfig(static_samples=100), **disturbances)
    assert store_rows(dtp.cycles) == trace_reference_rows(dtp, reference, 50)
    # disturbed, the DTP run migrates, so it crosses placements as well as states
    assert (len({w.placement for w in dtp.windows}) > 1) == disturbed


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(0, 30),
    window=st.sampled_from([10, 50, 100, 300]),
    intervals=st.lists(st.tuples(st.integers(1, 35), st.integers(0, 12)), max_size=4),
)
def test_the_schedule_cuts_a_block_only_at_a_state_switch_or_its_size(horizon, window, intervals):
    # the definition, window by window: a block grows while the stresses and
    # faults active stay the same, up to BLOCK_CYCLES // window windows
    dag = make_dag()
    placements = list(canonical_candidates(dag))
    stresses = tuple(StressProfile("R1", a, a + n, slowdown=2.0) for a, n in intervals[::2])
    faults = tuple(FaultInjection((("R1", "E"),), 3.0, start_window=a, end_window=a + n)
                   for a, n in intervals[1::2])
    sim = SimConfig(50.0, 30.0, horizon=horizon)
    blocks = simulation._schedule(placements, stresses, faults, dag, sim, window)

    def state(k):
        return tuple(d.active(k) for d in (*stresses, *faults))

    size = max(1, simulation.BLOCK_CYCLES // window)
    assert [k for windows, _ in blocks for k in windows] == list(range(1, horizon + 1))
    built = {}  # state -> its plans: built once, even for a state that comes back
    for (windows, plans), after in zip(blocks, [*blocks[1:], None]):
        assert 0 < len(windows) <= size
        assert {state(k) for k in windows} == {state(windows[0])}
        assert built.setdefault(state(windows[0]), plans) is plans
        assert plans == simulation._window_plans(windows[0], placements, stresses, faults, dag,
                                                 sim)
        if after is not None and len(windows) < size:
            assert state(after[0][0]) != state(windows[-1])


def test_blocks_run_ahead_keep_every_active_row_of_the_oracle():
    """W = 7 over 120 windows, so a block may run 35 windows ahead of the
    controller: a stress over windows 20-50 and a fault over windows 60-64
    cut blocks short, the 56 windows after them make two blocks, and DTP
    migrates inside blocks, dropping their tails.  Each block's shadow rows
    are made once per challenger, ahead of its windows, and every shadow row
    the estimator reads is the oracle's row at its index."""
    window = 7
    dag = make_dag(cv=0.3, jitter=0.2, loss=0.05)
    disturbances = {
        "stresses": (StressProfile("R1", 20, 50, slowdown=2.5, exogenous_load=0.1),),
        "faults": (FaultInjection((("R1", "E"), ("E", "R2")), 2.0, sigma=0.5,
                                  loss_probability=0.3, start_window=60, end_window=64,
                                  additive=True),),
    }
    sim = SimConfig(50.0, 30.0, horizon=120, seed=11)
    controller = controller_policy(dag, window_size=window)
    # (placement, first window, window after the last) of each run_window call:
    # active blocks draw a range of cycles, shadow blocks a list of indices
    blocks, shadow_blocks = [], []
    hists = {}  # each challenger's shadow history, as update_shadow reads it
    run_window = simulation._Engine.run_window
    update_shadow = simulation.update_shadow

    def recording_run_window(engine, plan, draws):
        first, stop = 1 + draws.steps[0] // window, 2 + draws.steps[-1] // window
        calls = blocks if isinstance(draws.steps, range) else shadow_blocks
        calls.append((plan.placement.name, first, stop))
        return run_window(engine, plan, draws)

    def recording_update_shadow(hist, name, *args):
        hists[name] = hist
        return update_shadow(hist, name, *args)

    with mock.patch.object(simulation._Engine, "run_window", recording_run_window):
        fixed_stores(dag, FABRIC, sim, list(controller.candidates), window, **disturbances)
        fixed_blocks = {(first, stop) for _, first, stop in blocks}
        blocks.clear()
        with mock.patch.object(simulation, "update_shadow", recording_update_shadow):
            dtp = run_simulation(dag, FABRIC, sim, controller,
                                 estimator=EstimatorConfig(static_samples=100), **disturbances)
    reference = reference_rows(dag, FABRIC, sim, list(controller.candidates), window,
                               **disturbances)
    assert len(dtp.cycles) == sim.horizon * window
    assert store_rows(dtp.cycles) == trace_reference_rows(dtp, reference, window)
    # a challenger's history holds the oracle's rows at the shadow indices of
    # every window it was not active in
    stride = -(-window // 4)
    assert set(hists) == {p.name for p in controller.candidates}
    for name, hist in hists.items():
        indices = [i for k, row in enumerate(dtp.windows, 1) if row.placement != name
                   for i in range((k - 1) * window, k * window, stride)]
        assert store_rows(hist) == [reference[name][i] for i in indices], name
    # shadow blocks cover whole blocks, at most once per challenger and block
    assert {(first, stop) for _, first, stop in shadow_blocks} == fixed_blocks
    assert len(set(shadow_blocks)) == len(shadow_blocks)
    # after a migration inside a block, the old incumbent shadows that block
    assert any(dtp.windows[k - 1].placement == name
               for name, first, stop in shadow_blocks for k in range(first, stop))
    per_block = simulation.BLOCK_CYCLES // window
    assert per_block == 35
    assert all(0 < stop - first <= per_block for _, first, stop in blocks)
    migrations = {d.window_index + 1 for d in dtp.decisions if d.action == "migrate"}
    # a migration inside a block: the next block starts before that one ends
    assert any(b[1] < a[2] and b[1] in migrations for a, b in zip(blocks, blocks[1:]))
    # a switch inside a block: a block ends at a switch before its 35 windows
    assert {20, 51, 60, 65} <= {stop for _, first, stop in blocks if stop - first < per_block}
    # the runs ahead line up with the blocks of the fixed runs: each ends where one ends
    assert {stop for _, _, stop in blocks} <= {stop for _, stop in fixed_blocks}


KNOWN_INPUTS = {
    "sim": SimConfig(period=50.0, deadline=30.0, horizon=6, seed=7),
    "window": 4,
    "stresses": (StressProfile("R1", start_window=2, end_window=6, slowdown=2.5),),
    "faults": (FaultInjection((("R1", "E"),), 3.0, sigma=0.5, start_window=3, end_window=4),),
}


def known_store(dag, placement="LOC", **changes):
    """The store of a fixed run of ``placement`` (a candidate's name or a
    Placement) over ``KNOWN_INPUTS`` with ``changes`` made."""
    inputs = {**KNOWN_INPUTS, **changes}
    if isinstance(placement, str):
        placement = canonical_candidates(dag).by_name(placement)
    stores = fixed_stores(dag, FABRIC, inputs["sim"], [placement], inputs["window"],
                          inputs["stresses"], inputs["faults"])
    return stores[placement.name]


def run_on_known_inputs(dag, known_cycles):
    """A DTP run over ``KNOWN_INPUTS``."""
    return run_simulation(
        dag, FABRIC, KNOWN_INPUTS["sim"], controller_policy(dag, window_size=4, n_min=0),
        stresses=KNOWN_INPUTS["stresses"], faults=KNOWN_INPUTS["faults"],
        estimator=EstimatorConfig(static_samples=100), known_cycles=known_cycles,
    )


STALE = "not simulated with this run's sim, fabric, window and per-window plans of the candidate"
SIM = KNOWN_INPUTS["sim"]


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda dag: {"LOC": known_store(dag, sim=replace(SIM, horizon=5))}, STALE),
        (lambda dag: {"LOC": known_store(dag, sim=replace(SIM, horizon=7))}, STALE),
        (lambda dag: {"LOC": store_rows(known_store(dag))},
         "a list, not the CycleStore of a fixed run"),
        (lambda dag: {"SO": known_store(dag)}, "known cycles of 'SO': " + STALE),
        (lambda dag: {"XYZ": known_store(dag)}, "not a candidate"),
        # its cycles.csv would write release_ms on the 40 ms grid of 50 ms windows
        (lambda dag: {"LOC": known_store(dag, sim=replace(SIM, period=40.0))}, STALE),
        (lambda dag: {"LOC": known_store(dag, sim=replace(SIM, seed=8))}, STALE),
        (lambda dag: {"LOC": known_store(dag, stresses=())}, STALE),
        # a fault on R1->R2, a link LOC crosses: its windows 3 and 4 differ
        (lambda dag: {"LOC": known_store(
            dag, faults=(replace(KNOWN_INPUTS["faults"][0], links=(("R1", "R2"),)),))},
         STALE),
        # 24 cycles either way
        (lambda dag: {"LOC": known_store(dag, window=3, sim=replace(SIM, horizon=8))}, STALE),
        (lambda dag: {"LOC": known_store(
            dag, replace(canonical_candidates(dag).by_name("SO"), name="LOC"))}, STALE),
        # a DTP run's store records no inputs
        (lambda dag: {"LOC": run_on_known_inputs(dag, None).cycles}, STALE),
    ],
    ids=["short", "long", "list", "placement", "candidate", "period", "seed", "unstressed",
         "fault-window", "window", "assignment", "dtp"],
)
def test_known_cycles_of_another_shape_are_rejected(bad, message):
    dag = make_dag(cv=0.3, jitter=0.5, loss=0.05)
    run_on_known_inputs(dag, {"LOC": known_store(dag), "SO": known_store(dag, "SO")})
    with pytest.raises(ValueError, match=message):
        run_on_known_inputs(dag, bad(dag))


def test_a_fixed_runs_own_cycles_are_accepted_as_known():
    # stresses as a list in one call and a tuple in the other: the same inputs
    dag = make_dag(cv=0.3, jitter=0.5, loss=0.05)
    stresses, faults = KNOWN_INPUTS["stresses"], KNOWN_INPUTS["faults"]
    controller = controller_policy(dag, window_size=4, n_min=0)
    loc = run_simulation(dag, FABRIC, SIM, controller, fixed="LOC", stresses=list(stresses),
                         faults=faults)
    # R1 is stressed from window 2 on; the fault on R1->E (windows 3-4) and
    # the block cuts it makes do not show, since LOC never crosses R1->E
    placement = controller.candidates.by_name("LOC")
    assert loc.cycles.source == (SIM, FABRIC, 4, (
        (1, build_cycle_plan(dag, placement)),
        (5, build_cycle_plan(dag, placement, slowdown={"R1": 2.5})),
    ))
    reused = run_on_known_inputs(dag, {"LOC": loc.cycles})
    fresh = run_on_known_inputs(dag, None)
    assert (reused.windows, reused.summary) == (fresh.windows, fresh.summary)
    assert store_rows(reused.cycles) == store_rows(fresh.cycles)


@pytest.mark.parametrize(
    "faults",
    [(replace(KNOWN_INPUTS["faults"][0], start_window=4, end_window=5),), ()],
    ids=["fault-window", "unfaulted"],
)
def test_known_cycles_with_equal_plans_are_accepted(faults):
    # LOC never crosses R1->E, so a store made with the fault there at other
    # windows, or with no fault, holds the rows this run would compute
    dag = make_dag(cv=0.3, jitter=0.5, loss=0.05)
    store = known_store(dag, faults=faults)
    assert store.source == known_store(dag).source
    reused = run_on_known_inputs(dag, {"LOC": store})
    fresh = run_on_known_inputs(dag, None)
    assert (reused.windows, reused.summary) == (fresh.windows, fresh.summary)
    assert store_rows(reused.cycles) == store_rows(fresh.cycles)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_shipped_scenarios_store_is_accepted_where_its_plans_are_equal():
    # baseline's LOC store serves edge-stress, whose stress is on E, which LOC
    # never uses; robot-stress stresses R1, so LOC's plans there differ
    config = load_config()

    def run(name, **kwargs):
        spec = config.scenarios[name]
        return run_simulation(
            config.dag, config.fabric, replace(spec.sim, seed=1, horizon=12),
            config.controller_config(spec.controller_overrides), stresses=spec.stresses,
            faults=spec.faults, estimator=config.estimator, **kwargs,
        )

    loc = run("baseline", fixed="LOC").cycles
    reused, fresh = run("edge-stress", known_cycles={"LOC": loc}), run("edge-stress")
    assert (reused.windows, reused.summary) == (fresh.windows, fresh.summary)
    assert store_rows(reused.cycles) == store_rows(fresh.cycles)
    assert run("edge-stress", fixed="LOC").cycles.source == loc.source
    with pytest.raises(ValueError, match="known cycles of 'LOC': " + STALE):
        run("robot-stress", known_cycles={"LOC": loc})


def test_another_seeds_stores_are_rejected_in_a_shipped_scenario():
    # robot-stress seed 1: handed seed 2's stores, or stores made without
    # its stress, a DTP run would decide on cycles it never ran
    config = load_config()
    spec = config.scenarios["robot-stress"]
    controller = config.controller_config(spec.controller_overrides)
    sim = replace(spec.sim, seed=1, horizon=20)
    fixed = [controller.candidates.by_name(name) for name in ("LOC", "SO")]
    for stale_sim, stresses in ((replace(sim, seed=2), spec.stresses), (sim, ())):
        stale = fixed_stores(config.dag, config.fabric, stale_sim, fixed,
                             controller.window_size, stresses, spec.faults)
        with pytest.raises(ValueError, match=STALE):
            run_simulation(config.dag, config.fabric, sim, controller, stresses=spec.stresses,
                           faults=spec.faults, estimator=config.estimator, known_cycles=stale)


def run_files(trace, directory):
    """The bytes of the four run files ``trace`` writes into ``directory``, by name."""
    directory.mkdir()
    simulation.write_cycles_csv(trace, FABRIC, directory / "cycles.csv")
    simulation.write_windows_csv(trace, directory / "windows.csv")
    simulation.write_summary_json(trace, directory / "summary.json")
    simulation.write_decisions_jsonl(trace, directory / "decisions.jsonl")
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def static_estimates_case():
    dag = make_dag(cv=0.3, jitter=0.5, loss=0.05)
    stress = StressProfile("R1", start_window=1, end_window=4, slowdown=2.5)
    sim = SimConfig(period=50.0, deadline=30.0, horizon=4, seed=7)
    # W = 50 and n_min = 0: every window is decided on the challengers' static
    # estimates (4 shadow rows a window, 25 needed)
    controller = controller_policy(dag, window_size=50, n_min=0)

    def run(stresses, static_estimates, seed=7):
        return run_simulation(
            dag, FABRIC, replace(sim, seed=seed), controller, stresses=stresses,
            estimator=EstimatorConfig(static_samples=100), static_estimates=static_estimates,
        )

    return dag, stress, run


def test_shared_static_estimates_leave_the_run_files_unchanged(tmp_path, monkeypatch):
    # a stressed run fills the mapping; an undisturbed run of the same seed,
    # period and deadline reads it instead of estimating again
    _, stress, run = static_estimates_case()
    shared = {}
    stressed = run((stress,), shared)
    # it migrates off LOC, so LOC is a challenger too
    assert stressed.summary["migrations"] and sorted(shared) == [
        ("HYB", 7, 50.0, 30.0, 100), ("LOC", 7, 50.0, 30.0, 100), ("SO", 7, 50.0, 30.0, 100)
    ]
    filled = dict(shared)
    monkeypatch.setattr(simulation, "estimate_static", None)  # a call would raise
    reused = run((), shared)
    monkeypatch.undo()
    assert shared == filled
    alone = run((), None)
    assert all(d.best_alternative_cost is not None for d in reused.decisions)
    assert run_files(reused, tmp_path / "shared") == run_files(alone, tmp_path / "alone")


def test_one_static_map_shared_by_two_seeds_and_two_scenarios_leaves_the_run_files_unchanged(
    tmp_path,
):
    dag, stress, run = static_estimates_case()
    shared = {}
    for seed in (7, 8):
        for stresses in ((stress,), ()):
            name = f"{seed}-{len(stresses)}"
            files = run_files(run(stresses, shared, seed), tmp_path / f"shared-{name}")
            assert files == run_files(run(stresses, None, seed), tmp_path / f"alone-{name}"), name
    assert sorted({key[1:] for key in shared}) == [(7, 50.0, 30.0, 100), (8, 50.0, 30.0, 100)]


SO_KEY = ("SO", 7, 50.0, 30.0, 100)


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda so: {SO_KEY: so.metrics}, "'SO', .*: a WindowMetrics, not an EstimateReport"),
        (lambda so: {("HYB", *SO_KEY[1:]): so},
         "\\('HYB', .* \\('SO', 'static', 100\\), expected \\('HYB', "),
        (lambda so: {SO_KEY: replace(so, mechanism=MECHANISM_SHADOW)},
         "\\('SO', 'shadow', 100\\)"),
        (lambda so: {SO_KEY: replace(so, sample_count=200)}, "\\('SO', 'static', 200\\)"),
        # a key of the candidate's name alone
        (lambda so: {"SO": so},
         "'SO': .* \\('SO', 'static', 100\\), expected \\('S', 'static', 'O'\\)"),
    ],
    ids=["type", "placement", "mechanism", "samples", "name-key"],
)
def test_static_estimates_of_another_shape_are_rejected(bad, message):
    dag, _, run = static_estimates_case()
    so = estimate_static(
        dag, canonical_candidates(dag).by_name("SO"), FABRIC, 30.0, 50.0,
        StaticDraws(RandomStreams(1), 100),
    )
    run((), {SO_KEY: so})  # the report itself passes
    with pytest.raises(ValueError, match=message):
        run((), bad(so))


def test_a_fixed_run_selects_no_placement():
    # its one candidate is never scored against another: the dwell gate holds
    # every window, and cost_j is the observed cost computed before the gate
    dag = make_dag(cv=0.3)
    sim = SimConfig(50.0, 30.0, horizon=10, seed=3)
    controller = controller_policy(dag, window_size=4, n_min=1)
    selected = []
    select_placement = controller_module.select_placement

    def counting_select_placement(*args):
        selected.append(args)
        return select_placement(*args)

    with mock.patch.object(controller_module, "select_placement", counting_select_placement):
        trace = run_simulation(dag, FABRIC, sim, controller, fixed="SO")
        assert selected == [] and len(trace.windows) == 10
        run_simulation(dag, FABRIC, sim, controller, estimator=EstimatorConfig(static_samples=100))
    assert len(selected) == 9  # DTP selects past its one-window dwell gate


def test_a_fixed_placement_outside_the_candidates_is_rejected():
    dag = make_dag()
    with pytest.raises(ValueError, match="'XYZ' is not a candidate: LOC, SO, HYB"):
        run_simulation(dag, FABRIC, SimConfig(50.0, 30.0, horizon=1), controller_policy(dag),
                       fixed="XYZ")


def record_cycle_parts(run):
    """Run ``run()`` and return its result and, per ``run_cycle`` call, the
    placement, cycle index and row, the quantized service µs of each executed
    stage, the (delay µs, fatal) of each edge crossing and the exogenous busy
    µs of its plan."""
    cycles = []
    run_cycle = simulation._Engine.run_cycle
    sample_service = simulation.sample_service
    traverse_edge = simulation.traverse_edge

    def recording_sample_service(model, rng, slowdown=1.0):
        ms = sample_service(model, rng, slowdown)
        cycles[-1]["service_us"].append(quantize_us(ms))
        return ms

    def recording_traverse(*args):
        crossing = traverse_edge(*args)
        cycles[-1]["edges"].append(crossing)
        return crossing

    def recording_run_cycle(engine, plan, cycle_index):
        parts = {"placement": plan.placement.name, "cycle": cycle_index, "service_us": [],
                 "edges": [], "exogenous_us": sum(us for _, us in plan.exogenous_us)}
        cycles.append(parts)
        parts["row"] = run_cycle(engine, plan, cycle_index)
        return parts["row"]

    with mock.patch.object(simulation, "sample_service", recording_sample_service), \
            mock.patch.object(simulation, "traverse_edge", recording_traverse), \
            mock.patch.object(simulation._Engine, "run_cycle", recording_run_cycle):
        result = run()
    return result, cycles


engine_runs = st.fixed_dictionaries({
    "fixed": st.sampled_from([None, "LOC", "SO", "HYB"]),
    "cv": st.floats(0.0, 0.4),
    "jitter": st.floats(0.0, 0.5),
    "loss": st.floats(0.0, 0.6),
    "seed": st.integers(0, 2**31),
    "load": st.floats(0.0, 0.5),
})


def run_engine(fixed, cv, jitter, loss, seed, load):
    """The parts of every shadow cycle of one run and, for each of its active
    cycles (which the window kernel computes), of the ``run_cycle`` oracle
    cycle that its row must equal."""
    dag = make_dag(cv=cv, jitter=jitter, loss=loss)
    sim = SimConfig(50.0, 50.0, horizon=3, seed=seed)
    stress = StressProfile("E", 2, 3, slowdown=2.0, exogenous_load=load)
    controller = controller_policy(dag, window_size=4, n_min=0)
    trace, cycles = record_cycle_parts(lambda: run_simulation(
        dag, FABRIC, sim, controller, fixed=fixed,
        stresses=(stress,), estimator=EstimatorConfig(static_samples=100),
    ))
    _, reference = record_cycle_parts(
        lambda: reference_rows(dag, FABRIC, sim, controller.candidates, 4, (stress,))
    )
    oracle = {(parts["placement"], parts["cycle"]): parts for parts in reference}
    for i, row in enumerate(store_rows(trace.cycles)):
        parts = oracle[trace.windows[i // 4].placement, i]
        assert row == parts["row"]
        cycles.append(parts)
    return cycles


@settings(max_examples=40, deadline=None)
@given(engine_runs)
def test_a_cycle_latency_is_its_service_plus_edge_microseconds(params):
    cycles = run_engine(**params)
    assert cycles
    for parts in cycles:
        if any(fatal for _, fatal in parts["edges"]):
            continue
        total_us = sum(parts["service_us"]) + sum(us for us, _ in parts["edges"])
        assert parts["row"][0] == total_us


@settings(max_examples=40, deadline=None)
@given(engine_runs)
def test_busy_time_is_the_stage_plus_exogenous_microseconds(params):
    cycles = run_engine(**params)
    assert cycles
    for parts in cycles:
        assert sum(parts["row"][2]) == sum(parts["service_us"]) + parts["exogenous_us"]


def draw_fault(data, horizon, additive):
    return FaultInjection(
        tuple(data.draw(st.lists(st.sampled_from(NODE_PAIRS), min_size=1, unique=True))),
        data.draw(st.floats(0.0, 10.0), label="mu"),
        sigma=data.draw(st.floats(0.0, 3.0), label="sigma"),
        loss_probability=data.draw(st.floats(0.05, 0.6), label="fault loss"),
        start_window=data.draw(st.integers(1, horizon), label="fault start"),
        end_window=horizon,
        additive=additive,
    )


def with_constant_stage(dag, task):
    """``dag`` with the service of ``task`` (None: no task) made zero-cv."""
    return replace(dag, tasks=tuple(
        replace(t, service={n: replace(m, cv=0.0) for n, m in t.service.items()})
        if t.id == task else t
        for t in dag.tasks
    ))


def test_every_kernel_cycle_is_the_run_cycle_row_of_its_placement():
    # the window kernel (every fixed run, and every active window of a DTP
    # run) against the per-cycle oracle, over stresses, both fault
    # modes, a zero-cv stage and losses that retransmit
    crossings = Counter()  # (attempts, fatal) of every crossing the oracle makes
    attempts = [0]
    sample_link = sampling.sample_link
    traverse_edge = simulation.traverse_edge
    moved = []

    def counting_sample_link(*args):
        attempts[0] += 1
        return sample_link(*args)

    def recording_traverse(*args):
        attempts[0] = 0
        delay_us, fatal = traverse_edge(*args)
        crossings[attempts[0], fatal] += 1
        return delay_us, fatal

    @settings(max_examples=50, deadline=None)
    @given(
        cv=st.floats(0.0, 1.0),
        jitter=st.floats(0.0, 0.5),
        loss=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**31),
        constant=st.sampled_from([None, "T1", "T2", "T3", "T4"]),
        slowdown=st.floats(1.0, 2.5),
        stressed=st.sampled_from(["R1", "R2", "E"]),
        window=st.integers(1, 6),
        data=st.data(),
    )
    def check(cv, jitter, loss, seed, constant, slowdown, stressed, window, data):
        dag = with_constant_stage(make_dag(cv=cv, jitter=jitter, loss=loss), constant)
        horizon = 4
        stress = StressProfile(
            stressed,
            start_window=data.draw(st.integers(1, horizon), label="stress start"),
            end_window=horizon,
            slowdown=slowdown,
            exogenous_load=data.draw(st.floats(0.0, 0.4), label="exogenous load"),
        )
        disturbances = {
            "stresses": (stress,),
            "faults": (draw_fault(data, horizon, False), draw_fault(data, horizon, True)),
        }
        sim = SimConfig(50.0, 30.0, horizon=horizon, seed=seed)
        controller = controller_policy(dag, window_size=window, n_min=0)
        placements = list(controller.candidates)
        with mock.patch.object(simulation, "traverse_edge", recording_traverse), \
                mock.patch.object(sampling, "sample_link", counting_sample_link):
            reference = reference_rows(dag, FABRIC, sim, placements, window, **disturbances)
        for name, rows in reference.items():
            alone = run_simulation(dag, FABRIC, sim, controller, fixed=name, **disturbances)
            assert store_rows(alone.cycles) == rows, name
        dtp = run_simulation(dag, FABRIC, sim, controller,
                             estimator=EstimatorConfig(static_samples=100), **disturbances)
        assert store_rows(dtp.cycles) == trace_reference_rows(dtp, reference, window)
        moved.append(dtp.summary["migrations"])

    check()
    assert crossings[2, False] and crossings[2, True]  # delivered and fatal retransmits
    assert any(moved)  # some DTP run computed windows of more than one placement


@pytest.mark.parametrize("window", [1, 7])
def test_fixed_runs_take_every_branch_of_run_cycle(window):
    # zero jitter, a zero-cv stage, a loss of 0.6 on every link and exogenous
    # load: both loss outcomes and the constant stage all occur
    dag = make_dag(cv=0.3, jitter=0.0, edge_scales=(3.0, 4.0, 0.5))
    dag = with_constant_stage(dag, "T2")  # T2 runs on E, the stressed node, under SO and HYB
    horizon = 28 // window
    fault = FaultInjection(NODE_PAIRS, 1.5, loss_probability=0.6, start_window=1,
                           end_window=horizon)
    stress = StressProfile("E", 1, horizon, slowdown=1.5, exogenous_load=0.2)
    disturbances = {"stresses": (stress,), "faults": (fault,)}
    sim = SimConfig(50.0, 30.0, horizon=horizon, seed=3)
    controller = controller_policy(dag, window_size=window)
    placements = list(controller.candidates)
    # whether each retransmit was lost: the kernel hands a lane that loses a
    # first attempt to run_cycle, whose traverse_edge retransmits at once
    retransmits = []
    first_lost = [False]
    sample_link = sampling.sample_link

    def recording_sample_link(model, rng):
        delay, lost = sample_link(model, rng)
        if first_lost[0]:
            retransmits.append(lost)
            first_lost[0] = False
        else:
            first_lost[0] = lost
        return delay, lost

    with mock.patch.object(sampling, "sample_link", recording_sample_link):
        stores = fixed_stores(dag, FABRIC, sim, placements, window, **disturbances)
    assert False in retransmits and True in retransmits  # delivered and fatal
    period_us = quantize_us(sim.period)
    fatal = [(s, i) for s in stores.values() for i, us in enumerate(s.latency_us)
             if us == period_us]
    assert fatal and not any(s.met[i] for s, i in fatal)
    reference = reference_rows(dag, FABRIC, sim, placements, window, **disturbances)
    for name, store in stores.items():
        assert store_rows(store) == reference[name], name


def test_the_kernel_hands_each_lane_that_loses_a_first_attempt_to_run_cycle():
    # a fault with loss 0.3 on every link in windows 2-3: each run_window call
    # recomputes, once and in step order, each lane whose loss draw (draw 2 of
    # its step, as sample_link reads it) loses a first attempt on some
    # crossing, through run_cycle, and its rows stay the oracle's
    dag = make_dag(cv=0.3, jitter=0.2, edge_scales=(3.0, 4.0, 0.5))
    fault = FaultInjection(NODE_PAIRS, 1.5, sigma=0.4, loss_probability=0.3, start_window=2,
                           end_window=3)
    sim = SimConfig(50.0, 30.0, horizon=4, seed=5)
    window = 25
    controller = controller_policy(dag, window_size=window, n_min=0)
    placements = list(controller.candidates)
    calls, lost = [], []  # (placement, step) of each run_cycle call, and of each lost lane
    made = []  # (placement, step, row) of each run_cycle call of every run
    run_cycle = simulation._Engine.run_cycle
    run_window = simulation._Engine.run_window

    def recording_run_cycle(engine, plan, cycle_index):
        row = run_cycle(engine, plan, cycle_index)
        calls.append((plan.placement.name, cycle_index))
        made.append((plan.placement.name, cycle_index, row))
        return row

    def recording_run_window(engine, plan, draws):
        crossings = [e for e in plan.edges if e.link is not None]
        lost.extend(
            (plan.placement.name, step) for i, step in enumerate(draws.steps)
            if any(draws.integers(e.tag, 2)[i] * 2.0**-53 < e.model.loss_probability
                   for e in crossings)
        )
        return run_window(engine, plan, draws)

    def run(fixed, faults):
        calls.clear()
        lost.clear()
        with mock.patch.object(simulation._Engine, "run_cycle", recording_run_cycle), \
                mock.patch.object(simulation._Engine, "run_window", recording_run_window):
            return run_simulation(dag, FABRIC, sim, controller, fixed=fixed, faults=faults,
                                  estimator=EstimatorConfig(static_samples=100))

    reference = reference_rows(dag, FABRIC, sim, placements, window, faults=(fault,))
    for fixed in ("LOC", "SO", "HYB", None):
        run(fixed, ())
        assert calls == lost == [], fixed  # a loss-free run makes no run_cycle call
        trace = run(fixed, (fault,))
        # once per lost lane of each call: a DTP run may compute a cycle in two calls
        assert calls == lost, fixed
        assert all(2 <= 1 + step // window <= 3 for _, step in calls), fixed
        assert store_rows(trace.cycles) == trace_reference_rows(trace, reference, window)
    period_us = quantize_us(sim.period)
    assert any(row[0] == period_us for _, _, row in made)  # fatal lanes
    assert any(row[0] < period_us for _, _, row in made)  # delivered lanes
    for name, step, row in made:
        assert row == reference[name][step]


def test_stressed_occupancy_warns_once_per_fixed_run():
    dag = make_dag(cv=0.2)
    sim = SimConfig(40.0, 40.0, horizon=2, seed=2)
    controller = controller_policy(dag, window_size=5)
    warning = ("stressed occupancy of node R1 under LOC (48.0 ms) exceeds the period; "
               "utilization will saturate")
    cases = {
        "one 4x": ((StressProfile("R1", 1, 1, slowdown=4.0),), [warning]),
        # overlapping stresses multiply: two 2x stresses slow R1 4x in windows 1-4
        "overlapping 2x": (
            (StressProfile("R1", 1, 4, slowdown=2.0), StressProfile("R1", 1, 4, slowdown=2.0)),
            [warning],
        ),
        # back to back, no window holds both
        "back-to-back 2x": (
            (StressProfile("R1", 1, 1, slowdown=2.0), StressProfile("R1", 2, 2, slowdown=2.0)),
            [],
        ),
    }
    for case, (stresses, warned) in cases.items():
        caught = {}
        for name in ("LOC", "SO", "HYB"):
            with warnings.catch_warnings(record=True) as caught[name]:
                warnings.simplefilter("always")
                run_simulation(dag, FABRIC, sim, controller, fixed=name, stresses=stresses)
        assert {name: [str(w.message) for w in ws] for name, ws in caught.items()} == {
            "LOC": warned,
            "SO": [],
            "HYB": [],
        }, case


def test_a_fixed_run_rejects_a_queueing_config_and_a_fault_outside_the_dag():
    dag = make_dag(means=(2.0, 45.0, 8.0, 2.0))
    sim = SimConfig(40.0, 40.0, horizon=1, seed=1)
    controller = controller_policy(dag, window_size=4)
    fault = FaultInjection((("R1", "R3"),), 1.0, start_window=1, end_window=1)
    for fixed in controller.candidates.names():
        with pytest.raises(ValueError, match="cycles would queue"):
            run_simulation(dag, FABRIC, sim, controller, fixed=fixed)
        with pytest.raises(ValueError, match="not in dag.links"):
            run_simulation(make_dag(), FABRIC, sim, controller, fixed=fixed, faults=(fault,))
