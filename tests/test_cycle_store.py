"""The columnar cycle store: its columns, its memory, and its writer.

The reference functions below are the record-based trace writer and window
aggregation that the column code replaced, kept as oracles over
``conftest.cycle_records``: every byte of ``cycles.csv`` and every window
float must come out as they give it.
"""

import csv
import gc
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    NODE_PAIRS,
    Cycle,
    controller_policy,
    cycle_records,
    cycle_store,
    make_dag,
    make_fabric,
    reference_rows,
    store_rows,
)
from dtpsim import simulation
from dtpsim.estimator import EstimatorConfig
from dtpsim.metrics import CycleStore, WindowMetrics, percentile_nearest_rank
from dtpsim.pipeline import ComputeNode, Fabric
from dtpsim.simulation import (
    FaultInjection,
    SimConfig,
    SimTrace,
    StressProfile,
    WindowRow,
    run_simulation,
    write_cycles_csv,
)
from dtpsim.streams import WindowDraws

FABRIC = make_fabric()


def reference_write_cycles_csv(records, fabric, path):
    node_ids = fabric.ids()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cycle_index", "release_ms", "latency_ms", "deadline_met"]
            + [f"busy_{n}_ms" for n in node_ids]
            + ["placement_name"]
        )
        for c in records:
            writer.writerow(
                [
                    c.cycle_index,
                    f"{c.release_ms:.3f}",
                    f"{c.e2e_latency:.3f}",
                    "true" if c.deadline_met else "false",
                ]
                + [f"{c.busy_time.get(n, 0.0):.3f}" for n in node_ids]
                + [c.placement]
            )


def window_row(k, placement):
    """A window row of ``placement`` with placeholder metrics."""
    return WindowRow(k, WindowMetrics(1.0, 0.0, 0.0, 0.0), placement, 0.0, None)


def reference_utilization(records, window_duration, nodes):
    if not nodes:
        return 0.0
    busy_us = sum(round(r.busy_time.get(n, 0.0) * 1000) for r in records for n in nodes)
    return min(1.0, max(0.0, busy_us / (1000 * window_duration * len(nodes))))


def reference_aggregate(records, window_duration, fabric):
    robot_ids = [n.id for n in fabric.of_kind("robot")]
    edge_ids = [n.id for n in fabric.of_kind("edge")]
    return WindowMetrics(
        l95=percentile_nearest_rank([r.e2e_latency for r in records], 0.95),
        violation_rate=sum(1 for r in records if not r.deadline_met) / len(records),
        util_robot=reference_utilization(records, window_duration, robot_ids),
        util_edge=reference_utilization(records, window_duration, edge_ids),
    )


def test_a_store_is_read_only_as_columns():
    cycles = [(12.5, True, {"R1": 2.0, "E": 10.5}), (50.0, False, {"R2": 0.125})]
    store = cycle_store(cycles, period=40.0)
    assert len(store) == 2
    whole = store.columns()
    assert whole.latency_us is store.latency_us and whole.met is store.met
    assert whole.busy_us == dict(zip(("R1", "R2", "E"), store.busy_us))
    second = store.columns(1)
    assert (second.latency_us.tolist(), list(second.met)) == ([50000], [0])
    assert {n: c.tolist() for n, c in second.busy_us.items()} == {"R1": [0], "R2": [125], "E": [0]}
    assert len(store.columns(5).latency_us) == 0
    assert cycle_records(SimTrace(store, [window_row(1, "LOC")], {})) == [
        Cycle(0, 12.5, True, {"R1": 2.0, "R2": 0.0, "E": 10.5}, 0.0, "LOC"),
        Cycle(1, 50.0, False, {"R1": 0.0, "R2": 0.125, "E": 0.0}, 40.0, "LOC"),
    ]
    assert store.source is None
    with pytest.raises(TypeError):
        store[0]


def test_extend_copies_a_range_of_another_store_under_one_placement():
    source = cycle_store([(float(i), i % 2 == 0, {"E": i / 4}) for i in range(10)])
    rows = store_rows(source)
    store = CycleStore(source.nodes, source.period)
    store.append(rows[0])
    store.extend(source, 1, 4)
    store.extend(source, 4, 9, 3)  # a strided range, as shadow rows are read
    assert store_rows(store) == rows[:4] + [rows[4], rows[7]]


def test_the_writer_quotes_node_ids_and_placement_names_as_csv_does(tmp_path):
    # a comma, a quote and a line break each need quoting
    fabric = Fabric((ComputeNode('R"1', "robot"), ComputeNode("X,2", "robot"),
                     ComputeNode("E", "edge")))
    store = CycleStore(fabric.ids(), 30.0)
    for i in range(8):
        store.append((1000 * i + 17, i % 3 != 0, [250 * i, 3 * i, 7 * i]))
    names = ["LOC", "a,b", 'say "hi"', "two\nlines"]
    trace = SimTrace(store, [window_row(k, names[k % 4]) for k in range(1, 5)], {})
    write_cycles_csv(trace, fabric, tmp_path / "columns.csv")
    reference_write_cycles_csv(cycle_records(trace), fabric, tmp_path / "records.csv")
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "records.csv").read_bytes()
    assert b'"busy_R""1_ms","busy_X,2_ms"' in written
    assert b'"say ""hi"""' in written and b'"two\nlines"' in written and b'"a,b"' in written


@pytest.mark.parametrize("windows, nodes, message", [
    (0, FABRIC.ids(), "3 cycles do not fill 0 windows evenly"),
    (2, FABRIC.ids(), "3 cycles do not fill 2 windows evenly"),
    # one pass writes the runs of one window grid, each with every fabric node
    (3, FABRIC.ids(), "window grid 3x1 differs from the pass's 1x3"),
    (1, ("R1", "E"), "the cycles lack fabric nodes R2"),
], ids=["no-windows", "uneven", "another-grid", "missing-node"])
def test_the_writer_rejects_cycles_that_do_not_fill_their_windows(
    tmp_path, windows, nodes, message
):
    store = cycle_store([(1.0, True, {})] * 3, nodes=nodes)
    trace = SimTrace(store, [window_row(k, "LOC") for k in range(1, windows + 1)], {})
    if windows != 3:  # alone, three windows of one cycle are a grid
        with pytest.raises(ValueError, match=message):
            write_cycles_csv(trace, FABRIC, tmp_path / "cycles.csv")
    with pytest.raises(ValueError, match=message):
        write_cycles_csv(SimTrace(cycle_store([(1.0, True, {})] * 3), [window_row(1, "LOC")], {}),
                         FABRIC, tmp_path / "first.csv", others=[(trace, tmp_path / "cycles.csv")])
    assert not (tmp_path / "cycles.csv").exists() and not (tmp_path / "first.csv").exists()


def test_a_seeds_cycles_files_written_together_equal_each_written_alone(tmp_path):
    # one seed as run_scenario writes it: fixed LOC and SO runs and a DTP run
    # over LOC, HYB and SO windows, whose LOC and SO windows are written from
    # the fixed runs' text and whose HYB windows are formatted; a LOC run of
    # another seed has the names of the LOC run but not its columns
    dag = make_dag(cv=0.3, jitter=0.2, loss=0.05)
    sim = SimConfig(50.0, 30.0, horizon=10, seed=2)
    stresses = (StressProfile("R1", 3, 10, slowdown=2.5),)
    controller = controller_policy(dag, window_size=8)
    traces = {
        name: run_simulation(dag, FABRIC, sim, controller, fixed=name, stresses=stresses)
        for name in ("LOC", "SO")
    }
    traces["DTP"] = run_simulation(dag, FABRIC, sim, controller, stresses=stresses,
                                   estimator=EstimatorConfig(static_samples=100),
                                   known_cycles={name: t.cycles for name, t in traces.items()})
    assert [w.placement for w in traces["DTP"].windows] == ["LOC"] * 3 + ["HYB"] * 5 + ["SO"] * 2
    traces["LOC-seed-3"] = run_simulation(dag, FABRIC, replace(sim, seed=3), controller,
                                          fixed="LOC", stresses=stresses)
    formatted = Counter()  # the placement of each window formatted
    cycle_rows = simulation._cycle_rows

    def counting_cycle_rows(row, start, name, *columns):
        formatted[name] += 1
        return cycle_rows(row, start, name, *columns)

    (first, trace), *others = traces.items()
    with mock.patch.object(simulation, "_cycle_rows", counting_cycle_rows):
        write_cycles_csv(trace, FABRIC, tmp_path / f"{first}-together.csv",
                         others=[(t, tmp_path / f"{name}-together.csv") for name, t in others])
    assert formatted == {"LOC": 20, "SO": 10, "HYB": 5}
    for name, trace in traces.items():
        write_cycles_csv(trace, FABRIC, tmp_path / f"{name}-alone.csv")
        together = (tmp_path / f"{name}-together.csv").read_bytes()
        assert together == (tmp_path / f"{name}-alone.csv").read_bytes(), name
        assert together.count(b"\r\n") == 1 + 80


def test_a_fixed_run_holds_one_block_at_a_time():
    """Over 2,000 cycles (8 blocks of 250), the peak of a fixed ``SO`` run above the
    trace it returns stays within the peak of computing one block: its draws
    and the columns its placement computes from them."""
    dag = make_dag(cv=0.3, jitter=0.2, loss=0.05)
    sim = SimConfig(40.0, 40.0, horizon=40, seed=3)
    controller = controller_policy(dag, window_size=50)
    engine = simulation._Engine(FABRIC, sim)
    plan = simulation._window_plans(1, list(controller.candidates), (), (), dag, sim)["SO"]
    run_simulation(dag, FABRIC, sim, controller, fixed="SO")  # fills any lazy module state
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = run_simulation(dag, FABRIC, sim, controller, fixed="SO")
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        draws = WindowDraws(sim.seed, 0, simulation.BLOCK_CYCLES)
        columns = engine.run_window(plan, draws)
        block = tracemalloc.get_traced_memory()[1] - start
    finally:
        if started:
            tracemalloc.stop()
    assert len(columns[0]) == simulation.BLOCK_CYCLES
    assert len(trace.cycles) == 2000
    assert held > before
    assert peak - held < 1.5 * block


def test_run_simulation_holds_one_block_at_a_time():
    """Over 2,000 cycles, a DTP run that migrates (so blocks of 250 cycles run
    ahead and some are cut short) peaks above its trace by less than one
    block of every simulated candidate: their draws and columns."""
    dag = make_dag(cv=0.3, jitter=0.2, loss=0.05)
    sim = SimConfig(40.0, 40.0, horizon=40, seed=3)
    controller = controller_policy(dag, window_size=50, n_min=0)
    stresses = (StressProfile("R1", 5, 40, slowdown=2.5),)
    estimator = EstimatorConfig(static_samples=100)
    engine = simulation._Engine(FABRIC, sim)
    plans = simulation._window_plans(1, list(controller.candidates), (), (), dag, sim)

    def run():
        return run_simulation(dag, FABRIC, sim, controller, stresses=stresses,
                              estimator=estimator)

    run()  # fills any lazy module state
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = run()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        draws = WindowDraws(sim.seed, 0, simulation.BLOCK_CYCLES)
        columns = [engine.run_window(plan, draws) for plan in plans.values()]
        gc.collect()
        block = tracemalloc.get_traced_memory()[0] - start
    finally:
        if started:
            tracemalloc.stop()
    assert len(columns) == len(controller.candidates) == 3
    assert len(trace.cycles) == 2000 and trace.summary["migrations"] > 1
    assert held > before
    assert peak - held < 1.5 * block


def test_a_trace_retains_under_64_bytes_per_cycle():
    """2,000 cycles of a fixed run live in columns: the trace holds under 64 B
    per cycle (a record with its busy-time dict held over 400)."""
    dag = make_dag(cv=0.3, jitter=0.2, loss=0.05)
    sim = SimConfig(40.0, 40.0, horizon=40, seed=3)
    controller = controller_policy(dag, window_size=50)
    run_simulation(dag, FABRIC, sim, controller, fixed="SO")  # fills any lazy module state
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        trace = run_simulation(dag, FABRIC, sim, controller, fixed="SO")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        cycles = len(trace.cycles)
        del trace
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert cycles == 2000
    assert retained / cycles < 64


# derandomized: a draw may stress a node past the period, and the warning
# it raises should come up in the same runs every time
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    fixed=st.sampled_from([None, "LOC", "SO", "HYB"]),
    cv=st.floats(0.0, 0.4),
    jitter=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**31),
    stressed=st.sampled_from(["R1", "R2", "E"]),
    slowdown=st.floats(1.0, 3.0),
    load=st.floats(0.0, 0.4),
    fatal_loss=st.floats(0.0, 0.9),
    data=st.data(),
)
def test_the_column_writer_matches_the_record_writer(
    tmp_path_factory, fixed, cv, jitter, seed, stressed, slowdown, load, fatal_loss, data,
):
    horizon, window = 3, 10
    dag = make_dag(cv=cv, jitter=jitter, loss=0.02)
    stress = StressProfile(
        stressed, data.draw(st.integers(1, horizon), label="stress start"), horizon,
        slowdown=slowdown, exogenous_load=load,
    )
    fault = FaultInjection(
        tuple(data.draw(st.lists(st.sampled_from(NODE_PAIRS), min_size=1, unique=True))),
        data.draw(st.floats(0.0, 10.0), label="mu"),
        sigma=data.draw(st.floats(0.0, 3.0), label="sigma"),
        loss_probability=fatal_loss,
        start_window=data.draw(st.integers(1, horizon), label="fault window"),
        end_window=horizon,
        additive=data.draw(st.booleans(), label="additive"),
    )
    sim = SimConfig(50.0, 50.0, horizon=horizon, seed=seed)
    controller = controller_policy(dag, window_size=window, n_min=0)
    trace = run_simulation(
        dag, FABRIC, sim, controller, fixed=fixed,
        stresses=(stress,), faults=(fault,), estimator=EstimatorConfig(static_samples=100),
    )
    # each cycle's row as run_cycle computes it for its placement and index
    rows = reference_rows(dag, FABRIC, sim, controller.candidates, window, (stress,), (fault,))
    records = cycle_records(trace)
    assert len(records) == horizon * window
    for i, record in enumerate(records):
        name = trace.windows[i // window].placement
        latency_us, met, busy_us = rows[name][i]
        assert record == Cycle(
            cycle_index=i,
            e2e_latency=latency_us / 1000.0,
            deadline_met=met,
            busy_time={n: us / 1000.0 for n, us in zip(FABRIC.ids(), busy_us)},
            release_ms=i * sim.period,
            placement=name,
        )

    out = tmp_path_factory.mktemp("cycles")
    write_cycles_csv(trace, FABRIC, out / "columns.csv")
    reference_write_cycles_csv(records, FABRIC, out / "records.csv")
    assert (out / "columns.csv").read_bytes() == (out / "records.csv").read_bytes()

    duration = window * sim.period
    for k, row in enumerate(trace.windows, 1):
        window_records = records[(k - 1) * window:k * window]
        assert row.metrics == reference_aggregate(window_records, duration, FABRIC)
    latencies = [r.e2e_latency for r in records]
    latency_us = sum(round(ms * 1000) for ms in latencies)
    assert trace.summary["mean_latency_ms"] == latency_us / (1000 * len(latencies))
    assert trace.summary["l95_latency_ms"] == percentile_nearest_rank(latencies, 0.95)
    assert trace.summary["violation_rate"] == (
        sum(1 for r in records if not r.deadline_met) / len(records)
    )
