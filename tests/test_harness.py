"""Config resolution, scenario running, reporting, and the CLI."""

import copy
import dataclasses
import gc
import json
import re
import weakref
from collections import Counter
from unittest import mock

import pytest
import yaml

from dtpsim import cli, harness, simulation, streams
from dtpsim.cli import main
from dtpsim.harness import (
    DEFAULT_CONFIG,
    Check,
    ConfigError,
    Expectation,
    ScenarioSpec,
    echo_config,
    fault_windows,
    load_config,
    load_report,
    post_convergence_windows,
    render_report,
    report_payload,
    run_scenario,
    write_report,
)
from dtpsim.pipeline import ComputeNode, DagEdge, LinkDelayModel, ServiceTimeModel
from dtpsim.simulation import FaultInjection, SimConfig, StressProfile

SCENARIO_NAMES = {"baseline", "robot-stress", "edge-stress", "network-impairment"}


def write_config(tmp_path, document, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(document))
    return str(path)


def tiny_baseline(config, horizon=8):
    spec = config.scenarios["baseline"]
    return dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, horizon=horizon))


def _links_with(**changes):
    links = copy.deepcopy(DEFAULT_CONFIG["dag"]["links"])
    links[0].update(changes)
    return {"dag": {"links": links}}


def _tasks_with(**changes):
    tasks = copy.deepcopy(DEFAULT_CONFIG["dag"]["tasks"])
    tasks[1]["service"]["E"].update(changes)
    return {"dag": {"tasks": tasks}}


def _tasks_field(index, **changes):
    tasks = copy.deepcopy(DEFAULT_CONFIG["dag"]["tasks"])
    tasks[index].update(changes)
    return {"dag": {"tasks": tasks}}


def _edges_with(**changes):
    edges = copy.deepcopy(DEFAULT_CONFIG["dag"]["edges"])
    edges[0].update(changes)
    return {"dag": {"edges": edges}}


def _stress_with(**fields):
    return {"scenarios": {"robot-stress": {"stresses": [{"target": "R1", **fields}]}}}


def _fault_with(**fields):
    fault = {"links": [["R1", "E"]], **fields}
    return {"scenarios": {"network-impairment": {"faults": [fault]}}}


def _check_with(**fields):
    return {"scenarios": {"baseline": {"checks": [fields]}}}


# ---------------------------------------------------------------------------
# configuration


def test_defaults_resolve():
    config = load_config(None)
    assert set(config.scenarios) == SCENARIO_NAMES
    assert config.candidates.names() == ("LOC", "SO", "HYB")
    assert config.sim.period == 40.0
    assert config.sim.deadline == 40.0
    assert config.weights.alpha_v > config.weights.alpha_l > config.weights.alpha_s
    assert config.constraints.util_max == 0.95
    controller = config.controller_config()
    assert controller.initial_placement == "LOC"
    assert controller.window_size == 50


def test_dataclass_sections_resolve_to_the_shipped_values():
    shipped = {
        "sim": {"period": 40.0, "deadline": 40.0, "horizon": 200},
        "weights": {
            "alpha_l": 1.0, "alpha_v": 2.0, "alpha_r": 0.5, "alpha_e": 0.25, "alpha_s": 0.25,
        },
        "constraints": {"l95_max": 40.0, "util_max": 0.95},
        "controller": {
            "window_size": 50, "delta_min": 0.1, "n_min": 3, "initial_placement": "LOC",
            "latency_target": 40.0,
        },
        "estimator": {"static_samples": 2000},
    }
    raw = load_config(None).raw
    sections = {key: raw[key] for key in shipped}
    assert sections == shipped
    # resolved_config.yaml tells 40 from 40.0, which == does not
    assert yaml.safe_dump(sections) == yaml.safe_dump(shipped)


def test_scenario_specs_carry_their_policies():
    config = load_config(None)
    baseline = config.scenarios["baseline"]
    assert "DTP" in baseline.policies
    assert baseline.expected.forbidden == ("SO",)
    stressed = config.scenarios["robot-stress"]
    assert stressed.stresses[0].target == "R1"
    assert stressed.stresses[0].slowdown == 3.0
    impaired = config.scenarios["network-impairment"]
    assert impaired.controller_overrides.get("initial_placement") == "SO"
    assert impaired.faults[0].loss_probability > 0


def test_unknown_keys_are_rejected_with_their_path(tmp_path):
    path = write_config(tmp_path, {"weights": {"alpha_x": 1.0}})
    with pytest.raises(ConfigError, match=r"weights\.alpha_x"):
        load_config(path)


def test_unknown_section_is_rejected(tmp_path):
    path = write_config(tmp_path, {"wieghts": {"alpha_l": 1.0}})
    with pytest.raises(ConfigError, match="wieghts"):
        load_config(path)


def test_invalid_sim_values_point_at_the_section(tmp_path):
    path = write_config(tmp_path, {"sim": {"deadline": 80.0}})
    with pytest.raises(ConfigError, match="sim"):
        load_config(path)


def test_scenario_override_merges_onto_defaults(tmp_path):
    path = write_config(
        tmp_path,
        {"scenarios": {"baseline": {"sim": {"horizon": 12}, "seeds": [4, 5]}}},
    )
    config = load_config(path)
    spec = config.scenarios["baseline"]
    assert spec.sim.horizon == 12
    assert spec.seeds == (4, 5)
    assert spec.expected.dominant == ("LOC",)
    assert config.scenarios["robot-stress"].sim.horizon == 200


def test_new_scenarios_start_from_the_empty_template(tmp_path):
    path = write_config(
        tmp_path,
        {"scenarios": {"smoke": {"sim": {"horizon": 4}, "policies": ["LOC"], "seeds": [1]}}},
    )
    config = load_config(path)
    spec = config.scenarios["smoke"]
    assert spec.stresses == () and spec.faults == ()
    assert spec.policies == ("LOC",)


def _nodes_with(**changes):
    nodes = copy.deepcopy(DEFAULT_CONFIG["fabric"]["nodes"])
    nodes[0].update(changes)
    return {"fabric": {"nodes": nodes}}


def _task_with(**changes):
    tasks = copy.deepcopy(DEFAULT_CONFIG["dag"]["tasks"])
    tasks[1].update(changes)
    return {"dag": {"tasks": tasks}}


@pytest.mark.parametrize(
    "document, where",
    [
        (_nodes_with(kinds="edge"), "fabric.nodes[0].kinds"),
        (_task_with(feasable=["E"]), "dag.tasks[1].feasable"),
        (_tasks_with(sigma=1.0), "dag.tasks[1].service.E.sigma"),
        (_edges_with(src="T1"), "dag.edges[0].src"),
        (_links_with(jitter=0.1), "dag.links[0].jitter"),
        (_stress_with(slodown=2.0), "scenarios.robot-stress.stresses[0].slodown"),
        (_fault_with(mu=1.0, loss=0.1), "scenarios.network-impairment.faults[0].loss"),
        (_check_with(kind="policy_violation_above", policy="SO", treshold=0.1),
         "scenarios.baseline.checks[0].treshold"),
        ({"scenarios": {"baseline": {"expected": {"dominnt": ["SO"]}}}},
         "scenarios.baseline.expected.dominnt"),
        # removed estimator settings: the engine has one estimation rule
        ({"estimator": {"mode": "static"}}, "estimator.mode"),
        ({"estimator": {"conservative_ratios": 5}}, "estimator.conservative_ratios"),
        # removed model inputs: each repeated another input or was never read
        (_nodes_with(utilization_cap=0.9), "fabric.nodes[0].utilization_cap"),
        (_links_with(payload_scale=2.0), "dag.links[0].payload_scale"),
        (_tasks_field(0, utilization={"R1": 0.1}), "dag.tasks[0].utilization"),
        (_tasks_field(0, feasible=["R1"]), "dag.tasks[0].feasible"),
        # run_scenario runs each seed of a scenario's seeds list
        ({"sim": {"seed": 4.5}}, "sim.seed"),
        ({"scenarios": {"baseline": {"sim": {"seed": 7}}}}, "scenarios.baseline.sim.seed"),
    ],
    ids=["nodes", "tasks", "service", "edges", "links", "stresses", "faults", "checks",
         "expected", "estimator-mode", "estimator-conservative-ratios", "utilization-cap",
         "link-payload-scale", "task-utilization", "task-feasible", "sim-seed-fraction",
         "scenario-sim-seed"],
)
def test_unknown_item_keys_are_rejected_with_their_path(tmp_path, document, where):
    path = write_config(tmp_path, document)
    with pytest.raises(ConfigError, match=f"unknown key: {re.escape(where)}$"):
        load_config(path)


def test_omitted_optional_keys_resolve_to_the_documented_defaults(tmp_path):
    links = [["R1", "E"], ["E", "R1"], ["E", "R2"], ["R2", "E"], ["R1", "R2"], ["R2", "R1"]]
    document = {
        "fabric": {"nodes": [{"id": "R1"}, {"id": "R2"}, {"id": "E", "kind": "edge"}]},
        "dag": {
            "tasks": [
                {"id": "T1", "service": {"R1": {"mean": 2.0}}},
                {"id": "T2", "service": {"R1": {"mean": 10.0}, "E": {"mean": 10.0}}},
                {"id": "T3", "service": {"R2": {"mean": 8.0}, "E": {"mean": 8.0}}},
                {"id": "T4", "service": {"R2": {"mean": 2.0}}},
            ],
            "edges": [{"from": "T1", "to": "T2"}, {"from": "T2", "to": "T3"},
                      {"from": "T3", "to": "T4"}],
            "links": [{"from": a, "to": b, "base_delay": 1.0} for a, b in links],
        },
        "scenarios": {
            "smoke": {
                "sim": {"horizon": 7},
                "stresses": [{"target": "R1"}],
                "faults": [{"links": [["R1", "E"]], "mu": 5, "end_window": None}],
                "checks": [{"kind": "post_convergence_violation_below"}],
            }
        },
    }
    config = load_config(write_config(tmp_path, document))
    assert config.fabric.nodes[0] == ComputeNode("R1", "robot", 0.8)
    assert config.fabric.nodes[2] == ComputeNode("E", "edge", 0.8)
    task = config.dag.task("T2")
    assert task.feasible == frozenset({"R1", "E"})
    assert task.service["E"] == ServiceTimeModel(10.0, 0.0, 0.01)
    assert config.dag.edges[0] == DagEdge("T1", "T2", 1.0)
    assert config.dag.link("E", "R2") == LinkDelayModel(1.0, 0.0, 0.0)
    smoke = config.scenarios["smoke"]
    assert smoke.stresses == (StressProfile("R1", 1, 7, 1.0, 0.0),)
    assert smoke.faults == (
        FaultInjection((("R1", "E"),), 5, sigma=0.0, loss_probability=0.0,
                       start_window=1, end_window=7, additive=False),
    )
    assert smoke.checks == (Check("post_convergence_violation_below", "", "", 0.0, 0.0, "all"),)
    assert smoke.expected == Expectation(("LOC",), 0.6, 0.8, ())
    assert smoke.policies == ("LOC", "SO", "DTP")
    assert smoke.seeds == tuple(range(1, 11))
    assert smoke.controller_overrides == {}
    assert smoke.sim == SimConfig(40.0, 40.0, 7, 42)


def test_unknown_scenario_policy_is_rejected(tmp_path):
    path = write_config(tmp_path, {"scenarios": {"baseline": {"policies": ["LOCO"]}}})
    with pytest.raises(ConfigError, match="LOCO"):
        load_config(path)


def test_bad_controller_override_is_rejected(tmp_path):
    document = {"scenarios": {"baseline": {"controller": {"initial_placement": "NOPE"}}}}
    path = write_config(tmp_path, document)
    with pytest.raises(ConfigError, match="controller"):
        load_config(path)


def test_scenario_latency_target_override_sets_the_cost_targets(tmp_path):
    costs = {}
    for target in (10.0, 40.0):
        document = {"scenarios": {"baseline": {"controller": {"latency_target": target}}}}
        config = load_config(write_config(tmp_path, document))
        spec = tiny_baseline(config, horizon=3)
        controller = config.controller_config(spec.controller_overrides)
        assert controller.targets.latency == target
        sim = dataclasses.replace(spec.sim, seed=1)
        trace = simulation.run_simulation(config.dag, config.fabric, sim, controller)
        costs[target] = [row.cost_j for row in trace.windows]
    assert costs[10.0] != costs[40.0]


def test_missing_file_and_bad_yaml_raise_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("sim: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(listy)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_echo_config_round_trips(tmp_path):
    added = {"scenarios": {"added-a": {"policies": ["LOC", "DTP"]}, "added-b": {}}}
    for name, document in (("defaults", {}), ("added", added)):
        config = load_config(write_config(tmp_path, document, f"{name}.yaml"))
        path = echo_config(config, tmp_path / name)
        assert path.name == "resolved_config.yaml"
        text = path.read_text()
        assert yaml.safe_load(text) == config.raw
        # scenarios that shared a list or dict object would dump as YAML aliases
        assert not re.search(r"[&*]id\d", text), name


# ---------------------------------------------------------------------------
# scenario runs and reports


def test_tiny_baseline_run_passes_and_reports(tmp_path):
    config = load_config(None)
    [report] = run_scenario(config, [tiny_baseline(config)], policies=["DTP"], seeds=[1])
    assert report.passed
    assert report.results["DTP"][0].summary["migrations"] == 0
    names = [e.name for e in report.expectations]
    assert names == ["dominant-placement:LOC"]
    text = render_report(report_payload([report]))
    assert "scenario: baseline" in text
    assert "[PASS] dominant-placement:LOC" in text
    assert text.endswith("overall: PASS")
    payload = json.loads(render_report(report_payload([report]), "json"))
    assert payload["passed"] is True
    assert payload["scenarios"][0]["scenario"] == "baseline"


def test_run_scenario_rejects_unknown_policy():
    config = load_config(None)
    with pytest.raises(ConfigError, match="LOCO"):
        run_scenario(config, [tiny_baseline(config)], policies=["LOCO"], seeds=[1])


def test_run_scenario_rejects_an_empty_subset():
    # only None selects the scenario's own list; an empty one selects nothing
    config = load_config(None)
    with pytest.raises(ConfigError, match="policies: an empty subset"):
        run_scenario(config, [tiny_baseline(config)], policies=[], seeds=[1])
    with pytest.raises(ConfigError, match="seeds: an empty subset"):
        run_scenario(config, [tiny_baseline(config)], policies=["DTP"], seeds=[])


def test_run_artifacts_are_written_per_policy_and_seed(tmp_path):
    config = load_config(None)
    spec = tiny_baseline(config, horizon=4)
    run_scenario(config, [spec], policies=["DTP", "LOC"], seeds=[2], outdir=tmp_path)
    dtp = tmp_path / "baseline" / "DTP" / "seed_2"
    loc = tmp_path / "baseline" / "LOC" / "seed_2"
    for rundir in (dtp, loc):
        for name in ("cycles.csv", "windows.csv", "summary.json"):
            assert (rundir / name).is_file(), rundir / name
    assert (dtp / "decisions.jsonl").is_file()
    assert not (loc / "decisions.jsonl").exists()
    summary = json.loads((dtp / "summary.json").read_text())
    assert summary["policy"] == "controller"
    assert summary["seed"] == 2


def test_reruns_are_byte_identical(tmp_path):
    config = load_config(None)
    spec = tiny_baseline(config, horizon=4)
    for sub in ("a", "b"):
        run_scenario(config, [spec], policies=["DTP"], seeds=[3], outdir=tmp_path / sub)
    for name in ("cycles.csv", "windows.csv", "summary.json", "decisions.jsonl"):
        first = (tmp_path / "a" / "baseline" / "DTP" / "seed_3" / name).read_bytes()
        second = (tmp_path / "b" / "baseline" / "DTP" / "seed_3" / name).read_bytes()
        assert first == second, name


def short_scenario(config, name, horizon=12):
    spec = config.scenarios[name]
    return dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, horizon=horizon))


@pytest.mark.parametrize("scenario", ["robot-stress", "network-impairment"])
def test_dtp_run_is_the_same_alone_or_after_fixed_runs(tmp_path, scenario):
    # after fixed runs, the DTP run reads their cycles instead of simulating
    config = load_config(None)
    spec = short_scenario(config, scenario)
    orders = (["DTP"], ["LOC", "SO", "DTP"], ["DTP", "SO"])
    for i, policies in enumerate(orders):
        run_scenario(config, [spec], policies=policies, seeds=[1, 2], outdir=tmp_path / str(i))
    for seed in (1, 2):
        alone = tmp_path / "0" / scenario / "DTP" / f"seed_{seed}"
        assert json.loads((alone / "summary.json").read_text())["migrations"] >= 1
        names = sorted(p.name for p in alone.iterdir())
        assert names == ["cycles.csv", "decisions.jsonl", "summary.json", "windows.csv"]
        for i in range(1, len(orders)):
            rundir = tmp_path / str(i) / scenario / "DTP" / f"seed_{seed}"
            assert sorted(p.name for p in rundir.iterdir()) == names
            for name in names:
                assert (rundir / name).read_bytes() == (alone / name).read_bytes(), (i, name)


def test_run_scenario_simulates_each_placement_cycle_once_per_seed():
    config = load_config(None)
    spec = short_scenario(config, "robot-stress", horizon=8)
    # (seed, placement, cycle) of every cycle the window kernel or run_cycle computes
    simulated = []
    run_cycle = simulation._Engine.run_cycle
    run_window = simulation._Engine.run_window

    def recording_run_cycle(engine, plan, cycle_index):
        simulated.append((engine.sim.seed, plan.placement.name, cycle_index))
        return run_cycle(engine, plan, cycle_index)

    def recording_run_window(engine, plan, draws):
        simulated.extend((engine.sim.seed, plan.placement.name, i) for i in draws.steps)
        return run_window(engine, plan, draws)

    with mock.patch.object(simulation._Engine, "run_cycle", recording_run_cycle), \
            mock.patch.object(simulation._Engine, "run_window", recording_run_window):
        [report] = run_scenario(config, [spec], seeds=[1, 2])
    assert len(set(simulated)) == len(simulated)
    for policy in ("LOC", "SO"):
        for seed in (1, 2):
            assert sum(key[:2] == (seed, policy) for key in simulated) == 8 * 50
    assert {key[1] for key in simulated} == {"LOC", "SO", "HYB"}
    assert [r.seed for r in report.results["DTP"]] == [1, 2]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_run_makes_each_fixed_run_once_per_seed_and_writes_each_scenario_as_alone(
    tmp_path, capsys
):
    # LOC meets no disturbance of baseline, edge-stress or network-impairment,
    # so its rows are computed once per seed for the three, and once more for
    # robot-stress, whose stress on R1 it meets; every SO run differs
    horizon, window = 6, 50
    path = write_config(tmp_path, {"sim": {"horizon": horizon}})
    simulated = []  # (seed, placement) of every row the window kernel computes
    run_window = simulation._Engine.run_window

    def recording_run_window(engine, plan, draws):
        simulated.extend((engine.sim.seed, plan.placement.name) for _ in draws.steps)
        return run_window(engine, plan, draws)

    with mock.patch.object(simulation._Engine, "run_window", recording_run_window):
        code = main(["run", "--config", path, "--out", str(tmp_path / "all"), "--seeds", "1,2"])
    assert code in (0, 1)  # a 6-window horizon may fail an expectation
    capsys.readouterr()
    count = Counter(simulated)
    for seed in (1, 2):
        assert count[seed, "LOC"] == 2 * horizon * window
        assert count[seed, "SO"] == 4 * horizon * window
    config = load_config(path)
    alone = tmp_path / "alone"
    for spec in config.scenarios.values():
        run_scenario(config, [spec], seeds=[1, 2], outdir=alone)
    files = sorted(p.relative_to(alone) for p in alone.rglob("*") if p.is_file())
    assert len(files) == 4 * 2 * (3 + 3 + 4)  # four scenarios, two seeds of LOC, SO and DTP
    for relative in files:
        assert (tmp_path / "all" / relative).read_bytes() == (alone / relative).read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_shared_fixed_run_is_held_only_until_its_last_scenario(
    tmp_path, monkeypatch, capsys
):
    # baseline's SO run serves no other scenario, so nothing holds it once
    # baseline is done; baseline's LOC run serves edge-stress and
    # network-impairment, and nothing holds it once the seed is done
    scenarios = ["baseline", "robot-stress", "edge-stress", "network-impairment"]
    order = [(seed, name) for seed in (1, 2) for name in scenarios]
    refs = {}  # (seed, scenario, fixed policy) -> weak reference to its trace
    written = []  # (seed, scenario) of each _write_runs call
    alive = []  # (seed, scenario, the fixed runs alive as its first run starts)
    run_simulation = harness.run_simulation
    write_runs = harness._write_runs

    def live():
        gc.collect()
        return sorted(key for key, ref in refs.items() if ref() is not None)

    def recording_run_simulation(*args, fixed=None, **kwargs):
        # a scenario's runs of a seed all come before its _write_runs call
        running = order[len(written)]
        if len(alive) == len(written):
            alive.append((*running, live()))
        trace = run_simulation(*args, fixed=fixed, **kwargs)
        if fixed is not None:
            refs[(*running, fixed)] = weakref.ref(trace)
        return trace

    def recording_write_runs(outdir, seed, *args):
        written.append((seed, outdir.name))
        return write_runs(outdir, seed, *args)

    monkeypatch.setattr(harness, "run_simulation", recording_run_simulation)
    monkeypatch.setattr(harness, "_write_runs", recording_write_runs)
    path = write_config(tmp_path, {"sim": {"horizon": 4}})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seeds", "1,2"])
    assert code in (0, 1)  # a 4-window horizon may fail an expectation
    capsys.readouterr()
    assert live() == []
    assert written == order
    for seed in (1, 2):
        held = [(seed, "baseline", "LOC")]
        assert [entry for entry in alive if entry[0] == seed] == [
            (seed, name, held if name in scenarios[1:] else []) for name in scenarios
        ]
        made = {(scenario, policy) for s, scenario, policy in refs if s == seed}
        assert ("edge-stress", "LOC") not in made and ("baseline", "SO") in made


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_run_computes_each_fixed_run_key_once(tmp_path, monkeypatch, capsys):
    # one key per (scenario, fixed policy, seed), read both to find a made
    # run and to find the last scenario that reads it
    computed = []  # (seed, policy, stresses, faults) of each fixed_run_key call
    fixed_run_key = harness.fixed_run_key

    def recording(dag, fabric, sim, controller, fixed, stresses, faults):
        computed.append((sim.seed, fixed, stresses, faults))
        return fixed_run_key(dag, fabric, sim, controller, fixed, stresses, faults)

    monkeypatch.setattr(harness, "fixed_run_key", recording)
    path = write_config(tmp_path, {"sim": {"horizon": 2}})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seeds", "1,2"])
    assert code in (0, 1)  # a 2-window horizon may fail an expectation
    capsys.readouterr()
    scenarios = load_config(path).scenarios.values()
    assert Counter(computed) == {
        (seed, policy, spec.stresses, spec.faults): 1
        for seed in (1, 2)
        for spec in scenarios
        for policy in ("LOC", "SO")
    }


def test_failing_expectation_is_reported(tmp_path):
    config = load_config(None)
    spec = tiny_baseline(config, horizon=6)
    spec = dataclasses.replace(
        spec,
        expected=Expectation(dominant=("SO",), min_fraction=0.9, min_seed_fraction=1.0),
    )
    [report] = run_scenario(config, [spec], policies=["DTP"], seeds=[1])
    assert not report.passed
    assert "[FAIL]" in render_report(report_payload([report]))


def test_check_referencing_missing_policy_reports_skip():
    config = load_config(None)
    spec = tiny_baseline(config, horizon=4)
    spec = dataclasses.replace(
        spec,
        checks=(Check(kind="policy_violation_above", policy="SO", threshold=0.1),),
    )
    [report] = run_scenario(config, [spec], policies=["DTP"], seeds=[1])
    skipped = report.expectations[-1]
    assert (skipped.name, skipped.passed) == ("SO-violation-above-0.1", None)
    assert "SO did not run" in skipped.detail
    assert report.passed  # the evaluated dominant-placement expectation passed
    text = render_report(report_payload([report]))
    assert "[SKIP] SO-violation-above-0.1" in text
    assert text.endswith("overall: PASS")


def test_nothing_evaluated_is_skip_not_pass():
    config = load_config(None)
    spec = dataclasses.replace(
        tiny_baseline(config, horizon=4),
        checks=(Check(kind="policy_violation_above", policy="SO", threshold=0.1),),
    )
    [report] = run_scenario(config, [spec], policies=["LOC"], seeds=[1])
    assert [e.passed for e in report.expectations] == [None]
    assert not report.passed
    payload = report_payload([report])
    assert payload["passed"] is False
    text = render_report(payload)
    assert "[SKIP] SO-violation-above-0.1" in text
    assert text.endswith("overall: SKIP")


def _late_fault(start_window, end_window):
    faults = copy.deepcopy(DEFAULT_CONFIG["scenarios"]["network-impairment"]["faults"])
    faults[0].update(start_window=start_window, end_window=end_window)
    return faults


@pytest.mark.parametrize(
    "scenario, changes, policies, name, why",
    [
        # DTP migrates at window 4, so no window follows convergence
        ("robot-stress", {"sim": {"horizon": 4}}, ["DTP"],
         "DTP-post-convergence-violation-below-0.05", "no window follows convergence"),
        # the fault starts after the horizon ends
        ("network-impairment", {"sim": {"horizon": 8}, "faults": _late_fault(20, 30)},
         ["SO", "DTP"], "SO-violation-5.0x-DTP", "empty fault interval"),
        # the same run as post-convergence: it has no occupancy to count
        ("robot-stress", {"sim": {"horizon": 4}}, ["DTP"],
         "dominant-placement:SO", "no window follows convergence"),
        # no window, so no cycle to violate a deadline
        ("robot-stress", {"sim": {"horizon": 0}}, ["LOC"],
         "LOC-violation-above-0.4", "LOC ran no cycle"),
    ],
    ids=["post-convergence", "fault-interval", "dominant-placement", "no-cycle"],
)
def test_a_check_over_no_window_is_skip_not_pass(tmp_path, scenario, changes, policies, name,
                                                 why):
    config = load_config(write_config(tmp_path, {"scenarios": {scenario: changes}}))
    [report] = run_scenario(config, [config.scenarios[scenario]], policies=policies, seeds=[1])
    check = next(e for e in report.expectations if e.name == name)
    assert (check.passed, check.detail) == (None, f"not evaluated: {why}")
    assert f"[SKIP] {name}: not evaluated: {why}" in render_report(report_payload([report]))


def test_a_ratio_over_a_policy_that_never_violated_fails(tmp_path):
    # a mild fault: SO meets every deadline, and 0.0 >= 5.0 x 0.0 would hold vacuously
    fault = {"links": [["R1", "E"]], "mu": 1.0, "sigma": 0.1, "start_window": 1}
    changes = {"network-impairment": {"faults": [fault]}}
    config = load_config(write_config(tmp_path, {"scenarios": changes}))
    spec = config.scenarios["network-impairment"]
    [report] = run_scenario(config, [spec], policies=["SO", "DTP"], seeds=[1])
    check = next(e for e in report.expectations if e.name == "SO-violation-5.0x-DTP")
    assert check.passed is False
    assert check.detail == (
        "SO violation 0.0000 vs DTP 0.0000 over the fault interval (need 5.0x): "
        "SO never violated"
    )

def test_empty_report_renders_empty():
    payload = report_payload([])
    assert payload == {"passed": False, "scenarios": []}
    assert render_report(payload) == ""


def test_unknown_report_format_is_rejected():
    with pytest.raises(ConfigError, match="format"):
        render_report(report_payload([]), fmt="pdf")


def test_stored_report_round_trip(tmp_path):
    config = load_config(None)
    [report] = run_scenario(config, [tiny_baseline(config, 4)], policies=["DTP"], seeds=[1])
    fresh = report_payload([report])
    path = write_report(fresh, tmp_path)
    payload = load_report(tmp_path)
    assert payload["passed"] is True
    rendered = render_report(payload)
    assert rendered == render_report(fresh)
    assert "scenario: baseline" in rendered
    assert "[PASS]" in rendered
    assert json.loads(render_report(payload, "json")) == payload
    assert path.read_text() == render_report(fresh, "json") + "\n"


def test_load_report_requires_a_previous_run(tmp_path):
    with pytest.raises(ConfigError, match="no stored report"):
        load_report(tmp_path)
    (tmp_path / "report.json").write_text("[]")
    with pytest.raises(ConfigError, match="corrupt"):
        load_report(tmp_path)


# ---------------------------------------------------------------------------
# window selection helpers


def test_post_convergence_skips_burn_in_and_migration():
    static = {"window_placements": ["LOC"] * 10, "first_migration_window": None}
    assert post_convergence_windows(static) == [3, 4, 5, 6, 7, 8, 9, 10]
    moved = {"window_placements": ["LOC"] * 10, "first_migration_window": 4}
    assert post_convergence_windows(moved) == [5, 6, 7, 8, 9, 10]


def fault_spec(faults, horizon=10):
    return ScenarioSpec(
        name="x",
        sim=SimConfig(period=40.0, deadline=40.0, horizon=horizon, seed=1),
        stresses=(),
        faults=tuple(faults),
        policies=("DTP",),
        seeds=(1,),
        controller_overrides={},
        expected=Expectation(dominant=("LOC",), min_fraction=0.6, min_seed_fraction=0.8),
    )


def test_fault_windows_union_and_clipping():
    make = lambda start, end: FaultInjection(
        links=(("R1", "E"),), mu=1.0, sigma=0.0, loss_probability=0.0,
        start_window=start, end_window=end,
    )
    assert fault_windows(fault_spec([make(3, 5), make(4, 7)])) == [3, 4, 5, 6, 7]
    assert fault_windows(fault_spec([make(8, 99)])) == [8, 9, 10]
    assert fault_windows(fault_spec([])) == list(range(1, 11))


# ---------------------------------------------------------------------------
# command line


def test_cli_validate_defaults(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "4 scenarios" in out


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"weights": {"alpha_x": 1.0}})
    assert main(["validate", "--config", path]) == 2
    assert "alpha_x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [
        _links_with(base_delay=float("nan")),
        _links_with(jitter_sigma=float("inf")),
        _tasks_with(mean=float("nan")),
        _tasks_with(cv=float("nan")),
        _tasks_with(floor_fraction=float("inf")),
        _edges_with(payload_scale=float("inf")),
        _stress_with(slowdown=float("nan")),
        _stress_with(slowdown=float("inf")),
        _fault_with(mu=float("nan")),
        _fault_with(mu=1.0, sigma=float("inf")),
    ],
)
def test_cli_validate_rejects_non_finite_numbers(tmp_path, capsys, document):
    path = write_config(tmp_path, document)
    assert main(["validate", "--config", path]) == 2
    assert "finite" in capsys.readouterr().err



@pytest.mark.parametrize(
    "document, where",
    [
        ({"weights": {"alpha_l": float("nan")}}, "weights.alpha_l"),
        ({"constraints": {"l95_max": float("nan")}}, "constraints.l95_max"),
        ({"controller": {"latency_target": float("nan")}}, "controller.latency_target"),
        ({"sim": {"period": float("inf")}}, "sim.period"),
        (_check_with(kind="policy_violation_above", policy="SO", threshold=float("nan")),
         "scenarios.baseline.checks[0].threshold"),
    ],
    ids=["alpha-l-nan", "l95-max-nan", "latency-target-nan", "period-inf", "threshold-nan"],
)
def test_cli_rejects_a_non_finite_float_at_its_path(tmp_path, capsys, document, where):
    # NaN fails every comparison, so a NaN weight would run to a PASS
    path = write_config(tmp_path, document)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}") and "finite" in err


@pytest.mark.parametrize(
    "check, where",
    [
        ({"kind": "policy_violation_above", "policy": "LOC", "threshold": -1.0}, "threshold"),
        ({"kind": "policy_violation_above", "policy": "LOC", "threshold": 1.0}, "threshold"),
        ({"kind": "post_convergence_violation_below", "threshold": 1.0}, "threshold"),
        ({"kind": "post_convergence_violation_below", "threshold": -0.1}, "threshold"),
        ({"kind": "violation_ratio_at_least", "policy": "SO", "versus": "DTP", "ratio": 0.0},
         "ratio"),
        ({"kind": "violation_ratio_at_least", "policy": "SO", "versus": "DTP", "ratio": -2.0},
         "ratio"),
        # an omitted ratio is 0, which every pair of runs meets
        ({"kind": "violation_ratio_at_least", "policy": "SO", "versus": "DTP"}, "ratio"),
        # a key its kind ignores: an interval: fault check still scored every window
        ({"kind": "policy_violation_above", "policy": "LOC", "threshold": 0.4,
          "interval": "fault"}, "interval"),
        ({"kind": "policy_violation_above", "policy": "LOC", "threshold": 0.4,
          "versus": "SO"}, "versus"),
        ({"kind": "post_convergence_violation_below", "threshold": 0.05, "ratio": 3.0},
         "ratio"),
        ({"kind": "violation_ratio_at_least", "policy": "SO", "versus": "DTP", "ratio": 5.0,
          "threshold": 0.1}, "threshold"),
        # baseline has no fault: the check scored every window as "the fault interval"
        ({"kind": "violation_ratio_at_least", "policy": "SO", "versus": "DTP", "ratio": 5.0,
          "interval": "fault"}, "interval"),
    ],
    ids=["above-negative", "above-one", "below-one", "below-negative", "ratio-zero",
         "ratio-negative", "ratio-omitted", "above-interval", "above-versus", "below-ratio",
         "ratio-threshold", "ratio-fault-without-faults"],
)
def test_cli_rejects_a_check_bound_that_decides_nothing(tmp_path, capsys, check, where):
    # a violation rate lies in [0, 1]: threshold -1.0 printed [PASS] for any run
    path = write_config(tmp_path, {"scenarios": {"baseline": {"checks": [check], "seeds": [1]}}})
    for command in (["validate"], ["run", "--out", str(tmp_path / "out"), "--scenario",
                                   "baseline"]):
        assert main([*command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenarios.baseline.checks[0]: {where} must be"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "expected, where",
    [
        # printed [PASS] dominant-placement:HYB ... (min 0.000) for any run
        ({"dominant": ["HYB"], "min_fraction": 0.0, "forbidden": []}, "min_fraction 0"),
        # printed [FAIL] dominant-placement:: ... for any run
        ({"dominant": [], "forbidden": []}, "min_fraction > 0"),
    ],
    ids=["always-passes", "always-fails"],
)
def test_cli_rejects_an_expectation_that_decides_nothing(tmp_path, capsys, expected, where):
    path = write_config(tmp_path, {"scenarios": {"baseline": {"expected": expected, "seeds": [1]}}})
    for command in (["validate"], ["run", "--out", str(tmp_path / "out"), "--scenario",
                                   "baseline"]):
        assert main([*command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenarios.baseline.expected: {where} needs"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["seeds", "policies"])
def test_cli_rejects_an_empty_scenario_list(tmp_path, capsys, key):
    # seeds: [] raised IndexError in run, policies: [] ValueError, and validate said ok
    path = write_config(tmp_path, {"scenarios": {"baseline": {key: []}}})
    for command in (["validate"], ["run", "--out", str(tmp_path / "out"), "--scenario",
                                   "baseline"]):
        assert main([*command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenarios.baseline.{key}: an empty subset"), err
    assert not (tmp_path / "out").exists()


LATE_FAULT = {"links": [["R1", "E"]], "mu": 5.0, "start_window": 20, "end_window": 30}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "overlay",
    [
        {"sim": {"horizon": 0}},
        {"sim": {"horizon": 1}},
        {"policies": ["DTP"]},
        {"policies": ["SO"]},
        {"policies": ["DTP", "SO"]},
        {"seeds": [3, 1]},
        {"controller": {"window_size": 1}},
        # disturbance windows that outlast the run, or start after it
        {"stresses": [{"target": "R1", "start_window": 2, "end_window": 100, "slowdown": 2.0}],
         "faults": [LATE_FAULT]},
        {"seeds": []},
        {"policies": []},
    ],
    ids=["horizon-0", "horizon-1", "dtp", "so", "dtp-so", "seeds-3-1", "window-1",
         "windows-past-the-run", "no-seeds", "no-policies"],
)
def test_cli_run_exits_with_a_report_or_an_error_on_every_scenario_overlay(
    tmp_path, capsys, overlay
):
    horizon = {"sim": {"horizon": 6}}
    scenarios = {name: {**horizon, **overlay} for name in DEFAULT_CONFIG["scenarios"]}
    path = write_config(tmp_path, {"scenarios": scenarios})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seeds", "1"])
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error: ")
    else:
        assert code in (0, 1)
        assert out.rstrip().splitlines()[-1].startswith("overall: ")


def test_a_forbidden_only_expectation_is_legal(tmp_path, capsys):
    # min_fraction 0 with a forbidden placement still fails a run that uses it
    expected = {"dominant": [], "min_fraction": 0.0, "forbidden": ["SO"]}
    path = write_config(tmp_path, {"scenarios": {"baseline": {"expected": expected}}})
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "forbidden, status, kept",
    [("SO", "PASS", 1), ("LOC", "FAIL", 0)],
)
def test_a_forbidden_only_expectation_is_named_and_scored_by_its_placement(
    tmp_path, capsys, forbidden, status, kept
):
    # it printed "[PASS] dominant-placement:: 1/1 seeds reached  occupancy >= 0.00 ..."
    expected = {"dominant": [], "min_fraction": 0.0, "forbidden": [forbidden]}
    scenario = {"expected": expected, "sim": {"horizon": 10}, "seeds": [1]}
    path = write_config(tmp_path, {"scenarios": {"baseline": scenario}})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), "--scenario",
                 "baseline"])
    assert code == (0 if status == "PASS" else 1)
    assert (
        f"  [{status}] forbidden-placement:{forbidden}: {kept}/1 seeds kept {forbidden} at 0 "
        "post-convergence (need 1)\n"
    ) in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_run_fills_each_seeds_normal_columns_once_and_holds_one_seed(
    tmp_path, monkeypatch, capsys
):
    # every scenario of a seed reads one mapping of normal columns: each
    # (seed, tag, cycle) normal is computed once in the whole run, and the
    # previous seed's columns are gone when the next seed starts
    computed = []
    standard_normals = streams.WindowDraws._standard_normals

    def recording_normals(draws, tag):
        computed.extend((draws.master_seed, tag, step) for step in draws.steps)
        return standard_normals(draws, tag)

    calls = []  # (seed, id of its mapping, tags it holds after the call) of each run
    columns: list = []  # weak references to every column, so the test holds none of them
    run_simulation = harness.run_simulation

    def recording_run_simulation(dag, fabric, sim, *args, normals, **kwargs):
        seed = sim.seed
        if calls and calls[-1][0] != seed:
            gc.collect()
            assert columns and all(ref() is None for ref in columns)
        trace = run_simulation(dag, fabric, sim, *args, normals=normals, **kwargs)
        assert {key[0] for key in normals} == {seed}
        calls.append((seed, id(normals), set(normals)))
        columns.extend(weakref.ref(column) for column in normals.values())
        return trace

    monkeypatch.setattr(streams.WindowDraws, "_standard_normals", recording_normals)
    monkeypatch.setattr(harness, "run_simulation", recording_run_simulation)
    path = write_config(tmp_path, {"sim": {"horizon": 6}})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seeds", "1,2"])
    assert code in (0, 1)  # a 6-window horizon may fail an expectation
    capsys.readouterr()
    seeds = [seed for seed, _, _ in calls]
    assert seeds == sorted(seeds) and set(seeds) == {1, 2}
    first, second = ([call for call in calls if call[0] == seed] for seed in (1, 2))
    assert len({mapping for _, mapping, _ in first}) == 1
    assert len({mapping for _, mapping, _ in second}) == 1
    tags = first[-1][2] | second[-1][2]
    assert computed and max(Counter(computed).values()) == 1
    assert {(seed, tag) for seed, tag, _ in computed} == tags
    # every tag's column was filled over the horizon, 6 windows of 50 cycles
    assert Counter((seed, tag) for seed, tag, _ in computed) == dict.fromkeys(tags, 300)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_scenario_alone_computes_each_normal_once(monkeypatch):
    # each seed's runs share one mapping: the DTP run's windows under SO,
    # which no fixed run covers, read the columns the LOC run filled, and the
    # second seed's columns are its own
    computed = []
    standard_normals = streams.WindowDraws._standard_normals

    def recording_normals(draws, tag):
        computed.extend((draws.master_seed, tag, step) for step in draws.steps)
        return standard_normals(draws, tag)

    monkeypatch.setattr(streams.WindowDraws, "_standard_normals", recording_normals)
    config = load_config(None)
    spec = config.scenarios["robot-stress"]
    spec = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, horizon=8))
    [report] = run_scenario(config, [spec], policies=["LOC", "DTP"], seeds=[1, 2])
    assert [r.summary["window_placements"][-1] for r in report.results["DTP"]] == ["SO"] * 2
    assert computed and max(Counter(computed).values()) == 1
    assert {seed for seed, _, _ in computed} == {1, 2}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_scenarios_that_order_their_seeds_differently_report_as_each_run_alone(
    tmp_path, capsys
):
    scenarios = {
        "baseline": {"seeds": [1, 2], "sim": {"horizon": 6}},
        "robot-stress": {"seeds": [2, 1], "sim": {"horizon": 6}},
    }
    path = write_config(tmp_path, {"scenarios": scenarios})
    out = {}
    for scenario in ("all", "baseline", "robot-stress"):
        out[scenario] = tmp_path / scenario
        main(["run", "--config", path, "--out", str(out[scenario]), "--scenario", scenario])
    capsys.readouterr()
    together = json.loads((out["all"] / "report.json").read_text())
    both = [s for s in together["scenarios"] if s["scenario"] in scenarios]
    assert [s["scenario"] for s in both] == ["baseline", "robot-stress"]
    assert both[1]["policies"]["DTP"]["seeds"] == [2, 1]
    for name, entry in zip(scenarios, both):
        alone = json.loads((out[name] / "report.json").read_text())
        assert alone["scenarios"] == [entry]
        files = sorted(p.relative_to(out[name]) for p in (out[name] / name).rglob("*.*"))
        assert len(files) == 2 * (3 + 3 + 4)  # two seeds of LOC, SO and DTP
        for relative in files:
            assert (out["all"] / relative).read_bytes() == (out[name] / relative).read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_run_makes_each_static_estimate_once_per_seed(tmp_path, monkeypatch):
    # a static estimate reads no stress or fault: the four DTP runs of a
    # seed share one per challenger, where each made its own (10 calls)
    estimated = []
    estimate_static = simulation.estimate_static

    def recording(dag, placement, *args):
        estimated.append(placement.name)
        return estimate_static(dag, placement, *args)

    monkeypatch.setattr(simulation, "estimate_static", recording)
    assert main(["run", "--out", str(tmp_path), "--seeds", "1"]) == 0
    assert sorted(estimated) == ["HYB", "LOC", "SO"]


@pytest.mark.parametrize(
    "document, named",
    [
        (_check_with(kind="policy_violation_below"), "policy_violation_below"),
        (_check_with(kind="policy_violation_above", policy="LOCO"), "LOCO"),
        (_check_with(kind="violation_ratio_at_least", policy="SO", versus="DPT", ratio=2.0),
         "DPT"),
        (_stress_with(slowdown=2.0, target="R9"), "R9"),
        (_fault_with(mu=5.0, links=[["R1", "R9"]]), "R1->R9"),
        # a misspelt interval is not read as "all"
        (_check_with(kind="violation_ratio_at_least", policy="SO", versus="DTP", ratio=2.0,
                     interval="faults"), "'faults'"),
        # a misspelt placement would fail every seed, or never be enforced
        ({"scenarios": {"baseline": {"expected": {"dominant": ["LOCO"]}}}},
         "scenarios.baseline.expected: unknown placement 'LOCO'"),
        ({"scenarios": {"baseline": {"expected": {"forbidden": ["XYZ"]}}}},
         "scenarios.baseline.expected: unknown placement 'XYZ'"),
    ],
    ids=["check-kind", "check-policy", "check-versus", "stress-target", "fault-link",
         "check-interval", "expected-dominant", "expected-forbidden"],
)
def test_cli_validate_rejects_unknown_references(tmp_path, capsys, document, named):
    path = write_config(tmp_path, document)
    assert main(["validate", "--config", path]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, where",
    [
        ({"scenarios": {"baseline": {"seeds": [1, "x"]}}}, "scenarios.baseline.seeds"),
        ({"fabric": {"nodes": 5}}, "fabric.nodes"),
        # no task may run on a cloud node, so the kind is not accepted
        ({"fabric": {"nodes": [*DEFAULT_CONFIG["fabric"]["nodes"],
                               {"id": "C", "kind": "cloud"}]}}, "fabric.nodes[3]"),
        ({"dag": {"tasks": ["T1"]}}, "dag.tasks[0]"),
        ({"dag": {"edges": [{"from": "T1", "payload_scale": 2.0}]}}, "dag.edges[0]"),
        (_check_with(kind="policy_violation_above"), "scenarios.baseline.checks[0]"),
        (_check_with(kind="violation_ratio_at_least", policy="SO"),
         "scenarios.baseline.checks[0]"),
        # a string where a list belongs is rejected, not split into characters
        ({"scenarios": {"baseline": {"expected": {"dominant": "LOC"}}}},
         "scenarios.baseline.expected.dominant"),
        ({"scenarios": {"baseline": {"seeds": "12"}}}, "scenarios.baseline.seeds"),
        ({"scenarios": {"baseline": {"policies": "LOC"}}}, "scenarios.baseline.policies"),
        (_fault_with(mu=5.0, links=["R1", "R2"]), "scenarios.network-impairment.faults[0].links"),
        (_tasks_field(1, service=5), "dag.tasks[1].service"),
        # a task's feasible nodes are the keys of its service map
        (_tasks_field(1, service={}), "dag.tasks[1]: task T2: service map is empty"),
        # a repeated policy or seed would run again and count twice
        ({"scenarios": {"baseline": {"policies": ["LOC", "LOC", "DTP"]}}},
         "scenarios.baseline.policies"),
        ({"scenarios": {"baseline": {"seeds": [1, 2, 1]}}}, "scenarios.baseline.seeds"),
        # a fractional seed is rejected, not truncated onto another
        ({"scenarios": {"baseline": {"seeds": [1, 1.7]}}}, "scenarios.baseline.seeds"),
        # the engine has one 1 µs clock: naming a resolution, even 1, is an error
        ({"sim": {"clock_resolution_us": 1}}, "unknown key: sim.clock_resolution_us"),
        ({"scenarios": {"baseline": {"sim": {"clock_resolution_us": 10}}}},
         "unknown key: scenarios.baseline.sim.clock_resolution_us"),
        # an integer field takes neither a fraction nor a bool
        ({"controller": {"n_min": 2.5}}, "controller.n_min"),
        ({"scenarios": {"baseline": {"sim": {"horizon": 6.5}}}}, "scenarios.baseline.sim.horizon"),
        ({"scenarios": {"baseline": {"controller": {"window_size": False}}}},
         "scenarios.baseline.controller.window_size"),
        (_stress_with(slowdown=2.0, start_window=1.5),
         "scenarios.robot-stress.stresses[0].start_window"),
        (_fault_with(mu=5.0, end_window=True), "scenarios.network-impairment.faults[0].end_window"),
        # a float field takes neither a bool, nor a string, nor null
        ({"sim": {"deadline": True}}, "sim.deadline"),
        ({"controller": {"delta_min": True}}, "controller.delta_min"),
        ({"weights": {"alpha_l": True}}, "weights.alpha_l"),
        ({"controller": {"delta_min": "0.1"}}, "controller.delta_min"),
        ({"sim": {"deadline": "30"}}, "sim.deadline"),
        ({"constraints": {"l95_max": None}}, "constraints.l95_max"),
        ({"scenarios": {"baseline": {"controller": {"latency_target": True}}}},
         "scenarios.baseline.controller.latency_target"),
        # a bool field takes only a bool, a name only a string
        (_fault_with(mu=5.0, additive="no"), "scenarios.network-impairment.faults[0].additive"),
        ({"scenarios": {"baseline": {"expected": {"dominant": [5]}}}},
         "scenarios.baseline.expected.dominant"),
        # a fraction outside [0, 1] could never pass or never fail
        ({"scenarios": {"baseline": {"expected": {"min_fraction": 1.5}}}},
         "scenarios.baseline.expected: min_fraction"),
        ({"scenarios": {"baseline": {"expected": {"min_seed_fraction": -0.1}}}},
         "scenarios.baseline.expected: min_seed_fraction"),
    ],
    ids=[
        "seeds", "nodes", "node-kind-cloud", "task", "edge-endpoint", "check-policy",
        "check-versus", "dominant-string", "seeds-string", "policies-string",
        "fault-links-string", "service-scalar", "service-empty", "policies-repeated",
        "seeds-repeated", "seed-fraction", "clock-resolution", "scenario-clock-resolution",
        "n-min-fraction", "scenario-horizon-fraction", "scenario-window-size-bool",
        "stress-start-fraction", "fault-end-bool", "deadline-bool", "delta-min-bool",
        "alpha-l-bool", "delta-min-string", "deadline-string", "l95-max-null",
        "scenario-latency-target-bool", "additive-string", "dominant-integer",
        "min-fraction-above-1", "min-seed-fraction-below-0",
    ],
)
def test_cli_validate_rejects_malformed_entries(tmp_path, capsys, document, where):
    path = write_config(tmp_path, document)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_cli_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["run", "--format", "pdf"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, path, content",
    [
        ("report", "report.json", '{"passed": true, "scenarios": [{"scenario": "x"}]}'),
        ("report", "report.json", '{"passed": true, "scenarios": "oops"}'),
        ("report", "report.json", '{"passed": "yes", "scenarios": []}'),
        ("run", ".", ""),
        ("run", "baseline", ""),
        ("run", "report.json", None),
    ],
    ids=[
        "scenario-without-policies",
        "scenarios-not-a-list",
        "passed-not-a-bool",
        "out-is-a-file",
        "run-directory-is-a-file",
        "report-is-a-directory",
    ],
)
def test_cli_exits_2_on_a_corrupt_report_or_an_unwritable_out(
    tmp_path, capsys, command, path, content
):
    # ``path`` under --out holds ``content``, or a directory when it is None;
    # the error is one line on stderr with nothing on stdout, as for every config error
    out = tmp_path / "out"
    target = out / path
    target.parent.mkdir(parents=True, exist_ok=True)
    if content is None:
        target.mkdir()
    else:
        target.write_text(content)
    argv = [command, "--out", str(out)]
    if command == "run":
        argv += ["--scenario", "baseline", "--policies", "LOC", "--seeds", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_rejects_a_seed_that_is_not_an_integer(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path), "--seeds", "1,x"]) == 2
    assert "seeds must be integers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SHORT_BASELINE = {"scenarios": {"baseline": {"sim": {"horizon": 2}}}}


@pytest.mark.parametrize(
    "document, where",
    [
        ({"estimator": {"static_samples": 2000.7}, **SHORT_BASELINE}, "estimator.static_samples"),
        ({"sim": {"horizon": 8.5}}, "sim.horizon"),
        ({"sim": {"horizon": True}}, "sim.horizon"),
        ({"controller": {"window_size": 10.9}, **SHORT_BASELINE}, "controller.window_size"),
    ],
    ids=["static-samples-fraction", "horizon-fraction", "horizon-bool", "window-size-fraction"],
)
def test_cli_run_rejects_a_non_integer_integer_field(tmp_path, capsys, document, where):
    """A fraction is not truncated and a bool is not read as 1: the run exits 2
    naming the field, before it writes anything."""
    outdir = tmp_path / "out"
    run = ["run", "--config", write_config(tmp_path, document), "--out", str(outdir)]
    assert main([*run, "--scenario", "baseline", "--policies", "DTP", "--seeds", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: ")
    assert not outdir.exists()


def test_an_integer_spelling_of_a_float_field_writes_the_same_run(tmp_path, capsys):
    """``period: 40`` runs and reports as ``period: 40.0`` does; only
    resolved_config.yaml echoes the value as written."""
    for name, number in (("int", 40), ("float", 40.0)):
        document = {"sim": {"period": number, "deadline": number, "horizon": 3}}
        config = write_config(tmp_path, document, f"{name}.yaml")
        run = ["run", "--config", config, "--out", str(tmp_path / name), "--scenario", "baseline"]
        main([*run, "--seeds", "1"])
    capsys.readouterr()
    written = {}
    for name in ("int", "float"):
        root = tmp_path / name
        written[name] = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "resolved_config.yaml"
        }
    assert "baseline/LOC/seed_1/summary.json" in written["int"]
    assert written["int"] == written["float"]


def test_cli_rejects_repeated_policies_and_seeds(tmp_path, capsys):
    config_path = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 2}}}})
    outdir = tmp_path / "out"
    run = ["run", "--config", config_path, "--out", str(outdir), "--scenario", "baseline"]
    assert main([*run, "--policies", "DTP,DTP", "--seeds", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: policies: 'DTP' is repeated")
    assert main([*run, "--policies", "DTP", "--seeds", "1,01"]) == 2
    assert capsys.readouterr().err.startswith("error: seeds: 1 is repeated")
    assert not (outdir / "baseline").exists()


def test_cli_rejects_an_empty_subset(tmp_path, capsys):
    config_path = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 2}}}})
    outdir = tmp_path / "out"
    run = ["run", "--config", config_path, "--out", str(outdir), "--scenario", "baseline"]
    for subset in (["--policies", ""], ["--seeds", ","], ["--seeds", ",", "--policies", ""]):
        assert main([*run, *subset]) == 2, subset
        assert "expected a comma-separated list" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "rejected",
    [["--policies", "XYZ"], ["--policies", "DTP,DTP"], ["--seeds", "1,1"]],
    ids=["unknown-policy", "repeated-policy", "repeated-seed"],
)
def test_cli_rejected_run_writes_no_resolved_config(tmp_path, capsys, rejected):
    outdir = tmp_path / "out"
    assert main(["run", "--out", str(outdir), "--scenario", "baseline", *rejected]) == 2
    capsys.readouterr()
    assert not outdir.exists()


def test_cli_rejected_run_keeps_the_earlier_resolved_config(tmp_path, capsys):
    outdir = tmp_path / "out"
    run = ["run", "--out", str(outdir), "--scenario", "baseline"]
    earlier = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 6}}}}, "a.yaml")
    assert main([*run, "--config", earlier, "--policies", "DTP", "--seeds", "1"]) == 0
    kept = (outdir / "resolved_config.yaml").read_bytes()
    later = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 7}}}}, "b.yaml")
    assert main([*run, "--config", later, "--policies", "XYZ"]) == 2
    assert "unknown policy 'XYZ'" in capsys.readouterr().err
    assert (outdir / "resolved_config.yaml").read_bytes() == kept


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "dtpsim" in capsys.readouterr().out


def test_cli_run_report_cycle(tmp_path, capsys):
    config_path = write_config(
        tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 6}}}}
    )
    outdir = tmp_path / "out"
    code = main([
        "run", "--config", config_path, "--out", str(outdir),
        "--scenario", "baseline", "--policies", "DTP", "--seeds", "1",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert (outdir / "report.json").is_file()
    assert (outdir / "resolved_config.yaml").is_file()
    assert (outdir / "baseline" / "DTP" / "seed_1" / "cycles.csv").is_file()

    assert main(["report", "--out", str(outdir)]) == 0
    assert "scenario: baseline" in capsys.readouterr().out


def test_cli_json_stdout_is_the_stored_report(tmp_path, capsys):
    config_path = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 4}}}})
    outdir = tmp_path / "out"
    argv = ["run", "--config", config_path, "--out", str(outdir), "--scenario", "baseline",
            "--policies", "LOC,DTP", "--seeds", "1", "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == (outdir / "report.json").read_text()  # print adds the file's newline
    assert main(["report", "--out", str(outdir), "--format", "json"]) == 0
    assert capsys.readouterr().out == stdout


def test_cli_report_prints_the_run_table(tmp_path, capsys):
    config_path = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 4}}}})
    outdir = tmp_path / "out"
    argv = ["run", "--config", config_path, "--out", str(outdir), "--scenario", "baseline",
            "--policies", "DTP,SO,LOC", "--seeds", "1,2"]
    assert main(argv) == 0
    ran = capsys.readouterr().out
    assert main(["report", "--out", str(outdir)]) == 0
    assert capsys.readouterr().out == ran
    rows = [line.split()[0] for line in ran.splitlines()[2:5]]
    assert rows == ["LOC", "SO", "DTP"]


def test_cli_run_without_an_evaluated_expectation_exits_1(tmp_path, capsys):
    config_path = write_config(tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 4}}}})
    argv = ["run", "--config", config_path, "--out", str(tmp_path / "out"),
            "--scenario", "baseline", "--policies", "LOC", "--seeds", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().out.endswith("overall: SKIP\n")


def test_cli_run_unknown_scenario(tmp_path, capsys):
    assert main(["run", "--scenario", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_failing_expectation_exits_1(tmp_path, capsys):
    document = {
        "scenarios": {
            "baseline": {
                "sim": {"horizon": 6},
                "seeds": [1],
                "policies": ["DTP"],
                "expected": {"dominant": ["SO"], "min_fraction": 0.9},
            }
        }
    }
    config_path = write_config(tmp_path, document)
    code = main([
        "run", "--config", config_path, "--out", str(tmp_path / "out"),
        "--scenario", "baseline",
    ])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out
    assert main(["report", "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()


def test_cli_report_without_run_exits_2(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "no stored report" in capsys.readouterr().err


def test_cli_out_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DTPSIM_OUT", str(tmp_path / "env-out"))
    config_path = write_config(
        tmp_path, {"scenarios": {"baseline": {"sim": {"horizon": 4},
                                              "seeds": [1], "policies": ["DTP"]}}}
    )
    code = main(["run", "--config", config_path, "--scenario", "baseline"])
    assert code == 0
    assert (tmp_path / "env-out" / "report.json").is_file()
    capsys.readouterr()
