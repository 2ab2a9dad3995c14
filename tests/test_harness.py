"""Config resolution, scenario running, reporting, and the CLI."""

import copy
import dataclasses
import json

import pytest
import yaml

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
    render_stored_report,
    run_scenario,
)
from dtpsim.simulation import FaultInjection, SimConfig

SCENARIO_NAMES = {"baseline", "robot-stress", "edge-stress", "network-impairment"}


def write_config(tmp_path, document, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(document))
    return str(path)


def tiny_baseline(config, horizon=8):
    spec = config.scenarios["baseline"]
    return dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, horizon=horizon))


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


def test_scenario_stress_keys_are_checked(tmp_path):
    document = {
        "scenarios": {
            "baseline": {"stresses": [{"target": "R1", "slodown": 2.0}]}
        }
    }
    path = write_config(tmp_path, document)
    with pytest.raises(ConfigError, match=r"stresses\[0\]"):
        load_config(path)


def test_unknown_scenario_policy_is_rejected(tmp_path):
    path = write_config(tmp_path, {"scenarios": {"baseline": {"policies": ["LOCO"]}}})
    with pytest.raises(ConfigError, match="LOCO"):
        load_config(path)


def test_bad_controller_override_is_rejected(tmp_path):
    document = {"scenarios": {"baseline": {"controller": {"initial_placement": "NOPE"}}}}
    path = write_config(tmp_path, document)
    with pytest.raises(ConfigError, match="controller"):
        load_config(path)


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
    config = load_config(None)
    path = echo_config(config, tmp_path)
    assert path.name == "resolved_config.yaml"
    assert yaml.safe_load(path.read_text()) == config.raw


# ---------------------------------------------------------------------------
# scenario runs and reports


def test_tiny_baseline_run_passes_and_reports(tmp_path):
    config = load_config(None)
    report = run_scenario(config, tiny_baseline(config), policies=["DTP"], seeds=[1])
    assert report.passed
    assert report.results["DTP"][0].summary["migrations"] == 0
    names = [e.name for e in report.expectations]
    assert names == ["dominant-placement:LOC"]
    text = render_report([report])
    assert "scenario: baseline" in text
    assert "[PASS] dominant-placement:LOC" in text
    assert text.endswith("overall: PASS")
    payload = json.loads(render_report([report], "json"))
    assert payload["passed"] is True
    assert payload["scenarios"][0]["scenario"] == "baseline"


def test_run_scenario_rejects_unknown_policy():
    config = load_config(None)
    with pytest.raises(ConfigError, match="LOCO"):
        run_scenario(config, tiny_baseline(config), policies=["LOCO"], seeds=[1])


def test_run_artifacts_are_written_per_policy_and_seed(tmp_path):
    config = load_config(None)
    spec = tiny_baseline(config, horizon=4)
    run_scenario(config, spec, policies=["DTP", "LOC"], seeds=[2], outdir=tmp_path)
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
        run_scenario(config, spec, policies=["DTP"], seeds=[3], outdir=tmp_path / sub)
    for name in ("cycles.csv", "windows.csv", "summary.json", "decisions.jsonl"):
        first = (tmp_path / "a" / "baseline" / "DTP" / "seed_3" / name).read_bytes()
        second = (tmp_path / "b" / "baseline" / "DTP" / "seed_3" / name).read_bytes()
        assert first == second, name


def test_failing_expectation_is_reported(tmp_path):
    config = load_config(None)
    spec = tiny_baseline(config, horizon=6)
    spec = dataclasses.replace(
        spec,
        expected=Expectation(dominant=("SO",), min_fraction=0.9, min_seed_fraction=1.0),
    )
    report = run_scenario(config, spec, policies=["DTP"], seeds=[1])
    assert not report.passed
    assert "[FAIL]" in render_report([report])


def test_check_referencing_missing_policy_fails_fast():
    config = load_config(None)
    spec = tiny_baseline(config, horizon=4)
    spec = dataclasses.replace(
        spec,
        checks=(Check(kind="policy_violation_above", policy="SO", threshold=0.1),),
    )
    with pytest.raises(ConfigError, match="did not run"):
        run_scenario(config, spec, policies=["DTP"], seeds=[1])


def test_empty_report_renders_empty():
    assert render_report([]) == ""


def test_unknown_report_format_is_rejected():
    with pytest.raises(ConfigError, match="format"):
        render_report([], fmt="pdf")


def test_stored_report_round_trip(tmp_path):
    config = load_config(None)
    report = run_scenario(config, tiny_baseline(config, 4), policies=["DTP"], seeds=[1])
    from dtpsim.harness import write_report

    path = write_report([report], tmp_path)
    payload = load_report(tmp_path)
    assert payload["passed"] is True
    rendered = render_stored_report(payload)
    assert "scenario: baseline" in rendered
    assert "[PASS]" in rendered
    assert json.loads(render_stored_report(payload, "json")) == payload
    assert path.read_text().endswith("\n")


def test_load_report_requires_a_previous_run(tmp_path):
    with pytest.raises(ConfigError, match="no stored report"):
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


def _links_with(**changes):
    links = copy.deepcopy(DEFAULT_CONFIG["dag"]["links"])
    links[0].update(changes)
    return {"dag": {"links": links}}


def _tasks_with(**changes):
    tasks = copy.deepcopy(DEFAULT_CONFIG["dag"]["tasks"])
    tasks[1]["service"]["E"].update(changes)
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


@pytest.mark.parametrize(
    "document",
    [
        _links_with(base_delay=float("nan")),
        _links_with(jitter_sigma=float("inf")),
        _links_with(payload_scale=float("nan")),
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


def test_cli_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["run", "--format", "pdf"]) == 2
    capsys.readouterr()


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
                                              "seeds": [1], "policies": ["LOC"]}}}
    )
    code = main(["run", "--config", config_path, "--scenario", "baseline"])
    assert code == 0
    assert (tmp_path / "env-out" / "report.json").is_file()
    capsys.readouterr()
