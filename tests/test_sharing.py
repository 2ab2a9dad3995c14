"""Sharing never shows: a ``dtpsim run`` tree equals a tree of plain runs.

``dtpsim run`` reuses work across runs: normal columns per seed, static
estimates per config, fixed-run stores across scenarios and the ``DTP`` run
of their seed, ``cycles.csv`` chunk texts, and run-ahead blocks inside a
run.  The property below draws random configs and checks that the files of
every run, and the report, are byte for byte those of runs made alone.
"""

import dataclasses
import itertools
import warnings

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from dtpsim.cli import main
from dtpsim.harness import (
    CONTROLLER_POLICY,
    RunResult,
    ScenarioReport,
    evaluate_expectations,
    load_config,
    report_payload,
    write_report,
)
from dtpsim.simulation import (
    run_simulation,
    write_cycles_csv,
    write_decisions_jsonl,
    write_summary_json,
    write_windows_csv,
)

SHIPPED = ("baseline", "robot-stress", "edge-stress", "network-impairment")
LINKS = (("R1", "E"), ("E", "R1"), ("E", "R2"), ("R2", "E"), ("R1", "R2"), ("R2", "R1"))
SEED_LISTS = ([1, 2], [2, 1], [1], [2])


@st.composite
def _interval(draw, horizon):
    """A start and an end window, either of which may lie past the horizon;
    an end of None never ends, so it needs a start inside the horizon."""
    start = draw(st.integers(1, horizon + 2))
    ends = st.integers(start, horizon + 2)
    end = draw(ends if start > horizon else st.none() | ends)
    return {"start_window": start, "end_window": end}


@st.composite
def _stress(draw, horizon):
    return {
        "target": draw(st.sampled_from(["R1", "R2", "E"])),
        "slowdown": draw(st.sampled_from([1.5, 3.0])),
        "exogenous_load": draw(st.sampled_from([0.0, 0.3])),
        **draw(_interval(horizon)),
    }


@st.composite
def _fault(draw, horizon):
    links = draw(st.lists(st.sampled_from(LINKS), min_size=1, max_size=3, unique=True))
    return {
        "links": [list(link) for link in links],
        "mu": draw(st.sampled_from([5.0, 25.0])),
        "sigma": draw(st.sampled_from([0.0, 5.0])),
        "loss_probability": draw(st.sampled_from([0.0, 0.02])),
        **draw(_interval(horizon)),
    }


_policies = st.lists(st.sampled_from(["LOC", "SO", "HYB"]), unique=True).map(
    lambda fixed: [*fixed, CONTROLLER_POLICY]
).flatmap(st.permutations)


@st.composite
def overlays(draw):
    """A config of the shipped scenarios and 2-4 drawn ones, each with its
    own policies (always with DTP) and seeds, at one drawn window size,
    dwell and horizon."""
    horizon = draw(st.integers(6, 10))
    scenarios = {
        name: {"policies": draw(_policies), "seeds": draw(st.sampled_from(SEED_LISTS))}
        for name in SHIPPED
    }
    for i in range(draw(st.integers(2, 4))):
        scenario = {
            "stresses": draw(st.lists(_stress(horizon), max_size=2)),
            "faults": draw(st.lists(_fault(horizon), max_size=2)),
            "policies": draw(_policies),
            "seeds": draw(st.sampled_from(SEED_LISTS)),
        }
        initial = draw(st.none() | st.sampled_from(["LOC", "SO", "HYB"]))
        if initial is not None:
            scenario["controller"] = {"initial_placement": initial}
        scenarios[f"extra-{i}"] = scenario
    return {
        "sim": {"horizon": horizon},
        "controller": {
            "window_size": draw(st.sampled_from([4, 8, 10])),
            "n_min": draw(st.sampled_from([0, 1, 3])),
        },
        # the fewest samples a static estimate may draw: the estimates are still shared
        "estimator": {"static_samples": 100},
        "scenarios": scenarios,
    }


def _alone(config, outdir):
    """The tree of one plain ``run_simulation`` per (scenario, policy, seed),
    with no known cycles, static estimates or normals passed, each file
    written alone, and the report of those runs."""
    reports = []
    for spec in config.scenarios.values():
        controller = config.controller_config(spec.controller_overrides)
        results = {policy: [] for policy in spec.policies}
        for policy, seed in itertools.product(spec.policies, spec.seeds):
            trace = run_simulation(
                config.dag,
                config.fabric,
                dataclasses.replace(spec.sim, seed=seed),
                controller,
                fixed=None if policy == CONTROLLER_POLICY else policy,
                stresses=spec.stresses,
                faults=spec.faults,
                estimator=config.estimator,
            )
            rundir = outdir / spec.name / policy / f"seed_{seed}"
            rundir.mkdir(parents=True)
            write_cycles_csv(trace, config.fabric, rundir / "cycles.csv")
            write_windows_csv(trace, rundir / "windows.csv")
            write_summary_json(trace, rundir / "summary.json")
            if policy == CONTROLLER_POLICY:
                write_decisions_jsonl(trace, rundir / "decisions.jsonl")
            violations = tuple(w.metrics.violation_rate for w in trace.windows)
            results[policy].append(RunResult(policy, seed, trace.summary, violations))
        reports.append(ScenarioReport(spec.name, results, evaluate_expectations(spec, results)))
    write_report(report_payload(reports), outdir)


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and path.name != "resolved_config.yaml"
    }


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(overlay=overlays())
def test_a_run_tree_is_the_tree_of_runs_made_alone(tmp_path_factory, overlay, capsys):
    tmp_path = tmp_path_factory.mktemp("sharing")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(overlay))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a drawn disturbance may warn of a placement it breaks
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "run")])
        _alone(load_config(path), tmp_path / "alone")
    assert code in (0, 1), capsys.readouterr().err  # a short horizon may fail an expectation
    ran, alone = _files(tmp_path / "run"), _files(tmp_path / "alone")
    assert sorted(ran) == sorted(alone)
    for name, data in alone.items():
        assert ran[name] == data, name
