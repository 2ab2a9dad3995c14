"""Scenario harness: declarative config, named scenarios, reports.

A single YAML document describes the fabric, the task chain, timing,
cost weights, controller settings, and a set of named scenarios.  Every
key has a shipped default, so a config naming only a scenario still
resolves to a complete runnable document, and unknown keys are rejected
with their full path.  Each section or list entry builds one dataclass;
its keys are that dataclass's fields, and each YAML value is converted
by its field's annotation (``_convert``), so the dataclasses are the
only statement of what a config value may be.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import sys
import typing
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import yaml

from .controller import ControllerConfig
from .cost import Constraints, Weights
from .estimator import EstimatorConfig
from .metrics import NormalizationTargets, fsum_mean
from .pipeline import (
    CandidateSet,
    ComputeNode,
    DagEdge,
    Fabric,
    LinkDelayModel,
    PipelineDag,
    ServiceTimeModel,
    TaskStage,
    canonical_candidates,
    validate_pipeline,
)
from .simulation import (
    FaultInjection,
    SimConfig,
    SimTrace,
    StressProfile,
    check_disturbances,
    fixed_run_key,
    run_simulation,
    write_cycles_csv,
    write_decisions_jsonl,
    write_summary_json,
    write_windows_csv,
)

CONTROLLER_POLICY = "DTP"


class ConfigError(ValueError):
    """The configuration document is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# defaults


def _with_defaults(cls, /, **values) -> dict:
    """A config section: the field defaults of ``cls`` overlaid with ``values``,
    which set the fields without a default and the keys that are not fields."""
    return {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **values}


DEFAULT_CONFIG: dict = {
    "fabric": {
        "nodes": [
            _with_defaults(ComputeNode, id="R1"),
            _with_defaults(ComputeNode, id="R2"),
            _with_defaults(ComputeNode, id="E", kind="edge"),
        ]
    },
    "dag": {
        "tasks": [
            {"id": "T1", "service": {"R1": {"mean": 2.0, "cv": 0.2}}},
            {
                "id": "T2",
                "service": {"R1": {"mean": 10.0, "cv": 0.2}, "E": {"mean": 10.0, "cv": 0.2}},
            },
            {
                "id": "T3",
                "service": {"R2": {"mean": 8.0, "cv": 0.2}, "E": {"mean": 8.0, "cv": 0.2}},
            },
            {"id": "T4", "service": {"R2": {"mean": 2.0, "cv": 0.2}}},
        ],
        # dense world models outweigh camera frames outweigh setpoints
        "edges": [
            {"from": "T1", "to": "T2", "payload_scale": 3.0},
            {"from": "T2", "to": "T3", "payload_scale": 4.0},
            {"from": "T3", "to": "T4", "payload_scale": 0.5},
        ],
        "links": [
            {"from": "R1", "to": "E", "base_delay": 1.0, "jitter_sigma": 0.1},
            {"from": "E", "to": "R1", "base_delay": 1.0, "jitter_sigma": 0.1},
            {"from": "E", "to": "R2", "base_delay": 1.0, "jitter_sigma": 0.1},
            {"from": "R2", "to": "E", "base_delay": 1.0, "jitter_sigma": 0.1},
            {"from": "R1", "to": "R2", "base_delay": 1.0, "jitter_sigma": 0.1},
            {"from": "R2", "to": "R1", "base_delay": 1.0, "jitter_sigma": 0.1},
        ],
    },
    "sim": _with_defaults(SimConfig, period=40.0, deadline=40.0, horizon=200),
    "weights": _with_defaults(Weights),
    "constraints": _with_defaults(Constraints, l95_max=40.0),
    "controller": _with_defaults(ControllerConfig, window_size=50, latency_target=40.0),
    "estimator": _with_defaults(EstimatorConfig),
    # each shipped scenario holds only what differs from SCENARIO_DEFAULT
    "scenarios": {
        "baseline": {"expected": {"forbidden": ["SO"]}},
        "robot-stress": {
            "stresses": [
                _with_defaults(
                    StressProfile, target="R1", start_window=1, end_window=None, slowdown=3.0
                )
            ],
            "expected": {"dominant": ["SO"], "min_fraction": 0.7},
            "checks": [
                {"kind": "policy_violation_above", "policy": "LOC", "threshold": 0.40},
                {"kind": "post_convergence_violation_below", "policy": "DTP", "threshold": 0.05},
            ],
        },
        "edge-stress": {
            "stresses": [
                _with_defaults(
                    StressProfile, target="E", start_window=1, end_window=None, slowdown=3.0
                )
            ],
            "expected": {"dominant": ["LOC", "HYB"], "min_fraction": 0.7},
        },
        "network-impairment": {
            "faults": [
                _with_defaults(
                    FaultInjection,
                    links=[["R1", "E"], ["E", "R1"], ["E", "R2"], ["R2", "E"]],
                    mu=25.0,
                    sigma=5.0,
                    loss_probability=0.02,
                    start_window=1,
                    end_window=None,
                )
            ],
            "controller": {"initial_placement": "SO"},
            "expected": {"min_fraction": 0.7},
            "checks": [
                {
                    "kind": "violation_ratio_at_least",
                    "policy": "SO",
                    "versus": "DTP",
                    "ratio": 5.0,
                    "interval": "fault",
                }
            ],
        },
    },
}

# no sim.seed key: run_scenario runs each entry of a scenario's seeds
del DEFAULT_CONFIG["sim"]["seed"]

# every scenario, shipped or added by a config, overlays this one
SCENARIO_DEFAULT: dict = {
    "stresses": [],
    "faults": [],
    "sim": {},
    "controller": {},
    "policies": ["LOC", "SO", "DTP"],
    "seeds": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "expected": {
        "dominant": ["LOC"],
        "min_fraction": 0.6,
        "min_seed_fraction": 0.8,
        "forbidden": [],
    },
    "checks": [],
}


def _check_keys(mapping: Mapping, allowed: Sequence[str], path: str) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{path} must be a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}.{key}")


def _merge_section(defaults: Mapping, override: Mapping, path: str) -> dict:
    _check_keys(override, list(defaults), path)
    merged = dict(defaults)
    for key, value in override.items():
        if isinstance(defaults.get(key), Mapping) and isinstance(value, Mapping):
            merged[key] = _merge_section(defaults[key], value, f"{path}.{key}")
        else:
            merged[key] = value
    return merged


def _resolve(document: Mapping) -> dict:
    _check_keys(document, list(DEFAULT_CONFIG), "config")
    resolved = {}
    for section, defaults in DEFAULT_CONFIG.items():
        override = document.get(section, {})
        if section == "scenarios":
            if not isinstance(override, Mapping):
                raise ConfigError("scenarios must be a mapping")
            merged = {
                name: _merge_scenario(SCENARIO_DEFAULT, spec, f"scenarios.{name}")
                for name, spec in defaults.items()
            }
            for name, spec in override.items():
                base = merged.get(name, SCENARIO_DEFAULT)
                merged[name] = _merge_scenario(base, spec, f"scenarios.{name}")
            resolved[section] = merged
        else:
            resolved[section] = _merge_section(defaults, override, section)
    return resolved


def _merge_scenario(base: Mapping, override: Mapping, path: str) -> dict:
    """``base`` overlaid with ``override``, copied so that no two scenarios
    share an object (shared objects dump as YAML aliases)."""
    _check_keys(override, list(SCENARIO_DEFAULT), path)
    merged = dict(base)
    for key, value in override.items():
        if key == "expected":
            merged[key] = _merge_section(base["expected"], value, f"{path}.expected")
        elif key in ("sim", "controller"):
            _check_keys(value, list(DEFAULT_CONFIG[key]), f"{path}.{key}")
            merged[key] = {**base[key], **value}
        else:
            merged[key] = value
    return copy.deepcopy(merged)


# ---------------------------------------------------------------------------
# builders


def _build(factory, path: str, /, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _from_spec(cls, spec: Mapping, path: str, /, **explicit):
    """Build the dataclass ``cls`` from a YAML mapping keyed by its fields.

    The keys are checked against ``dataclasses.fields(cls)`` and omitted
    ones take the dataclass defaults.  Each value is converted by its
    field's annotation (``_converted``).  ``explicit`` sets the fields the
    YAML does not name itself (an edge's ``src`` and ``dst``).
    """
    _check_keys(spec, [f.name for f in fields(cls) if f.name not in explicit], path)
    return _build(cls, path, **_converted(cls, spec, path), **explicit)


@functools.cache
def _hints(cls) -> dict[str, Any]:
    """The annotation of each field of the dataclass ``cls``, resolved once in
    its module.  Only fields are read, so a ``KW_ONLY`` marker is never
    evaluated (``typing.get_type_hints`` rejects it before Python 3.11)."""
    namespace = vars(sys.modules[cls.__module__])
    return {f.name: eval(f.type, namespace) for f in fields(cls)}


# the float fields that also take +inf: a delta_min of .inf never migrates
_UNBOUNDED = ("delta_min",)


def _converted(cls, spec: Mapping, path: str) -> dict:
    """``spec`` with each value converted by the annotation of its field in ``cls``."""
    hints = _hints(cls)
    return {
        key: _build(_convert, f"{path}.{key}", hints[key], v, key in _UNBOUNDED)
        for key, v in spec.items()
    }


def _convert(hint: Any, value: Any, unbounded: bool = False) -> Any:
    """A YAML value as the type ``hint`` names.

    An ``int`` takes neither a fraction (``8.5`` is not truncated) nor a
    bool (``true`` is not 1); a ``float`` takes any finite number but a bool
    (and +inf where ``unbounded``) and reads ``1`` as ``1.0``; a ``bool`` or
    ``str`` takes only itself; a ``tuple`` takes a YAML list, converted item
    by item.  Any other type (a mapping, a built dataclass) takes the value
    as given.
    """
    if hint in (int, float, bool, str):
        accepted = (int, float) if hint is float else hint
        if not isinstance(value, accepted) or isinstance(value, bool) != (hint is bool):
            raise TypeError(f"{value!r} is not {'an' if hint is int else 'a'} {hint.__name__}")
        if hint is float and not (math.isfinite(value) or unbounded and value == math.inf):
            raise ValueError(f"{value!r} is not a finite number")
        return hint(value)
    if typing.get_origin(hint) is not tuple:
        return value
    items, args = _tuple(value), typing.get_args(hint)
    if args[-1] is Ellipsis:
        return tuple(_convert(args[0], item) for item in items)
    if len(items) != len(args):
        raise ValueError(f"{list(items)!r} must have {len(args)} entries")
    return tuple(map(_convert, args, items))


def _tuple(value: Any) -> tuple:
    """A YAML list as a tuple; a string is rejected, not split into characters."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"must be a list, got {type(value).__name__}")
    return tuple(value)


def _distinct(value: Any) -> tuple:
    """A non-empty YAML list of entries that each appear once, as a tuple."""
    items = _tuple(value)
    if not items:
        raise ValueError("an empty subset selects nothing")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"{item!r} is repeated")
    return items


def _seeds(value: Any) -> tuple[int, ...]:
    """A YAML list of distinct integer seeds; ``1.7`` is rejected, not truncated."""
    return _distinct(_convert(tuple[int, ...], value))


def _each(items: Any, path: str) -> Iterator[tuple[str, Mapping]]:
    """(path, entry) for each entry of a YAML list of mappings."""
    for i, spec in enumerate(_build(_tuple, path, items)):
        if not isinstance(spec, Mapping):
            raise ConfigError(f"{path}[{i}] must be a mapping, got {type(spec).__name__}")
        yield f"{path}[{i}]", spec


def _windowed(spec: Mapping, horizon: int) -> dict:
    """A stress or fault spec whose open window ends are resolved: an omitted
    or null start is window 1, an omitted or null end is the horizon."""
    start, end = spec.get("start_window"), spec.get("end_window")
    return {
        **spec,
        "start_window": 1 if start is None else start,
        "end_window": max(horizon, 1) if end is None else end,
    }


def _endpoints(spec: Mapping, path: str) -> tuple[tuple[str, str], dict]:
    """The ``from``/``to`` pair of an edge or link spec, and its other keys."""
    if "from" not in spec or "to" not in spec:
        raise ConfigError(f"{path} needs both from and to")
    rest = {key: value for key, value in spec.items() if key not in ("from", "to")}
    return (spec["from"], spec["to"]), rest


def build_fabric(raw: Mapping) -> Fabric:
    nodes = _each(raw["nodes"], "fabric.nodes")
    return _build(Fabric, "fabric", tuple(_from_spec(ComputeNode, s, at) for at, s in nodes))


def build_dag(raw: Mapping) -> PipelineDag:
    tasks = []
    for path, spec in _each(raw["tasks"], "dag.tasks"):
        models = spec.get("service", {})
        if not isinstance(models, Mapping):
            raise ConfigError(f"{path}.service must be a mapping, got {type(models).__name__}")
        service = {
            node: _from_spec(ServiceTimeModel, model, f"{path}.service.{node}")
            for node, model in models.items()
        }
        tasks.append(_from_spec(TaskStage, {**spec, "service": service}, path))
    edges = []
    for path, spec in _each(raw["edges"], "dag.edges"):
        (src, dst), rest = _endpoints(spec, path)
        edges.append(_from_spec(DagEdge, rest, path, src=src, dst=dst))
    links = {}
    for path, spec in _each(raw["links"], "dag.links"):
        pair, rest = _endpoints(spec, path)
        links[pair] = _from_spec(LinkDelayModel, rest, path)
    return PipelineDag(tuple(tasks), tuple(edges), links)


def build_targets(latency: Any, fabric: Fabric, path: str) -> NormalizationTargets:
    """The cost targets: a controller section's ``latency_target`` (found at
    ``path``) and the mean utilization target of each node kind."""
    robots = fabric.of_kind("robot")
    edges = fabric.of_kind("edge")
    return _build(
        NormalizationTargets,
        path,
        latency=_build(_convert, path, _hints(NormalizationTargets)["latency"], latency),
        util_robot=fsum_mean([n.utilization_target for n in robots], 0.8),
        util_edge=fsum_mean([n.utilization_target for n in edges], 0.8),
    )


@dataclass(frozen=True)
class Expectation:
    dominant: tuple[str, ...]
    min_fraction: float
    min_seed_fraction: float
    forbidden: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("min_fraction", "min_seed_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.min_fraction > 0 and not self.dominant:
            raise ValueError("min_fraction > 0 needs a dominant placement, or every seed fails")
        if self.min_fraction == 0 and not self.forbidden:
            raise ValueError("min_fraction 0 needs a forbidden placement, or every seed passes")


CHECK_KINDS = (
    "policy_violation_above",
    "post_convergence_violation_below",
    "violation_ratio_at_least",
)
# the windows a violation_ratio_at_least check compares: every one, or the faults'
CHECK_INTERVALS = ("all", "fault")


@dataclass(frozen=True)
class Check:
    kind: str
    policy: str = ""
    versus: str = ""
    threshold: float = 0.0
    ratio: float = 0.0
    interval: str = "all"

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            known = ", ".join(CHECK_KINDS)
            raise ValueError(f"unknown check kind {self.kind!r} (known: {known})")
        if self.kind != "post_convergence_violation_below" and not self.policy:
            raise ValueError(f"a {self.kind} check needs a policy")
        ratio_kind = self.kind == "violation_ratio_at_least"
        if ratio_kind and not self.versus:
            raise ValueError("a violation_ratio_at_least check needs a versus policy")
        if self.interval not in CHECK_INTERVALS:
            known = ", ".join(CHECK_INTERVALS)
            raise ValueError(f"unknown check interval {self.interval!r} (known: {known})")
        # a key the kind never reads would be scored as if it were absent
        ignored = ("threshold",) if ratio_kind else ("versus", "ratio", "interval")
        for f in fields(self):
            if f.name in ignored and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} must be left out: a {self.kind} check ignores it")
        # a violation rate lies in [0, 1], so any other bound passes or fails whatever the run does
        if ratio_kind:
            if not self.ratio > 0.0:
                raise ValueError(f"ratio must be > 0, got {self.ratio}")
        elif not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    sim: SimConfig
    stresses: tuple[StressProfile, ...]
    faults: tuple[FaultInjection, ...]
    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    controller_overrides: Mapping[str, Any]
    expected: Expectation
    checks: tuple[Check, ...] = ()


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully-defaulted configuration plus the objects built from it."""

    raw: dict
    fabric: Fabric
    dag: PipelineDag
    candidates: CandidateSet
    sim: SimConfig
    weights: Weights
    constraints: Constraints
    estimator: EstimatorConfig
    scenarios: Mapping[str, ScenarioSpec] = field(default_factory=dict)

    @property
    def known_policies(self) -> tuple[str, ...]:
        return (*self.candidates.names(), CONTROLLER_POLICY)

    def controller_config(
        self, overrides: Mapping[str, Any] | None = None, path: str = "controller"
    ) -> ControllerConfig:
        """The controller of the ``controller`` section overlaid with
        ``overrides``; errors name ``path``, where the overrides are."""
        section = {**self.raw["controller"], **(overrides or {})}
        latency = section.pop("latency_target")
        return _from_spec(
            ControllerConfig,
            section,
            path,
            candidates=self.candidates,
            weights=self.weights,
            constraints=self.constraints,
            targets=build_targets(latency, self.fabric, f"{path}.latency_target"),
        )


def _build_scenario(name: str, raw_scenario: Mapping, sim: SimConfig) -> ScenarioSpec:
    path = f"scenarios.{name}"
    overrides = _converted(SimConfig, raw_scenario["sim"], f"{path}.sim")
    scenario_sim = _build(replace, f"{path}.sim", sim, **overrides)
    horizon = scenario_sim.horizon
    stresses = tuple(
        _from_spec(StressProfile, _windowed(spec, horizon), at)
        for at, spec in _each(raw_scenario["stresses"], f"{path}.stresses")
    )
    faults = tuple(
        _from_spec(FaultInjection, _windowed(spec, horizon), at)
        for at, spec in _each(raw_scenario["faults"], f"{path}.faults")
    )
    checks = tuple(
        _from_spec(Check, spec, at) for at, spec in _each(raw_scenario["checks"], f"{path}.checks")
    )
    for i, check in enumerate(checks):
        # with no fault, fault_windows is every window, reported as the fault interval
        if check.interval == "fault" and not faults:
            raise ConfigError(f"{path}.checks[{i}]: interval must be all without a fault")
    return ScenarioSpec(
        name=name,
        sim=scenario_sim,
        stresses=stresses,
        faults=faults,
        policies=_build(_distinct, f"{path}.policies", raw_scenario["policies"]),
        seeds=_build(_seeds, f"{path}.seeds", raw_scenario["seeds"]),
        controller_overrides=dict(raw_scenario["controller"]),
        expected=_from_spec(Expectation, raw_scenario["expected"], f"{path}.expected"),
        checks=checks,
    )


def _check_references(config: ResolvedConfig, spec: ScenarioSpec) -> None:
    """Every policy, placement, stress target and fault link a scenario names exists."""
    path = f"scenarios.{spec.name}"
    named = [*spec.policies, *(p for c in spec.checks for p in (c.policy, c.versus) if p)]
    for policy in named:
        if policy not in config.known_policies:
            raise ConfigError(f"{path}: unknown policy {policy!r}")
    for placement in (*spec.expected.dominant, *spec.expected.forbidden):
        if placement not in config.candidates.names():
            raise ConfigError(f"{path}.expected: unknown placement {placement!r}")
    _build(check_disturbances, path, config.dag, config.fabric, spec.stresses, spec.faults)
    config.controller_config(spec.controller_overrides, f"{path}.controller")  # fails fast


def load_config(path: str | Path | None = None) -> ResolvedConfig:
    """Load and resolve a config document; None loads pure defaults."""
    document: Mapping = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            document = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        if not isinstance(document, Mapping):
            raise ConfigError("config must be a mapping of sections")
    raw = _resolve(document)

    fabric = build_fabric(raw["fabric"])
    dag = build_dag(raw["dag"])
    report = validate_pipeline(dag, fabric)
    if not report.ok:
        raise ConfigError("invalid pipeline: " + "; ".join(report.problems))
    sim = _from_spec(SimConfig, raw["sim"], "sim")
    config = ResolvedConfig(
        raw=raw,
        fabric=fabric,
        dag=dag,
        candidates=_build(canonical_candidates, "dag", dag),
        sim=sim,
        weights=_from_spec(Weights, raw["weights"], "weights"),
        constraints=_from_spec(Constraints, raw["constraints"], "constraints"),
        estimator=_from_spec(EstimatorConfig, raw["estimator"], "estimator"),
        scenarios={
            name: _build_scenario(name, spec, sim) for name, spec in raw["scenarios"].items()
        },
    )
    config.controller_config()  # the section itself, before any scenario overrides it
    for spec in config.scenarios.values():
        _check_references(config, spec)
    return config


def echo_config(config: ResolvedConfig, outdir: Path) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "resolved_config.yaml"
    path.write_text(yaml.safe_dump(config.raw, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# running scenarios


@dataclass(frozen=True)
class RunResult:
    policy: str
    seed: int
    summary: Mapping[str, Any]
    window_violations: tuple[float, ...]

    @property
    def window_placements(self) -> Sequence[str]:
        return self.summary["window_placements"]


@dataclass
class ExpectationResult:
    """passed is None when the expectation was not evaluated (SKIP)."""

    name: str
    passed: bool | None
    detail: str


@dataclass
class ScenarioReport:
    scenario: str
    results: dict[str, list[RunResult]]
    expectations: list[ExpectationResult]

    @property
    def passed(self) -> bool:
        """At least one expectation was evaluated and none failed."""
        evaluated = [e.passed for e in self.expectations if e.passed is not None]
        return bool(evaluated) and all(evaluated)


def post_convergence_windows(summary: Mapping[str, Any]) -> list[int]:
    """1-based window indices after convergence.

    Convergence starts after the first migration or after 20% of the
    horizon, whichever comes later.
    """
    horizon = len(summary["window_placements"])
    first = summary.get("first_migration_window") or 0
    burn = max(first, horizon // 5)
    return [k for k in range(1, horizon + 1) if k > burn]


def fault_windows(spec: ScenarioSpec) -> list[int]:
    horizon = spec.sim.horizon
    if not spec.faults:
        return list(range(1, horizon + 1))
    active = set()
    for fault in spec.faults:
        active.update(range(fault.start_window, min(fault.end_window, horizon) + 1))
    return sorted(active)


def select_runs(
    config: ResolvedConfig,
    spec: ScenarioSpec,
    policies: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The policies and seeds a run of ``spec`` covers: the scenario's own
    lists for None, else the given subsets, each non-empty and checked."""
    policies = spec.policies if policies is None else _build(_distinct, "policies", policies)
    seeds = spec.seeds if seeds is None else _build(_seeds, "seeds", seeds)
    for policy in policies:
        if policy not in config.known_policies:
            raise ConfigError(f"unknown policy {policy!r}")
    return policies, seeds


def fixed_run_keys(
    config: ResolvedConfig, spec: ScenarioSpec, policies: Sequence[str], seed: int
) -> dict[str, tuple]:
    """The ``fixed_run_key`` of each fixed policy of ``policies`` in ``spec``
    at ``seed``."""
    controller = config.controller_config(spec.controller_overrides)
    sim = replace(spec.sim, seed=seed)
    return {
        policy: fixed_run_key(
            config.dag, config.fabric, sim, controller, policy, spec.stresses, spec.faults
        )
        for policy in policies
        if policy != CONTROLLER_POLICY
    }


def run_scenario(
    config: ResolvedConfig,
    specs: Sequence[ScenarioSpec],
    policies: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
    outdir: Path | None = None,
) -> list[ScenarioReport]:
    """Run every (policy, seed) pair of each scenario of ``specs`` and
    evaluate its expectations over its seeds, in their order.

    Every subset is checked before anything runs.  Runs go seed by seed,
    over the seeds in the order they first appear, and within a seed
    scenario by scenario.  A scenario's fixed policies run first, each
    computing its own cycles, and its ``DTP`` run reads the stores of the
    placements they cover instead of simulating them again.  A fixed run
    that a later scenario of the seed makes too (an equal
    ``fixed_run_key``) is made once: its trace and ``cycles.csv`` text are
    held until the last scenario that reads them is done.  Each seed's runs
    share one mapping of normals and all runs one map of static estimates
    (see ``run_simulation``), so only one seed's cycles are held at a time.

    With an ``outdir``, a scenario's run directories of a seed are written
    once its runs are done, every ``cycles.csv`` in one
    ``write_cycles_csv`` pass, so a ``DTP`` window that equals a fixed
    run's window is written from that run's text.  The results keep the
    order of ``policies``.
    """
    selected = [select_runs(config, spec, policies, seeds) for spec in specs]
    static_estimates: dict = {}  # one config: every scenario shares its dag, fabric and candidates
    runs: list[dict[tuple[int, str], RunResult]] = [{} for _ in specs]  # by (seed, policy)
    for seed in dict.fromkeys(seed for _, order in selected for seed in order):
        normals: dict = {}  # a seed's draws are the same in every scenario
        scenarios = [(spec, chosen, by_run) for spec, (chosen, order), by_run
                     in zip(specs, selected, runs) if seed in order]
        keys = [fixed_run_keys(config, spec, chosen, seed) for spec, chosen, _ in scenarios]
        held: list[tuple] = []  # (key, last reader, trace, cycles.csv chunks) of each made run
        for i, (spec, chosen, by_run) in enumerate(scenarios):
            sim = replace(spec.sim, seed=seed)
            controller = config.controller_config(spec.controller_overrides)
            traces: dict[str, SimTrace] = {}
            texts: dict[str, list[str] | None] = {}
            for policy in sorted(chosen, key=lambda p: p == CONTROLLER_POLICY):
                fixed = None if policy == CONTROLLER_POLICY else policy
                key = keys[i].get(policy)
                run = next((run for run in held if run[0] == key), None)
                if run is None:
                    last = max((j for j, later in enumerate(keys) if key in later.values()),
                               default=i)
                    run = (key, last, run_simulation(
                        config.dag,
                        config.fabric,
                        sim,
                        controller,
                        fixed=fixed,
                        stresses=spec.stresses,
                        faults=spec.faults,
                        estimator=config.estimator,
                        # the fixed runs come first: DTP reads their stores
                        known_cycles=None if fixed else {p: t.cycles for p, t in traces.items()},
                        static_estimates=static_estimates,
                        normals=normals,
                    ), [] if last > i else None)
                    if last > i:
                        held.append(run)
                traces[policy], texts[policy] = run[2:]
                by_run[seed, policy] = RunResult(
                    policy,
                    seed,
                    run[2].summary,
                    tuple(w.metrics.violation_rate for w in run[2].windows),
                )
            if outdir is not None:
                _write_runs(outdir / spec.name, seed, traces, texts, config)
            held = [run for run in held if run[1] > i]
    reports = []
    for spec, (chosen, order), by_run in zip(specs, selected, runs):
        results = {policy: [by_run[seed, policy] for seed in order] for policy in chosen}
        reports.append(ScenarioReport(spec.name, results, evaluate_expectations(spec, results)))
    return reports


def _write_runs(
    outdir: Path, seed: int, traces: Mapping[str, SimTrace], texts: Mapping, config: ResolvedConfig
) -> None:
    """The run directory of each policy's trace of one seed; every
    ``cycles.csv`` of the seed is written in one ``write_cycles_csv`` pass,
    a policy's from (or into) its list of ``texts``."""
    cycles_csv = []
    for policy, trace in traces.items():
        rundir = outdir / policy / f"seed_{seed}"
        rundir.mkdir(parents=True, exist_ok=True)
        write_windows_csv(trace, rundir / "windows.csv")
        write_summary_json(trace, rundir / "summary.json")
        if policy == CONTROLLER_POLICY:
            write_decisions_jsonl(trace, rundir / "decisions.jsonl")
        cycles_csv.append((trace, rundir / "cycles.csv"))
    (trace, path), *others = cycles_csv
    write_cycles_csv(trace, config.fabric, path, others=others, texts=[*map(texts.get, traces)])


def evaluate_expectations(
    spec: ScenarioSpec, results: Mapping[str, Sequence[RunResult]]
) -> list[ExpectationResult]:
    out: list[ExpectationResult] = []
    controller_runs = results.get(CONTROLLER_POLICY, ())
    expected = spec.expected

    label, forbidden = "+".join(expected.dominant), "+".join(expected.forbidden)
    # with min_fraction 0 every seed reaches the dominant share: only the forbidden part decides
    forbidden_only = not expected.min_fraction
    name = f"forbidden-placement:{forbidden}" if forbidden_only else f"dominant-placement:{label}"
    # a run with no window after convergence has no post-convergence occupancy
    posts = [(r, w) for r in controller_runs if (w := post_convergence_windows(r.summary))]
    if controller_runs and not posts:
        out.append(ExpectationResult(name, None, "not evaluated: no window follows convergence"))
    elif controller_runs:
        occupancies = []
        seed_pass = 0
        for run, post in posts:
            placements = run.window_placements
            share = sum(1 for k in post if placements[k - 1] in expected.dominant) / len(post)
            forbidden_share = (
                sum(1 for k in post if placements[k - 1] in expected.forbidden) / len(post)
                if expected.forbidden
                else 0.0
            )
            occupancies.append(share)
            if share >= expected.min_fraction and forbidden_share == 0.0:
                seed_pass += 1
        needed = max(1, math.ceil(len(posts) * expected.min_seed_fraction - 1e-9))
        passed = seed_pass >= needed
        if forbidden_only:
            detail = (
                f"{seed_pass}/{len(posts)} seeds kept {forbidden} at 0 post-convergence "
                f"(need {needed})"
            )
        else:
            detail = (
                f"{seed_pass}/{len(posts)} seeds reached {label} occupancy >= "
                f"{expected.min_fraction:.2f} post-convergence (need {needed}; "
                f"min {min(occupancies):.3f}, mean {fsum_mean(occupancies):.3f}"
            )
            if expected.forbidden:
                detail += f"; forbidden {forbidden} must stay at 0"
            detail += ")"
        out.append(ExpectationResult(name, passed, detail))

    for check in spec.checks:
        out.append(_evaluate_check(check, spec, results))
    return out


def _windowed_violation(run: RunResult, windows: Sequence[int]) -> float:
    rates = run.window_violations
    chosen = [rates[k - 1] for k in windows if 0 < k <= len(rates)]
    return fsum_mean(chosen)


def _evaluate_check(
    check: Check, spec: ScenarioSpec, results: Mapping[str, Sequence[RunResult]]
) -> ExpectationResult:
    """One check's result; SKIP when a policy it compares did not run or no window counts."""
    policy = check.policy
    if check.kind == "policy_violation_above":
        name, needs = f"{policy}-violation-above-{check.threshold}", (policy,)
    elif check.kind == "post_convergence_violation_below":
        policy = policy or CONTROLLER_POLICY
        name, needs = f"{policy}-post-convergence-violation-below-{check.threshold}", (policy,)
    else:
        name = f"{policy}-violation-{check.ratio}x-{check.versus}"
        needs = (policy, check.versus)
    missing = [p for p in needs if not results.get(p)]
    if missing:
        return ExpectationResult(name, None, f"not evaluated: {', '.join(missing)} did not run")
    runs = results[policy]

    if check.kind == "policy_violation_above":
        # a run of no cycle has no violation rate
        runs = [r for r in runs if r.summary["cycles"]]
        if not runs:
            return ExpectationResult(name, None, f"not evaluated: {policy} ran no cycle")
        value = fsum_mean([r.summary["violation_rate"] for r in runs])
        return ExpectationResult(
            name,
            value > check.threshold,
            f"{policy} mean violation rate {value:.4f} (threshold {check.threshold})",
        )
    if check.kind == "post_convergence_violation_below":
        # a run with no window after convergence has no post-convergence rate
        posts = [(r, w) for r in runs if (w := post_convergence_windows(r.summary))]
        if not posts:
            return ExpectationResult(name, None, "not evaluated: no window follows convergence")
        values = [_windowed_violation(r, w) for r, w in posts]
        value = fsum_mean(values)
        return ExpectationResult(
            name,
            value <= check.threshold,
            f"post-convergence mean violation rate {value:.4f} "
            f"(threshold {check.threshold}, worst seed {max(values):.4f})",
        )
    windows = fault_windows(spec) if check.interval == "fault" else range(1, spec.sim.horizon + 1)
    if not windows:
        return ExpectationResult(name, None, f"not evaluated: empty {check.interval} interval")
    worse_value = fsum_mean([_windowed_violation(r, windows) for r in runs])
    better_value = fsum_mean([_windowed_violation(r, windows) for r in results[check.versus]])
    detail = (
        f"{policy} violation {worse_value:.4f} vs {check.versus} "
        f"{better_value:.4f} over the {check.interval} interval (need {check.ratio}x)"
    )
    # a ratio over a policy that never violated holds vacuously, so it fails
    if not worse_value:
        return ExpectationResult(name, False, f"{detail}: {policy} never violated")
    return ExpectationResult(name, worse_value >= check.ratio * better_value, detail)


# ---------------------------------------------------------------------------
# reporting

# report.json key of each per-policy mean -> the run summary key it averages
_MEANS = {
    "mean_violation_rate": "violation_rate",
    "mean_l95_ms": "l95_latency_ms",
    "mean_util_robot": "mean_util_robot",
    "mean_util_edge": "mean_util_edge",
    "mean_migrations": "migrations",
}
_STATUS = {True: "PASS", False: "FAIL", None: "SKIP"}


def report_payload(reports: Sequence[ScenarioReport]) -> dict:
    """The report.json document of a set of scenario reports."""
    scenarios = [
        {
            "scenario": report.scenario,
            "passed": report.passed,
            "policies": {
                policy: {
                    "seeds": [r.seed for r in runs],
                    **{k: fsum_mean([r.summary[s] for r in runs]) for k, s in _MEANS.items()},
                    "per_seed": [dict(r.summary) for r in runs],
                }
                for policy, runs in report.results.items()
            },
            "expectations": [asdict(e) for e in report.expectations],
        }
        for report in reports
    ]
    return {"passed": bool(reports) and all(r.passed for r in reports), "scenarios": scenarios}


def render_report(payload: Mapping, fmt: str = "text") -> str:
    """Render a report payload, fresh from report_payload or read by load_report.

    The text table lists the fixed placements by name, then the controller.
    """
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "text":
        raise ConfigError(f"unknown report format {fmt!r}")
    scenarios = payload["scenarios"]
    if not scenarios:
        return ""
    lines: list[str] = []
    for scenario in scenarios:
        lines.append(f"scenario: {scenario['scenario']}")
        lines.append(
            f"  {'policy':<8} {'mean_vd':>9} {'l95_ms':>9} {'util_r':>7} "
            f"{'util_e':>7} {'migr':>5}"
        )
        policies = scenario["policies"]
        for policy in sorted(policies, key=lambda p: (p == CONTROLLER_POLICY, p)):
            stats = policies[policy]
            lines.append(
                f"  {policy:<8} "
                f"{stats['mean_violation_rate']:>9.4f} "
                f"{stats['mean_l95_ms']:>9.3f} "
                f"{stats['mean_util_robot']:>7.3f} "
                f"{stats['mean_util_edge']:>7.3f} "
                f"{stats['mean_migrations']:>5.1f}"
            )
        for expectation in scenario["expectations"]:
            status = _STATUS[expectation["passed"]]
            lines.append(f"  [{status}] {expectation['name']}: {expectation['detail']}")
        lines.append("")
    failed = any(e["passed"] is False for s in scenarios for e in s["expectations"])
    lines.append("overall: " + ("PASS" if payload["passed"] else "FAIL" if failed else "SKIP"))
    return "\n".join(lines)


def write_report(payload: Mapping, outdir: Path) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.json"
    path.write_text(render_report(payload, "json") + "\n")
    return path


def load_report(outdir: Path) -> dict:
    path = Path(outdir) / "report.json"
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"no stored report under {outdir}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"stored report is corrupt: {exc}") from exc
    try:
        if not isinstance(payload["passed"], bool):
            raise TypeError("passed is not a bool")
        render_report(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"stored report is corrupt: {path}: {exc!r}") from exc
    return payload
