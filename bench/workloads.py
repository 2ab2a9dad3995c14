"""The three benchmark workloads and the artifact digests that check them.

Each workload is batch and closed: one pass runs a fixed set of
(scenario, policy, seed) runs to completion, and the next pass starts when
it ends.  ``run_pass`` times only the simulation (and, for ``sweep-cli``,
the whole CLI call, trace writing included); hashing and the library
workloads' serialisation happen outside the timed region, and the
serialisation is timed on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

CONTROLLER_POLICY = "DTP"
RUN_FILES = ("cycles.csv", "windows.csv", "summary.json", "decisions.jsonl")
LONG_SCENARIO = "network-impairment"
# The seeds every shipped scenario lists.  Its expectations are tuned on
# them (a share of them must pass), and each one alone passes every
# expectation, so a one-seed sweep drawn from them must report no FAIL.
SHIPPED_SEEDS = tuple(range(1, 11))


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does.  ``None`` horizons keep the shipped config."""

    sweep_horizon: int | None = None
    long_horizon: int = 500
    episode_horizon: int = 10
    episode_seeds: int = 4
    setup_repeats: int = 21


@dataclass
class PassResult:
    wall: float
    active_cycles: int = 0
    dtp_runs: int = 0
    digests: dict[str, str | None] = field(default_factory=dict)  # None: the run failed
    warnings: int = 0
    expectations_failed: int = 0
    artifact_bytes: int = 0
    write_s: float = 0.0  # serialisation outside the timed region (library workloads)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digest(rundir: Path) -> str:
    h = hashlib.sha256()
    for name in RUN_FILES:
        path = rundir / name
        if path.exists():
            h.update(f"{name}:{file_digest(path)}\n".encode())
    return h.hexdigest()


def combined_digest(digests: dict[str, str | None]) -> str:
    h = hashlib.sha256()
    for key in sorted(digests):
        h.update(f"{key}:{digests[key]}\n".encode())
    return h.hexdigest()


def run_bytes(rundir: Path) -> int:
    return sum((rundir / n).stat().st_size for n in RUN_FILES if (rundir / n).exists())


def _structure_ok(summary: dict, horizon: int, window: int) -> bool:
    return summary["windows"] == horizon and summary["cycles"] == horizon * window


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes

    def overlay(self) -> dict | None:
        """YAML overlay that load_config reads for this workload, or None."""
        return None

    def describe(self) -> str:
        return ""

    def run_pass(self, dtpsim, config, outdir: Path, config_path: Path | None,
                 region) -> PassResult:
        raise NotImplementedError


class SweepCli(Workload):
    """``dtpsim run`` over every shipped scenario and policy, writing traces."""

    name = "sweep-cli"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.seed = random.Random(f"sweep-cli:{seed}").choice(SHIPPED_SEEDS)

    def overlay(self) -> dict | None:
        if self.sizes.sweep_horizon is None:
            return None
        return {"sim": {"horizon": self.sizes.sweep_horizon}}

    def describe(self) -> str:
        return f"seed {self.seed}"

    def run_pass(self, dtpsim, config, outdir: Path, config_path: Path | None,
                 region) -> PassResult:
        argv = ["run", "--out", str(outdir), "--seeds", str(self.seed)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        report = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(report):
            warnings.simplefilter("always")
            with region:
                start = time.perf_counter()
                try:
                    code = dtpsim.cli.main(argv)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    code = None
                wall = time.perf_counter() - start
        result = PassResult(wall, warnings=len(caught))
        ran = code in (0, 1)
        for name, spec in config.scenarios.items():
            window = config.controller_config(spec.controller_overrides).window_size
            for policy in spec.policies:
                result.dtp_runs += policy == CONTROLLER_POLICY
                key = f"{name}/{policy}/seed_{self.seed}"
                rundir = outdir / key
                summary_path = rundir / "summary.json"
                summary = None
                if ran and summary_path.exists():
                    summary = json.loads(summary_path.read_text())
                if summary is None or not _structure_ok(summary, spec.sim.horizon, window):
                    result.digests[key] = None
                    continue
                result.active_cycles += summary["cycles"]
                result.artifact_bytes += run_bytes(rundir)
                result.digests[key] = run_digest(rundir)
        # The report counts as one more run: it fails when it is missing or
        # when the exit code disagrees with its failed expectations.
        report_path = outdir / "report.json"
        result.digests["report.json"] = None
        if ran and report_path.exists():
            report = json.loads(report_path.read_text())
            result.expectations_failed = sum(
                not e["passed"] for s in report["scenarios"] for e in s["expectations"]
            )
            if code == (1 if result.expectations_failed else 0):
                result.digests["report.json"] = file_digest(report_path)
        if result.digests["report.json"] is None:
            print(f"sweep-cli: dtpsim run exited {code} with "
                  f"{result.expectations_failed} failed expectations", file=sys.stderr)
        return result


class _LibraryWorkload(Workload):
    """Calls run_simulation directly under DTP, then serialises outside the
    timed region through the public ``write_*`` functions, timed on their own."""

    def runs(self, config) -> list[tuple[str, int]]:
        raise NotImplementedError

    def run_pass(self, dtpsim, config, outdir: Path, config_path: Path | None,
                 region) -> PassResult:
        result = PassResult(0.0)
        simulation = dtpsim.simulation
        for scenario, seed in self.runs(config):
            spec = config.scenarios[scenario]
            controller = config.controller_config(spec.controller_overrides)
            sim = replace(spec.sim, seed=seed)
            key = f"{scenario}/{CONTROLLER_POLICY}/seed_{seed}"
            result.dtp_runs += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with region:
                    start = time.perf_counter()
                    try:
                        trace = simulation.run_simulation(
                            config.dag,
                            config.fabric,
                            sim,
                            controller,
                            stresses=spec.stresses,
                            faults=spec.faults,
                            estimator=config.estimator,
                        )
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        trace = None
                    result.wall += time.perf_counter() - start
            result.warnings += len(caught)
            if trace is None or not _structure_ok(
                trace.summary, sim.horizon, controller.window_size
            ):
                result.digests[key] = None
                continue
            result.active_cycles += len(trace.cycles)
            rundir = outdir / key
            rundir.mkdir(parents=True)
            start = time.perf_counter()
            simulation.write_cycles_csv(trace, config.fabric, rundir / "cycles.csv")
            simulation.write_windows_csv(trace, rundir / "windows.csv")
            simulation.write_summary_json(trace, rundir / "summary.json")
            simulation.write_decisions_jsonl(trace, rundir / "decisions.jsonl")
            result.write_s += time.perf_counter() - start
            del trace
            result.artifact_bytes += run_bytes(rundir)
            result.digests[key] = run_digest(rundir)
        return result


class DtpLong(_LibraryWorkload):
    """One long DTP run on network-impairment: the per-cycle hot path."""

    name = "dtp-long"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.sim_seed = random.Random(f"dtp-long:{seed}").randrange(1, 2**31)

    def overlay(self) -> dict | None:
        return {"sim": {"horizon": self.sizes.long_horizon}}

    def describe(self) -> str:
        return f"{LONG_SCENARIO} seed {self.sim_seed}, {self.sizes.long_horizon} windows"

    def runs(self, config) -> list[tuple[str, int]]:
        return [(LONG_SCENARIO, self.sim_seed)]


class DtpEpisodes(_LibraryWorkload):
    """Many short DTP episodes on every scenario: dominated by estimate_static."""

    name = "dtp-episodes"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        rng = random.Random(f"dtp-episodes:{seed}")
        self.seeds = sorted(rng.sample(range(1, 100_000), sizes.episode_seeds))

    def overlay(self) -> dict | None:
        return {"sim": {"horizon": self.sizes.episode_horizon}}

    def describe(self) -> str:
        return f"seeds {self.seeds} on every scenario, {self.sizes.episode_horizon} windows"

    def runs(self, config) -> list[tuple[str, int]]:
        return [(name, seed) for name in config.scenarios for seed in self.seeds]


WORKLOADS = {w.name: w for w in (SweepCli, DtpLong, DtpEpisodes)}
