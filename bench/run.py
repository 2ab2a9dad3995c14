#!/usr/bin/env python3
"""dtpsim benchmark: simulated control cycles per host second.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sweep-cli, dtp-long, dtp-episodes, or ``all`` (each workload
in turn, one after the other, each in its own process so that peak memory
stays per workload).  The simulator is imported from ``src/`` next to this
directory; without it the benchmark exits 2 and prints no result.

With ``--trace 0`` a run measures the end-to-end metrics with tracing off:
it repeats the workload for S seconds (at least three times) and reports medians,
then times a fresh interpreter's ``import dtpsim`` plus ``load_config``
several times.  With ``--trace 1`` it repeats the workload untraced, then
again with every layer wrapped in timing spans (see tracing.py), and
reports the per-layer metrics.

Every run hashes the artifacts of each (scenario, policy, seed) run; a run
that raises, breaks the trace's shape, or hashes differently from the first
pass counts as failed.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, PassResult, Sizes, combined_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
MIN_PASSES = 3  # untraced passes per run, however short --seconds is
LOAD_REPEATS = 5  # timed load_config calls behind harness.load_config.ms

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "streams.at.calls_per_cycle": "calls/cycle",
    "streams.at.us": "us",
    "streams.share": "share",
    "sampling.sample_service.us": "us",
    "sampling.traverse_edge.us": "us",
    "sampling.attempts_per_crossing": "ratio",
    "sampling.fatal_per_kcycle": "1/kcycle",
    "sampling.share": "share",
    "simulation.run_cycle.self_us": "us",
    "simulation.cycles_per_active": "ratio",
    "simulation.run_simulation.self_share": "share",
    "simulation.share": "share",
    "metrics.aggregate_window.us": "us",
    "metrics.share": "share",
    "estimator.estimate_static.ms": "ms",
    "estimator.estimate_static.calls_per_run": "calls/run",
    "estimator.update_shadow.us": "us",
    "estimator.share": "share",
    "controller.on_window_end.us": "us",
    "controller.share": "share",
    "cost.select_placement.us": "us",
    "cost.share": "share",
    "harness.load_config.ms": "ms",
    "harness.write.ms_per_run": "ms",
    "harness.write.kb_per_run": "KB",
    "harness.share": "share",
    "trace.overhead": "ratio",
}
# Spans that the per-layer metrics read.  Every workload calls each of them,
# so one that records no call means a wrapper sits on a name the code no
# longer looks up, and the traced run is not correct.
READ_SPANS = (
    "streams.at",
    "sampling.sample_service",
    "sampling.traverse_edge",
    "sampling.sample_link",
    "simulation.run_cycle",
    "simulation.run_simulation",
    "metrics.aggregate_window",
    "estimator.estimate_static",
    "estimator.update_shadow",
    "controller.on_window_end",
    "cost.select_placement",
)

# Times a fresh interpreter's import plus config load; argv: src dir, config path or "".
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dtpsim
dtpsim.load_config(sys.argv[2] or None)
print(time.perf_counter() - start)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_dtpsim():
    init = SRC / "dtpsim" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"dtpsim sources not found: {init} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dtpsim
    import dtpsim.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(dtpsim.__file__).resolve() != init.resolve():
        raise BenchError(f"imported dtpsim from {dtpsim.__file__}, expected {init}")
    return dtpsim


@dataclass
class Passes:
    """Every pass of one phase (untraced or traced) and its failure count."""

    results: list[PassResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def walls(self) -> list[float]:
        return [r.wall for r in self.results]


def run_passes(workload, dtpsim, config, config_path, seconds, min_passes, scratch,
               reference: dict | None, region=contextlib.nullcontext()) -> Passes:
    """Repeat the workload until ``seconds`` have passed and ``min_passes`` ran.

    Each pass writes into a fresh directory that is removed afterwards.  Its
    digests are compared with ``reference`` (or with the first pass).
    """
    passes = Passes()
    start = time.perf_counter()
    while len(passes.results) < min_passes or time.perf_counter() - start < seconds:
        outdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            result = workload.run_pass(dtpsim, config, outdir, config_path, region)
        finally:
            shutil.rmtree(outdir)
        if reference is None:
            reference = result.digests
        for key, digest in result.digests.items():
            passes.attempted += 1
            if digest is None or digest != reference.get(key):
                passes.failed += 1
                print(f"{workload.name}: {key} failed or hashed differently", file=sys.stderr)
        passes.results.append(result)
    return passes


def setup_times(config_path: Path | None, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path or "")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count in case a pass starts any
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: tracing.Tracer, traced: Passes, untraced: Passes,
                  load_config_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans recorded inside the timed passes, and
    the names of the spans (or ``harness.write``) that recorded nothing.

    The library workloads serialise outside the timed region; that time
    (``write_s``) counts as harness work and is added to the wall time that
    every share divides by.
    """
    empty = tracing.SpanStats()

    def span(name):
        return tracer.spans.get(name, empty)

    def mean(name, scale):
        return scale * _per(span(name).total, span(name).calls)

    outside = sum(r.write_s for r in traced.results)
    wall = sum(traced.walls) + outside
    active = sum(r.active_cycles for r in traced.results)
    dtp_runs = sum(r.dtp_runs for r in traced.results)
    written = sum(1 for r in traced.results for k, d in r.digests.items()
                  if d is not None and k != "report.json")
    write_s = span("harness.write").total + outside
    cycles = span("simulation.run_cycle").calls
    missing = [name for name in READ_SPANS if span(name).calls == 0]
    if not (written and write_s):
        missing.append("harness.write")
    out = {
        "streams.at.calls_per_cycle": _per(span("streams.at").calls, active),
        "streams.at.us": mean("streams.at", 1e6),
        "sampling.sample_service.us": mean("sampling.sample_service", 1e6),
        "sampling.traverse_edge.us": mean("sampling.traverse_edge", 1e6),
        "sampling.attempts_per_crossing": _per(span("sampling.sample_link").calls,
                                               span("sampling.traverse_edge").calls),
        "sampling.fatal_per_kcycle": 1000 * _per(tracer.counters.get("sampling.fatal", 0),
                                                 cycles),
        "simulation.run_cycle.self_us": 1e6 * _per(span("simulation.run_cycle").self_time, cycles),
        "simulation.cycles_per_active": _per(cycles, active),
        "simulation.run_simulation.self_share": _per(span("simulation.run_simulation").self_time,
                                                     wall),
        "metrics.aggregate_window.us": mean("metrics.aggregate_window", 1e6),
        "estimator.estimate_static.ms": mean("estimator.estimate_static", 1e3),
        "estimator.estimate_static.calls_per_run": _per(span("estimator.estimate_static").calls,
                                                        dtp_runs),
        "estimator.update_shadow.us": mean("estimator.update_shadow", 1e6),
        "controller.on_window_end.us": mean("controller.on_window_end", 1e6),
        "cost.select_placement.us": mean("cost.select_placement", 1e6),
        "harness.load_config.ms": 1e3 * load_config_s,
        "harness.write.ms_per_run": 1e3 * _per(write_s, written),
        "harness.write.kb_per_run": _per(sum(r.artifact_bytes for r in traced.results),
                                         1024 * written),
        "harness.share": _per(outside, wall),
        "trace.overhead": statistics.median(traced.walls) / statistics.median(untraced.walls) - 1,
    }
    for name, stats in tracer.spans.items():
        share = f"{name.split('.')[0]}.share"
        out[share] = out.get(share, 0.0) + _per(stats.self_time, wall)
    return {name: out.get(name, 0.0) for name in PER_LAYER}, missing


def evaluate_expectations_ms(tracer: tracing.Tracer) -> float | None:
    stats = tracer.spans.get("harness.evaluate_expectations")
    return 1e3 * stats.total / stats.calls if stats and stats.calls else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes()) -> dict:
    """Run one workload and return its result; prints the human-readable lines."""
    workload = WORKLOADS[name](seed, sizes)
    dtpsim = import_dtpsim()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        return _measure(workload, dtpsim, seconds, trace, sizes, scratch)
    finally:
        shutil.rmtree(scratch)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def _measure(workload, dtpsim, seconds, trace, sizes, scratch) -> dict:
    overlay = workload.overlay()
    config_path = None
    if overlay is not None:
        config_path = scratch / f"{workload.name}.yaml"
        config_path.write_text(json.dumps(overlay))  # JSON is valid YAML
    config = dtpsim.harness.load_config(config_path)

    print(f"workload {workload.name}: {workload.describe()}")
    untraced = run_passes(workload, dtpsim, config, config_path, seconds, MIN_PASSES,
                          scratch, None)
    reference = untraced.results[0].digests
    digest = combined_digest(reference)
    attempted, failed = untraced.attempted, untraced.failed
    warnings_per_pass = untraced.results[0].warnings
    results = list(untraced.results)
    print(f"  passes           {len(untraced.results)} untraced, walls "
          + " ".join(f"{w:.3f}" for w in untraced.walls) + " s")

    if trace:
        loads = []
        for _ in range(LOAD_REPEATS):
            start = time.perf_counter()
            dtpsim.harness.load_config(config_path)
            loads.append(time.perf_counter() - start)
        tracer = tracing.Tracer()
        tracer.install(dtpsim)
        try:
            traced = run_passes(workload, dtpsim, config, config_path, seconds, 1, scratch,
                                reference, tracer)
        finally:
            restored = tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        results += traced.results
        metrics, missing = layer_metrics(tracer, traced, untraced, statistics.median(loads))
        units = PER_LAYER
        digest_match = all(r.digests == reference for r in traced.results)
        print(f"  traced passes    {len(traced.results)}, walls "
              + " ".join(f"{w:.3f}" for w in traced.walls) + " s")
        print(f"  traced digest    {'equal to' if digest_match else 'DIFFERS from'} untraced")
        print(f"  wrappers         {'all restored' if restored else 'NOT restored'}")
        if missing:
            print(f"{workload.name}: no traced calls of {', '.join(missing)}", file=sys.stderr)
        expectations_ms = evaluate_expectations_ms(tracer)
        print("  harness.evaluate_expectations.ms  "
              + (f"{expectations_ms:.4f} ms" if expectations_ms is not None
                 else "n/a (no expectations on this workload)"))
        correct_trace = digest_match and restored and not missing
    else:
        metrics = {
            "wall_s": statistics.median(untraced.walls),
            "cycles_per_s": statistics.median(
                r.active_cycles / r.wall for r in untraced.results if r.wall > 0
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        setups = setup_times(config_path, sizes.setup_repeats)
        metrics["setup_s"] = statistics.median(setups)
        metrics = {k: metrics[k] for k in END_TO_END}
        units = END_TO_END
        correct_trace = True

    expectations_failed = max(r.expectations_failed for r in results)
    runs_failed = _per(failed, attempted)
    print(f"  runs             {attempted} attempted, {failed} failed")
    print(f"  runs_failed          {runs_failed:.6f} share")
    print(f"  expectations_failed  {expectations_failed} count")
    print(f"  warnings             {warnings_per_pass} count per pass")
    print(f"  digest               {digest}")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:.6g} {units[key]}")
    return {
        "correct": failed == 0 and expectations_failed == 0 and correct_trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
