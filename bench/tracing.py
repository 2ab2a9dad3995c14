"""Timing spans and counters wrapped around dtpsim's public functions.

The tracer patches each function on the name its caller looks up (a module
global or a class attribute), keeps per-span aggregates in memory and puts
every original back on ``uninstall``.  Nothing under ``src/`` changes.
Wrappers record only inside ``with tracer:`` (the timed region of a pass);
outside it they call straight through.

Each span records calls, total time and self time.  Self time is the
span's duration minus the time covered by wrapped spans it called, so the
self times of all spans add up to at most the traced wall time.  The layer
of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

# (span name, owner attribute path, attribute) for every wrapped call site.
# Owners are dotted paths below the ``dtpsim`` package; a trailing class name
# wraps a method on its class.  Hot internal helpers that would only add
# wrapper cost (quantize_us, derive_seed, class_utilization, effective_service)
# are left unwrapped: their time lands in the caller's self time.
SITES: tuple[tuple[str, str, str], ...] = (
    ("streams.at", "streams.RandomStreams", "at"),
    ("streams.fresh", "streams.RandomStreams", "fresh"),
    ("sampling.sample_service", "simulation", "sample_service"),
    ("sampling.traverse_edge", "simulation", "traverse_edge"),
    ("sampling.sample_link", "sampling", "sample_link"),
    ("simulation.run_simulation", "simulation", "run_simulation"),
    ("simulation.run_simulation", "harness", "run_simulation"),
    ("simulation.run_cycle", "simulation._Engine", "run_cycle"),
    ("metrics.aggregate_window", "simulation", "aggregate_window"),
    ("metrics.aggregate_window", "estimator", "aggregate_window"),
    ("metrics.percentile_nearest_rank", "metrics", "percentile_nearest_rank"),
    ("metrics.percentile_nearest_rank", "estimator", "percentile_nearest_rank"),
    ("metrics.percentile_nearest_rank", "simulation", "percentile_nearest_rank"),
    ("metrics.normalize", "simulation", "normalize"),
    ("metrics.normalize", "controller", "normalize"),
    ("estimator.estimate_static", "simulation", "estimate_static"),
    ("estimator.update_shadow", "simulation", "update_shadow"),
    ("estimator.estimate_conservative", "simulation", "estimate_conservative"),
    ("controller.on_window_end", "simulation", "on_window_end"),
    ("cost.select_placement", "controller", "select_placement"),
    ("cost.total_cost", "controller", "total_cost"),
    ("cost.total_cost", "simulation", "total_cost"),
    ("harness.load_config", "cli", "load_config"),
    ("harness.echo_config", "cli", "echo_config"),
    ("harness.run_scenario", "cli", "run_scenario"),
    ("harness.evaluate_expectations", "harness", "evaluate_expectations"),
    ("harness.render_report", "cli", "render_report"),
    ("harness.write_report", "cli", "write_report"),
    ("harness.write", "harness", "write_cycles_csv"),
    ("harness.write", "harness", "write_windows_csv"),
    ("harness.write", "harness", "write_summary_json"),
    ("harness.write", "harness", "write_decisions_jsonl"),
)

# sample_link is shared by the engine and the static estimator; only the
# engine's attempts (those made inside a traced traverse_edge) are spans, so
# the estimator's Monte Carlo stays in the estimator's self time.
ONLY_UNDER = {"sampling.sample_link": "sampling.traverse_edge"}


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans and counters; install() patches, uninstall() restores,
    and ``with tracer:`` marks the region in which the wrappers record."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    recording: bool = False
    _stack: list[list] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, package: ModuleType) -> None:
        for span, owner_path, attr in SITES:
            owner = _resolve(package, owner_path)
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))

    def uninstall(self) -> bool:
        """Restore every original; True when each name is back as it was."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patched)
        self._patched.clear()
        return restored

    def __enter__(self) -> "Tracer":
        self.recording = True
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False

    def _wrap(self, span: str, fn: Callable) -> Callable:
        tracer = self
        stats = self.spans.setdefault(span, SpanStats())
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        parent_required = ONLY_UNDER.get(span)
        counts_fatal = span == "sampling.traverse_edge"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording or (
                parent_required is not None and (not stack or stack[-1][1] != parent_required)
            ):
                return fn(*args, **kwargs)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counts_fatal and result[1]:
                counters["sampling.fatal"] = counters.get("sampling.fatal", 0) + 1
            return result

        return wrapper


def _resolve(package: ModuleType, path: str) -> object:
    obj: object = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj
