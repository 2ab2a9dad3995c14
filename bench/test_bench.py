"""Self-check of the benchmark on a tiny horizon.

    python3 -m pytest bench/test_bench.py -q

Every workload, traced and untraced, must emit exactly the metrics that
BENCHMARK.json names, with their units; no run may fail or hash differently
between passes (the traced passes are compared with the untraced ones); and
every wrapped name must be back to its original afterwards, and every span
that a per-layer metric reads must record calls.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, PassResult, Sizes

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = Sizes(sweep_horizon=8, long_horizon=8, episode_horizon=8, episode_seeds=1,
             setup_repeats=1)


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace, capsys):
    result = run.run_workload(workload, seed=7, seconds=0, trace=bool(trace), sizes=TINY)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    captured = capsys.readouterr()
    assert "digest" in captured.out
    assert "no traced calls" not in captured.err

    dtpsim = run.import_dtpsim()
    for _, owner_path, attr in tracing.SITES:
        owner = tracing._resolve(dtpsim, owner_path)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), f"{owner_path}.{attr}"


def test_spans_without_calls_are_reported_missing():
    passes = run.Passes([PassResult(1.0, active_cycles=10, dtp_runs=1, digests={"run": "x"},
                                    write_s=0.1)])
    metrics, missing = run.layer_metrics(tracing.Tracer(), passes, passes, 0.01)
    assert missing == list(run.READ_SPANS)
    assert set(metrics) == set(run.PER_LAYER)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dtp-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
