"""Acceptance gate: end-to-end behavior of the shipped configuration.

Every test prints one [PASS]/[FAIL] line (run pytest with -s to see them
even on success).  The first four criteria share one expensive fixture
that runs all shipped scenarios across their ten seeds.
"""

import copy
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dtpsim.cost import ScoredCandidate, select_placement, switching_penalty
from dtpsim.estimator import EstimateReport, estimate_static
from dtpsim.harness import (
    build_dag,
    fault_windows,
    load_config,
    post_convergence_windows,
    run_scenario,
)
from dtpsim.metrics import WindowMetrics, percentile_nearest_rank
from dtpsim.pipeline import canonical_candidates, nominal_latency
from dtpsim.simulation import SimConfig, run_horizon, run_simulation


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def shipped():
    return load_config(None)


@pytest.fixture(scope="module")
def scenario_data(shipped):
    """All shipped scenarios, shipped policies, shipped ten seeds."""
    data = {}
    for name, spec in shipped.scenarios.items():
        start = time.perf_counter()
        [report] = run_scenario(shipped, [spec])
        data[name] = SimpleNamespace(
            spec=spec, report=report, elapsed=time.perf_counter() - start
        )
    return data


def occupancy_share(run, names):
    windows = post_convergence_windows(run.summary)
    if not windows:
        return 0.0
    placements = run.window_placements
    return sum(1 for k in windows if placements[k - 1] in names) / len(windows)


def windowed_violation(run, windows):
    rates = [run.window_violations[k - 1] for k in windows]
    return sum(rates) / len(rates)


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def seeds_reaching(runs, names, fraction):
    return sum(1 for run in runs if occupancy_share(run, names) >= fraction)


def zeroed_dag(shipped):
    raw = copy.deepcopy(shipped.raw["dag"])
    for task in raw["tasks"]:
        for model in task["service"].values():
            model["cv"] = 0.0
    for link in raw["links"]:
        link["jitter_sigma"] = 0.0
    return build_dag(raw)


def test_criterion_01_robot_stress_offloads_to_edge(scenario_data):
    data = scenario_data["robot-stress"]
    dtp = data.report.results["DTP"]
    hit = seeds_reaching(dtp, {"SO"}, 0.7)
    loc_vd = mean(r.summary["violation_rate"] for r in data.report.results["LOC"])
    post = mean(
        windowed_violation(r, post_convergence_windows(r.summary)) for r in dtp
    )
    ok = (
        hit >= 8
        and loc_vd > 0.40
        and post <= 0.05
        and data.elapsed <= 30.0
    )
    verdict(
        1,
        ok,
        f"robot-stress: SO occupancy >= 0.7 in {hit}/10 seeds (need 8), "
        f"LOC violation rate {loc_vd:.4f} (> 0.40), DTP post-convergence "
        f"violation {post:.4f} (<= 0.05), scenario runtime {data.elapsed:.1f} s "
        f"(<= 30 s)",
    )


def test_criterion_02_network_impairment_returns_local(scenario_data):
    data = scenario_data["network-impairment"]
    dtp = data.report.results["DTP"]
    hit = seeds_reaching(dtp, {"LOC"}, 0.7)
    windows = fault_windows(data.spec)
    so_vd = mean(windowed_violation(r, windows) for r in data.report.results["SO"])
    dtp_vd = mean(windowed_violation(r, windows) for r in dtp)
    ok = hit >= 8 and so_vd >= 5.0 * dtp_vd
    ratio = so_vd / dtp_vd if dtp_vd else math.inf
    verdict(
        2,
        ok,
        f"network-impairment: LOC occupancy >= 0.7 in {hit}/10 seeds (need 8), "
        f"static SO violation {so_vd:.4f} vs DTP {dtp_vd:.4f} during the fault "
        f"({ratio:.1f}x, need 5x)",
    )


def test_criterion_03_baseline_holds_and_never_chatters(scenario_data, shipped):
    data = scenario_data["baseline"]
    dtp = data.report.results["DTP"]
    hit = sum(
        1
        for run in dtp
        if occupancy_share(run, {"LOC"}) >= 0.6 and occupancy_share(run, {"SO"}) == 0.0
    )
    n_min = shipped.controller_config().n_min
    worst = []
    bound_ok = True
    for name, scenario in scenario_data.items():
        for run in scenario.report.results["DTP"]:
            horizon = len(run.window_placements)
            bound = math.ceil(horizon / (n_min + 1))
            migrations = run.summary["migrations"]
            changes = sum(
                1
                for a, b in zip(run.window_placements, run.window_placements[1:])
                if a != b
            )
            if migrations != changes or migrations > bound:
                bound_ok = False
            worst.append(migrations)
    ok = hit >= 8 and bound_ok
    verdict(
        3,
        ok,
        f"baseline: LOC occupancy >= 0.6 with zero SO windows in {hit}/10 seeds "
        f"(need 8); every DTP run across all scenarios migrated at most "
        f"ceil(K/(n_min+1)) times (max seen {max(worst)}, bound "
        f"{math.ceil(200 / (n_min + 1))})",
    )


def test_criterion_04_edge_stress_avoids_the_edge(scenario_data):
    data = scenario_data["edge-stress"]
    hit = seeds_reaching(data.report.results["DTP"], {"LOC", "HYB"}, 0.7)
    verdict(
        4,
        hit >= 8,
        f"edge-stress: LOC+HYB occupancy >= 0.7 in {hit}/10 seeds (need 8)",
    )


def random_environment(rng, names, horizon):
    table = []
    for k in range(1, horizon + 1):
        row = {}
        for name in names:
            metrics = WindowMetrics(
                l95=rng.uniform(10.0, 60.0),
                violation_rate=rng.uniform(0.0, 0.4),
                util_robot=rng.uniform(0.0, 0.9),
                util_edge=rng.uniform(0.0, 0.9),
            )
            per_node = {n: rng.uniform(0.0, 0.99) for n in ("R1", "R2", "E")}
            row[name] = (metrics, per_node)
        table.append(row)

    def environment(k, current):
        row = table[k - 1]
        estimates = {
            name: EstimateReport(
                placement=name,
                metrics=row[name][0],
                per_node_utilization=row[name][1],
                sample_count=500,
                mechanism="static",
            )
            for name in names
        }
        return (*row[current.name], estimates)

    return environment


def test_criterion_05_dwell_time_bounds_hold_everywhere(shipped):
    rng = random.Random(20260814)
    names = shipped.candidates.names()
    horizon = 16
    total_migrations = 0
    for trial in range(1000):
        n_min = rng.choice((0, 1, 2, 3))
        delta_min = rng.choice((0.0, 0.05, 0.2))
        environment = random_environment(rng, names, horizon)
        config = shipped.controller_config(
            {"n_min": n_min, "delta_min": delta_min,
             "initial_placement": rng.choice(names)}
        )
        decisions = run_horizon(config, environment, horizon)
        moves = [d.window_index for d in decisions if d.action == "migrate"]
        total_migrations += len(moves)
        assert len(moves) <= math.ceil(horizon / (n_min + 1)), (trial, n_min, moves)
        for a, b in zip(moves, moves[1:]):
            assert b - a >= n_min + 1, (trial, n_min, moves)
        frozen = shipped.controller_config(
            {"n_min": n_min, "delta_min": float("inf")}
        )
        assert all(
            d.action == "hold" for d in run_horizon(frozen, environment, horizon)
        ), trial
    verdict(
        5,
        True,
        f"1000 randomized environments: migration spacing >= n_min+1 and count "
        f"<= ceil(K/(n_min+1)) always; delta_min=inf froze every run "
        f"({total_migrations} migrations exercised)",
    )


def brute_force_selection(scored, constraints, incumbent):
    incumbent_assignment = next(
        c.placement.assignment for c in scored if c.placement.name == incumbent
    )
    pool = [
        candidate
        for candidate in scored
        if candidate.metrics.l95 <= constraints.l95_max
        and all(u <= constraints.util_max for u in candidate.per_node_utilization.values())
    ]
    feasible = bool(pool)
    if not pool:
        pool = list(scored)
    best = None
    best_key = None
    for order, candidate in enumerate(pool):
        assignment = candidate.placement.assignment
        moved = sum(
            1 for t in assignment if assignment[t] != incumbent_assignment[t]
        ) / len(assignment)
        key = (
            candidate.cost,
            0 if candidate.placement.name == incumbent else 1,
            moved,
            order,
        )
        if best is None or key < best_key:
            best, best_key = candidate, key
    return best, feasible


def test_criterion_06_selection_matches_brute_force(shipped):
    placements = {name: shipped.candidates.by_name(name) for name in ("LOC", "SO", "HYB")}
    expected_switch = {
        ("LOC", "LOC"): 0.0, ("LOC", "SO"): 0.5, ("LOC", "HYB"): 0.25,
        ("SO", "LOC"): 0.5, ("SO", "SO"): 0.0, ("SO", "HYB"): 0.25,
        ("HYB", "LOC"): 0.25, ("HYB", "SO"): 0.25, ("HYB", "HYB"): 0.0,
    }
    for (a, b), value in expected_switch.items():
        assert switching_penalty(placements[a], placements[b]) == value

    rng = random.Random(4242)
    constraints = shipped.constraints
    cost_menu = (0.6, 0.8, 0.8, 1.0, 1.0, 1.2)
    l95_menu = (20.0, 35.0, 39.0, 41.0, 50.0)
    util_menu = (0.2, 0.5, 0.94, 0.97)
    ties = 0
    for trial in range(10_000):
        scored = []
        forced = trial % 10 == 0
        for name in ("LOC", "SO", "HYB"):
            scored.append(
                ScoredCandidate(
                    placement=placements[name],
                    metrics=WindowMetrics(rng.choice(l95_menu), 0.0, 0.0, 0.0),
                    per_node_utilization={
                        node: rng.choice(util_menu) for node in ("R1", "R2", "E")
                    },
                    cost=1.0 if forced else rng.choice(cost_menu),
                )
            )
        incumbent = rng.choice(("LOC", "SO", "HYB"))
        got, got_flag = select_placement(scored, constraints, incumbent)
        want, want_flag = brute_force_selection(scored, constraints, incumbent)
        assert got.placement.name == want.placement.name, (trial, incumbent)
        assert got_flag == want_flag, (trial, incumbent)
        costs = [c.cost for c in scored]
        if costs.count(min(costs)) > 1:
            ties += 1
    verdict(
        6,
        True,
        f"select_placement agreed with brute force on 10000 random inputs "
        f"({ties} with tied minimum cost) and the 3x3 switching table is exact",
    )


def test_criterion_07_percentile_matches_full_sort():
    rng = random.Random(99)
    fractions = (0.05, 0.5, 0.9, 0.95, 0.99, 1.0)
    for trial in range(10_000):
        n = rng.randint(1, 60)
        samples = [round(rng.uniform(0.0, 100.0), 1) for _ in range(n)]
        p = rng.choice(fractions)
        rank = math.ceil(Fraction(str(p)) * n)
        expected = sorted(samples)[max(rank, 1) - 1]
        assert percentile_nearest_rank(samples, p) == expected, (trial, p, n)
    verdict(
        7,
        True,
        "nearest-rank percentile matched the exact full-sort oracle on 10000 "
        "random lists across six fractions",
    )


def test_criterion_08_deterministic_limit_is_exact(shipped):
    dag = zeroed_dag(shipped)
    sim = SimConfig(period=40.0, deadline=40.0, horizon=2, seed=7)
    mismatches = []
    for placement in canonical_candidates(dag):
        expected = nominal_latency(dag, placement)
        trace = run_simulation(
            dag, shipped.fabric, sim, shipped.controller_config(), fixed=placement.name
        )
        if any(us / 1000.0 != expected for us in trace.cycles.latency_us):
            mismatches.append(placement.name)
        assert trace.summary["l95_latency_ms"] == expected
        assert trace.summary["violation_rate"] == 0.0
    verdict(
        8,
        not mismatches,
        "with variance zeroed every simulated latency equals the closed-form "
        "nominal for LOC, SO, and HYB",
    )


def test_criterion_09_reruns_are_byte_identical(shipped, tmp_path):
    # the shipped policy set, so the DTP run reads its cycles from the fixed runs
    spec = shipped.scenarios["baseline"]
    for sub in ("a", "b"):
        run_scenario(shipped, [spec], seeds=[1], outdir=tmp_path / sub)

    def files(sub):
        root = tmp_path / sub
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    written = files("a")
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in written]
    verdict(
        9,
        len(written) == 3 + 3 + 4 and written == files("b") and all(same),
        "rerunning baseline seed 1 under LOC, SO and DTP reproduced cycles.csv, "
        "windows.csv, summary.json, and DTP's decisions.jsonl byte for byte",
    )


def test_criterion_10_static_estimator_is_calibrated(shipped):
    exact = zeroed_dag(shipped)
    for placement in canonical_candidates(exact):
        report = estimate_static(
            exact, placement, shipped.fabric,
            deadline=40.0, period=40.0, samples=200, rng=random.Random(1),
        )
        assert report.metrics.l95 == nominal_latency(exact, placement)
        assert report.metrics.violation_rate == 0.0

    worst = 0.0
    for placement in shipped.candidates:
        estimates = [
            estimate_static(
                shipped.dag, placement, shipped.fabric,
                deadline=40.0, period=40.0, samples=10_000, rng=random.Random(seed),
            ).metrics.l95
            for seed in (11, 97)
        ]
        rel = abs(estimates[0] - estimates[1]) / max(estimates)
        worst = max(worst, rel)
    verdict(
        10,
        worst < 0.05,
        f"degenerate static estimates equal the nominal latency exactly and "
        f"10000-sample l95 differs by {worst:.3%} across seeds (< 5%)",
    )
