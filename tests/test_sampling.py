"""Service/link sampling, the retransmit rule, and cycle plans."""

import random
import statistics

import pytest

from conftest import make_dag
from dtpsim.pipeline import LinkDelayModel, ServiceTimeModel, canonical_candidates
from dtpsim.sampling import (
    build_cycle_plan,
    nominal_node_occupancy,
    quantize_us,
    sample_link,
    sample_plan_latency,
    sample_service,
    traverse_edge,
)


class ScriptedRandom(random.Random):
    """Deterministic stand-in: gauss pops from one script, random from another."""

    def __init__(self, gauss_values=(), uniform_values=()):
        super().__init__(0)
        self._gauss = list(gauss_values)
        self._uniform = list(uniform_values)

    def gauss(self, mu, sigma):
        return self._gauss.pop(0) if self._gauss else mu

    def random(self):
        return self._uniform.pop(0) if self._uniform else 0.999


def test_quantize_us_rounds_to_grid():
    assert quantize_us(1.0) == 1000
    assert quantize_us(0.0) == 0
    assert quantize_us(1.2345, resolution_us=10) == 1230
    assert quantize_us(23.0, resolution_us=100) == 23000


def test_sample_service_exact_at_zero_cv():
    model = ServiceTimeModel(mean=10.0, cv=0.0)
    assert sample_service(model, random.Random(1)) == 10.0


def test_sample_service_slowdown_multiplies():
    model = ServiceTimeModel(mean=10.0, cv=0.0)
    assert sample_service(model, random.Random(1), slowdown=3.0) == 30.0


def test_sample_service_floor_applies_before_slowdown():
    model = ServiceTimeModel(mean=10.0, cv=0.5)
    rng = ScriptedRandom(gauss_values=[-3.0])
    assert sample_service(model, rng, slowdown=2.0) == pytest.approx(0.2)


def test_sample_link_deterministic_limit():
    model = LinkDelayModel(base_delay=1.0, jitter_sigma=0.0, loss_probability=0.0)
    delay, lost = sample_link(model, random.Random(7))
    assert (delay, lost) == (1.0, False)


def test_sample_link_certain_loss():
    model = LinkDelayModel(base_delay=1.0, loss_probability=0.999999999)
    rng = random.Random(7)
    assert all(sample_link(model, rng)[1] for _ in range(100))


def test_sample_link_negative_jitter_clamps_to_zero():
    model = LinkDelayModel(base_delay=1.0, jitter_sigma=0.5)
    rng = ScriptedRandom(gauss_values=[-2.0])
    delay, _ = sample_link(model, rng)
    assert delay == 0.0


def test_sample_link_matches_configured_distribution():
    model = LinkDelayModel(base_delay=25.0, jitter_sigma=5.0)
    rng = random.Random(1234)
    draws = [sample_link(model, rng)[0] for _ in range(100_000)]
    assert statistics.fmean(draws) == pytest.approx(25.0, abs=0.1)
    assert statistics.stdev(draws) == pytest.approx(5.0, abs=0.1)


def test_traverse_edge_without_loss():
    model = LinkDelayModel(base_delay=2.0)
    delay_us, fatal = traverse_edge(model, 1.0, ScriptedRandom(), 1)
    assert (delay_us, fatal) == (2000, False)


def test_traverse_edge_single_loss_waits_timeout_then_resends():
    model = LinkDelayModel(base_delay=2.0, loss_probability=0.3)
    rng = ScriptedRandom(uniform_values=[0.1, 0.9])
    delay_us, fatal = traverse_edge(model, 1.0, rng, 1)
    # timeout of four nominal delays, then the successful second attempt
    assert (delay_us, fatal) == (8000 + 2000, False)


def test_traverse_edge_double_loss_is_fatal():
    model = LinkDelayModel(base_delay=2.0, loss_probability=0.3)
    rng = ScriptedRandom(uniform_values=[0.1, 0.2])
    assert traverse_edge(model, 1.0, rng, 1) == (0, True)


def test_traverse_edge_scales_timeout_by_payload():
    model = LinkDelayModel(base_delay=2.0, loss_probability=0.3, payload_scale=2.0)
    rng = ScriptedRandom(uniform_values=[0.1, 0.9])
    delay_us, _ = traverse_edge(model, 1.5, rng, 1)
    assert delay_us == quantize_us(4.0 * 2.0 * 2.0 * 1.5) + quantize_us(2.0 * 2.0 * 1.5)


def test_cycle_plan_skips_colocated_edges():
    dag = make_dag()
    plan = build_cycle_plan(dag, canonical_candidates(dag).by_name("LOC"))
    assert [e.link for e in plan.edges] == [None, ("R1", "R2"), None]


def test_plan_latency_deterministic_chain():
    dag = make_dag()
    plan = build_cycle_plan(dag, canonical_candidates(dag).by_name("LOC"))
    latency_us, violated = sample_plan_latency(plan, random.Random(3), 30_000, 50_000)
    assert (latency_us, violated) == (23_000, False)
    latency_us, violated = sample_plan_latency(plan, random.Random(3), 20_000, 50_000)
    assert (latency_us, violated) == (23_000, True)


def test_plan_latency_caps_at_period_on_double_loss():
    dag = make_dag(loss=0.999999999)
    plan = build_cycle_plan(dag, canonical_candidates(dag).by_name("SO"))
    latency_us, violated = sample_plan_latency(plan, random.Random(5), 30_000, 50_000)
    assert (latency_us, violated) == (50_000, True)


def test_nominal_node_occupancy_sums_means():
    dag = make_dag()
    cands = canonical_candidates(dag)
    assert nominal_node_occupancy(dag, cands.by_name("LOC")) == {"R1": 12.0, "R2": 10.0}
    assert nominal_node_occupancy(dag, cands.by_name("SO")) == {"R1": 2.0, "E": 18.0, "R2": 2.0}
