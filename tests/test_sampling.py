"""Service/link sampling, the retransmit rule, and cycle plans."""

import random
import statistics

import pytest
from hypothesis import strategies as st

from conftest import make_dag
from dtpsim.pipeline import LinkDelayModel, ServiceTimeModel, canonical_candidates
from dtpsim.sampling import (
    CyclePlan,
    EdgePlan,
    StagePlan,
    build_cycle_plan,
    nominal_node_occupancy,
    quantize_us,
    sample_link,
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
    delay_us, fatal = traverse_edge(model, 1.0, ScriptedRandom())
    assert (delay_us, fatal) == (2000, False)


def test_traverse_edge_single_loss_waits_timeout_then_resends():
    model = LinkDelayModel(base_delay=2.0, loss_probability=0.3)
    rng = ScriptedRandom(uniform_values=[0.1, 0.9])
    delay_us, fatal = traverse_edge(model, 1.0, rng)
    # timeout of four nominal delays, then the successful second attempt
    assert (delay_us, fatal) == (8000 + 2000, False)


def test_traverse_edge_double_loss_is_fatal():
    model = LinkDelayModel(base_delay=2.0, loss_probability=0.3)
    rng = ScriptedRandom(uniform_values=[0.1, 0.2])
    assert traverse_edge(model, 1.0, rng) == (0, True)


def test_traverse_edge_scales_timeout_by_payload():
    model = LinkDelayModel(base_delay=2.0, loss_probability=0.3)
    rng = ScriptedRandom(uniform_values=[0.1, 0.9])
    delay_us, _ = traverse_edge(model, 3.0, rng)
    assert delay_us == quantize_us(4.0 * 2.0 * 3.0) + quantize_us(2.0 * 3.0)


def test_cycle_plan_skips_colocated_edges():
    dag = make_dag()
    plan = build_cycle_plan(dag, canonical_candidates(dag).by_name("LOC"))
    assert [e.link for e in plan.edges] == [None, ("R1", "R2"), None]


service_models = st.builds(
    ServiceTimeModel,
    mean=st.floats(0.0, 20.0),
    cv=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),  # zero-sd stages draw nothing
    floor_fraction=st.floats(0.0, 1.5),  # above ~1 - cv the floor binds often
)
link_models = st.builds(
    LinkDelayModel,
    base_delay=st.floats(0.0, 5.0),
    jitter_sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    loss_probability=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),  # 0.95: mostly fatal
)


@st.composite
def cycle_plans(draw):
    n = draw(st.integers(1, 5))
    stages = tuple(
        StagePlan(f"T{i}", "N", draw(service_models), f"svc:T{i}", draw(st.floats(0.25, 4.0)))
        for i in range(n)
    )
    edges = []
    for i in range(n - 1):
        scale = draw(st.floats(0.1, 5.0))
        if draw(st.booleans()):
            edges.append(EdgePlan(None, None, scale))
        else:
            edges.append(EdgePlan(("A", "B"), draw(link_models), scale, "lnk:A:B"))
    return CyclePlan(None, stages, tuple(edges))


def test_nominal_node_occupancy_sums_means():
    dag = make_dag()
    cands = canonical_candidates(dag)
    assert nominal_node_occupancy(dag, cands.by_name("LOC")) == {"R1": 12.0, "R2": 10.0}
    assert nominal_node_occupancy(dag, cands.by_name("SO")) == {"R1": 2.0, "E": 18.0, "R2": 2.0}
