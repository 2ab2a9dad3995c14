"""Keyed random streams: stability, independence, and cache semantics."""

import random
import statistics

from dtpsim.streams import _GOLDEN, _MASK64, RandomStreams, _mix64, derive_seed


def test_derive_seed_is_deterministic():
    a = derive_seed(42, "svc:T1", step=7)
    b = derive_seed(42, "svc:T1", step=7)
    assert a == b


def test_derive_seed_separates_tags_and_steps():
    seeds = {
        derive_seed(42, tag, step)
        for tag in ("svc:T1", "svc:T2", "lnk:R1:E")
        for step in range(50)
    }
    assert len(seeds) == 150


def test_derive_seed_does_not_depend_on_process_state():
    # the tag must hash identically in every interpreter run, so the
    # value can be pinned here once and forever
    assert derive_seed(1, "svc:T1", 0) == derive_seed(1, "svc" + ":T1", 0)
    assert derive_seed(1, "svc:T1", 0) != derive_seed(2, "svc:T1", 0)


def test_same_key_reproduces_draw_sequence():
    draws1 = [RandomStreams(9).at("x", i).random() for i in range(20)]
    draws2 = [RandomStreams(9).at("x", i).random() for i in range(20)]
    assert draws1 == draws2


def test_streams_allow_random_access_order():
    streams = RandomStreams(5)
    forward = [streams.at("svc:T2", i).gauss(10.0, 2.0) for i in range(10)]
    streams2 = RandomStreams(5)
    backward = [streams2.at("svc:T2", i).gauss(10.0, 2.0) for i in reversed(range(10))]
    assert forward == list(reversed(backward))


def test_at_handle_is_invalidated_by_next_at():
    streams = RandomStreams(11)
    rng = streams.at("a", 0)
    first = rng.random()
    streams.at("a", 1)
    # the handle was re-keyed in place; a fresh lookup of (a, 0) restarts
    assert streams.at("a", 0).random() == first


def test_fresh_stream_is_isolated():
    streams = RandomStreams(3)
    fresh = streams.fresh("static:LOC")
    assert isinstance(fresh, random.Random)
    before = streams.at("x", 0).random()
    fresh.random()
    streams2 = RandomStreams(3)
    assert streams2.at("x", 0).random() == before


def test_different_master_seeds_differ():
    a = RandomStreams(1).at("svc:T1", 0).random()
    b = RandomStreams(2).at("svc:T1", 0).random()
    assert a != b


def test_handle_key_is_the_derived_seed():
    streams = RandomStreams(42)
    for tag in ("svc:T1", "lnk:R1:E"):
        for step in (0, 1, 999, 2**40):
            assert streams.at(tag, step).key == derive_seed(42, tag, step)


def test_first_draw_is_pinned():
    # draw n is the top 53 bits of _mix64(key ^ n * golden); pinned so an
    # accidental change to the generator cannot pass unnoticed
    handle = RandomStreams(1).at("svc:T1", 0)
    key = derive_seed(1, "svc:T1", 0)
    assert key == 8110038112902461214
    assert handle.random() == 0.8732488738768551 == (_mix64(key) >> 11) / 2**53
    assert handle.random() == (_mix64(key ^ (_GOLDEN & _MASK64)) >> 11) / 2**53


def test_uniforms_lie_in_unit_interval():
    streams = RandomStreams(8)
    draws = [streams.at("u", step).random() for step in range(5000)]
    handle = streams.at("u", 0)
    draws += [handle.random() for _ in range(5000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.48 < statistics.fmean(draws) < 0.52


def test_gauss_mean_and_variance():
    streams = RandomStreams(13)
    draws = [streams.at("svc:T2", step).gauss(10.0, 2.0) for step in range(20_000)]
    # standard errors: mean 2/sqrt(n) = 0.014, variance 4*sqrt(2/n) = 0.04
    assert abs(statistics.fmean(draws) - 10.0) < 0.06
    assert abs(statistics.variance(draws) - 4.0) < 0.16


def test_extra_draws_leave_other_tags_and_steps_unchanged():
    def sample(extra_tag, extra_step, extra):
        streams = RandomStreams(21)
        out = {}
        for step in range(5):
            for tag in ("svc:T1", "lnk:R1:E", "svc:T3"):
                handle = streams.at(tag, step)
                out[(tag, step)] = (handle.random(), handle.gauss(1.0, 0.5))
                if (tag, step) == (extra_tag, extra_step):
                    for _ in range(extra):
                        handle.gauss(0.0, 1.0)
        return out

    plain = sample(None, None, 0)
    assert sample("lnk:R1:E", 2, 7) == plain
    assert sample("svc:T1", 0, 100) == plain
