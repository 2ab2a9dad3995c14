"""Keyed random streams: stability, independence, and stateless handles."""

import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from dtpsim.streams import (
    _GOLDEN,
    _MASK64,
    Draws,
    RandomStreams,
    WindowDraws,
    _mix64,
    derive_seed,
)


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


def test_a_new_handle_restarts_its_step_after_another_step_of_the_tag():
    streams = RandomStreams(11)
    rng = streams.at("a", 0)
    first = rng.random()
    streams.at("a", 1)
    # another step's handle leaves this one alone; a new handle of (a, 0) restarts
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


# (tag, step, draws): one at() call, then a run of gauss (True) and random
# (False) draws from the handle it returns
handle_calls = st.lists(
    st.tuples(
        st.sampled_from(["svc:T1", "svc:T2", "lnk:R1:E"]),
        st.integers(0, 3),
        st.lists(st.booleans(), max_size=8),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(master=st.integers(0, 2**64 - 1), calls=handle_calls)
def test_a_handle_replays_its_step_as_a_fresh_handle_draws_it(master, calls):
    # revisits of a step after drawing part of it, past what it drew, and
    # after another step of the tag all draw what a fresh handle of (tag, step) draws
    streams = RandomStreams(master)
    for tag, step, gausses in calls:
        handle = streams.at(tag, step)
        fresh = Draws(derive_seed(master, tag, step))
        for gauss in gausses:
            if gauss:
                assert handle.gauss(1.0, 0.5) == fresh.gauss(1.0, 0.5)
            else:
                assert handle.random() == fresh.random()


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_handles_of_one_tag_at_two_steps_each_draw_their_own_step(order):
    # both handles are taken before either draws, then drawn from in turn
    streams = RandomStreams(11)
    handles = {step: streams.at("svc:T1", step) for step in (0, 1)}
    drawn = {step: [] for step in (0, 1)}
    for step in order * 2:
        drawn[step].append(handles[step].random())
    for step in (0, 1):
        oracle = Draws(derive_seed(11, "svc:T1", step))
        assert drawn[step] == [oracle.random(), oracle.random()]


@settings(max_examples=100, deadline=None)
@given(
    key=st.integers(0, 2**64 - 1),
    n=st.integers(0, 10),
    rewinds=st.lists(st.integers(0, 12), max_size=4),
)
def test_a_handle_started_at_n_draws_from_index_n(key, n, rewinds):
    # Draws(key, n) is Draws(key) after n draws, and a rewind to any index,
    # below n included, draws what index draws
    whole = Draws(key)
    expected = [whole.random() for _ in range(16)]
    handle = Draws(key, n)
    assert [handle.random() for _ in range(4)] == expected[n : n + 4]
    for index in rewinds:
        handle.n = index
        assert [handle.random() for _ in range(4)] == expected[index : index + 4]


@settings(max_examples=150, deadline=None)
@given(
    master=st.integers(-(2**64), 2**65),
    start=st.integers(0, 2**40),
    count=st.integers(0, 130),
    tag=st.sampled_from(["svc:T1", "lnk:R1:E", ""]),
)
def test_window_draws_are_the_draws_of_each_step(master, start, count, tag):
    # one 128-bit lane per step: an empty window, W=1 and windows past a
    # 64-lane boundary all give, bit for bit, what at(tag, step) draws
    window = WindowDraws(master, start, start + count)
    streams = RandomStreams(master)
    keys = [streams.at(tag, step).key for step in range(start, start + count)]
    assert window.keys(tag) == keys
    draws = [[handle.random() for _ in range(6)] for handle in map(Draws, keys)]
    for n in range(6):
        column = window.integers(tag, n)
        assert all(0 <= m < 2**53 for m in column)
        assert [m * 2.0**-53 for m in column] == [d[n] for d in draws]
    normals = window.normals(tag)
    assert normals == [
        Draws(derive_seed(master, tag, step)).gauss(0.0, 1.0) for step in window.steps
    ]
    assert [1.5 + 0.25 * z for z in normals] == [Draws(key).gauss(1.5, 0.25) for key in keys]


@settings(max_examples=100, deadline=None)
@given(
    master=st.integers(0, 2**64),
    windows=st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 80)), min_size=1, max_size=6
    ),
)
def test_window_draws_read_and_fill_a_shared_normal_column(master, windows):
    # windows read in any order, overlapping or past the filled end, read
    # what a window of their own computes, and the column holds the normals
    # of every step from 0
    tag = "svc:T2"
    shared: dict = {}
    for start, count in windows:
        window = WindowDraws(master, start, start + count, shared)
        assert list(window.normals(tag)) == WindowDraws(master, start, start + count).normals(tag)
    filled = max(start + count for start, count in windows)
    column = shared[(master, tag)]
    assert column.typecode == "d"
    assert list(column) == WindowDraws(master, 0, filled).normals(tag)
    assert list(shared) == [(master, tag)]


@pytest.mark.parametrize("start, stop", [(-1, 4), (5, 4), (-3, -1)])
def test_window_draws_reject_steps_that_are_no_range_of_cycles(start, stop):
    with pytest.raises(ValueError, match="window steps"):
        WindowDraws(1, start, stop)
