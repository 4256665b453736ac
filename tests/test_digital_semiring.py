"""Digit-sum semiring: pinned values, axioms, induced order, parsing."""

import math
from random import Random

import pytest
from hypothesis import given, strategies as st

from twoside.digital import (
    INF,
    MAX_FINITE,
    W,
    digit_sum,
    order_key,
    value_from_json,
    value_to_json,
    w_add,
    w_leq,
    w_max_component,
    w_mul,
)

from helpers import random_digit_tie_pair, w_rank

finite = st.integers(min_value=0, max_value=10**12)
values = st.one_of(finite, st.just(INF))


def tie_pairs():
    rng = Random(0xD16)
    return [random_digit_tie_pair(rng) for _ in range(300)]


# -- pinned scalar cases -------------------------------------------------------


def test_digit_sum_pinned():
    assert digit_sum(123) == 6
    assert digit_sum(0) == 0
    assert digit_sum(INF) == INF
    assert digit_sum(19) == 10
    assert digit_sum(5) == 5


def test_digit_sum_cache_is_bounded():
    for v in range(10**15, 10**15 + 5000):
        assert digit_sum(v) == sum(map(int, str(v)))
        order_key(v)
    info = order_key.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_digit_sum_rejects_negative_values():
    with pytest.raises(ValueError):
        digit_sum(-1)


# -- the order key ---------------------------------------------------------------

tie_pairs_drawn = st.integers(0, 2**32).map(lambda seed: random_digit_tie_pair(Random(seed)))


@given(
    st.lists(st.integers(min_value=0, max_value=MAX_FINITE), max_size=30),
    st.lists(tie_pairs_drawn, max_size=10),
)
def test_order_key_sorts_as_the_oracle(vs, pairs):
    vs += [0, MAX_FINITE, INF, *(v for pair in pairs for v in pair)]
    assert sorted(vs, key=order_key) == sorted(vs, key=w_rank)


@given(st.integers(min_value=0, max_value=MAX_FINITE))
def test_digit_sum_matches_the_digit_loop(v):
    assert digit_sum(v) == sum(map(int, str(v)))


def test_order_key_pinned():
    assert order_key(0) == 0
    assert order_key(19) == 10 << 64 | 19
    assert order_key(MAX_FINITE) == digit_sum(MAX_FINITE) << 64 | MAX_FINITE
    assert order_key(INF) == INF


@pytest.mark.parametrize("v", [-1, MAX_FINITE + 1, -(2**70), 2**80])
def test_order_key_rejects_values_outside_w(v):
    before = order_key.cache_info().currsize
    with pytest.raises(ValueError):
        order_key(v)
    assert order_key.cache_info().currsize == before


def test_digit_sum_positive_for_positive_values():
    for v in (1, 9, 10, 100, 12345):
        assert digit_sum(v) > 0


def test_add_pinned():
    assert w_add(19, 5) == 19
    assert w_add(23, 41) == 41  # digit-sum tie at 5, numeric max
    assert w_add(0, 7) == 7
    assert w_add(INF, 7) == INF


def test_mul_pinned():
    assert w_mul(19, 5) == 5
    assert w_mul(23, 41) == 23  # digit-sum tie, numeric min
    assert w_mul(7, INF) == 7
    assert w_mul(0, 7) == 0


def test_leq_pinned():
    assert w_leq(5, 19)
    assert not w_leq(28, 19)  # tie at 10, 28 > 19
    assert w_leq(19, INF)
    assert w_leq(INF, INF)
    assert not w_leq(INF, 10**15)


# -- axioms ---------------------------------------------------------------------


@given(values, values)
def test_selection_closure(a, b):
    assert w_add(a, b) in (a, b)
    assert w_mul(a, b) in (a, b)


@given(values)
def test_idempotency(a):
    assert w_add(a, a) == a
    assert w_mul(a, a) == a


@given(values, values)
def test_commutativity(a, b):
    assert w_add(a, b) == w_add(b, a)
    assert w_mul(a, b) == w_mul(b, a)


@given(values, values, values)
def test_associativity(a, b, c):
    assert w_add(w_add(a, b), c) == w_add(a, w_add(b, c))
    assert w_mul(w_mul(a, b), c) == w_mul(a, w_mul(b, c))


def test_associativity_on_forced_ties():
    # triples where all three digit sums collide, the worst case for the
    # tie-breaking rules
    rng = Random(0xACE)
    for _ in range(400):
        a, b = random_digit_tie_pair(rng)
        c0 = str(a) + "0" * rng.randrange(3)
        c = int("".join(sorted(c0, reverse=True)))
        assert digit_sum(a) == digit_sum(b) == digit_sum(c)
        assert w_add(w_add(a, b), c) == w_add(a, w_add(b, c))
        assert w_mul(w_mul(a, b), c) == w_mul(a, w_mul(b, c))


@given(values, values, values)
def test_distributivity(a, b, c):
    assert w_mul(a, w_add(b, c)) == w_add(w_mul(a, b), w_mul(a, c))


@given(values)
def test_identities(a):
    assert w_add(0, a) == a
    assert w_mul(INF, a) == a
    assert w_mul(0, a) == 0
    assert w_add(INF, a) == INF


@given(values, values)
def test_product_is_lower_bound(a, b):
    assert w_leq(w_mul(a, b), a)
    assert w_leq(w_mul(a, b), b)


@given(values, values)
def test_leq_matches_additive_definition(a, b):
    assert w_leq(a, b) == (w_add(a, b) == b)


@given(values, values, values)
def test_leq_is_partial_order(a, b, c):
    assert w_leq(a, a)
    if w_leq(a, b) and w_leq(b, a):
        assert a == b
    if w_leq(a, b) and w_leq(b, c):
        assert w_leq(a, c)


def test_ties_resolve_consistently():
    for a, b in tie_pairs():
        assert w_add(a, b) == max(a, b)
        assert w_mul(a, b) == min(a, b)
        assert w_leq(a, b) == (a <= b)


def test_semiring_record():
    assert W.zero == 0
    assert W.one == INF
    assert "digital" in repr(W)


@given(values, values, values)
def test_max_component_is_greatest_feasible(h, y, probe):
    x = w_max_component(h, y)
    # the returned bound itself is feasible
    assert w_add(w_mul(x, h), y) == y
    # and dominates every feasible probe
    if w_add(w_mul(probe, h), y) == y:
        assert w_leq(probe, x)


# -- JSON ---------------------------------------------------------------------


@given(values)
def test_json_round_trip(a):
    assert value_from_json(value_to_json(a)) == a


def test_json_forms():
    assert value_to_json(INF) == "inf"
    assert value_to_json(7) == 7
    assert value_from_json("inf") == INF
    with pytest.raises(ValueError):
        value_from_json(True)
    with pytest.raises(ValueError):
        value_from_json(-1)
    with pytest.raises(ValueError):
        value_from_json(math.pi)
