"""Matrix and circulant layer over a pluggable semiring."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from twoside.digital import INF, W, value_to_json, values_from_json
from twoside.matrices import (
    Circulant,
    SemiringMatrix,
    circulant_from_json,
    circulant_generators,
    circulant_to_json,
    flatten_two_sided,
    matrix_from_json,
    matrix_to_json,
)

from helpers import BOOL_OR_AND, identity, mat_rows, naive_mat_mul, zeros

w_values = st.one_of(st.integers(min_value=0, max_value=10**6), st.just(INF))


def w_matrix(n):
    return st.lists(
        st.lists(w_values, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: SemiringMatrix(W, rows))


# -- pinned cases ----------------------------------------------------------------


def test_add_pinned():
    a = SemiringMatrix(W, [[19, 5], [7, 2]])
    b = SemiringMatrix(W, [[5, 19], [2, 7]])
    assert mat_rows(a + b) == [[19, 19], [7, 7]]


def test_add_identity_and_idempotency():
    a = SemiringMatrix(W, [[19, 5], [7, 2]])
    assert a + a == a
    assert a + zeros(W, 2) == a


def test_mul_identity():
    a = SemiringMatrix(W, [[19, 5], [7, 2]])
    i = identity(W, 2)
    assert mat_rows(i) == [[INF, 0], [0, INF]]
    assert a @ i == a
    assert i @ a == a


def test_mul_1x1():
    a = SemiringMatrix(W, [[23]])
    b = SemiringMatrix(W, [[41]])
    assert mat_rows(a @ b) == [[23]]


def test_scale_pinned():
    a = SemiringMatrix(W, [[19, 2], [2, 19]])
    assert mat_rows(a.scale(5)) == [[5, 2], [2, 5]]
    assert a.scale(W.one) == a
    assert a.scale(W.zero) == zeros(W, 2)


def test_circulant_expand_pinned():
    assert mat_rows(Circulant(W, (7,)).expand()) == [[7]]
    a, b, c = 19, 5, 28
    assert mat_rows(Circulant(W, (a, b)).expand()) == [[a, b], [b, a]]
    assert mat_rows(Circulant(W, (a, b, c)).expand()) == [
        [a, c, b],
        [b, a, c],
        [c, b, a],
    ]


def test_generators_pinned():
    (g,) = circulant_generators(W, 1)
    assert mat_rows(g) == [[INF]]
    g1, g2 = circulant_generators(W, 2)
    assert mat_rows(g1) == [[INF, 0], [0, INF]]
    assert mat_rows(g2) == [[0, INF], [INF, 0]]


# -- properties ---------------------------------------------------------------


@settings(max_examples=60)
@given(w_matrix(3), w_matrix(3))
def test_mul_matches_naive_oracle(a, b):
    assert mat_rows(a @ b) == naive_mat_mul(W, mat_rows(a), mat_rows(b))


@settings(max_examples=40)
@given(w_matrix(2), w_matrix(2), w_matrix(2))
def test_matrix_semiring_axioms_2x2(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + a == a
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    assert (a + b) @ c == a @ c + b @ c


@settings(max_examples=20)
@given(w_matrix(3), w_matrix(3), w_matrix(3))
def test_matrix_semiring_axioms_3x3(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c


def test_matrix_axioms_exhaustive_over_bool():
    # every pair of 2x2 boolean matrices, an exhaustive cross-check of the
    # generic layer with a second semiring
    mats = [
        SemiringMatrix(BOOL_OR_AND, [[a, b], [c, d]])
        for a, b, c, d in itertools.product((False, True), repeat=4)
    ]
    i = identity(BOOL_OR_AND, 2)
    for a in mats:
        assert a @ i == a and i @ a == a
        for b in mats:
            assert a @ b == SemiringMatrix(
                BOOL_OR_AND, naive_mat_mul(BOOL_OR_AND, mat_rows(a), mat_rows(b))
            )


def test_circulant_commutativity_and_closure():
    rng = Random(0xC1)
    for _ in range(150):
        n = rng.randrange(1, 9)
        a = Circulant(W, tuple(rng.randrange(10**6) for _ in range(n))).expand()
        b = Circulant(W, tuple(rng.randrange(10**6) for _ in range(n))).expand()
        ab = a @ b
        assert ab == b @ a
        # closure: the product is itself circulant: every column is the
        # cyclic shift of the first
        col0 = [ab.rows[i][0] for i in range(n)]
        for j in range(n):
            for i in range(n):
                assert ab.rows[i][j] == col0[(i - j) % n]
        assert a + b == b + a


def test_generator_decomposition():
    rng = Random(0xC2)
    for _ in range(100):
        n = rng.randrange(1, 7)
        coeffs = tuple(rng.choice([0, 3, 19, 28, 10**6, INF]) for _ in range(n))
        gens = circulant_generators(W, n)
        acc = gens[0].scale(coeffs[0])
        for z, g in zip(coeffs[1:], gens[1:]):
            acc = acc + g.scale(z)
        assert acc == Circulant(W, coeffs).expand()


def test_flatten_two_sided_1x1():
    m = SemiringMatrix(W, [[23]])
    gens = circulant_generators(W, 1)
    columns, pairs = flatten_two_sided(m, gens, gens)
    assert pairs == ((0, 0),)
    assert columns == ((23,),)


def test_flatten_two_sided_identity_generators():
    m = SemiringMatrix(W, [[19, 5], [7, 2]])
    i = identity(W, 2)
    columns, pairs = flatten_two_sided(m, (i,), (i,))
    assert columns == (m.flat(),)
    assert pairs == ((0, 0),)


def test_flatten_two_sided_matches_direct_products():
    rng = Random(0xC3)
    m = SemiringMatrix(W, [[rng.randrange(10**6) for _ in range(2)] for _ in range(2)])
    gens = circulant_generators(W, 2)
    columns, pairs = flatten_two_sided(m, gens, gens)
    assert len(columns) == 4 and len(pairs) == 4
    for col, (i, j) in zip(columns, pairs):
        direct = SemiringMatrix(
            W,
            naive_mat_mul(
                W, naive_mat_mul(W, mat_rows(gens[i]), mat_rows(m)), mat_rows(gens[j])
            ),
        )
        assert col == direct.flat()
    # row-major pair order
    assert pairs == ((0, 0), (0, 1), (1, 0), (1, 1))


# -- validation and serialization --------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        SemiringMatrix(W, [[1, 2], [3]])
    with pytest.raises(ValueError):
        SemiringMatrix(W, [])
    with pytest.raises(ValueError):
        SemiringMatrix(W, [[1, 2, 3], [4, 5, 6]])


def test_dimension_mismatch():
    a = SemiringMatrix(W, [[1]])
    b = SemiringMatrix(W, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        SemiringMatrix(BOOL_OR_AND, [[True]]) + SemiringMatrix(W, [[1]])


def test_matrix_json_round_trip():
    a = SemiringMatrix(W, [[19, INF], [0, 2]])
    obj = matrix_to_json(a, value_to_json)
    assert obj == {"n": 2, "rows": [[19, "inf"], [0, 2]]}
    assert matrix_from_json(obj, W, values_from_json) == a
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "rows": [[1, 2]]}, W, values_from_json)


def test_circulant_json_round_trip():
    c = Circulant(W, (19, INF, 0))
    obj = circulant_to_json(c, value_to_json)
    assert obj == {"n": 3, "c": [19, "inf", 0]}
    assert circulant_from_json(obj, W, values_from_json) == c
