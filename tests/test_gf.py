"""Finite fields F_{p^n} and exact Gaussian elimination over F_p."""

import itertools
import math
import sys
from random import Random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from twoside import gf, twisted_kex, twisted_ring
from twoside.gf import (
    FieldCtx,
    element_from_index,
    f_add,
    f_mul,
    f_pow,
    field_from_json,
    field_to_json,
    find_irreducible,
    gauss_solve,
    gauss_solve_full,
    is_irreducible,
    is_prime,
    make_field_ctx,
)

from helpers import (
    field_elements,
    gauss_residual,
    make_test_field,
    schoolbook_mul,
    schoolbook_pow,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 65521}
    for v in range(2, 30):
        assert is_prime(v) == (v in {2, 3, 5, 7, 11, 13, 17, 19, 23, 29})
    for v in primes:
        assert is_prime(v)
    assert not is_prime(1)
    assert not is_prime(0)


# -- field construction ---------------------------------------------------------


def test_unique_irreducible_f4():
    # degree-2 over F_2 there is exactly one monic irreducible: u^2 + u + 1
    poly = find_irreducible(2, 2, Random(1))
    assert poly == (1, 1, 1)
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 1), 2)  # u^2 + 1 = (u+1)^2
    assert not is_irreducible((0, 1, 1), 2)  # u^2 + u = u(u+1)


def test_irreducible_has_no_roots():
    rng = Random(7)
    poly = find_irreducible(3, 2, rng)
    for x in range(3):
        value = sum(c * pow(x, i, 3) for i, c in enumerate(poly)) % 3
        assert value != 0


def test_f4_multiplication_pinned():
    ctx = make_test_field(2, 2)
    assert ctx.modulus == (1, 1, 1)
    u = (0, 1)
    u_plus_1 = (1, 1)
    assert f_mul(ctx, u, u_plus_1) == ctx.one


def test_primitivity_contract():
    for p, n in ((2, 2), (3, 2), (5, 1), (2, 3), (7, 1), (3, 3)):
        ctx = make_test_field(p, n)
        order = p**n - 1
        assert f_pow(ctx, ctx.t, order) == ctx.one
        seen = set()
        acc = ctx.one
        for _ in range(order):
            seen.add(acc)
            acc = f_mul(ctx, acc, ctx.t)
        assert len(seen) == order  # t really generates the unit group


def test_f5_primitive_element():
    ctx = FieldCtx(5, 1, (0, 1), (2,))  # x as modulus stand-in for n=1
    # 2 has order 4 in F_5: 2, 4, 3, 1
    powers = [f_pow(ctx, (2,), e)[0] for e in (1, 2, 3, 4)]
    assert powers == [2, 4, 3, 1]
    with pytest.raises(ValueError):
        FieldCtx(5, 1, (0, 1), (4,))  # 4 has order 2, not primitive


def test_make_field_ctx_deterministic():
    a = make_field_ctx(3, 2, Random(123))
    b = make_field_ctx(3, 2, Random(123))
    assert a.modulus == b.modulus
    assert a.t == b.t
    assert a == b
    c = make_field_ctx(3, 2, 123)  # int seed accepted
    assert c == a


# (p, n, seed) -> (modulus, t, the next rng.random()), recorded before the
# primitivity test was shared between find_primitive and FieldCtx
DRAWS = {
    (2, 1, 1): ((0, 1), (1,), 0.5692038748222122),
    (2, 8, 2): ((1, 0, 1, 1, 0, 1, 0, 0, 1), (1, 0, 0, 1, 0, 1, 1, 1), 0.14382946397694396),
    (3, 5, 3): ((2, 1, 1, 2, 0, 1), (2, 0, 2, 0, 0), 0.7582302462868173),
    (17, 2, 4): ((15, 4, 1), (2, 2), 0.019817176473073683),
    (65521, 1, 5): ((40822, 1), (55149,), 0.7398985747399307),
}


@pytest.mark.parametrize("p,n,seed", sorted(DRAWS))
def test_make_field_ctx_draws_are_pinned(p, n, seed):
    rng = Random(seed)
    fld = make_field_ctx(p, n, rng)
    assert (fld.modulus, fld.t, rng.random()) == DRAWS[p, n, seed]


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 2), (2, 6), (3, 3)])
def test_field_ctx_rejects_non_primitive_t(p, n):
    fld = make_test_field(p, n)
    order = p**n - 1
    with pytest.raises(ValueError, match="generate"):
        FieldCtx(p, n, fld.modulus, fld.zero)
    for k in range(1, order):
        tk = f_pow(fld, fld.t, k)
        if math.gcd(k, order) == 1:  # t^k has order `order`
            assert FieldCtx(p, n, fld.modulus, tk).t == tk
        else:
            with pytest.raises(ValueError, match="generate"):
                FieldCtx(p, n, fld.modulus, tk)


@pytest.mark.parametrize(
    "p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 2), (7, 1)]
)
def test_field_ctx_accepts_exactly_irreducible_modulus_and_primitive_t(p, n):
    # FieldCtx accepts on the order test alone; Rabin's test is the oracle
    for head in itertools.product(range(p), repeat=n):
        modulus = head + (1,)
        irreducible = is_irreducible(modulus, p)
        for t in itertools.product(range(p), repeat=n):
            if irreducible and gf._Kronecker(p, modulus).generates(t):
                assert FieldCtx(p, n, modulus, t).t == t
            else:
                reason = "generate" if irreducible else "modulus is reducible"
                with pytest.raises(ValueError, match=reason):
                    FieldCtx(p, n, modulus, t)


def test_field_ctx_validation():
    with pytest.raises(ValueError):
        make_field_ctx(4, 2, Random(0))  # not prime
    with pytest.raises(ValueError):
        make_field_ctx(2, 25, Random(0))  # degree too large
    with pytest.raises(ValueError):
        FieldCtx(2, 2, (1, 0, 1), (0, 1))  # reducible modulus


def test_field_ctx_rejects_huge_prime_before_trial_division(monkeypatch):
    # 2^61 - 1 is prime; trial division of it would run for hours
    huge = 2**61 - 1
    real = gf.is_prime

    def guarded(num):
        assert num <= gf.MAX_PRIME, "trial division of a p over the cap"
        return real(num)

    monkeypatch.setattr(gf, "is_prime", guarded)
    with pytest.raises(ValueError, match="prime below 2"):
        FieldCtx(huge, 1, (0, 1), (1,))
    with pytest.raises(ValueError, match="prime below 2"):
        make_field_ctx(huge, 1, Random(0))


# -- arithmetic ------------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1), (2, 3)])
def test_field_axioms_exhaustive(p, n):
    ctx = make_test_field(p, n)
    elements = field_elements(ctx)
    minus_one = ctx.from_int(-1)
    for a, b in itertools.product(elements, repeat=2):
        assert f_add(ctx, a, b) == f_add(ctx, b, a)
        assert f_mul(ctx, a, b) == f_mul(ctx, b, a)
        assert f_add(ctx, f_add(ctx, a, b), f_mul(ctx, minus_one, b)) == a
    sample = elements[: min(len(elements), 9)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert f_add(ctx, f_add(ctx, a, b), c) == f_add(ctx, a, f_add(ctx, b, c))
        assert f_mul(ctx, f_mul(ctx, a, b), c) == f_mul(ctx, a, f_mul(ctx, b, c))
        assert f_mul(ctx, a, f_add(ctx, b, c)) == f_add(
            ctx, f_mul(ctx, a, b), f_mul(ctx, a, c)
        )


def test_inverses():
    for p, n in ((2, 3), (3, 2), (7, 1)):
        ctx = make_test_field(p, n)
        for a in field_elements(ctx):
            assert f_add(ctx, a, f_mul(ctx, ctx.from_int(-1), a)) == ctx.zero
            if a != ctx.zero:
                # a^(q-2) is a's inverse, since a^(q-1) = 1 in F_q
                assert f_mul(ctx, a, f_pow(ctx, a, ctx.order - 2)) == ctx.one


# one field per shape of the polynomial core: degree 8, 5, 4 and 2 over small
# and medium primes, and f_mul's degree-1 fast path at the largest prime; f_pow's lanes
# are 16 bits wide at (2, 8), 32 at (3, 5), 64 at (31, 4) with three folds,
# 64 at (1021, 2) with 63 of them used, and 128 at (65521, 1)
DIFFERENTIAL_FIELDS = [(2, 8), (3, 5), (5, 4), (257, 2), (65521, 1), (1021, 2), (31, 4)]


@pytest.mark.parametrize("p,n", DIFFERENTIAL_FIELDS)
def test_field_core_matches_schoolbook_oracle(p, n):
    fld = make_test_field(p, n)
    rng = Random(p * 10 + n)
    order = fld.order
    sample = [fld.zero, fld.one, fld.t, fld.from_int(-1)]
    sample += [element_from_index(fld, rng.randrange(order)) for _ in range(12)]
    for a in sample:
        for b in sample[:6] + [element_from_index(fld, rng.randrange(order)) for _ in range(6)]:
            assert f_mul(fld, a, b) == schoolbook_mul(fld, a, b)
    exponents = [0, 1, 2, 3, 7, order - 2, order - 1, order, 3 * order + 5, (1 << 70) + 9]
    for a in sample:
        for e in exponents:
            assert f_pow(fld, a, e) == schoolbook_pow(fld, a, e)


class QuotientRing(NamedTuple):
    """What schoolbook_mul reads of a field, for a monic modulus that need not
    be irreducible."""

    p: int
    n: int
    modulus: tuple


# every n under MAX_ORDER and MAX_DEGREE for each p: the kernel's lanes are
# 16 bits wide at p = 2 and at (3, 1..4), 32 at (3, 5..8) and (31, 1), 64 at
# (31, 2..4), 257 and 1021 ((1021, 2) fills 63 of the 64 bits), 128 at 65521
KERNEL_FIELDS = [
    (p, n)
    for p in (2, 3, 31, 257, 1021, 65521)
    for n in range(1, gf.MAX_DEGREE + 1)
    if p**n <= gf.MAX_ORDER
]


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
def test_packed_powers_match_schoolbook_on_any_monic_modulus(p, n):
    rng = Random(p * 10 + n)
    top = (p - 1,) * n
    moduli = [top + (1,)] + [tuple(rng.randrange(p) for _ in range(n)) + (1,) for _ in range(4)]
    q = p**n
    exponents = [0, 1, 2, 3, p, q - 2, q - 1, q, rng.randrange(q * q), (1 << 70) + 9]
    for modulus in moduli:
        ring = QuotientRing(p, n, modulus)
        kernel = gf._Kronecker(p, modulus)
        bases = [top, (0,) * n, (1,) + (0,) * (n - 1)]
        bases += [tuple(rng.randrange(p) for _ in range(n)) for _ in range(3)]
        for a in bases:
            x = kernel.pack(a)
            for e in exponents:
                assert kernel.unpack(kernel.pow(x, e)) == schoolbook_pow(ring, a, e)
            for b in bases:
                assert kernel.unpack(kernel.mul(x, kernel.pack(b))) == schoolbook_mul(ring, a, b)


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
def test_lanewise_reduction_is_mod_p_up_to_the_bound(p, n):
    kernel = gf._Kronecker(p, (p - 1,) * n + (1,))
    bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))  # the largest lane after the fold
    values = [0, p - 1, p, bound - 1, bound]
    for k in range(len(values)):
        lanes = [values[(k + r) % len(values)] for r in range(n)]
        reduced = kernel.reduce(gf.pack(lanes, kernel.bits))
        assert list(gf.unpack(reduced, n, kernel.bits)) == [v % p for v in lanes]


@st.composite
def lane_mod_layouts(draw):
    """(p, bound, bits, count) of a gf.lane_mod as one of its three callers
    builds it: the field kernel (n lanes up to its fold bound), the ring
    lanes (up to 2w m n n lanes up to m (p - 1)(q - 1), w = m//2 + 1) and the
    odd-p solve (c + 1 lanes up to lane_bits' bound, 2mn rows at most)."""
    p = draw(st.sampled_from((2, 3, 5, 7, 31, 257, 1021, 65521)), label="p")
    n = draw(st.integers(1, max(n for n in range(1, gf.MAX_DEGREE + 1) if p**n <= gf.MAX_ORDER)))
    m = draw(st.integers(1, twisted_ring.MAX_M))
    caller = draw(st.sampled_from(("kernel", "ring") + ("solve",) * (p > 2)), label="caller")
    if caller == "kernel":
        return p, n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1)), gf._Kronecker(p, (0,) * n + (1,)).bits, n
    if caller == "ring":
        bound = m * (p - 1) * (p**n - 1)
        return p, bound, gf.lane_width(bound), draw(st.integers(1, 2 * (m // 2 + 1) * m * n * n))
    rows = draw(st.integers(1, 2 * m * n))
    count = draw(st.integers(1, m * n * (m // 2 + 1) + 1))
    return p, p + rows * (p - 1) ** 2, gf.lane_bits(p, rows), count


@settings(max_examples=400, deadline=None)
@given(lane_mod_layouts(), st.randoms(use_true_random=False))
def test_lane_mod_matches_lanewise_mod(layout, rng):
    # 0, the bound, the largest lane up to the bound that is p - 1 mod p (where
    # Barrett's quotient is closest to rounding up) and random lanes
    p, bound, bits, count = layout
    edge = bound - (bound + 1) % p
    values = [rng.choice((0, bound, edge, rng.randint(0, bound))) for _ in range(count)]
    reduced = gf.lane_mod(p, bound, bits, count)(gf.pack(values, bits))
    assert reduced >> count * bits == 0
    assert list(gf.unpack(reduced, count, bits)) == [v % p for v in values]


def test_field_powers_never_reach_the_schoolbook_product(monkeypatch):
    # the order test, tau's f_pow and Rabin's Frobenius powers all run on the
    # packed kernel; only f_mul and nothing in FieldCtx reads _pmul
    def refuse(*args):
        raise AssertionError("schoolbook polynomial product")

    monkeypatch.setattr(gf, "_pmul", refuse)
    fld = make_test_field(3, 4)
    p, n, modulus, t = fld.p, fld.n, fld.modulus, fld.t
    assert FieldCtx(p, n, modulus, t) == fld
    assert f_pow(fld, t, fld.order - 1) == fld.one
    assert make_field_ctx(p, n, 5) == make_field_ctx(p, n, Random(5))
    assert make_field_ctx(2, 8, 2).modulus == DRAWS[2, 8, 2][0]
    rejections = [
        ((4, n, modulus, t), "prime below 2"),
        ((p, 9, modulus, t), "extension degree"),
        ((1021, 3, (0, 0, 0, 1), (1, 0, 0)), "desk-scale cap"),
        ((p, n, modulus[:-1] + (2,), t), "monic"),
        ((p, n, (p,) + modulus[1:], t), "reduced mod p"),
        ((p, n, (1, 0, 2, 0, 1), t), "reducible"),  # (u^2 + 1)^2 over F_3
        ((p, n, modulus, t + (0,)), "length-n"),
        ((p, n, modulus, (p,) + t[1:]), "length-n"),
        ((p, n, modulus, fld.one), "generate"),
    ]
    for args, message in rejections:
        with pytest.raises(ValueError, match=message):
            FieldCtx(*args)


def test_pow_negative_exponent():
    # the square-and-multiply loop never ends on e < 0, so f_pow rejects it
    ctx = make_test_field(3, 2)
    with pytest.raises(ValueError, match="negative exponent"):
        f_pow(ctx, ctx.t, -1)
    with pytest.raises(ValueError, match="negative exponent"):
        f_pow(ctx, ctx.zero, -3)
    assert f_pow(ctx, ctx.t, 0) == ctx.one


def test_element_indexing_round_trip():
    ctx = make_test_field(3, 2)
    for idx in range(ctx.order):
        elem = element_from_index(ctx, idx)
        assert sum(c * ctx.p**r for r, c in enumerate(elem)) == idx


def test_field_json_round_trip():
    ctx = make_test_field(5, 1)
    assert field_from_json(field_to_json(ctx)) == ctx
    ctx2 = make_test_field(2, 3)
    assert field_from_json(field_to_json(ctx2)) == ctx2


@pytest.mark.parametrize(
    "key,value",
    [
        ("p", 5.0),
        ("p", True),
        ("n", 2.0),
        ("modulus", [2.0, 1, 1]),
        ("modulus", [2, 1, True]),
        ("t", ["0", 1]),
        ("t", [0.5, 1]),
    ],
)
def test_field_from_json_rejects_entries_that_are_not_ints(key, value):
    obj = dict(field_to_json(make_test_field(5, 2)), **{key: value})
    with pytest.raises(ValueError, match="must be ints"):
        field_from_json(obj)


def test_equal_fields_hash_equal_and_share_cache_entries():
    fld = make_test_field(7, 2)
    twin = FieldCtx(fld.p, fld.n, list(fld.modulus), list(fld.t))
    assert twin is not fld and twin == fld and hash(twin) == hash(fld)
    assert hash(fld) == hash((fld.p, fld.n, fld.modulus, fld.t))
    a, b = element_from_index(fld, 38), element_from_index(fld, 45)
    product = f_mul(fld, a, b)
    before = f_mul.cache_info()
    assert f_mul(twin, a, b) == product
    after = f_mul.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# -- gaussian elimination -----------------------------------------------------------


def test_gauss_identity_f2():
    assert gauss_solve([(1, 0), (0, 1)], (1, 1), 2) == [1, 1]


def test_gauss_dependent_rows_f5():
    # second equation is twice the first; free variable pinned to zero
    assert gauss_solve([(1, 2), (2, 4)], (3, 6), 5) == [3, 0]


def test_gauss_inconsistent():
    assert gauss_solve([(1, 2), (2, 4)], (3, 7), 5) is None
    assert gauss_solve([(0, 0)], (1,), 3) is None


def test_gauss_random_consistent_systems():
    rng = Random(0x6A)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        r = rng.randrange(1, 7)
        c = rng.randrange(1, 7)
        rows = [tuple(rng.randrange(p) for _ in range(c)) for _ in range(r)]
        z = [rng.randrange(p) for _ in range(c)]
        rhs = tuple(sum(a * b for a, b in zip(row, z)) % p for row in rows)
        got = gauss_solve(rows, rhs, p)
        assert got is not None
        assert gauss_residual(rows, got, rhs, p) == 0


def test_gauss_vs_exhaustive_search_small():
    # solvability verdict cross-checked against full enumeration of F_p^c
    rng = Random(0x6B)
    for _ in range(400):
        p = rng.choice((2, 3))
        r = rng.randrange(1, 4)
        c = rng.randrange(1, 4)
        rows = [tuple(rng.randrange(p) for _ in range(c)) for _ in range(r)]
        rhs = tuple(rng.randrange(p) for _ in range(r))
        got = gauss_solve(rows, rhs, p)
        any_solution = any(
            all(
                sum(a * b for a, b in zip(row, z)) % p == t
                for row, t in zip(rows, rhs)
            )
            for z in itertools.product(range(p), repeat=c)
        )
        assert (got is not None) == any_solution
        if got is not None:
            assert gauss_residual(rows, got, rhs, p) == 0


def test_gauss_kernel_vectors_are_solutions_of_homogeneous_system():
    rng = Random(0x6C)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 6)
        rows = [tuple(rng.randrange(p) for _ in range(c)) for _ in range(r)]
        z = [rng.randrange(p) for _ in range(c)]
        rhs = tuple(sum(a * b for a, b in zip(row, z)) % p for row in rows)
        full = gauss_solve_full(rows, rhs, p)
        assert full is not None
        solution, kernel, pivots = full
        rank = len(pivots)
        assert len(kernel) == c - rank
        zero_rhs = (0,) * r
        for vec in kernel:
            assert gauss_residual(rows, vec, zero_rhs, p) == 0
            # shifting the particular solution stays a solution
            shifted = [(a + b) % p for a, b in zip(solution, vec)]
            assert gauss_residual(rows, shifted, rhs, p) == 0


def test_gauss_shape_validation():
    with pytest.raises(ValueError):
        gauss_solve([], (), 2)
    with pytest.raises(ValueError):
        gauss_solve([(1, 2)], (1, 2), 2)
    with pytest.raises(ValueError):
        gauss_solve([(1, 2), (1,)], (1, 0), 2)


def test_field_caches_are_bounded():
    # 288^2 distinct products of F_289, more than the cache holds
    fld = make_test_field(17, 2)
    elems = [element_from_index(fld, i) for i in range(1, fld.order)]
    for a in elems:
        for b in elems:
            f_mul(fld, a, b)
    info = f_mul.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


# -- gauss_solve against the gauss_solve_full reference -------------------------


# every prime gauss_solve packs: the XOR kernel, and odd p in each lane width
SOLVE_PRIMES = (2, 3, 5, 7, 257, 65521, 2**31 - 1)


@st.composite
def linear_systems(draw):
    """(rows, rhs, p, conflicting) with unreduced entries, some negative.

    p = 2 systems run up to 150 columns and odd p up to 40, so packed rows
    span several machine words.  Up to 9 rows put every lane width
    gf.lane_bits picks in play (test_linear_systems_cover_every_lane_width).
    Zero entries are drawn often, so rows hold runs of zero lanes.  When
    `conflicting` is set, the first equation is repeated with a right-hand
    side that differs mod p, so the system has no solution.
    """
    p = draw(st.sampled_from(SOLVE_PRIMES))
    c = draw(st.integers(1, 150 if p == 2 else 40))
    r = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-2 * p, 3 * p))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    rhs = draw(st.lists(entry, min_size=r, max_size=r))
    conflicting = draw(st.booleans())
    if conflicting:
        rows.append(rows[0])
        rhs.append(rhs[0] + draw(st.integers(1, p - 1)) + p * draw(st.integers(-2, 2)))
    return rows, rhs, p, conflicting


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_gauss_solve_matches_full_reference(system):
    rows, rhs, p, conflicting = system
    full = gauss_solve_full(rows, rhs, p)
    got = gauss_solve(rows, rhs, p)
    if conflicting:
        assert got is None
    assert got == (None if full is None else full[0])


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 257, 65521]),
    r=st.integers(1, 20),
    c=st.integers(1, 14),
    consistent=st.booleans(),
    data=st.data(),
)
def test_packed_solve_ignores_row_order(p, r, c, consistent, data):
    # the free-variables-zero solution depends only on the pivot columns,
    # which the row space fixes whatever order its rows come in, though the
    # order picks which row becomes each pivot; p = 65521 reaches 64-bit lanes
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    if consistent:
        x = data.draw(st.lists(entry, min_size=c, max_size=c))
        rhs = [sum(a * v for a, v in zip(row, x)) % p for row in rows]
    else:
        rhs = data.draw(st.lists(entry, min_size=r, max_size=r))
    full = gauss_solve_full(rows, rhs, p)
    want = None if full is None else full[0]
    if consistent:
        assert want is not None
    bits = gf.lane_bits(p, r)
    for _ in range(3):
        order = data.draw(st.permutations(range(r)))
        packed = gf.PackedRows([gf.pack(rows[k], bits) for k in order], c, p)
        assert gf.gauss_solve_packed(packed, [rhs[k] for k in order]) == want


def count_lines(code, call):
    """(call(), the number of lines run in frames of code while it ran)."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, lines


def lead_walk_code():
    """The code of _eliminate_fp, whose row walk runs inline."""
    return gf._eliminate_fp.__code__


@pytest.mark.parametrize("p", [3, 1021, 65521])
def test_lead_walk_of_a_dependent_row_is_bounded(p):
    # eliminating the first row leaves every lane of the second equal to p:
    # skipped one at a time, that is one shift of the whole row per lane,
    # over 6000 lines here; reduced mod p after a few, the row reads zero
    rows = [[p - 1] * 1000] * 2
    got, lines = count_lines(lead_walk_code(), lambda: gauss_solve(rows, [1, 1], p))
    assert got == gauss_solve_full(rows, [1, 1], p)[0]
    assert lines < 200


@pytest.mark.parametrize("p", [3, 5, 257, 65521])
@pytest.mark.parametrize("late", [0, 1])
@pytest.mark.parametrize("rhs", [(1, 1), (1, 2)])
def test_lead_walk_reduction_keeps_the_solution(p, late, rhs):
    # the second row is the first plus `late` in the last column: after the
    # mod-p pass it is filed under that column, or it reads 0 = b
    c = 40
    first = [p - 1] * c
    rows = [first, first[:-1] + [p - 1 + late]]
    full = gauss_solve_full(rows, list(rhs), p)
    assert gauss_solve(rows, list(rhs), p) == (None if full is None else full[0])
    assert (full is None) == (not late and rhs[0] != rhs[1])


def test_linear_systems_cover_every_lane_width():
    # 1 to 9 rows (8 plus a conflicting one), as linear_systems draws them
    widths = {p: {gf.lane_bits(p, r) for r in range(1, 10)} for p in SOLVE_PRIMES}
    assert widths == {
        2: {1}, 3: {16}, 5: {16}, 7: {16}, 257: {32}, 65521: {32, 64}, 2**31 - 1: {64, 128},
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257, 65521, 2**31 - 1])
def test_pack_unpack_round_trip(p):
    bits = gf.lane_bits(p, 9)
    rng = Random(p)
    values = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(37)]
    packed = gf.pack(values, bits)
    assert packed < 1 << 37 * bits
    assert [(packed >> j * bits) & ((1 << bits) - 1) for j in range(37)] == values
    if bits > 1:
        assert list(gf.unpack(packed, 37, bits)) == values


# 1-bit digital masks, 16-bit rank lanes, and a wide odd width like a ring
# half's n * bits or a system row's w * bits
@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    bits=st.sampled_from([1, 16, 48]),
    r=st.integers(-30, 30),
    c=st.integers(-30, 30),
    data=st.data(),
)
def test_mover_matches_index_formula(rows, cols, bits, r, c, data):
    size = rows * cols
    values = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=size, max_size=size))
    moved = gf.mover(rows, cols, bits)(gf.pack(values, bits), r, c)
    assert moved < 1 << size * bits
    lanes = [(moved >> k * bits) & ((1 << bits) - 1) for k in range(size)]
    assert lanes == [
        values[(i - r) % rows * cols + (j + c) % cols] for i in range(rows) for j in range(cols)
    ]


@pytest.mark.parametrize("p,n,m", [(3, 2, 4), (5, 1, 6), (7, 1, 8), (5, 2, 12)])
def test_gauss_solve_matches_full_on_odd_p_attack_systems(p, n, m):
    params = twisted_kex.random_params(p, n, m, Random(21))
    tr = twisted_kex.run_exchange(params, Random(22))
    rows, rhs, _, _ = twisted_kex.attack_system(params, tr.alice.pk)
    got = gauss_solve(rows, rhs, p)
    assert got is not None
    assert got == gauss_solve_full(rows, rhs, p)[0]


def test_gauss_solve_matches_full_on_attack_system():
    params = twisted_kex.random_params(2, 4, 6, Random(11))
    tr = twisted_kex.run_exchange(params, Random(12))
    rows, rhs, _, _ = twisted_kex.attack_system(params, tr.alice.pk)
    assert len(rows[0]) > 64
    got = gauss_solve(rows, rhs, 2)
    assert got is not None
    assert got == gauss_solve_full(rows, rhs, 2)[0]
