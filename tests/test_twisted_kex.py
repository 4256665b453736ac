"""Twisted group-ring key exchange, honest runs and the linear-algebra attack."""

import dataclasses
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoside import gf, twisted_kex, twisted_ring
from twoside.errors import AttackError
from twoside.exchange import KeyPair
from twoside.gf import gauss_solve, gauss_solve_full, gauss_solve_packed, lane_bits
from twoside.twisted_kex import (
    MAX_SYSTEM_CELLS,
    TwistedParams,
    attack,
    attack_system,
    keygen,
    keypair_from_secrets,
    params_from_json,
    params_to_json,
    random_params,
    recover_shared_key,
    replay,
    run_exchange,
    shared_key,
    solve,
    system_rows,
    transcript_from_json,
    transcript_to_json,
)
from twoside.gf import element_from_index, make_field_ctx
from twoside.twisted_ring import (
    RingElement,
    flatten,
    make_ring_ctx,
    sample_element,
)

from helpers import (
    TWISTED_GRID,
    basis_a2,
    basis_r1,
    dense_basis_products,
    dense_twisted_replay,
    make_test_field,
    naive_ring_mul,
    ring_one,
    sample_any_element,
    single,
)


def fixed_params(p, n, m, seed=99, h_seed=7):
    ctx = make_ring_ctx(make_test_field(p, n, seed), m)
    h = sample_element(ctx, Random(h_seed))
    return TwistedParams(ctx, h)


# -- keygen ---------------------------------------------------------------------


def test_identity_left_factor_exposes_h_times_k():
    params = fixed_params(2, 2, 3)
    ctx = params.ctx
    one = ring_one(ctx)
    y = single(ctx, 0, 1)
    pair = keypair_from_secrets(params, one, y)
    assert pair.pk == naive_ring_mul(params.h, y)


def test_keygen_deterministic_per_seed():
    params = fixed_params(3, 2, 4)
    a = keygen(params, Random(555))
    b = keygen(params, Random(555))
    assert a == b


def test_keypair_secrets_live_in_their_subspaces():
    params = fixed_params(5, 1, 6)
    pair = keygen(params, Random(1))
    m = params.ctx.m
    zero = params.ctx.field.zero
    assert pair.left.coeffs[m:] == (zero,) * m
    assert pair.right.coeffs[:m] == (zero,) * m
    for i in range(m):
        assert pair.right.coeffs[m + i] == pair.right.coeffs[m + (m - i) % m]


# -- honest exchange ---------------------------------------------------------------


@pytest.mark.parametrize("p,n,m", TWISTED_GRID)
def test_exchange_keys_agree(p, n, m):
    rng = Random(p * 1000 + n * 100 + m)
    for _ in range(5):
        params = random_params(p, n, m, rng)
        tr = run_exchange(params, rng)
        assert tr.keys_agree
        assert tr.shared_key == shared_key(tr.bob, tr.alice.pk)


def test_identity_like_keys_collapse():
    params = fixed_params(2, 2, 3)
    ctx = params.ctx
    one = ring_one(ctx)
    y = single(ctx, 0, 1)
    alice = keypair_from_secrets(params, one, y)
    bob = keygen(params, Random(6))
    k_a = shared_key(alice, bob.pk)
    # K_A = 1 * p_B * y* expanded with the naive table oracle
    assert k_a == naive_ring_mul(bob.pk, y.adjoint())
    assert k_a == shared_key(bob, alice.pk)


def test_shared_key_equals_direct_factor_chain():
    params = fixed_params(2, 2, 3)
    rng = Random(9)
    alice = keygen(params, rng)
    bob = keygen(params, rng)
    # K_A = g1 g2 h k2 k1*, multiplied out left to right with the oracle
    chain = naive_ring_mul(alice.left, bob.left)
    chain = naive_ring_mul(chain, params.h)
    chain = naive_ring_mul(chain, bob.right)
    chain = naive_ring_mul(chain, alice.right.adjoint())
    assert shared_key(alice, bob.pk) == chain


def test_exchange_with_sparse_public_element():
    # h with zero divisors still exchanges and attacks fine
    for (p, n, m) in TWISTED_GRID[:3]:
        rng = Random(p + n + m)
        ctx = make_ring_ctx(make_field_ctx(p, n, rng), m)
        params = TwistedParams(ctx, sample_any_element(ctx, rng))
        tr = run_exchange(params, rng)
        assert tr.keys_agree
        assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key


# -- the attack ---------------------------------------------------------------------


@pytest.mark.parametrize("p,n,m", TWISTED_GRID)
def test_attack_recovers_key(p, n, m):
    rng = Random(p * 77 + n * 13 + m)
    for _ in range(5):
        params = random_params(p, n, m, rng)
        tr = run_exchange(params, rng)
        assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key
        assert attack(params, tr.bob.pk, tr.alice.pk) == tr.shared_key


def test_attack_on_identity_alice():
    params = fixed_params(2, 2, 3)
    ctx = params.ctx
    alice = keypair_from_secrets(params, ring_one(ctx), single(ctx, 0, 1))
    bob = keygen(params, Random(10))
    honest = shared_key(alice, bob.pk)
    assert attack(params, alice.pk, bob.pk) == honest


def test_attack_system_shape():
    for (p, n, m) in TWISTED_GRID:
        params = fixed_params(p, n, m)
        rows, rhs, left_size, right_size = attack_system(params, params.h)
        assert len(rows) == n * 2 * m  # equations
        assert len(rows[0]) == (n * m) * (n * (m // 2 + 1))  # unknowns
        assert len(rhs) == n * 2 * m
        assert (left_size, right_size) == (m * n, n * (m // 2 + 1))


def test_any_solution_recovers_the_key():
    # shift the particular solution along kernel vectors: still the same key
    params = fixed_params(2, 2, 3)
    rng = Random(11)
    tr = run_exchange(params, rng)
    rows, rhs, left_size, right_size = attack_system(params, tr.alice.pk)
    p = params.ctx.field.p
    solution, kernel, _ = gauss_solve_full(rows, rhs, p)
    assert solution is not None and kernel
    recovered = recover_shared_key(params, solution, tr.bob.pk, left_size, right_size)
    assert recovered == tr.shared_key
    for vec in kernel[:10]:
        shifted = [(a + b) % p for a, b in zip(solution, vec)]
        assert shifted != solution
        assert (
            recover_shared_key(params, shifted, tr.bob.pk, left_size, right_size)
            == tr.shared_key
        )


def test_attack_ignores_honest_coefficient_structure():
    # solving the system after permuting the columns changes which solution
    # gauss picks, the recovered key must not change
    params = fixed_params(3, 2, 4)
    rng = Random(12)
    tr = run_exchange(params, rng)
    rows, rhs, left_size, right_size = attack_system(params, tr.alice.pk)
    p = params.ctx.field.p
    baseline = gauss_solve(rows, rhs, p)
    perm = list(range(len(rows[0])))
    Random(13).shuffle(perm)
    permuted_rows = [tuple(row[j] for j in perm) for row in rows]
    permuted = gauss_solve(permuted_rows, rhs, p)
    assert permuted is not None
    unpermuted = [0] * len(perm)
    for pos, j in enumerate(perm):
        unpermuted[j] = permuted[pos]
    assert (
        recover_shared_key(params, unpermuted, tr.bob.pk, left_size, right_size)
        == tr.shared_key
    )
    assert (
        recover_shared_key(params, baseline, tr.bob.pk, left_size, right_size)
        == tr.shared_key
    )


def test_attack_rejects_keys_from_another_ring(monkeypatch):
    # p1 and p2 share the shape (3, 2, 4) but not the field; the m = 5 ring
    # has another shape.  attack rejects either key before it builds anything.
    p1 = random_params(3, 2, 4, Random(1))
    p2 = random_params(3, 2, 4, Random(7))
    p5 = random_params(3, 2, 5, Random(1))
    assert p1.ctx != p2.ctx
    t1, t2, t5 = (run_exchange(p, Random(3)) for p in (p1, p2, p5))

    def fail(*args):
        raise AssertionError("attack built the system for a key from another ring")

    monkeypatch.setattr(twisted_kex, "system_rows", fail)
    for target, other in (
        (t1.alice.pk, t2.bob.pk),
        (t1.alice.pk, t5.bob.pk),
        (t2.alice.pk, t1.bob.pk),
        (t5.alice.pk, t1.bob.pk),
    ):
        with pytest.raises(ValueError, match="ring context mismatch"):
            attack(p1, target, other)


def test_attack_rejects_unreachable_element():
    # m = 1 gives a single basis product, so almost any target is outside
    # its span
    ctx = make_ring_ctx(make_test_field(2, 1), 1)
    h = ring_one(ctx)
    params = TwistedParams(ctx, h)
    _, _, products = dense_basis_products(params)
    assert len(products) == 1
    span = {flatten(products[0].scale(k)) for k in range(2)}
    target = None
    for candidate in (
        single(ctx, 0, 0),
        single(ctx, 0, 1),
        single(ctx, 0, 0) + single(ctx, 0, 1),
    ):
        if flatten(candidate) not in span:
            target = candidate
            break
    assert target is not None
    with pytest.raises(AttackError):
        attack(params, target, h)


# -- index-shift build and replay against the generic ring products ---------------


def draw_element(data, ctx, support):
    """A ring element with every coefficient nonzero, some zero, or all zero."""
    order = ctx.field.order
    index = {
        "full": st.integers(1, order - 1),
        "sparse": st.one_of(st.just(0), st.integers(1, order - 1)),
        "zero": st.just(0),
    }[support]
    coeffs = data.draw(st.lists(index, min_size=ctx.group_size, max_size=ctx.group_size))
    return RingElement.from_coeffs(ctx, tuple(element_from_index(ctx.field, c) for c in coeffs))


def draw_params(data, max_m=8):
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    n = data.draw(st.integers(1, 3), label="n")
    m = data.draw(st.integers(1, max_m), label="m")
    ctx = make_ring_ctx(make_test_field(p, n), m)
    support = data.draw(st.sampled_from(["full", "sparse", "zero"]), label="h")
    return TwistedParams(ctx, draw_element(data, ctx, support))


def draw_half(data, ctx, k):
    """A sparse element with only its rotation half (k = 0), or only a
    symmetric reflection half (k = 1): equal coefficients at x^e y and x^-e y."""
    elem = draw_element(data, ctx, "sparse")
    m = ctx.m
    empty = (ctx.field.zero,) * m
    if k == 0:
        return RingElement.from_coeffs(ctx, elem.coeffs[:m] + empty)
    refl = elem.coeffs[m:]
    return RingElement.from_coeffs(ctx, empty + tuple(refl[min(e, -e % m)] for e in range(m)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exchange_matches_ring_products(data):
    params = draw_params(data)
    ctx = params.ctx
    sampled = data.draw(st.booleans(), label="sampled secrets")
    if sampled:
        rng = Random(data.draw(st.integers(0, 2**32)))
        left, right = twisted_ring.sample_r1(ctx, rng), twisted_ring.sample_a2(ctx, rng)
    else:
        left, right = draw_half(data, ctx, 0), draw_half(data, ctx, 1)
    pair = keypair_from_secrets(params, left, right)
    assert pair.pk == (left * params.h) * right
    assert pair.pk == naive_ring_mul(naive_ring_mul(left, params.h), right)
    other_pk = draw_element(data, ctx, data.draw(st.sampled_from(["full", "sparse", "zero"])))
    key = shared_key(pair, other_pk)
    assert key == (left * other_pk) * right.adjoint()
    assert key == naive_ring_mul(naive_ring_mul(left, other_pk), right.adjoint())


@pytest.mark.parametrize("p,n,m", TWISTED_GRID)
def test_exchange_runs_without_ring_products(p, n, m, monkeypatch):
    rng = Random(60 + p + n + m)
    params = random_params(p, n, m, rng)

    def fail(*args):
        raise AssertionError("the exchange or attack left the product kernel")

    with monkeypatch.context() as patched:
        patched.setattr(RingElement, "__mul__", fail)
        patched.setattr(RingElement, "adjoint", fail)
        tr = run_exchange(params, rng)
        public = transcript_from_json(transcript_to_json(tr))
        assert attack(public.params, public.alice.pk, public.bob.pk) == tr.shared_key
    assert tr.keys_agree
    for own, other in ((tr.alice, tr.bob), (tr.bob, tr.alice)):
        assert own.pk == (own.left * params.h) * own.right
        assert shared_key(own, other.pk) == (own.left * other.pk) * own.right.adjoint()


# the ring's lane width at each shape: the first of 16, 32, 64 bits that holds m (p-1)(q-1)
LANE_BOUND_BITS = {
    (65521, 1, 64): 64, (31, 4, 64): 32, (1021, 2, 64): 64, (2, 8, 64): 16, (5, 8, 4): 32,
    (2, 1, 1): 16, (3, 1, 2): 16,
}


@pytest.mark.parametrize("p,n,m", list(LANE_BOUND_BITS))
def test_products_at_the_lane_bound(p, n, m):
    # every coefficient p - 1, in the widest lanes: h, both secrets and every c_ij
    ctx = make_ring_ctx(make_test_field(p, n), m)
    w = m // 2 + 1
    bits = LANE_BOUND_BITS[p, n, m]
    assert ctx.lanes.bits == bits
    assert m * (p - 1) * (p**n - 1) < 1 << bits
    top, zero = (p - 1,) * n, (ctx.field.zero,) * m
    left = RingElement.from_coeffs(ctx, (top,) * m + zero)
    right = RingElement.from_coeffs(ctx, zero + (top,) * m)
    params = TwistedParams(ctx, RingElement.from_coeffs(ctx, (top,) * (2 * m)))
    pair = keypair_from_secrets(params, left, right)
    assert pair.pk == (left * params.h) * right
    assert shared_key(pair, params.h) == (left * params.h) * right.adjoint()
    # the orbits partition the exponents, so the key is (c sum_i x^i) * pk * sum_j S_j^adj
    every = [p - 1] * (m * n * w)  # every c_ij = (p - 1, ...)
    orbit_sum = RingElement.from_coeffs(ctx, zero + (ctx.field.one,) * m)
    assert replay(params, every, pair.pk) == (left * pair.pk) * orbit_sum.adjoint()
    # the attack reads u^a * h * S_j, lanes up to p^(n-1) * (p - 1), wherever
    # the paper's system of (n m)(n w) unknowns x 2mn equations fits the cap
    if (n * m) * (n * w) * (2 * m * n) <= MAX_SYSTEM_CELLS:
        assert attack(params, pair.pk, pair.pk) == shared_key(pair, pair.pk)


def test_products_scale_once_per_term_not_per_coefficient(monkeypatch):
    # f_mul forms only the scalars s * tau^-e of the right secret's terms, at
    # most m per product, where one per coefficient would be thousands; the
    # attack reads tau^-e from the twist table and makes none
    calls = []
    monkeypatch.setattr(twisted_kex, "f_mul", lambda *args: calls.append(args) or gf.f_mul(*args))
    params = fixed_params(2, 4, 16)
    m = params.ctx.m
    tr = run_exchange(params, Random(3))
    assert tr.keys_agree
    assert 0 < len(calls) <= 4 * 2 * m  # two key pairs and two shared keys
    calls.clear()
    assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key
    assert calls == []  # the build and the replay


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replay_matches_term_by_term_products(data):
    # full, sparse and zero solution vectors: c_ij is the n values at
    # (i * n + a) * w + j, a < n, and multiplies x^i * other * S_j^adj
    params = draw_params(data)
    ctx = params.ctx
    p, n, m, w = ctx.field.p, ctx.field.n, ctx.m, ctx.m // 2 + 1
    other = draw_element(data, ctx, data.draw(st.sampled_from(["full", "sparse", "zero"])))
    size = m * n * w
    kind = data.draw(st.sampled_from(["full", "sparse", "zero"]))
    solution = [0] * size
    if kind == "full":
        solution = data.draw(st.lists(st.integers(1, p - 1), min_size=size, max_size=size))
    elif kind == "sparse":
        for k in data.draw(st.sets(st.integers(0, size - 1), max_size=4)):
            solution[k] = data.draw(st.integers(1, p - 1))
    expected = RingElement.zero(ctx)
    for i in range(m):
        for j in range(w):
            c = tuple(solution[(i * n + a) * w + j] for a in range(n))
            if not any(c):
                continue
            s_j = RingElement.zero(ctx)
            for e in {j, -j % m}:  # S_j = x^j y + x^-j y, one term when j = -j mod m
                s_j = s_j + single(ctx, e, 1)
            term = naive_ring_mul(other, s_j.adjoint())
            expected = expected + naive_ring_mul(single(ctx, i, 0, c), term)
    assert replay(params, solution, other) == expected


@pytest.mark.parametrize("p,n,m", [(2, 4, 16), (5, 1, 6), (7, 1, 8)])
def test_replay_multiplies_twice_and_scales_at_most_m_times(p, n, m, monkeypatch):
    counts = {"times": 0, "scale": 0}

    def counted(name):
        real = getattr(twisted_ring.RingLanes, name)

        def call(self, *args):
            counts[name] += 1
            return real(self, *args)

        return call

    for name in counts:
        monkeypatch.setattr(twisted_ring.RingLanes, name, counted(name))
    f_muls = []
    monkeypatch.setattr(twisted_kex, "f_mul", lambda *args: f_muls.append(args) or gf.f_mul(*args))
    params = fixed_params(p, n, m)
    rng = Random(8)
    alice, bob = keygen(params, rng), keygen(params, rng)
    f_muls.clear()
    twisted_kex._h_s(params)
    assert f_muls == []
    honest = solve(params, system_rows(params), alice.pk)
    size = m * n * (m // 2 + 1)
    for solution in (honest, [p - 1] * size, [0] * size):
        counts.update(times=0, scale=0)
        replay(params, solution, bob.pk)
        assert counts["times"] == 2
        assert counts["scale"] <= m
    assert f_muls == []


@pytest.mark.parametrize("c", [[1] * 23, [1] * 25] + [[1] * 23 + [v] for v in (3, 4, -1, 1.0, True)])
def test_replay_rejects_coefficients_that_are_not_reduced_field_elements(c):
    # n = 2, p = 3, m = 4 has 4 * 2 * 3 = 24 unknowns: 23 or 25 values, a
    # value of p or p + 1 that would be read mod p, and -1 and 1.0 that would
    # raise OverflowError and TypeError, and True, which is no plain int
    params = fixed_params(3, 2, 4)
    with pytest.raises(ValueError, match="solution"):
        replay(params, c, params.h)


@pytest.mark.parametrize("p,n,m", [(2, 2, 3), (3, 2, 4), (5, 1, 6)])
def test_attack_replays_its_own_solution_unchecked(p, n, m, monkeypatch):
    # solve's vector is m * n * w reduced ints by construction: attack skips
    # _check_solution, while the public replay (the CLI's) still runs it
    checks = []
    real = twisted_kex._check_solution
    monkeypatch.setattr(
        twisted_kex, "_check_solution", lambda *args: checks.append(args) or real(*args)
    )
    params = fixed_params(p, n, m)
    tr = run_exchange(params, Random(9))
    assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key
    assert checks == []
    solution = solve(params, system_rows(params), tr.alice.pk)
    assert replay(params, solution, tr.bob.pk) == tr.shared_key
    assert len(checks) == 1


@pytest.mark.parametrize("extra", [-1, 1, 6])
def test_recover_shared_key_rejects_solutions_of_another_length(extra):
    # (3, 2, 4) has 8 x 6 = 48 basis products: 49 values once returned a
    # wrong key, and 54 raised IndexError
    params = fixed_params(3, 2, 4)
    tr = run_exchange(params, Random(1))
    solution = [1] * (8 * 6 + extra)
    with pytest.raises(ValueError, match="one per basis product"):
        recover_shared_key(params, solution, tr.bob.pk, 8, 6)


@pytest.mark.parametrize("first", [4, -2, True, 1.0])
def test_recover_shared_key_rejects_values_outside_zero_to_p(first):
    # (3, 2, 4): a first value of 4, -2 or True once returned the key of 1
    params = fixed_params(3, 2, 4)
    tr = run_exchange(params, Random(1))
    solution = [1] * (8 * 6)
    solution[0] = first
    with pytest.raises(ValueError, match="plain ints in 0..2"):
        recover_shared_key(params, solution, tr.bob.pk, 8, 6)


@pytest.mark.parametrize("sizes", [(6, 8), (4, 12), (8, 5), (16, 6)])
def test_recover_shared_key_rejects_sizes_other_than_the_bases(sizes):
    # (3, 2, 4) has bases of 8 and 6 elements; a right size of 8 with a left
    # size of 6 would index 48 products under another (i, j) split
    params = fixed_params(3, 2, 4)
    tr = run_exchange(params, Random(1))
    solution = [1] * (sizes[0] * sizes[1])
    with pytest.raises(ValueError, match="basis sizes .* are not 8 x 6"):
        recover_shared_key(params, solution, tr.bob.pk, *sizes)


def test_p2_products_never_reduce_through_unpack(monkeypatch):
    # at p = 2 RingLanes.reduce is one mask: _h_s, _sandwich and replay
    # unpack only lanes that are already 0 or 1, to read them
    unpacked = []

    def checked(x, count, bits):
        values = gf.unpack(x, count, bits)
        unpacked.append(count)
        assert max(values) <= 1, "an unreduced lane went through gf.unpack"
        return values

    monkeypatch.setattr(twisted_ring, "unpack", checked)
    assert not hasattr(twisted_kex, "unpack")  # twisted_kex reads lanes through RingLanes
    params = fixed_params(2, 4, 6)
    tr = run_exchange(params, Random(4))
    assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key  # builds through _h_s
    assert unpacked  # the exchange and the replay read their products


def test_exchange_rejects_secrets_outside_their_key_spaces():
    params = fixed_params(3, 2, 4)
    ctx = params.ctx
    rotation, reflection = single(ctx, 1, 0), single(ctx, 2, 1)
    with pytest.raises(ValueError, match="R1"):
        keypair_from_secrets(params, rotation + reflection, reflection)
    with pytest.raises(ValueError, match="A2"):
        keypair_from_secrets(params, rotation, rotation + reflection)
    pair = keypair_from_secrets(params, rotation, reflection)
    with pytest.raises(ValueError, match="R1"):
        shared_key(KeyPair(reflection, reflection, pair.pk), params.h)
    with pytest.raises(ValueError, match="A2"):
        shared_key(KeyPair(rotation, rotation, pair.pk), params.h)
    # x y alone at m = 4: x^3 y is missing, so the right secret is outside A2
    asymmetric = single(ctx, 1, 1)
    with pytest.raises(ValueError, match="A2"):
        keypair_from_secrets(params, rotation, asymmetric)
    with pytest.raises(ValueError, match="A2"):
        shared_key(KeyPair(rotation, asymmetric, pair.pk), params.h)
    symmetric = asymmetric + single(ctx, 3, 1)
    assert keypair_from_secrets(params, rotation, symmetric).right == symmetric
    other_ctx = make_ring_ctx(make_test_field(3, 2), 5)
    with pytest.raises(ValueError, match="ring context mismatch"):
        shared_key(pair, ring_one(other_ctx))
    with pytest.raises(ValueError, match="ring context mismatch"):
        keypair_from_secrets(params, ring_one(other_ctx), reflection)


def test_each_party_forms_its_multipliers_once(monkeypatch):
    # keygen keeps the checked multipliers on the pair and shared_key reuses
    # them; a pair without them (hand-built, replaced or parsed) forms them
    # again, with every key-space and ring check
    params = fixed_params(3, 2, 4)
    calls = []
    formed = twisted_kex._secret_multipliers

    def counted(*args):
        calls.append(args)
        return formed(*args)

    monkeypatch.setattr(twisted_kex, "_secret_multipliers", counted)
    tr = run_exchange(params, Random(5))
    assert len(calls) == 2 and tr.keys_agree
    pair = keygen(params, Random(6))
    other_ctx = make_ring_ctx(make_test_field(3, 2), 5)
    with pytest.raises(ValueError, match="ring context mismatch"):
        shared_key(pair, ring_one(other_ctx))
    outside = dataclasses.replace(pair, right=pair.right + single(params.ctx, 1, 0))
    assert outside.multipliers is None
    with pytest.raises(ValueError, match="A2"):
        shared_key(outside, params.h)
    back = transcript_from_json(transcript_to_json(tr, include_secrets=True)).alice
    assert back == tr.alice and repr(back) == repr(tr.alice) and back.multipliers is None
    assert shared_key(back, tr.bob.pk) == tr.shared_key


def assert_attack_system_is_dense(params, target):
    left_basis, right_basis, products = dense_basis_products(params)
    columns = [flatten(prod) for prod in products]
    rows = [tuple(col[r] for col in columns) for r in range(len(columns[0]))]
    sizes = (len(left_basis), len(right_basis))
    assert attack_system(params, target) == (rows, flatten(target), *sizes)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_attack_system_rows_are_dense_columns_transposed(data):
    params = draw_params(data)
    assert_attack_system_is_dense(params, draw_element(data, params.ctx, "sparse"))


@pytest.mark.parametrize("p,n,m", [(2, 4, 6), (31, 4, 4), (65521, 1, 8)])
def test_attack_system_rows_are_dense_columns_transposed_at_wide_lanes(p, n, m):
    # draw_params stops at n <= 3 and m <= 8: the benchmark's F_16 shape, and
    # the ring's 16-, 32- and 64-bit lanes
    params = fixed_params(p, n, m)
    assert_attack_system_is_dense(params, run_exchange(params, Random(5)).alice.pk)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recover_shared_key_matches_dense_replay(data):
    params = draw_params(data, max_m=6)
    ctx = params.ctx
    other_pk = draw_element(data, ctx, data.draw(st.sampled_from(["full", "sparse"])))
    left_basis, right_basis = basis_r1(ctx), basis_a2(ctx)
    size = len(left_basis) * len(right_basis)
    p = ctx.field.p
    solution = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    assert recover_shared_key(
        params, solution, other_pk, len(left_basis), len(right_basis)
    ) == dense_twisted_replay(params, solution, other_pk, left_basis, right_basis)


@pytest.mark.parametrize("p,n,m", [(2, 1, 1), (3, 2, 4), (7, 1, 8)])
def test_recover_shared_key_all_zero_solution(p, n, m):
    params = fixed_params(p, n, m)
    left_basis, right_basis = basis_r1(params.ctx), basis_a2(params.ctx)
    solution = [0] * (len(left_basis) * len(right_basis))
    zero = RingElement.zero(params.ctx)
    sizes = (len(left_basis), len(right_basis))
    assert recover_shared_key(params, solution, params.h, *sizes) == zero
    assert dense_twisted_replay(params, solution, params.h, left_basis, right_basis) == zero


# -- the reduced system u^a * rot_i(h * S_j), a < n, against the paper's system ----


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_agrees_with_paper_system(data):
    params = draw_params(data)
    ctx = params.ctx
    rng = Random(data.draw(st.integers(0, 2**32), label="seed"))
    alice, bob = keygen(params, rng), keygen(params, rng)
    kind = data.draw(st.sampled_from(["honest", "full", "sparse"]), label="target")
    target = alice.pk if kind == "honest" else draw_element(data, ctx, kind)
    rows, rhs, left_size, right_size = attack_system(params, target)
    oracle = gauss_solve(rows, rhs, ctx.field.p)
    z = solve(params, system_rows(params), target)
    assert (z is None) == (oracle is None)
    if z is None:
        return
    # c_ij multiplies x^i * h * S_j, the dense product of left i and right j
    n, m, w = ctx.field.n, ctx.m, ctx.m // 2 + 1
    products = dense_basis_products(params)[2]
    span = RingElement.zero(ctx)
    for i in range(m):
        for j in range(w):
            c = tuple(z[(i * n + a) * w + j] for a in range(n))
            span = span + products[i * right_size + j].scale(c)
    assert span == target
    key = replay(params, z, bob.pk)
    assert key == recover_shared_key(params, oracle, bob.pk, left_size, right_size)
    if kind == "honest":
        assert key == shared_key(alice, bob.pk)


@pytest.mark.parametrize("p,n,m", [(2, 1, 1), (3, 2, 4), (7, 1, 8)])
def test_solve_zero_target_gives_no_terms(p, n, m):
    params = fixed_params(p, n, m)
    zero = RingElement.zero(params.ctx)
    z = solve(params, system_rows(params), zero)
    assert z == [0] * (m * n * (m // 2 + 1))
    assert replay(params, z, params.h) == zero


def unpacked_rows(system):
    """The rows of a packed system as tuples, read lane by lane with shifts."""
    bits = system.bits
    mask = (1 << bits) - 1
    return [tuple((row >> j * bits) & mask for j in range(system.unknowns)) for row in system.rows]


@pytest.mark.parametrize("p,n,m", TWISTED_GRID + [(2, 4, 6), (2, 4, 16)])
def test_system_rows_shape(p, n, m):
    params = fixed_params(p, n, m)
    system = system_rows(params)
    assert len(system.rows) == 2 * m * n  # equations, as in attack_system
    assert system.unknowns == n * m * (m // 2 + 1)  # n times fewer unknowns
    assert (system.p, system.bits) == (p, lane_bits(p, 2 * m * n))
    # every row holds exactly one lane per unknown: none reaches past the last,
    # the last is in use, and every lane is reduced mod p
    top = (system.unknowns - 1) * system.bits
    assert all(row >> top + system.bits == 0 for row in system.rows)
    assert any(row >> top for row in system.rows)
    assert all(v < p for row in unpacked_rows(system) for v in row)


def transposed_columns(params):
    """The rows system_rows should pack, from the generic ring products.

    Column (i, a, j) is u^a times the a = b = 0 product x^i * h * S_j, the
    first w of each i block of n * w in dense_basis_products.
    """
    ctx = params.ctx
    n, m, w = ctx.field.n, ctx.m, ctx.m // 2 + 1
    products = dense_basis_products(params)[2]
    u_pows = [tuple(int(r == a) for r in range(n)) for a in range(n)]
    columns = [
        flatten(products[i * n * w + j].scale(u)) for i in range(m) for u in u_pows for j in range(w)
    ]
    return list(zip(*columns))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_system_rows_match_transposed_columns(data):
    params = draw_params(data)
    ctx = params.ctx
    system = system_rows(params)
    rows = unpacked_rows(system)
    assert rows == transposed_columns(params)
    # the packed solve returns exactly the list elimination's solution
    target = flatten(draw_element(data, ctx, data.draw(st.sampled_from(["full", "sparse"]))))
    full = gauss_solve_full(rows, target, ctx.field.p)
    assert gauss_solve_packed(system, target) == (None if full is None else full[0])


@pytest.mark.parametrize("p,n,m", TWISTED_GRID + [(5, 2, 12)])
def test_packed_solve_matches_full_on_honest_keys(p, n, m):
    # an honest public key is in the span, so the solve never stops at an
    # early 0 = b: every row is inserted and every pivot back-substituted
    for seed in range(3):
        params = random_params(p, n, m, Random(seed))
        target = flatten(run_exchange(params, Random(seed + 10)).alice.pk)
        system = system_rows(params)
        got = gauss_solve_packed(system, target)
        assert got is not None
        assert got == gauss_solve_full(unpacked_rows(system), target, p)[0]


@pytest.mark.parametrize("p,n,m", [(3, 2, 16), (3, 8, 4)])
@pytest.mark.parametrize("seed", range(5))
def test_mod_p_pass_runs_at_most_once_per_row_operation(p, n, m, seed, monkeypatch):
    # pivot normalizations plus mod-p passes over a row: the count of
    # divisible lanes restarts at every multiply-add, so a row made dependent
    # costs about one pass.  Carried across a row's operations it reads about
    # 2 per row here, and the solve runs slower.  A normalization reduces
    # twice and unpacks its pivot once; a pass reduces once.
    params = random_params(p, n, m, Random(seed))
    target = flatten(run_exchange(params, Random(seed)).alice.pk)
    system = system_rows(params)
    calls = {"mod": 0, "unpack": 0}
    lane_mod, unpack = gf.lane_mod, gf.unpack

    def counting_lane_mod(*layout):
        mod = lane_mod(*layout)

        def counted(x):
            calls["mod"] += 1
            return mod(x)

        return counted

    def counting_unpack(*args):
        calls["unpack"] += 1
        return unpack(*args)

    monkeypatch.setattr(gf, "lane_mod", counting_lane_mod)
    monkeypatch.setattr(gf, "unpack", counting_unpack)
    assert gauss_solve_packed(system, target) is not None
    normalizations = calls["unpack"]
    passes = calls["mod"] - 2 * normalizations
    assert normalizations > 0 and passes >= 0
    assert normalizations + passes < 1.5 * len(system.rows)


def test_system_rows_match_transposed_columns_at_benchmark_shape():
    # draw_params keeps n <= 3: the benchmark's (2, 4, 6) reads 16 elements
    # of 48 ring lanes each and wraps the slot index (-i) mod 6
    params = fixed_params(2, 4, 6)
    assert unpacked_rows(system_rows(params)) == transposed_columns(params)


def test_attack_system_size_cap(monkeypatch):
    # (2, 4, 16): 2,304 unknowns x 128 equations = 294,912 cells, under the cap
    params = fixed_params(2, 4, 16)
    rows, _, _, _ = attack_system(params, params.h)
    assert (len(rows[0]), len(rows)) == (2304, 128)
    assert 2304 * 128 <= MAX_SYSTEM_CELLS

    ctx = make_ring_ctx(make_test_field(2, 8), 64)
    params = TwistedParams(ctx, ring_one(ctx))

    def fail(*args):
        raise AssertionError("attack system built for an over-cap system")

    monkeypatch.setattr(twisted_kex, "_h_s", fail)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="135168 unknowns x 1024 equations"):
            attack_system(params, params.h)
        with pytest.raises(ValueError, match="135168 unknowns x 1024 equations"):
            system_rows(params)
        with pytest.raises(ValueError, match="exceeds the cap"):
            attack(params, params.h, params.h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- serialization ----------------------------------------------------------------


def test_params_json_round_trip():
    params = fixed_params(2, 3, 5)
    back = params_from_json(params_to_json(params))
    assert back.ctx == params.ctx
    assert back.h == params.h


def test_transcript_json_round_trip_public_only():
    rng = Random(14)
    params = random_params(3, 2, 4, rng)
    tr = run_exchange(params, rng)
    obj = transcript_to_json(tr)
    assert "secrets" not in obj
    back = transcript_from_json(obj)
    assert back.params.h == tr.params.h
    assert back.alice.pk == tr.alice.pk
    assert back.bob.pk == tr.bob.pk
    assert back.keys_agree


def test_transcript_json_round_trip_with_secrets():
    rng = Random(15)
    params = random_params(3, 2, 4, rng)
    tr = run_exchange(params, rng)
    back = transcript_from_json(transcript_to_json(tr, include_secrets=True))
    assert back == tr


@pytest.mark.parametrize("secrets", [False, True])
def test_transcript_from_json_validates_field_once(monkeypatch, secrets):
    rng = Random(16)
    params = random_params(3, 2, 4, rng)
    obj = transcript_to_json(run_exchange(params, rng), include_secrets=secrets)
    calls = []
    real = twisted_ring.field_from_json

    def counted(field_obj):
        calls.append(field_obj)
        return real(field_obj)

    monkeypatch.setattr(twisted_ring, "field_from_json", counted)
    assert transcript_from_json(obj).params.ctx == params.ctx
    assert len(calls) == 1


@pytest.mark.parametrize(
    "entries",
    [
        [[9, 0, [1, 0]]],  # rotation index out of range
        [[0, 2, [1, 0]]],  # reflection index out of range
        [[0, 0, [3, 0]]],  # coefficient not reduced mod p
        [[0, 0, [1]]],  # coefficient of the wrong degree
        [[0, 0, [1, 0]], [0, 0, [2, 0]]],  # duplicate entry
    ],
)
def test_transcript_from_json_rejects_bad_public_element(entries):
    rng = Random(17)
    params = random_params(3, 2, 4, rng)
    obj = transcript_to_json(run_exchange(params, rng))
    obj["alice_public"] = entries
    with pytest.raises(ValueError):
        transcript_from_json(obj)


def test_params_reject_foreign_element():
    params = fixed_params(2, 2, 3)
    other_ctx = make_ring_ctx(make_test_field(2, 2), 4)
    with pytest.raises(ValueError):
        TwistedParams(params.ctx, ring_one(other_ctx))
