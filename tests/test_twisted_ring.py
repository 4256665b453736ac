"""Twisted dihedral group rings: group law, cocycle, product, adjoint, bases."""

import itertools
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoside import gf
from twoside.gf import element_from_index, f_mul, f_pow, pack, unpack
from twoside.twisted_ring import (
    RingElement,
    basis_a2,
    basis_r1,
    element_from_coeffs,
    element_to_coeffs,
    flatten,
    make_ring_ctx,
    ring_ctx_from_json,
    ring_ctx_to_json,
    sample_a2,
    sample_element,
    sample_r1,
)

from helpers import (
    TWISTED_GRID,
    basis_a1,
    cocycle,
    dihedral_mul,
    make_test_field,
    naive_ring_mul,
    ring_one,
    sample_span,
    schoolbook_pow,
    single,
    symmetric_reflection_vectors,
)

IDENTITY = (0, 0)


def ring(p, n, m, seed=99):
    return make_ring_ctx(make_test_field(p, n, seed), m)


def coeff(elem, i, k):
    """The coefficient of x^i y^k."""
    return elem.coeffs[i % elem.ctx.m + elem.ctx.m * k]


# -- dihedral group law ----------------------------------------------------------


def test_dihedral_pinned():
    # (x^2 y)(x^3) = x^{2+(5-3)} y = x^4 y with m=5
    assert dihedral_mul(5, (2, 1), (3, 0)) == (4, 1)
    assert dihedral_mul(5, (2, 1), IDENTITY) == (2, 1)
    assert dihedral_mul(5, IDENTITY, (2, 1)) == (2, 1)
    assert dihedral_mul(5, (0, 1), (0, 1)) == IDENTITY  # y*y = 1


def test_dihedral_group_axioms_exhaustive():
    for m in (1, 2, 3, 4, 5, 8):
        group = [(i, k) for i in range(m) for k in (0, 1)]
        for g, h, k in itertools.product(group, repeat=3):
            assert dihedral_mul(m, dihedral_mul(m, g, h), k) == dihedral_mul(
                m, g, dihedral_mul(m, h, k)
            )
        for g in group:
            inverses = [h for h in group if dihedral_mul(m, g, h) == IDENTITY]
            assert len(inverses) == 1
            assert dihedral_mul(m, inverses[0], g) == IDENTITY


def test_dihedral_defining_relations():
    for m in (3, 4, 7):
        x = (1, 0)
        y = (0, 1)
        acc = IDENTITY
        for _ in range(m):
            acc = dihedral_mul(m, acc, x)
        assert acc == IDENTITY  # x^m = 1
        assert dihedral_mul(m, y, y) == IDENTITY
        for a in range(m):
            # y x^a = x^{m-a} y
            lhs = dihedral_mul(m, y, (a, 0))
            assert lhs == ((m - a) % m, 1)


# -- cocycle ----------------------------------------------------------------------


def test_cocycle_trivial_on_rotations():
    ctx = ring(2, 2, 4)
    assert cocycle(ctx, (2, 0), (3, 1)) == ctx.field.one


def test_cocycle_reflection_case_pinned():
    # field chosen so the twist equals the generator itself: F_9 has unit
    # group of order 8, which divides m = 8, and t^3 != 1 there
    ctx = ring(3, 2, 8)
    assert ctx.twist_pows[1] == ctx.field.t
    t_cubed = f_pow(ctx.field, ctx.field.t, 3)
    assert t_cubed != ctx.field.one
    assert cocycle(ctx, (2, 1), (3, 0)) == t_cubed


def test_cocycle_identity_axiom():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        for g in [(i, k) for i in range(m) for k in (0, 1)]:
            assert cocycle(ctx, g, IDENTITY) == ctx.field.one
            assert cocycle(ctx, IDENTITY, g) == ctx.field.one


def test_cocycle_pairing_axiom_exhaustive():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        fld = ctx.field
        group = [(i, k) for i in range(m) for k in (0, 1)]
        for g, h, k in itertools.product(group, repeat=3):
            lhs = f_mul(fld, cocycle(ctx, g, h), cocycle(ctx, dihedral_mul(m, g, h), k))
            rhs = f_mul(fld, cocycle(ctx, h, k), cocycle(ctx, g, dihedral_mul(m, h, k)))
            assert lhs == rhs


def test_twist_is_mth_root_of_unity():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        assert f_pow(ctx.field, ctx.twist_pows[1 % m], m) == ctx.field.one


# -- ring multiplication ------------------------------------------------------------


def test_ring_mul_pinned_f4_m3():
    # F_4 units have order 3 = m, so the twist is the generator t; then
    # (1*xy)(1*x) lands on y with coefficient t
    ctx = ring(2, 2, 3)
    assert ctx.twist_pows[1] == ctx.field.t
    xy = single(ctx, 1, 1)
    x = single(ctx, 1, 0)
    product = xy * x
    expected = single(ctx, 0, 1, ctx.field.t)
    assert product == expected


def test_ring_identity():
    for (p, n, m) in TWISTED_GRID[:3]:
        ctx = ring(p, n, m)
        rng = Random(5)
        one = ring_one(ctx)
        for _ in range(10):
            a = sample_element(ctx, rng, full_support=False)
            assert a * one == a
            assert one * a == a
            assert a + RingElement.zero(ctx) == a
            assert a + a.scale(-1) == RingElement.zero(ctx)


def test_ring_mul_matches_naive_table_oracle():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        rng = Random(p * 100 + n * 10 + m)
        for _ in range(15):
            a = sample_element(ctx, rng, full_support=False)
            b = sample_element(ctx, rng, full_support=False)
            assert a * b == naive_ring_mul(a, b)


# -- RingLanes.times against the basis-table product ---------------------------------


def lanes_times(g, y):
    """flatten(g * y) for g in R1: RingLanes.times of g's rotation half
    against the u-powers of each half of y, reduced by reduce_halves."""
    lanes = g.ctx.lanes
    rot, refl = (lanes.times(g.rot, lanes.u_powers(x)) for x in (y.rot, y.refl))
    return flatten(RingElement(g.ctx, *lanes.reduce_halves(rot, refl)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_times_matches_naive_ring_mul(data):
    p = data.draw(st.sampled_from([2, 3, 5, 257, 65521]), label="p")
    n = data.draw(st.integers(1, {257: 2, 65521: 1}.get(p, 4)), label="n")  # p^n <= MAX_ORDER
    m = data.draw(st.sampled_from([1, 2, 3, 6, 8]), label="m")
    ctx = ring(p, n, m)
    index = st.integers(0, ctx.field.order - 1)
    g_half = data.draw(st.lists(index, min_size=m, max_size=m), label="g")
    y = data.draw(st.lists(index, min_size=2 * m, max_size=2 * m), label="y")
    zero = (ctx.field.zero,) * m
    g = RingElement.from_coeffs(ctx, tuple(element_from_index(ctx.field, c) for c in g_half) + zero)
    y = RingElement.from_coeffs(ctx, tuple(element_from_index(ctx.field, c) for c in y))
    assert lanes_times(g, y) == flatten(naive_ring_mul(g, y))


@pytest.mark.parametrize("p,n", [(65521, 1), (31, 4)])
def test_times_at_the_lane_bound(p, n):
    # every coefficient p - 1 at m = 64: every lane sums 64 products of up to
    # (p - 1)(q - 1), and slots 64 .. 126 of the unwrapped product wrap
    ctx = ring(p, n, 64)
    top = (p - 1,) * n
    g = RingElement.from_coeffs(ctx, (top,) * 64 + (ctx.field.zero,) * 64)
    y = RingElement.from_coeffs(ctx, (top,) * 128)
    assert 64 * (p - 1) * (p**n - 1) < 1 << ctx.lanes.bits
    assert lanes_times(g, y) == flatten(naive_ring_mul(g, y))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reduce_matches_lanewise_mod(data):
    # the one reduction of ring lanes, a mask at p = 2, against % p lane by
    # lane, on lanes up to its bound m (p - 1)(q - 1), the bound itself among
    # them, and as many as the attack's build reads
    p = data.draw(st.sampled_from([2, 3, 5, 257, 65521]), label="p")
    n = data.draw(st.integers(1, {257: 2, 65521: 1}.get(p, 4)), label="n")
    m = data.draw(st.sampled_from([1, 2, 3, 6, 8]), label="m")
    lanes = ring(p, n, m).lanes
    top = m * (p - 1) * (p**n - 1)
    values = data.draw(st.lists(
        st.one_of(st.integers(0, top), st.just(top)),
        min_size=1, max_size=n * (m // 2 + 1) * 2 * m * n,
    ), label="lanes")
    values[data.draw(st.integers(0, len(values) - 1), label="at")] = top
    reduced = lanes.reduce(pack(values, lanes.bits), len(values))
    assert reduced >> len(values) * lanes.bits == 0
    assert list(unpack(reduced, len(values), lanes.bits)) == [v % p for v in values]


def test_ring_masks_span_2w_halves_at_the_widest_ring():
    # RingLanes.mod's masks cover 2w halves, as low and top do, not the n
    # u-powers of them that reduce can take: at (3, 8, 64) the whole layout,
    # its reducer built afresh, holds under 10 times low (2 per Barrett pass,
    # at most 3, plus low and top); masks over n * 2w halves held 36 times
    fld = make_test_field(3, 8)
    gf.lane_mod.cache_clear()
    tracemalloc.start()
    try:
        lanes = make_ring_ctx(fld, 64).lanes
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated < 10 * (lanes.low.bit_length() // 8)


def test_ring_associativity_and_distributivity():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        rng = Random(p + n + m)
        for _ in range(25):
            a = sample_element(ctx, rng, full_support=False)
            b = sample_element(ctx, rng, full_support=False)
            c = sample_element(ctx, rng, full_support=False)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_scale():
    ctx = ring(3, 2, 4)
    rng = Random(8)
    a = sample_element(ctx, rng)
    assert a.scale(1) == a
    assert a.scale(0) == RingElement.zero(ctx)
    assert a.scale(2) == a + a


# -- adjoint --------------------------------------------------------------------------


def test_adjoint_pinned_f4_m3():
    # with twist = t: (x + x^2 y)* = t^{-1} x + t^{-2} x^2 y
    ctx = ring(2, 2, 3)
    fld = ctx.field
    inv_t = schoolbook_pow(fld, fld.t, fld.order - 2)  # t^(q-1) = 1 in F_q
    h = single(ctx, 1, 0) + single(ctx, 2, 1)
    expected = single(ctx, 1, 0, inv_t) + single(ctx, 2, 1, f_mul(fld, inv_t, inv_t))
    assert h.adjoint() == expected


def test_adjoint_fixes_rotation_free_coefficients():
    for (p, n, m) in TWISTED_GRID[:3]:
        ctx = ring(p, n, m)
        rng = Random(3)
        a = sample_element(ctx, rng)
        assert coeff(a.adjoint(), 0, 0) == coeff(a, 0, 0)
        assert coeff(a.adjoint(), 0, 1) == coeff(a, 0, 1)


def test_adjoint_swap_identity_on_symmetric_reflections():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        rng = Random(41)
        for _ in range(20):
            a = sample_a2(ctx, rng)
            b = sample_a2(ctx, rng)
            assert a * b.adjoint() == b * a.adjoint()
            assert a.adjoint() * b == b.adjoint() * a


# -- subspace bases --------------------------------------------------------------------


def test_basis_sizes():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        assert len(basis_r1(ctx)) == n * m
        assert len(basis_a2(ctx)) == n * (m // 2 + 1)
        assert len(basis_a1(ctx)) == n * (m // 2 + 1)


def test_basis_a2_pinned_m3():
    ctx = ring(5, 1, 3)
    elems = list(basis_a2(ctx))
    assert len(elems) == 2
    one = ctx.field.one
    y = single(ctx, 0, 1, one)
    sym = single(ctx, 1, 1, one) + single(ctx, 2, 1, one)
    assert elems == [y, sym]


def test_basis_a2_pinned_m4():
    ctx = ring(5, 1, 4)
    elems = list(basis_a2(ctx))
    assert len(elems) == 3
    one = ctx.field.one
    y = single(ctx, 0, 1, one)
    sym = single(ctx, 1, 1, one) + single(ctx, 3, 1, one)
    mid = single(ctx, 2, 1, one)
    assert elems == [y, sym, mid]


def test_a2_elements_have_symmetric_coefficients():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        for e in basis_a2(ctx):
            for i in range(m):
                assert coeff(e, i, 1) == coeff(e, m - i, 1)
                assert coeff(e, i, 0) == ctx.field.zero


def test_bases_are_linearly_independent():
    from twoside.gf import gauss_solve_full

    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        for basis in (basis_r1(ctx), basis_a2(ctx), basis_a1(ctx)):
            vectors = [flatten(e) for e in basis]
            rows = [tuple(vec[r] for vec in vectors) for r in range(len(vectors[0]))]
            rhs = (0,) * len(rows)
            _, kernel, pivots = gauss_solve_full(rows, rhs, p)
            assert len(pivots) == len(basis)
            assert kernel == []


def test_a2_basis_spans_symmetric_reflection_subspace():
    # dimension oracle: the symmetry constraint leaves exactly
    # floor(m/2) + 1 free slots per extension-coefficient, so the basis size
    # matching the constraint count plus independence means spanning
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        assert len(symmetric_reflection_vectors(ctx)) == m // 2 + 1
        assert len(basis_a2(ctx)) == n * len(symmetric_reflection_vectors(ctx))


def test_r1_basis_products_commute():
    for (p, n, m) in TWISTED_GRID[:3]:
        ctx = ring(p, n, m)
        for a, b in itertools.combinations(list(basis_r1(ctx)), 2):
            assert a * b == b * a


# -- samplers --------------------------------------------------------------------------


def test_sampler_supports():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        rng = Random(23)
        for _ in range(10):
            g = sample_r1(ctx, rng)
            k = sample_a2(ctx, rng)
            assert all(coeff(g, i, 1) == ctx.field.zero for i in range(m))
            assert all(coeff(k, i, 0) == ctx.field.zero for i in range(m))
            for i in range(m):
                assert coeff(k, i, 1) == coeff(k, m - i, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_samplers_match_the_basis_span(data):
    # the packed draws and, at n > 1, their t-power sums at lanes up to
    # n (p - 1)^2, up to the widest p of each n and m = 64
    p = data.draw(st.sampled_from([2, 3, 5, 7, 257, 65521]), label="p")
    n = data.draw(st.integers(1, {257: 2, 65521: 1}.get(p, 4)), label="n")
    m = data.draw(st.one_of(st.integers(1, 16), st.just(64)), label="m")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    ctx = ring(p, n, m)
    for sampler, basis in ((sample_r1, basis_r1), (sample_a2, basis_a2)):
        rng, oracle_rng = Random(seed), Random(seed)
        assert sampler(ctx, rng) == sample_span(basis(ctx), ctx, oracle_rng)
        assert rng.random() == oracle_rng.random()


def test_distinct_seeds_give_distinct_samples():
    ctx = ring(3, 2, 4)  # p^n * m = 36 > 16
    a = sample_element(ctx, Random(1))
    b = sample_element(ctx, Random(2))
    assert a != b
    assert sample_r1(ctx, Random(1)) != sample_r1(ctx, Random(2))


def test_full_support_sampling():
    ctx = ring(5, 1, 6)
    a = sample_element(ctx, Random(4), full_support=True)
    assert all(c != ctx.field.zero for c in a.coeffs)


# -- serialization and plumbing -----------------------------------------------------


def test_flatten_round_trip():
    for (p, n, m) in TWISTED_GRID:
        ctx = ring(p, n, m)
        rng = Random(29)
        a = sample_element(ctx, rng, full_support=False)
        vec = flatten(a)
        assert len(vec) == 2 * m * n
        assert RingElement.from_coeffs(ctx, tuple(zip(*[iter(vec)] * n))) == a


@pytest.mark.parametrize(
    "p,n,m,bits", [(2, 8, 64, 16), (31, 4, 64, 32), (65521, 1, 64, 64), (3, 2, 3, 16)]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_coeffs_and_halves_round_trip_at_every_lane_width(p, n, m, bits, data):
    ctx = ring(p, n, m)
    assert ctx.lanes.bits == bits
    top = ctx.field.order - 1
    index = st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top))
    coeffs = tuple(
        element_from_index(ctx.field, i)
        for i in data.draw(st.lists(index, min_size=2 * m, max_size=2 * m))
    )
    e = RingElement.from_coeffs(ctx, coeffs)
    assert e.coeffs == coeffs
    assert RingElement.from_coeffs(ctx, e.coeffs) == e
    assert element_from_coeffs(ctx, element_to_coeffs(e)) == e
    assert flatten(e) == tuple(itertools.chain.from_iterable(e.coeffs))


def test_element_json_round_trip():
    ctx = ring(2, 3, 5)
    a = sample_element(ctx, Random(31), full_support=False)
    assert element_from_coeffs(ctx, element_to_coeffs(a)) == a


def test_element_json_rejects_garbage():
    ctx = ring(2, 3, 5)
    with pytest.raises(ValueError):
        element_from_coeffs(ctx, [[9, 0, [1, 0, 0]]])
    with pytest.raises(ValueError):
        element_from_coeffs(ctx, [[0, 0, [1, 0]]])
    with pytest.raises(ValueError):
        element_from_coeffs(ctx, [[0, 0, [1, 0, 0]], [0, 0, [1, 0, 0]]])


@pytest.mark.parametrize(
    "entry",
    [
        [0, 0, [1.0, 0, 0]],  # float coefficient
        [0, 0, [True, 0, 0]],  # bool coefficient
        [0, 0, ["1", 0, 0]],  # string coefficient
        [1.0, 0, [1, 0, 0]],  # float rotation index
        [0, True, [1, 0, 0]],  # bool reflection bit
    ],
)
def test_element_from_coeffs_rejects_entries_that_are_not_ints(entry):
    ctx = ring(2, 3, 5)
    with pytest.raises(ValueError):
        element_from_coeffs(ctx, [entry])


@pytest.mark.parametrize("m", [4.0, True, "4"])
def test_ring_ctx_from_json_rejects_m_that_is_not_an_int(m):
    obj = dict(ring_ctx_to_json(ring(3, 2, 4)), m=m)
    with pytest.raises(ValueError):
        ring_ctx_from_json(obj)


def test_ring_ctx_json_round_trip():
    ctx = ring(3, 2, 4)
    assert ring_ctx_from_json(ring_ctx_to_json(ctx)) == ctx


def test_ctx_mismatch_rejected():
    a = ring_one(ring(2, 2, 3))
    b = ring_one(ring(2, 2, 4))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_element_rejects_coefficients_that_are_not_tuples():
    # the dense view's one form: a tuple of 2m tuples of n ints in 0..p-1,
    # so that equal elements have equal halves
    ctx = ring(3, 2, 2)
    one = ring_one(ctx)
    assert RingElement.from_coeffs(ctx, one.coeffs) == one
    for coeffs in (list(one.coeffs), tuple(map(list, one.coeffs)), one.coeffs[1:]):
        with pytest.raises(ValueError, match="coefficients must be"):
            RingElement.from_coeffs(ctx, coeffs)
    # unreduced, negative, bool or oversized coordinates
    f2 = ring(2, 1, 3)
    assert RingElement.from_coeffs(f2, ((1,),) * 6) != RingElement.zero(f2)
    for coeffs in (((3,),) * 6, ((-1,),) + ((0,),) * 5, ((True,),) + ((0,),) * 5):
        with pytest.raises(ValueError, match="not a reduced field element"):
            RingElement.from_coeffs(f2, coeffs)
    big = ring(65521, 1, 2)
    with pytest.raises(ValueError, match="not a reduced field element"):
        RingElement.from_coeffs(big, ((1 << 70,),) + ((0,),) * 3)
