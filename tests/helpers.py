"""Shared oracles and generators for the test suite.

Everything here is deliberately written as straight-line brute force,
independent of the library's own shortcuts, so the tests compare two
implementations that share no code.
"""

import itertools
from random import Random

from twoside.digital import INF, W, w_add, w_mul
from twoside.gf import FieldCtx, element_from_index, make_field_ctx
from twoside.matrices import Circulant, SemiringMatrix
from twoside.twisted_ring import RingCtx, RingElement

# the twisted acceptance grid: (p, extension degree, dihedral m)
TWISTED_GRID = [(2, 2, 3), (3, 2, 4), (5, 1, 6), (2, 3, 5), (7, 1, 8)]

DIGITAL_SIZES = [2, 3, 4, 6, 8]


_FIELD_CACHE = {}


def make_test_field(p: int, n: int, seed: int = 99) -> FieldCtx:
    key = (p, n, seed)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = make_field_ctx(p, n, Random(seed))
    return _FIELD_CACHE[key]


def field_elements(ctx: FieldCtx):
    """Every element of the field, as coefficient tuples."""
    return [tuple(c) for c in itertools.product(range(ctx.p), repeat=ctx.n)]


# -- digital oracles ----------------------------------------------------------


def w_dot(zs, columns, length):
    """Evaluate the combination sum_k z_k * H_k, one fold per component."""
    out = []
    for r in range(length):
        acc = 0
        for z, col in zip(zs, columns):
            acc = w_add(acc, w_mul(z, col[r]))
        out.append(acc)
    return tuple(out)


def w_solutions_exhaustive(columns, target, values):
    """All z tuples over the given value set that hit the target exactly."""
    k = len(columns)
    length = len(target)
    found = []
    for zs in itertools.product(values, repeat=k):
        if w_dot(zs, columns, length) == target:
            found.append(zs)
    return found


def w_rank(v):
    """Sort key realizing the induced order: digit sum first, value second.

    It sums the digits itself, so it stays independent of digital.order_key.
    """
    return (INF, INF) if v == INF else (sum(map(int, str(v))), v)


def naive_mat_mul(sr, a_rows, b_rows):
    """Index-arithmetic triple loop, no transposes, no comprehensions."""
    n = len(a_rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = sr.mul(a_rows[i][0], b_rows[0][j])
            for k in range(1, n):
                acc = sr.add(acc, sr.mul(a_rows[i][k], b_rows[k][j]))
            out[i][j] = acc
    return out


def zeros(sr, n):
    return SemiringMatrix(sr, [[sr.zero] * n for _ in range(n)])


def identity(sr, n):
    return SemiringMatrix(sr, [[sr.one if i == j else sr.zero for j in range(n)] for i in range(n)])


def mat_rows(mat):
    return [list(row) for row in mat.rows]


def sample_w_values(count, bound, rng: Random, inf_prob):
    """count values of W: each is INF with probability inf_prob, else one
    rng.randrange(bound + 1), after one rng.random() per value."""
    return [INF if rng.random() < inf_prob else rng.randrange(bound + 1) for _ in range(count)]


def sample_circulant_with_inf(n, bound, rng: Random, inf_prob) -> Circulant:
    return Circulant(W, sample_w_values(n, bound, rng, inf_prob))


def sample_matrix_with_inf(n, bound, rng: Random, inf_prob) -> SemiringMatrix:
    flat = sample_w_values(n * n, bound, rng, inf_prob)
    return SemiringMatrix(W, [flat[r * n : (r + 1) * n] for r in range(n)])


def dense_replay(solution, other_pk, pairs, gens):
    """Sum of z_k * (gens[i] @ other_pk @ gens[j]) by dense semiring products.

    The replay as the paper writes it; the zero matrix when every z_k is zero.
    """
    acc = None
    for z, (i, j) in zip(solution, pairs):
        if z == W.zero:
            continue
        term = (gens[i] @ other_pk @ gens[j]).scale(z)
        acc = term if acc is None else acc + term
    return zeros(W, other_pk.n) if acc is None else acc


BOOL_OR_AND = None  # filled below


class _BoolSemiring:
    """Tiny exhaustive stand-in: ({False, True}, or, and)."""

    name = "bool"
    zero = False
    one = True

    @staticmethod
    def add(a, b):
        return a or b

    @staticmethod
    def mul(a, b):
        return a and b

    @staticmethod
    def leq(a, b):
        return (a or b) == b


BOOL_OR_AND = _BoolSemiring()


# -- twisted ring oracles ------------------------------------------------------


def dihedral_mul(m: int, g, h):
    """Group law on (rotation exponent, reflection bit) pairs:
    x^i y^k * x^j y^l = x^(i + j) y^l, or x^(i - j) y^(1 - l) when k = 1."""
    (i, k), (j, l) = g, h
    return ((i - j if k else i + j) % m, k ^ l)


def cocycle(ctx: RingCtx, g, h) -> tuple:
    """Twist unit of the product of basis elements g and h: tau^j when g
    carries the reflection and h = x^j y^l, the field one otherwise."""
    return ctx.twist_pows[h[0] % ctx.m] if g[1] else ctx.field.one


def single(ctx: RingCtx, i: int, k: int, coeff=None) -> RingElement:
    """coeff * x^i y^k; coeff defaults to the field one."""
    coeffs = [ctx.field.zero] * ctx.group_size
    coeffs[i + ctx.m * k] = ctx.field.one if coeff is None else tuple(coeff)
    return RingElement.from_coeffs(ctx, tuple(coeffs))


def ring_one(ctx: RingCtx) -> RingElement:
    return single(ctx, 0, 0)


def orbit_span(ctx: RingCtx, k: int, orbits) -> tuple:
    """t^a * (sum of x^e y^k over e in the orbit) for a < n (outer) and each orbit."""
    fld = ctx.field
    out = []
    tp = fld.one
    for _ in range(fld.n):
        for exps in orbits:
            coeffs = [fld.zero] * ctx.group_size
            for e in exps:
                coeffs[e + ctx.m * k] = tp
            out.append(RingElement.from_coeffs(ctx, tuple(coeffs)))
        tp = schoolbook_mul(fld, tp, fld.t)
    return tuple(out)


def symmetric_orbits(m: int) -> list:
    """The exponent sets {j, m - j} mod m for 0 <= j <= m/2."""
    return [{j, -j % m} for j in range(m // 2 + 1)]


def basis_r1(ctx: RingCtx) -> tuple:
    """t^a x^j for a < n (outer) and j < m: an F_p-basis of the rotation
    subring, the paper's left basis."""
    return orbit_span(ctx, 0, [{j} for j in range(ctx.m)])


def basis_a1(ctx: RingCtx) -> tuple:
    """t^a (x^j + x^(m-j)) for a < n (outer) and 0 <= j <= m/2: the symmetric
    subspace of the rotation half."""
    return orbit_span(ctx, 0, symmetric_orbits(ctx.m))


def basis_a2(ctx: RingCtx) -> tuple:
    """t^a S_j, S_j = x^j y + x^(m-j) y, for a < n (outer) and 0 <= j <= m/2:
    the symmetric reflection subspace, the right-factor key space and the
    paper's right basis."""
    return orbit_span(ctx, 1, symmetric_orbits(ctx.m))


def sample_any_element(ctx: RingCtx, rng: Random) -> RingElement:
    """A ring element whose coefficients may be zero: one rng.randrange(0, p^n) each."""
    fld = ctx.field
    draws = [element_from_index(fld, rng.randrange(0, fld.order)) for _ in range(ctx.group_size)]
    return RingElement.from_coeffs(ctx, tuple(draws))


def naive_ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Multiply via the full 2m x 2m basis table: coefficients times cocycle."""
    ctx = a.ctx
    m, fld = ctx.m, ctx.field
    group = [(i, k) for k in (0, 1) for i in range(m)]  # the order of coeffs
    out = [fld.zero] * ctx.group_size
    for g, ca in zip(group, a.coeffs):
        if not any(ca):
            continue
        for h, cb in zip(group, b.coeffs):
            if not any(cb):
                continue
            i, k = dihedral_mul(m, g, h)
            c = schoolbook_mul(fld, schoolbook_mul(fld, ca, cb), cocycle(ctx, g, h))
            out[i + m * k] = tuple((x + y) % fld.p for x, y in zip(out[i + m * k], c))
    return RingElement.from_coeffs(ctx, tuple(out))


def dense_basis_products(params):
    """(left_basis, right_basis, [(L * h) * R ...]) by generic ring products.

    The build as the paper writes it: left basis outer, right basis inner.
    """
    left_basis = basis_r1(params.ctx)
    right_basis = basis_a2(params.ctx)
    products = [(li * params.h) * rj for li in left_basis for rj in right_basis]
    return left_basis, right_basis, products


def dense_twisted_replay(params, solution, other_pk, left_basis, right_basis):
    """Sum of z * (L_i * other_pk) * R_j^adj by generic ring products.

    The replay as the paper writes it; the zero element when every z is zero.
    """
    acc = RingElement.zero(params.ctx)
    width = len(right_basis)
    for idx, z in enumerate(solution):
        if z:
            i, j = divmod(idx, width)
            term = (left_basis[i] * other_pk) * right_basis[j].adjoint()
            acc = acc + term.scale(z)
    return acc


def sample_span(basis, ctx: RingCtx, rng: Random) -> RingElement:
    """sum c * b over the basis elements b, one rng.randrange(p) each, in order.

    The samplers as first written: build the basis, add scaled copies.
    """
    acc = RingElement.zero(ctx)
    for elem in basis:
        c = rng.randrange(ctx.field.p)
        if c:
            acc = acc + elem.scale(c)
    return acc


def symmetric_reflection_vectors(ctx: RingCtx):
    """Dimension count oracle: enumerate the constraint r_i = r_{m-i} directly.

    Returns the list of free coefficient slots of the symmetric reflection
    subspace, so its F_p dimension is n * len(result).
    """
    m = ctx.m
    slots = [0]
    slots.extend(range(1, (m + 1) // 2))
    if m % 2 == 0 and m > 1:
        slots.append(m // 2)
    return slots


# -- misc ----------------------------------------------------------------------


def random_digit_tie_pair(rng: Random):
    """Two distinct finite values with equal digit sums."""
    digits = [rng.randrange(10) for _ in range(rng.randrange(1, 6))]
    while sum(digits) == 0:
        digits = [rng.randrange(10) for _ in range(rng.randrange(1, 6))]
    a = int("".join(map(str, digits)))
    shuffled = digits[:]
    rng.shuffle(shuffled)
    # appending a zero keeps the digit sum; guarantees a != b half the time
    b = int("".join(map(str, shuffled)) + ("0" if rng.random() < 0.5 else ""))
    return a, b


def schoolbook_mul(ctx: FieldCtx, a, b) -> tuple:
    """a * b in F_{p^n}: every product a_i b_j u^(i+j), then each u^k with
    k >= n rewritten top down as -u^(k-n) times the modulus below u^n."""
    p, n, modulus = ctx.p, ctx.n, ctx.modulus
    prod = [0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            prod[i + j] += a[i] * b[j]
    for k in range(2 * n - 2, n - 1, -1):
        top, prod[k] = prod[k], 0
        for i in range(n):
            prod[k - n + i] -= top * modulus[i]
    return tuple(v % p for v in prod[:n])


def schoolbook_pow(ctx: FieldCtx, a, e: int) -> tuple:
    """a^e for e >= 0 by binary exponentiation over schoolbook_mul."""
    result = (1,) + (0,) * (ctx.n - 1)
    for bit in bin(e)[2:]:
        result = schoolbook_mul(ctx, result, result)
        if bit == "1":
            result = schoolbook_mul(ctx, result, a)
    return result


def gauss_residual(rows, x, rhs, p):
    """Max-norm of A x - b over F_p; zero means exact solution."""
    worst = 0
    for row, b in zip(rows, rhs):
        s = sum(r * v for r, v in zip(row, x)) % p
        worst = max(worst, (s - b) % p)
    return worst
