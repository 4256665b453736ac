"""Arithmetic in F_p and small extension fields, plus exact linear solving.

Field elements are fixed-length coefficient tuples (little endian, length n)
relative to a FieldCtx that pins the prime p, a monic irreducible modulus of
degree n, and a generator t of the multiplicative group.  Everything is exact
integer arithmetic.  Field sizes are capped at desk scale so that p^n - 1
factors by trial division.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

MAX_PRIME = (1 << 16) - 1
MAX_DEGREE = 8
MAX_ORDER = 1 << 20  # cap on p^n


def is_prime(num: int) -> bool:
    if num < 2:
        return False
    if num < 4:
        return True
    if num % 2 == 0:
        return False
    f = 3
    while f * f <= num:
        if num % f == 0:
            return False
        f += 2
    return True


def _prime_factors(x: int) -> List[int]:
    """Distinct prime factors by trial division."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


# -- dense little-endian polynomials over F_p, trimmed (no trailing zeros) --


def _trim(c: Sequence[int]) -> Tuple[int, ...]:
    k = len(c)
    while k and c[k - 1] == 0:
        k -= 1
    return tuple(c[:k])


def _psub(a, b, p) -> Tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _trim(out)


def _pmul(a, b, p) -> Tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % p for v in out])


def _pmod(a, b, p) -> Tuple[int, ...]:
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    deg_b = len(b) - 1
    for i in range(len(a) - 1, deg_b - 1, -1):
        f = (a[i] * inv_lead) % p
        if f:
            for j, bv in enumerate(b):
                a[i - deg_b + j] = (a[i - deg_b + j] - f * bv) % p
    return _trim(a)


def _pgcd(a, b, p):
    """The monic gcd of a and b."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((v * inv) % p for v in a)
    return a


class _Kronecker:
    """F_p[u] modulo a monic f of degree n, an element packed into one int.

    Coefficient r of an element sits in lane r, bits wide, below p
    (Kronecker substitution: von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4).  A product is one int multiply, which leaves 2n - 1
    lanes of at most n (p - 1)^2.  Each lane k >= n is folded back as that
    lane times u^k mod f, one multiply-add each, so every lane then holds
    at most bound = n (p - 1)^2 (1 + (n - 1)(p - 1)).  reduce is their
    lane_mod, one pass as a lane holds bound << bitlen(bound) + 1.
    f need only be monic: Rabin's test runs on candidates that are not
    irreducible.
    """

    __slots__ = ("p", "n", "bits", "lane", "low", "folds", "reduce")

    def __init__(self, p: int, modulus: Sequence[int]):
        n = len(modulus) - 1
        bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
        bits = lane_width(bound << bound.bit_length() + 1)
        self.p, self.n, self.bits = p, n, bits
        self.lane = (1 << bits) - 1
        self.low = (1 << n * bits) - 1
        self.reduce = lane_mod(p, bound, bits, n)
        # (shift of lane k, u^k mod f) for k = n .. 2n - 2: u^n = -(f_0 + .. + f_{n-1} u^{n-1}),
        # and u times a reduced element shifts it up one lane, its top lane times u^n
        top = (n - 1) * bits
        neg = power = pack([-c % p for c in modulus[:n]], bits)
        self.folds = []
        for k in range(n, 2 * n - 1):
            self.folds.append((k * bits, power))
            power = self.reduce(((power & ((1 << top) - 1)) << bits) + (power >> top) * neg)

    def pack(self, coeffs) -> int:
        """The element with these coefficients (at most n), each taken mod p."""
        return pack([c % self.p for c in coeffs], self.bits)

    def unpack(self, x: int) -> tuple:
        """The n coefficients of x."""
        return tuple(unpack(x, self.n, self.bits))

    def mul(self, x: int, y: int) -> int:
        z = x * y
        low = z & self.low
        for shift, fold in self.folds:
            low += ((z >> shift) & self.lane) * fold
        return self.reduce(low)

    def pow(self, x: int, e: int) -> int:
        """x^e for e >= 0, by left-to-right square and multiply."""
        if not e:
            return 1
        mul, r = self.mul, x
        for bit in bin(e)[3:]:
            r = mul(r, r)
            if bit == "1":
                r = mul(r, x)
        return r

    def generates(self, t) -> bool:
        """Whether t has order p^n - 1: t^(p^n - 1) == 1 and t^((p^n - 1)/q) != 1
        for every prime q dividing p^n - 1.

        Then F_p[u] / f has p^n - 1 units, so it is a field: the test also
        proves f irreducible.
        """
        order = self.p**self.n - 1
        x = self.pack(t)
        s, q = x, 1  # s^q is x^order, also when order is 1 and has no prime factor
        for q in _prime_factors(order):
            s = self.pow(x, order // q)
            if s == 1:
                return False
        return self.pow(s, q) == 1


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1 over F_p."""
    poly = _trim(poly)
    if len(poly) < 2 or poly[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    deg = len(poly) - 1
    if deg == 1:
        return True
    kernel = _Kronecker(p, poly)
    x = kernel.pack((0, 1))
    # x^(p^k) mod poly for k = 0 .. deg via iterated Frobenius
    frob = [x]
    for _ in range(deg):
        frob.append(kernel.pow(frob[-1], p))
    if frob[deg] != x:
        return False
    for q in _prime_factors(deg):
        if _pgcd(_psub(kernel.unpack(frob[deg // q]), (0, 1), p), poly, p) != (1,):
            return False
    return True


def find_irreducible(p: int, n: int, rng: Random) -> Tuple[int, ...]:
    """Random monic irreducible of degree n; deterministic for a given rng."""
    if n == 1:
        return (rng.randrange(p), 1)
    while True:
        cand = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        if is_irreducible(cand, p):
            return cand


def find_primitive(p: int, n: int, modulus: Sequence[int], rng: Random):
    """Random search for a generator of the multiplicative group of F_{p^n}.

    Draws n values per candidate and skips zero; F_2 has only 1 and draws nothing.
    """
    if p**n == 2:
        return (1,)
    kernel = _Kronecker(p, _trim(modulus))
    while True:
        cand = tuple(rng.randrange(p) for _ in range(n))
        if kernel.generates(cand):
            return cand


def _pad_to(c: Sequence[int], n: int) -> Tuple[int, ...]:
    return tuple(c) + (0,) * (n - len(c))


@dataclass(frozen=True)
class FieldCtx:
    """F_{p^n} as F_p[u] modulo a monic irreducible; all invariants re-checked.

    `t` generates the multiplicative group, so its powers 1, t, .., t^{n-1}
    are an F_p-basis of the field; the basis constructions downstream rely on
    that.
    """

    p: int
    n: int
    modulus: tuple
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "modulus", tuple(self.modulus))
        object.__setattr__(self, "t", tuple(self.t))
        p, n = self.p, self.n
        check_order(p, n)
        modulus, t = self.modulus, self.t
        monic = len(modulus) == n + 1 and modulus[-1] == 1
        reduced = all(0 <= c < p for c in modulus) and all(0 <= c < p for c in t)
        # a t of order p^n - 1 proves the modulus irreducible (_Kronecker.generates);
        # only a rejection runs the checks in order, for the first failure
        kernel = _Kronecker(p, modulus) if monic and reduced else None
        if not (kernel and len(t) == n and kernel.generates(t)):
            if not monic:
                raise ValueError("modulus must be monic of degree n")
            if any(not (0 <= c < p) for c in modulus):
                raise ValueError("modulus coefficients must be reduced mod p")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
            if len(t) != n or any(not (0 <= c < p) for c in t):
                raise ValueError("t must be a length-n coefficient vector mod p")
            raise ValueError("t must generate the multiplicative group")
        object.__setattr__(self, "_zero", (0,) * n)
        object.__setattr__(self, "_one", (1,) + (0,) * (n - 1))
        # f_mul is cached on the context: hash the fields once
        object.__setattr__(self, "_hash", hash((p, n, self.modulus, self.t)))
        # f_pow, and so the twist root of every ring over this field, runs on it
        object.__setattr__(self, "_kernel", kernel)

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p**self.n

    @property
    def zero(self) -> tuple:
        return self._zero

    @property
    def one(self) -> tuple:
        return self._one

    def from_int(self, c: int) -> tuple:
        """Embed an integer as a constant field element."""
        return (c % self.p,) + (0,) * (self.n - 1)


def check_order(p: int, n: int) -> None:
    """Raise ValueError unless F_{p^n} is within the desk-scale caps.

    p is compared with MAX_PRIME before is_prime runs its trial division.
    """
    if p > MAX_PRIME or not is_prime(p):
        raise ValueError("p must be a prime below 2^16")
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}")
    if p**n > MAX_ORDER:
        raise ValueError("field order exceeds the desk-scale cap")


def make_field_ctx(p: int, n: int, rng) -> FieldCtx:
    """Build a field context; rng may be a seed int or a Random instance."""
    if not isinstance(rng, Random):
        rng = Random(rng)
    check_order(p, n)
    modulus = find_irreducible(p, n, rng)
    t = find_primitive(p, n, modulus, rng)
    return FieldCtx(p, n, modulus, t)


def f_add(ctx: FieldCtx, a, b) -> tuple:
    p = ctx.p
    return tuple((x + y) % p for x, y in zip(a, b))


# Bounded so long campaigns over many fresh fields do not grow it without
# limit; one attack at the size cap touches far fewer distinct products.
@lru_cache(maxsize=1 << 16)
def f_mul(ctx: FieldCtx, a, b) -> tuple:
    p, n = ctx.p, ctx.n
    if n == 1:
        return ((a[0] * b[0]) % p,)
    return _pad_to(_pmod(_pmul(a, b, p), ctx.modulus, p), n)


def f_pow(ctx: FieldCtx, a, e: int) -> tuple:
    """a^e for e >= 0."""
    if e < 0:
        raise ValueError("negative exponent")
    kernel = ctx._kernel
    return kernel.unpack(kernel.pow(kernel.pack(a), e))


def powers(ctx: FieldCtx, a, count: int) -> list:
    """a^0 .. a^{count-1}."""
    out = [ctx.one]
    for _ in range(1, count):
        out.append(f_mul(ctx, out[-1], a))
    return out


def element_from_index(ctx: FieldCtx, idx: int) -> tuple:
    """The idx-th field element under base-p digit order, 0 <= idx < p^n."""
    if not 0 <= idx < ctx.order:
        raise ValueError("index out of range")
    out = []
    for _ in range(ctx.n):
        out.append(idx % ctx.p)
        idx //= ctx.p
    return tuple(out)


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus), "t": list(ctx.t)}


def field_from_json(obj: dict) -> FieldCtx:
    """The field of a JSON object; p, n and every coefficient must be plain ints."""
    p, n, modulus, t = obj["p"], obj["n"], tuple(obj["modulus"]), tuple(obj["t"])
    if any(type(v) is not int for v in (p, n) + modulus + t):
        raise ValueError("field entries must be ints")
    return FieldCtx(p, n, modulus, t)


# -- exact linear algebra over F_p --


def _check_shape(rows, rhs) -> int:
    """Number of unknowns of the system, after checking that it is rectangular."""
    if len(rows) == 0 or len(rows) != len(rhs):
        raise ValueError("need equally many rows and right-hand sides, at least one")
    c = len(rows[0])
    if c == 0 or any(len(row) != c for row in rows):
        raise ValueError("rows must be non-empty and equally long")
    return c


def _row_reduce(rows, rhs, p: int):
    """Forward elimination of [A | b] over F_p, then back-substitution.

    Pivots are taken column by column, leftmost first, and pivot rows are
    scaled to a leading 1.  Returns (echelon_rows, pivot_cols, solution) with
    free variables set to zero, or None when the system is inconsistent.
    """
    c = _check_shape(rows, rhs)
    r = len(rows)
    a = [[v % p for v in row] + [rhs[i] % p] for i, row in enumerate(rows)]
    piv_cols: List[int] = []
    row_i = 0
    for col in range(c):
        piv = None
        for k in range(row_i, r):
            if a[k][col]:
                piv = k
                break
        if piv is None:
            continue
        a[row_i], a[piv] = a[piv], a[row_i]
        inv = pow(a[row_i][col], -1, p)
        a[row_i] = [(v * inv) % p for v in a[row_i]]
        pivot_row = a[row_i]
        for k in range(row_i + 1, r):
            f = a[k][col]
            if f:
                a[k] = [(x - f * y) % p for x, y in zip(a[k], pivot_row)]
        piv_cols.append(col)
        row_i += 1
        if row_i == r:
            break
    # echelon form leaves the rows below the rank all-zero in the coefficients
    for k in range(row_i, r):
        if a[k][c]:
            return None
    x = [0] * c
    for idx in range(len(piv_cols) - 1, -1, -1):
        col = piv_cols[idx]
        row = a[idx]
        s = row[c]
        for j in range(col + 1, c):
            if row[j] and x[j]:
                s -= row[j] * x[j]
        x[col] = s % p
    return a, piv_cols, x


def gauss_solve_full(rows, rhs, p: int):
    """Row-reduce A x = b over F_p.

    Returns (solution, kernel_basis, pivot_cols) with free variables set to
    zero, or None when the system is inconsistent.  Adding any combination of
    kernel vectors to the particular solution stays a solution.  This list
    elimination is the reference the packed gauss_solve is tested against.
    """
    reduced = _row_reduce(rows, rhs, p)
    if reduced is None:
        return None
    a, piv_cols, x = reduced
    c = len(x)
    pivot_set = set(piv_cols)
    kernel = []
    for free in range(c):
        if free in pivot_set:
            continue
        v = [0] * c
        v[free] = 1
        for idx in range(len(piv_cols) - 1, -1, -1):
            col = piv_cols[idx]
            row = a[idx]
            s = 0
            for j in range(col + 1, c):
                if row[j] and v[j]:
                    s += row[j] * v[j]
            v[col] = (-s) % p
        kernel.append(v)
    return x, kernel, piv_cols


# -- the same solve on rows packed into ints -----------------------------------

_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# array type codes by lane width; a width without one packs through bytes
_LANE_CODES = {array(code).itemsize * 8: code for code in "HIQ"}
# Lanes divisible by p that _eliminate_fp's row walk skips one at a time,
# counted from the row's last multiply-add, before one lane_mod of the row; a
# live row meets k in a row with probability about p^-k.  Solve medians in ms
# for runs of 2/4/8/16 (in-process, 2-vCPU shared host, Python 3.11): (3,2,4)
# .068/.075/.080/.074, (7,1,8) .124/.121/.116/.123, (5,2,12) 1.25/1.09/1.08/1.08,
# (3,8,4) .86/.79/.77/.75, (3,2,16) 2.60/2.43/2.39/2.28: none wins everywhere.
_MOD_P_RUN = 8


def lane_width(bound: int) -> int:
    """The first of 16, 32, 64, 128, ... bits whose lanes hold every value up to bound."""
    bits = 16
    while bound >> bits:
        bits *= 2
    return bits


# a shape's field kernel, ring and odd-p solve reduce the same lanes each time:
# build them once; 16 layouts hold the 13 of a round robin over the five
# shapes of twisted-grid (5 field kernels, 5 rings and 3 odd-p solves)
@lru_cache(maxsize=16)
def lane_mod(p: int, bound: int, bits: int, count: int) -> Callable[[int], int]:
    """mod(x): x with each of its count lanes, bits wide (a multiple of 8) and
    at most bound (below 2^bits), replaced by that lane mod p: the one
    reduction of packed F_p lanes.  At p = 2 one AND with bit 0 of every lane.

    At odd p Barrett's method (CRYPTO '86): with M = ceil(2^s / p) and
    e = M p - 2^s < p, v M / 2^s = v / p + v e / (p 2^s), so (v M) >> s is
    v // p for every v <= bound once bound e < 2^s.  s is the least such, at
    most bitlen(bound) + bitlen(p), so M <= 2^(bitlen(bound) + 1).  Each of
    the fewest passes P with bound M < 2^(P bits), at most 3, takes lanes
    k, k + P, .., whose products with M never meet, and reads each quotient
    from bits s .. P bits - 1 of its product.  p times a quotient is at most
    its lane, so nothing borrows.  The masks come from bytes patterns.
    """
    size = bits // 8
    if p == 2:
        return int.from_bytes(b"\1".ljust(size, b"\0") * count, "little").__and__
    s = bound.bit_length()
    while bound * (-(1 << s) % p) >> s:
        s += 1
    m = -(-(1 << s) // p)
    passes = -(-(bound * m).bit_length() // bits)
    ones = int.from_bytes(b"\1".ljust(passes * size, b"\0") * -(-count // passes), "little")
    quotients, lanes = ones * ((1 << passes * bits - s) - 1), ones * ((1 << bits) - 1)
    if passes == 1:
        return lambda x: x - p * (x * m >> s & quotients)
    masks = [(lanes << k, quotients << k) for k in range(0, passes * bits, bits)]
    (l0, q0), (l1, q1), (l2, q2) = masks + [(0, 0)] * (3 - passes)  # quotients: disjoint lanes
    return lambda x: x - p * (
        (x & l0) * m >> s & q0 | (x & l1) * m >> s & q1 | (x & l2) * m >> s & q2)


def lane_bits(p: int, rows: int) -> int:
    """Lane width of a packed system of rows equations over F_p.

    1 for p = 2, which eliminates with XOR.  Otherwise the lane_width of
    p + rows * (p - 1)^2: a row gets at most one multiple (p - f) * pivot_row,
    with f and the reduced pivot row's entries below p, per pivot, so no lane
    of a row that started below p ever carries into the next.  _eliminate_fp
    reduces such lanes by the lane_mod of that bound.
    """
    return 1 if p == 2 else lane_width(p + rows * (p - 1) ** 2)


def pack(values, bits: int) -> int:
    """The int whose lane j, bits wide, holds values[j] (each below 2^bits)."""
    if bits == 1:
        # the values, last first, as the digits 0/1 of one int
        return int(bytes(values[::-1]).translate(_BINARY_DIGITS), 2)
    code = _LANE_CODES.get(bits)
    if code is None:
        raw = b"".join(v.to_bytes(bits // 8, "little") for v in values)
    else:
        lanes = array(code, values)
        if sys.byteorder == "big":
            lanes.byteswap()
        raw = lanes.tobytes()
    return int.from_bytes(raw, "little")


def unpack(x: int, count: int, bits: int) -> Sequence[int]:
    """Lanes 0 .. count-1 of x, for a lane width of at least 8 bits: an
    array for 16-, 32- and 64-bit lanes, a list of ints for wider ones."""
    size = bits // 8
    raw = x.to_bytes(count * size, "little")
    code = _LANE_CODES.get(bits)
    if code is None:
        return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    lanes = array(code, raw)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def mover(rows: int, cols: int, bits: int):
    """move(x, r, c=0): the rows x cols grid x, entry (i, j) in lane
    i * cols + j of `bits` bits, with entry (i, j) taken from x[i - r][j + c],
    both indices wrapping around: every row rotated left by c, then the grid
    rotated down by r rows.  The digital solve shifts a doubled grid instead.
    """
    row = bits * cols
    size = row * rows
    full = (1 << size) - 1
    row_ones = full // ((1 << row) - 1)  # the lowest lane of every row
    lo = [row_ones * ((1 << bits * (cols - c)) - 1) for c in range(cols)]  # columns j < cols - c

    def move(x: int, r: int, c: int = 0) -> int:
        if c:  # a step that wraps to 0 leaves x as it is
            c %= cols
            x = ((x >> bits * c) & lo[c]) | ((x << bits * (cols - c)) & (full ^ lo[c]))
        if r:
            s = row * (r % rows)
            x = ((x << s) & full) | (x >> (size - s))
        return x

    return move


class PackedRows(NamedTuple):
    """Equations over F_p, one int per row: lane j holds the coefficient of
    unknown j, in lanes of lane_bits(p, len(rows)) bits, each below p."""

    rows: list
    unknowns: int
    p: int

    @property
    def bits(self) -> int:
        return lane_bits(self.p, len(self.rows))


def _eliminate_f2(rows: list, c: int) -> Optional[list]:
    """Solve the packed F_2 rows [A | b] (b is bit c) by XOR-basis insertion.

    Each row is XORed with the pivot that holds its lead, its lowest set
    bit, until it is zero or has a lead no pivot holds; it then becomes the
    pivot for that lead.  A row whose lead is bit c reads 0 = 1.  The
    leads of any such basis of the row space are the pivot columns of its
    reduced form, so row order does not change the solution.
    Back-substitution over the leads in descending order, free variables
    zero: a pivot's unknown is its right-hand side plus the parity of the
    later unknowns it holds.
    """
    basis = [0] * c  # lead column -> pivot row, 0 where no pivot has that lead
    for v in rows:
        while v:
            col = (v & -v).bit_length() - 1
            if col == c:
                return None
            pivot = basis[col]
            if not pivot:
                basis[col] = v
                break
            v ^= pivot
    x = 0  # bit j is unknown j
    for col in reversed(range(c)):
        pivot = basis[col]
        if pivot and ((pivot >> c) ^ (pivot & x).bit_count()) & 1:
            x |= 1 << col
    return list(format(x, f"0{c}b")[::-1].encode().translate(_DIGIT_VALUES))


def _eliminate_fp(rows: list, c: int, p: int, bits: int) -> Optional[list]:
    """Solve the packed F_p rows [A | b] (b is lane c) by basis insertion.

    _eliminate_f2's insertion on unreduced lanes (delayed modular
    reduction: Dumas, Gautier & Pernet, ISSAC 2002).  Each row is walked
    from lane 0 and shifted down as it goes, lane 0 being column col.  A
    lane divisible by p is skipped; a lane f = lane % p != 0 is cleared by
    one multiply-add with the pivot that holds col, or, where none does,
    the row is reduced to a leading 1 (mod p, scaled by 1/f, mod p again,
    both by one lane_mod over lane_bits' bound) and becomes that pivot; at
    col == c it reads 0 = b.  The leads of any such basis are the pivot
    columns of the reduced form, so row order does not change the solution.
    Back-substitution over the pivots in descending column order, free
    variables zero.
    """
    mod = lane_mod(p, p + len(rows) * (p - 1) ** 2, bits, c + 1)
    mask = (1 << bits) - 1
    basis = [None] * c  # lead column -> the pivot's reduced lanes past it, as one int
    pivots = []  # (column, reduced lanes from that column to the right-hand side)
    for v in rows:
        col = divisible = 0
        while v:
            lane = v & mask
            if not lane:  # a run of zero lanes
                skip = ((v & -v).bit_length() - 1) // bits
                v >>= skip * bits
                col += skip
                continue
            f = lane % p
            if f:
                if col == c:
                    return None
                tail = basis[col]
                if tail is None:
                    v = mod(mod(v) * pow(f, -1, p))
                    pivots.append((col, unpack(v, c + 1 - col, bits)))
                    basis[col] = v >> bits
                    break
                # lane col + f + (p - f) * 1 is divisible by p: drop it, add the rest
                v = (v >> bits) + (p - f) * tail
                divisible = 0
            else:
                # skipped alone; the _MOD_P_RUN-th since the last multiply-add reduces
                # the whole row once, so a dependent row costs a pass, not a shift per lane
                divisible += 1
                if divisible == _MOD_P_RUN:
                    v = mod(v)
                    continue
                v >>= bits
            col += 1
    x = [0] * c
    solved = []  # (column, value) of the nonzero unknowns found so far
    for col, lanes in sorted(pivots, reverse=True):
        s = lanes[c - col]
        for j, v in solved:
            s -= lanes[j - col] * v
        s %= p
        if s:
            x[col] = s
            solved.append((col, s))
    return x


def gauss_solve_packed(system: PackedRows, rhs) -> Optional[list]:
    """The solution of the packed system against rhs, free variables zero, or None.

    The right-hand side goes into lane `unknowns` of each row.  p = 2 runs
    the XOR-basis insertion, every odd p the delayed-reduction elimination;
    both return exactly what gauss_solve_full returns for the unpacked rows,
    in any row order.
    """
    rows, c, p = system
    if len(rows) == 0 or len(rows) != len(rhs):
        raise ValueError("need equally many rows and right-hand sides, at least one")
    bits = system.bits
    top = c * bits
    packed = [row | (b % p) << top for row, b in zip(rows, rhs)]
    if p == 2:
        return _eliminate_f2(packed, c)
    return _eliminate_fp(packed, c, p, bits)


def gauss_solve(rows, rhs, p: int) -> Optional[list]:
    """The solution of A x = b over F_p with free variables zero, or None.

    This is exactly ``gauss_solve_full(rows, rhs, p)[0]``, without building
    the kernel basis: the rows are packed into ints and solved by
    gauss_solve_packed.  The free-variables-zero solution depends only on
    which columns are pivots, so the packed and the list elimination return
    the same vector.
    """
    c = _check_shape(rows, rhs)
    bits = lane_bits(p, len(rows))
    packed = [pack([v % p for v in row], bits) for row in rows]
    return gauss_solve_packed(PackedRows(packed, c, p), rhs)
