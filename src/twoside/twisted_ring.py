"""Twisted group rings of dihedral groups over small finite fields.

Group elements x^i y^k of <x, y | x^m = y^2 = 1, y x^a = x^{m-a} y> are (i, k)
pairs with 0 <= i < m and k in {0, 1}; a ring element keeps its coefficients
as two ints of F_p lanes (RingLanes).  Multiplying (a x^i y) by (b x^j y^k)
picks up the twist factor tau^j, where tau is the highest-order root of unity
in the field whose order divides m.  That divisibility is exactly what makes
the ring associative: any unit of larger order breaks associativity on
products whose rotation exponents wrap past m.  tau is derived canonically
from the field generator t as t^((p^n - 1) / gcd(m, p^n - 1)).  The group law
and the twist factor as functions of two group elements are written out in
tests/helpers.py, which checks the axioms they satisfy.

The adjoint rescales the x^i y^k coefficient by tau^{-i}.  On elements of the
symmetric reflection subspace (coefficients equal at x^j y and x^{m-j} y) the
adjoint exactly cancels the twist picked up during multiplication, which
gives the commutation identities the key exchange and the attack both lean
on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import mul
from random import Random
from typing import Callable, NamedTuple, Sequence, Tuple

from .gf import (
    FieldCtx,
    element_from_index,
    f_add,
    f_mul,
    f_pow,
    field_from_json,
    field_to_json,
    lane_mod,
    lane_width,
    mover,
    pack,
    powers,
    unpack,
)

MAX_M = 64  # keeps the ring lanes below 2^38 (RingLanes); enough for every desk-scale group here

class RingLanes(NamedTuple):
    """The layout of a ring element's rotation and reflection halves, and their products.

    Lane k * n + r of a half, bits wide, holds coordinate r of the x^k (or
    x^k y) coefficient; a RingElement keeps every lane below p.  Products may
    hold unreduced lanes: bits is the gf.lane_width of m (p - 1)(q - 1),
    q = p^n, the largest sum twisted_kex forms between reductions (times, and
    replay's m scaled halves), below 2^38 under MAX_PRIME, MAX_ORDER, MAX_M.
    mod, the gf.lane_mod of every lane of 2w halves, each up to that bound
    m (p - 1)(q - 1), is their one reduction.
    """

    n: int
    m: int
    bits: int
    first: int  # lane 0 of every slot of a half
    low: int  # lanes r < n - 1 of every slot of 2w halves, w = m // 2 + 1
    top: int  # lane n - 1 of every slot of 2w halves
    neg: int  # -modulus in lanes 0 .. n-1: u^n = sum(neg_r u^r)
    full: int  # all m * n lanes of a half
    rotate: Callable  # rotate(y, i) = x^i * y: slot k moves to slot k + i mod m
    mod: Callable  # mod(x): x, up to 2w halves, with every lane reduced mod p

    def reduce(self, x: int, count: int) -> int:
        """x with its count lanes, up to n times 2w halves, reduced mod p by a mod per 2w halves."""
        span = 2 * (self.m // 2 + 1) * self.full.bit_length()
        if count * self.bits <= span:
            return self.mod(x)
        mask = (1 << span) - 1
        return sum([self.mod(x >> k & mask) << k for k in range(0, count * self.bits, span)])

    def values(self, x: int, count: int) -> Sequence[int]:
        """The count lanes of x reduced mod p, as gf.unpack reads reduce(x, count)."""
        return unpack(self.reduce(x, count), count, self.bits)

    def reduce_halves(self, rot: int, refl: int) -> Tuple[int, int]:
        """rot and refl, two halves, with their lanes reduced mod p by one mod."""
        half = self.m * self.n * self.bits
        x = self.mod(rot | refl << half)
        return x & self.full, x >> half

    def u_powers(self, y: int) -> list:
        """y, u y, .., u^{n-1} y for y with reduced lanes, u the field's variable.

        y is a half or up to 2w side by side.  u shifts every slot up one lane
        and adds its top lane times -modulus: lanes of u^d y reach p^d (p - 1).
        """
        out = [y]
        down = self.bits * (self.n - 1)
        for _ in range(self.n - 1):
            y = ((y & self.low) << self.bits) + ((y & self.top) >> down) * self.neg
            out.append(y)
        return out

    def scale(self, ys: list, s) -> int:
        """s * y for ys = u_powers(y): n multiply-adds, lanes at most (p - 1)(q - 1)."""
        return sum(map(mul, s, ys))

    def times(self, g: int, ys: list) -> int:
        """g * y in F_q[x]/(x^m - 1) for a half g with reduced lanes and ys = u_powers(y).

        g = sum_a u^a g_a with g_a = sum_i g_ia x^i over F_p, and g_a as an int
        of one lane per slot, (g >> a * bits) & first, times u^a y is the
        product by Kronecker substitution (x -> 2^(n * bits)): n int
        multiplies.  Slots m .. 2m - 2 of the sum wrap onto slots 0 .. m - 2
        (x^m = 1), and every lane sums m products, at most m (p - 1)(q - 1).
        """
        bits, first = self.bits, self.first
        acc = sum([((g >> a * bits) & first) * y for a, y in enumerate(ys)])
        return (acc & self.full) + (acc >> self.m * self.n * bits)


def _ring_lanes(fld: FieldCtx, m: int) -> RingLanes:
    """The lane layout of the halves of the ring over fld with dihedral m."""
    p, n = fld.p, fld.n
    bits = lane_width(m * (p - 1) * (fld.order - 1))
    ones, zeros, slots = b"\xff" * (bits // 8), bytes(bits // 8), 2 * (m // 2 + 1) * m
    first = int.from_bytes((ones + zeros * (n - 1)) * m, "little")
    low = int.from_bytes((ones * (n - 1) + zeros) * slots, "little")
    top = int.from_bytes((zeros * (n - 1) + ones) * slots, "little")
    neg = pack([-c % p for c in fld.modulus[:n]], bits)
    full = (1 << m * n * bits) - 1
    mod = lane_mod(p, m * (p - 1) * (fld.order - 1), bits, slots * n)
    return RingLanes(n, m, bits, first, low, top, neg, full, mover(m, 1, n * bits), mod)


@dataclass(frozen=True)
class RingCtx:
    """Field plus dihedral parameter plus the derived twist table and lane layout."""

    field: FieldCtx
    m: int
    twist_pows: tuple  # tau^0 .. tau^{m-1}; tau^m = 1, so tau^{-e} is twist_pows[-e]
    lanes: RingLanes = field(compare=False, repr=False)  # follows from field and m

    @property
    def group_size(self) -> int:
        return 2 * self.m


def make_ring_ctx(fld: FieldCtx, m: int) -> RingCtx:
    """Attach the dihedral parameter and derive the twist root of unity."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}")
    units = fld.order - 1
    d = math.gcd(m, units)
    tau = f_pow(fld, fld.t, units // d)
    return RingCtx(fld, m, tuple(powers(fld, tau, m)), _ring_lanes(fld, m))


@dataclass(frozen=True)
class RingElement:
    """The rotation and reflection halves in ctx.lanes' layout, every lane below p."""

    ctx: RingCtx = field(repr=False)
    rot: int
    refl: int

    @classmethod
    def from_coeffs(cls, ctx: RingCtx, coeffs) -> "RingElement":
        """The element whose coeffs view is coeffs; ValueError unless that is a
        tuple of 2m tuples of n plain ints in 0..p-1, checked as JSON items are."""
        if type(coeffs) is not tuple or len(coeffs) != ctx.group_size or any(
            type(c) is not tuple for c in coeffs
        ):
            raise ValueError("coefficients must be a tuple of 2*m field-element tuples")
        return element_from_coeffs(ctx, [(i % ctx.m, i // ctx.m, c) for i, c in enumerate(coeffs)])

    @property
    def coeffs(self) -> tuple:
        """The dense view: 2m field-element tuples, index i + m*k holding x^i y^k."""
        return tuple(zip(*[iter(flatten(self))] * self.ctx.field.n))

    @classmethod
    def zero(cls, ctx: RingCtx) -> "RingElement":
        return cls(ctx, 0, 0)

    def _require_same(self, other: "RingElement") -> None:
        if self.ctx != other.ctx:
            raise ValueError("ring context mismatch")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._require_same(other)
        fld = self.ctx.field
        return RingElement.from_coeffs(
            self.ctx, tuple(f_add(fld, a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._require_same(other)
        ctx = self.ctx
        m = ctx.m
        fld = ctx.field
        zero = fld.zero
        pows = ctx.twist_pows
        out = [zero] * (2 * m)
        for idx_a, ca in enumerate(self.coeffs):
            if ca == zero:
                continue
            ia = idx_a % m
            refl_a = idx_a >= m
            for idx_b, cb in enumerate(other.coeffs):
                if cb == zero:
                    continue
                ib = idx_b % m
                c = f_mul(fld, ca, cb)
                if refl_a:
                    c = f_mul(fld, c, pows[ib])
                    io = (ia - ib) % m
                    ko = idx_b < m  # reflection bit flips
                else:
                    io = (ia + ib) % m
                    ko = idx_b >= m
                o = io + (m if ko else 0)
                out[o] = f_add(fld, out[o], c)
        return RingElement.from_coeffs(ctx, tuple(out))

    def scale(self, c) -> "RingElement":
        """Multiply every coefficient by a field element (or an F_p int)."""
        fld = self.ctx.field
        if isinstance(c, int):
            c = fld.from_int(c)
        return RingElement.from_coeffs(self.ctx, tuple(f_mul(fld, c, a) for a in self.coeffs))

    def adjoint(self) -> "RingElement":
        """Rescale the x^i y^k coefficient by tau^{-i}."""
        ctx = self.ctx
        m = ctx.m
        fld = ctx.field
        pows = ctx.twist_pows
        out = list(self.coeffs)
        for idx, c in enumerate(out):
            i = idx % m
            if i and c != fld.zero:
                out[idx] = f_mul(fld, c, pows[-i])
        return RingElement.from_coeffs(ctx, tuple(out))

    def __repr__(self) -> str:
        terms = []
        m = self.ctx.m
        for idx, c in enumerate(self.coeffs):
            if any(c):
                i, k = idx % m, idx // m
                name = f"x^{i}" if not k else (f"x^{i}y" if i else "y")
                if idx == 0:
                    name = "1"
                terms.append(f"{list(c)}*{name}")
        return "RingElement(" + (" + ".join(terms) if terms else "0") + ")"


def orbit(m: int, j: int) -> set:
    """Rotation exponents of the j-th symmetric orbit: {j, m - j} mod m."""
    return {j, (m - j) % m}


def _sample_orbits(ctx: RingCtx, rng: Random, k: int, orbit_of) -> RingElement:
    """sum over a < n and the orbits of c * t^a * (sum of x^e y^k, e in orbit).

    orbit_of[e] numbers e's orbit by its least exponent j, and one
    rng.randrange(p) per (a, j), a outer, follows the basis order t^a x^j
    (k = 0) or t^a S_j (k = 1, S_j = x^j y + x^{m-j} y).  The
    draws are packed once, lane a of slot e holding e's draw for t^a: at
    n = 1 the half.  At n > 1 slot e's coefficient sum_a c_a t^a sums lane a,
    moved to lane 0, times t^a packed on n lanes, for each a: lanes up to
    n (p - 1)^2 <= m (p - 1)(q - 1), reduced by one lanes.mod.
    """
    fld, lanes = ctx.field, ctx.lanes
    n, size, bits = fld.n, max(orbit_of) + 1, lanes.bits
    draws = [rng.randrange(fld.p) for _ in range(n * size)]
    y = pack([draws[a * size + o] for o in orbit_of for a in range(n)], bits)
    if n > 1:
        y = lanes.mod(sum([
            ((y >> a * bits) & lanes.first) * pack(tp, bits)
            for a, tp in enumerate(powers(fld, fld.t, n))
        ]))
    return RingElement(ctx, 0, y) if k else RingElement(ctx, y, 0)


def sample_r1(ctx: RingCtx, rng: Random) -> RingElement:
    """Uniform element of the rotation subring, one draw per basis element t^a x^j."""
    return _sample_orbits(ctx, rng, 0, range(ctx.m))


def sample_a2(ctx: RingCtx, rng: Random) -> RingElement:
    """Uniform element of the symmetric reflection subspace, one draw per t^a S_j."""
    return _sample_orbits(ctx, rng, 1, [min(e, ctx.m - e) for e in range(ctx.m)])


def sample_element(ctx: RingCtx, rng: Random) -> RingElement:
    """Random ring element with every coefficient nonzero."""
    fld = ctx.field
    draws = [element_from_index(fld, rng.randrange(1, fld.order)) for _ in range(ctx.group_size)]
    return _packed(ctx, list(itertools.chain.from_iterable(draws)))


def flatten(elem: RingElement) -> tuple:
    """All coefficient vectors concatenated into one F_p coordinate vector."""
    bits, count = elem.ctx.lanes.bits, elem.ctx.group_size * elem.ctx.field.n
    return tuple(unpack(elem.rot | elem.refl << count // 2 * bits, count, bits))


def _packed(ctx: RingCtx, flat: list) -> RingElement:
    """The element with flatten(elem) == flat, whose values are all below p."""
    lanes = ctx.lanes
    x = pack(flat, lanes.bits)
    return RingElement(ctx, x & lanes.full, x >> ctx.m * ctx.field.n * lanes.bits)


def ring_ctx_to_json(ctx: RingCtx) -> dict:
    obj = field_to_json(ctx.field)
    obj["m"] = ctx.m
    return obj


def ring_ctx_from_json(obj: dict) -> RingCtx:
    m = obj["m"]
    if type(m) is not int:
        raise ValueError("m must be an int")
    return make_ring_ctx(field_from_json(obj), m)


def element_to_coeffs(elem: RingElement) -> list:
    """The [i, k, c] items of the nonzero coefficients, as element_from_coeffs reads them."""
    m = elem.ctx.m
    return [[idx % m, idx // m, list(c)] for idx, c in enumerate(elem.coeffs) if any(c)]


def element_from_coeffs(ctx: RingCtx, items) -> RingElement:
    """The element of ctx whose nonzero coefficients are the [i, k, c] items.

    Checks every group index, duplicate and field coefficient, but not the
    field itself: ctx is trusted, so a transcript validates its field once.
    Every index and coefficient must be a plain int (not a float or bool).
    """
    n = ctx.field.n
    flat = [0] * (ctx.group_size * n)
    seen = set()
    for i, k, c in items:
        if type(i) is not int or type(k) is not int:
            raise ValueError("group index is not an int")
        if not (0 <= i < ctx.m and k in (0, 1)):
            raise ValueError("group index out of range")
        idx = i + ctx.m * k
        if idx in seen:
            raise ValueError("duplicate coefficient entry")
        seen.add(idx)
        if len(c) != n:
            raise ValueError("coefficient is not a reduced field element")
        flat[idx * n : idx * n + n] = c
    if set(map(type, flat)) != {int} or not (0 <= min(flat) and max(flat) < ctx.field.p):
        raise ValueError("coefficient is not a reduced field element")  # all at once
    return _packed(ctx, flat)
