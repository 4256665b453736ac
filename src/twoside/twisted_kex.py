"""Key exchange in a twisted dihedral group ring, and the attack on it.

Each party picks a left factor g from the rotation subring and a right
factor k from the symmetric reflection subspace, and publishes g * h * k
for a public ring element h.  The left factors commute with each other and
the right factors commute through the adjoint, so both parties arrive at
the same shared element.

The attack never touches the secret factors.  The published element lives
in the span of the products (basis of rotation subring) * h * (basis of
symmetric reflections), so one Gaussian elimination over F_p writes it as a
known linear combination of those products, and replaying that combination
against the other party's public element reproduces the shared key.

Field scalars are central and the field's coordinates u^0 .. u^{n-1} are an
F_p-basis of F_{p^n}, so the products t^{a+b} * rot_i(h * S_j) of the
paper's system span exactly what the n-fold fewer u^a * rot_i(h * S_j),
a < n, span.  The attack solves that smaller system (system_rows, solve,
replay); the paper's system (basis_products, attack_system,
recover_shared_key) stays as the reference that recovers the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Tuple

from . import exchange
from .errors import AttackError, SizeCapError
from .exchange import Codec, KeyPair, Transcript
from .gf import (
    PackedRows, f_mul, gauss_solve_packed, lane_bits, make_field_ctx, mover, pack, powers, unpack,
)
from .twisted_ring import (
    RingCtx,
    RingElement,
    basis_a2,
    basis_r1,
    element_from_coeffs,
    element_to_coeffs,
    flatten,
    make_ring_ctx,
    orbit,
    ring_ctx_from_json,
    ring_ctx_to_json,
    sample_a2,
    sample_element,
    sample_r1,
    unflatten,
)

# cap on unknowns x equations of the attack system: (2, 4, 16) needs 294,912
# cells, while (2, 8, 64) would need 138M and several GB
MAX_SYSTEM_CELLS = 1 << 22

_LOW_BIT = bytes(v & 1 for v in range(256))  # a byte value mod 2


@dataclass(frozen=True)
class TwistedParams:
    """Public data: the ring and the element everyone multiplies around."""

    ctx: RingCtx
    h: RingElement

    def __post_init__(self):
        if self.h.ctx != self.ctx:
            raise ValueError("public element must live in the stated ring")


def random_params(
    p: int, n: int, m: int, rng: Random, full_support: bool = True
) -> TwistedParams:
    """Fresh ring of the given shape plus a random public element."""
    fld = make_field_ctx(p, n, rng)
    ctx = make_ring_ctx(fld, m)
    h = sample_element(ctx, rng, full_support=full_support)
    return TwistedParams(ctx, h)


def _secret_terms(left: RingElement, right: RingElement, other: RingElement):
    """The nonzero (exponent, coefficient) terms of left in R1 and right in A2.

    The one key-space check.  Raises ValueError when a factor lives in
    another ring than other, when left has a reflection part, or when right
    has a rotation part or differs at x^e y and x^{-e} y.
    """
    ctx = other.ctx
    if left.ctx != ctx or right.ctx != ctx:
        raise ValueError("ring context mismatch")
    m = ctx.m
    if any(map(any, left.coeffs[m:])):
        raise ValueError("left secret has a nonzero reflection half (outside R1)")
    if any(map(any, right.coeffs[:m])):
        raise ValueError("right secret has a nonzero rotation half (outside A2)")
    refl = right.coeffs[m:]
    if any(c != refl[-e] for e, c in enumerate(refl)):
        raise ValueError("right secret differs at x^e y and x^-e y (outside A2)")
    return _terms(left.coeffs[:m]), _terms(refl)


def keypair_from_secrets(
    params: TwistedParams, left: RingElement, right: RingElement
) -> KeyPair:
    """left * h * right, by index shifts and field scalings.

    left must lie in R1 and right in A2 (ValueError otherwise).
    """
    g, k = _secret_terms(left, right, params.h)
    return KeyPair(left, right, _sandwich(params.h, [(g, k)]))


def keygen(params: TwistedParams, rng: Random) -> KeyPair:
    left = sample_r1(params.ctx, rng)
    right = sample_a2(params.ctx, rng)
    return keypair_from_secrets(params, left, right)


def shared_key(own: KeyPair, other_pk: RingElement) -> RingElement:
    """Wrap the peer's public element in our secrets, adjoint on the right.

    own.left * other_pk * own.right.adjoint(), by index shifts and field
    scalings: the adjoint scales the x^e y coefficient s to s * tau^{-e}.
    The secrets must lie in R1 and A2 (ValueError otherwise).
    """
    g, k = _secret_terms(own.left, own.right, other_pk)
    fld, pows = other_pk.ctx.field, other_pk.ctx.twist_pows
    return _sandwich(other_pk, [(g, [(e, f_mul(fld, s, pows[-e])) for e, s in k])])


def run_exchange(params: TwistedParams, rng: Random) -> Transcript:
    return exchange.run_exchange(params, rng, keygen, shared_key)


# -- products on packed lanes (twisted_ring.RingLanes) -------------------------


def _terms(coeffs) -> list:
    """The (exponent, coefficient) pairs of the nonzero coefficients."""
    return [(e, c) for e, c in enumerate(coeffs) if any(c)]


def _times_k(ctx: RingCtx, rot: list, refl: list, k) -> list:
    """The u-powers of the reduced halves of elem * sum(s * x^e y for e, s in k).

    rot and refl are the u-powers of elem's halves.  (c x^j) (s x^e y) =
    c s x^{j+e} y and (c x^j y) (s x^e y) = c s tau^e x^{j-e}: each term
    scales and rotates both halves, and the sums are reduced once.
    """
    lanes, fld, pows = ctx.lanes, ctx.field, ctx.twist_pows
    y_rot = y_refl = 0
    for e, s in k:
        y_rot += lanes.rotate(lanes.scale(refl, f_mul(fld, s, pows[e])), -e)
        y_refl += lanes.rotate(lanes.scale(rot, s), e)
    return [lanes.u_powers(y) for y in lanes.pack(lanes.unpack(y_rot, y_refl))]


def _sandwich(elem: RingElement, pairs) -> RingElement:
    """sum(g * elem * k for g, k in pairs), on packed lanes.

    g = sum(s * x^i for i, s in g) lies in the rotation subring and
    k = sum(s * x^e y for e, s in k) in the reflection half; at most
    m//2 + 1 pairs, which the lane width allows for.  Each pair takes
    elem * k from _times_k, then (s x^i) (c x^j y^l) = s c x^{i+j} y^l
    rotates both halves by i and scales them by s, with no twist.  Lanes are
    reduced after each reflection pass and once at the end.
    """
    ctx = elem.ctx
    lanes = ctx.lanes
    rot, refl = (lanes.u_powers(x) for x in lanes.pack(flatten(elem)))
    out_rot = out_refl = 0
    for g, k in pairs:
        y_rot, y_refl = _times_k(ctx, rot, refl, k)
        for i, s in g:
            out_rot += lanes.rotate(lanes.scale(y_rot, s), i)
            out_refl += lanes.rotate(lanes.scale(y_refl, s), i)
    return unflatten(ctx, lanes.unpack(out_rot, out_refl))


# -- key recovery from public data only --------------------------------------


def _h_s(params: TwistedParams) -> list:
    """The u-powers (rot, refl) of the packed halves of h * S_j, for j < w = m//2 + 1.

    Entry [a] of each list is u^a * h * S_j, with its lanes left unreduced.
    """
    ctx = params.ctx
    lanes = ctx.lanes
    rot, refl = (lanes.u_powers(x) for x in lanes.pack(flatten(params.h)))
    return [
        _times_k(ctx, rot, refl, [(e, ctx.field.one) for e in orbit(ctx.m, j)])
        for j in range(ctx.m // 2 + 1)
    ]


def _fold(terms, fld) -> dict:
    """{(i, j): sum of z * s} over the (i, j, z, s) terms, zero sums dropped.

    z is an F_p int and s a field element, so each sum is one F_{p^n}
    coefficient of the replay.  Only the reference recover_shared_key folds.
    """
    acc = {}
    for i, j, z, s in terms:
        c = acc.setdefault((i, j), [0] * fld.n)
        for r, v in enumerate(s):
            c[r] += z * v
    coeffs = {}
    for ij, c in acc.items():
        c = tuple(v % fld.p for v in c)
        if any(c):
            coeffs[ij] = c
    return coeffs


def check_system_size(n: int, m: int) -> None:
    """Raise SizeCapError (a ValueError) when the attack system over F_{p^n}
    with dihedral m has more than MAX_SYSTEM_CELLS unknowns x equations."""
    unknowns, equations = (n * m) * (n * (m // 2 + 1)), 2 * m * n
    if unknowns * equations > MAX_SYSTEM_CELLS:
        raise SizeCapError(
            f"attack system of {unknowns} unknowns x {equations} equations "
            f"exceeds the cap of {MAX_SYSTEM_CELLS} cells"
        )


def basis_products(params: TwistedParams) -> Tuple[tuple, tuple, list]:
    """Products L * h * R for L, R ranging over the secret-space bases.

    L = t^a x^i (a outer, i inner) and R = t^b S_j (b outer, j inner), with
    S_j the j-th symmetric orbit sum.  Field scalars are central and x^i
    acts by a lane rotation, so L * h * R = t^{a+b} * rot_i(h * S_j): each
    product is a rotated, t-power-scaled copy of one of the m//2 + 1
    elements h * S_j, and equal products share one object.
    """
    ctx = params.ctx
    fld, lanes = ctx.field, ctx.lanes
    n, m, w = fld.n, ctx.m, ctx.m // 2 + 1
    h_s = _h_s(params)
    # t^s * rot_i(h * S_j) at (s * m + i) * w + j, for the scalars t^0 .. t^{2n-2}
    # of a left times a right basis element, each scaled once per (s, j)
    tps = powers(fld, fld.t, 2 * n - 1)
    scaled = [[(lanes.scale(rot, tp), lanes.scale(refl, tp)) for rot, refl in h_s] for tp in tps]
    elems = [
        unflatten(ctx, lanes.unpack(lanes.rotate(rot, i), lanes.rotate(refl, i)))
        for halves in scaled
        for i in range(m)
        for rot, refl in halves
    ]
    products = [
        elems[((a + b) * m + i) * w + j]
        for a in range(n)
        for i in range(m)
        for b in range(n)
        for j in range(w)
    ]
    return basis_r1(ctx), basis_a2(ctx), products


def attack_system(
    params: TwistedParams, target_pk: RingElement
) -> Tuple[list, tuple, tuple, tuple]:
    """Equations as F_p rows, the right-hand side, and the two bases.

    Over the size cap it raises ValueError before building anything.
    """
    check_system_size(params.ctx.field.n, params.ctx.m)
    left_basis, right_basis, products = basis_products(params)
    # gauss_solve wants equations as rows: transpose the flattened products
    rows = list(zip(*(flatten(prod) for prod in products)))
    return rows, flatten(target_pk), left_basis, right_basis


def recover_shared_key(
    params: TwistedParams,
    solution,
    other_pk: RingElement,
    left_basis: tuple,
    right_basis: tuple,
) -> RingElement:
    """Replay a solved combination against the other party's public element.

    The key is sum z * L * other_pk * R^adj over the solution.  As in
    basis_products each term is t^{a+b} * rot_i(other_pk * S_j^adj), so the
    solution folds into F_{p^n} coefficients c_ij = sum_{a,b} z * t^{a+b},
    which replay turns into the key.
    """
    fld = params.ctx.field
    m, w = params.ctx.m, params.ctx.m // 2 + 1
    width = len(right_basis)
    t_pows = powers(fld, fld.t, 2 * fld.n - 1)

    def terms():
        for idx, z in enumerate(solution):
            if z:
                left, right = divmod(idx, width)
                a, i = divmod(left, m)
                b, j = divmod(right, w)
                yield i, j, z, t_pows[a + b]

    return replay(params, _fold(terms(), fld), other_pk)


def system_rows(params: TwistedParams) -> PackedRows:
    """The attack system solved by solve, for any target, as packed F_p rows.

    Unknown (i, a, j), lane (i * n + a) * w + j, is the coefficient of
    u^a * rot_i(h * S_j) for i < m, a < n and j < w = m//2 + 1: 2mn equations
    in m * n * w unknowns, n times fewer than attack_system.  Equation
    (l, k, r), row (l * m + k) * n + r, is coordinate r of slot (l, k) of the
    flattened elements.  Since rot_i moves slot (l, k - i) to (l, k), lane
    (i, a, j) of row (l, k, r) is coordinate r of slot (l, k - i) of
    u^a * h * S_j.  The n * w elements u^a * h * S_j from _h_s are read in
    one pass, element (a, j) at lanes from (a * w + j) * 2mn, so row (l, 0, r)
    is m strided slices of those values, one per i; row (l, k, r) is row
    (l, 0, r) with its m blocks of n * w lanes rotated up by k blocks.  Over
    the size cap of the paper's system it raises ValueError before building
    anything.
    """
    ctx = params.ctx
    fld, lanes = ctx.field, ctx.lanes
    p, n, m, w = fld.p, fld.n, ctx.m, ctx.m // 2 + 1
    check_system_size(n, m)
    size, half = 2 * m * n, m * n * lanes.bits
    h_s = _h_s(params)
    elems = 0  # lane s of flatten(u^a * h * S_j), unreduced, in ring lane (a * w + j) * size + s
    for a in reversed(range(n)):
        for rot, refl in reversed(h_s):
            elems = (elems << 2 * half) | refl[a] << half | rot[a]
    count = n * w * size
    if p == 2:  # the low byte of each lane, reduced to its bit 0
        step = lanes.bits // 8
        vals = elems.to_bytes(count * step, "little")[::step].translate(_LOW_BIT)
        cat = b"".join
    else:
        vals = [v % p for v in unpack(elems, count, lanes.bits)]
        cat = lambda parts: sum(parts, [])
    bits = lane_bits(p, size)
    move = mover(m, 1, n * w * bits)  # move(x, k): block i of n * w lanes -> block i + k
    rows = [0] * size
    for l in range(2):
        for r in range(n):
            x = pack(cat([vals[(l * m + (-i) % m) * n + r :: size] for i in range(m)]), bits)
            for k in range(m):
                rows[(l * m + k) * n + r] = move(x, k)
    return PackedRows(rows, m * n * w, p)


def _check_ring(params: TwistedParams, *keys: RingElement) -> None:
    """Raise ValueError when a key lives in another ring than params."""
    if any(key.ctx != params.ctx for key in keys):
        raise ValueError("ring context mismatch")


def solve(params: TwistedParams, system: PackedRows, target_pk: RingElement):
    """The replay coefficients {(i, j): c_ij} for target_pk, or None.

    Solves system_rows(params) against target_pk with free variables zero;
    c_ij = sum_a z_(i,a,j) * u^a has the coordinates (z_(i,a,j) for a < n),
    and the nonzero ones are kept.  None means target_pk is outside the
    span.  For a target g * h * k, such as an honest public key, replay then
    recovers the key recover_shared_key does.  Raises ValueError when
    target_pk lives in another ring.
    """
    _check_ring(params, target_pk)
    z = gauss_solve_packed(system, flatten(target_pk))
    if z is None:
        return None
    m, w = params.ctx.m, params.ctx.m // 2 + 1
    nw = params.ctx.field.n * w
    cols = (((i, j), tuple(z[i * nw + j : (i + 1) * nw : w])) for i in range(m) for j in range(w))
    return {ij: c for ij, c in cols if any(c)}


def replay(params: TwistedParams, coeffs: dict, other_pk: RingElement) -> RingElement:
    """The key sum_{i,j} rot_i(c_ij * other_pk * S_j^adj) for coeffs {(i, j): c_ij}.

    Raises ValueError when other_pk lives in another ring.
    """
    _check_ring(params, other_pk)
    ctx = params.ctx
    by_orbit = {}  # j -> [(i, c_ij)]
    for (i, j), c in coeffs.items():
        by_orbit.setdefault(j, []).append((i, c))
    pows = ctx.twist_pows  # S_j^adj sums tau^{-e} x^e y over the orbit of j
    pairs = [(g, [(e, pows[-e]) for e in orbit(ctx.m, j)]) for j, g in by_orbit.items()]
    return _sandwich(other_pk, pairs)


def attack(params: TwistedParams, target_pk: RingElement, other_pk: RingElement) -> RingElement:
    """Recover the shared key of the party that published target_pk."""
    _check_ring(params, target_pk, other_pk)  # before the build
    coeffs = solve(params, system_rows(params), target_pk)
    if coeffs is None:
        raise AttackError(
            "public element is outside the span of the basis products"
        )
    return replay(params, coeffs, other_pk)


# -- serialization ------------------------------------------------------------


def _coeffs_from_json(params: TwistedParams, items) -> RingElement:
    return element_from_coeffs(params.ctx, items)


def params_to_json(params: TwistedParams) -> dict:
    obj = ring_ctx_to_json(params.ctx)
    obj["h"] = element_to_coeffs(params.h)
    return obj


def params_from_json(obj: dict) -> TwistedParams:
    ctx = ring_ctx_from_json(obj)
    h = element_from_coeffs(ctx, obj["h"])
    return TwistedParams(ctx, h)


CODEC = Codec(
    "twisted", params_to_json, params_from_json,
    element_to_coeffs, _coeffs_from_json,  # public keys and the shared key
    element_to_coeffs, _coeffs_from_json,  # secrets
)


def transcript_to_json(tr: Transcript, include_secrets: bool = False) -> dict:
    return exchange.transcript_to_json(tr, include_secrets, CODEC)


def transcript_from_json(obj: dict) -> Transcript:
    return exchange.transcript_from_json(obj, CODEC)
