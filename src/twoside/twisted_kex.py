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
a < n, span.  The attack solves that smaller system (system_rows, solve),
and its solution vector is the one solution format: replay reads the
rotation-subring factor G_j of each orbit j as a strided slice of it.  The
paper's system (attack_system, recover_shared_key) is read from the same
u^a * h * S_j lanes, scaled by t^s for s < 2n - 1, and its solution folds
into that vector, so it recovers the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Tuple

from . import exchange
from .errors import AttackError, SizeCapError
from .exchange import Codec, KeyPair, Transcript
from .gf import (
    PackedRows, f_mul, gauss_solve_packed, lane_bits, make_field_ctx, mover, pack, powers,
)
from .twisted_ring import (
    RingCtx,
    RingElement,
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
)

# cap on unknowns x equations of the attack system: (2, 4, 16) needs 294,912
# cells, while (2, 8, 64) would need 138M and several GB
MAX_SYSTEM_CELLS = 1 << 22


@dataclass(frozen=True)
class TwistedParams:
    """Public data: the ring and the element everyone multiplies around."""

    ctx: RingCtx
    h: RingElement

    def __post_init__(self):
        if self.h.ctx != self.ctx:
            raise ValueError("public element must live in the stated ring")


def random_params(p: int, n: int, m: int, rng: Random) -> TwistedParams:
    """Fresh ring of the given shape plus a random public element."""
    fld = make_field_ctx(p, n, rng)
    ctx = make_ring_ctx(fld, m)
    h = sample_element(ctx, rng)
    return TwistedParams(ctx, h)


def _secret_multipliers(left: RingElement, right: RingElement, other: RingElement):
    """The reduced multipliers (g K', g K) of left * elem * right, for _sandwich.

    g is the rotation half of left in R1, K = sum s_e x^e the reflection half
    of right = sum s_e x^e y in A2, and K' = sum s_e tau^e x^{-e}, which is
    sum s_e tau^{-e} x^e since s_e = s_{-e}: one f_mul per nonzero s_e.  For
    right.adjoint() the two swap: its K is right's K', and its K' is K.

    The one key-space check.  Raises ValueError when a factor lives in
    another ring than other, when left has a reflection part, or when right
    has a rotation part or differs at x^e y and x^{-e} y.
    """
    ctx = other.ctx
    if left.ctx != ctx or right.ctx != ctx:
        raise ValueError("ring context mismatch")
    if left.refl:
        raise ValueError("left secret has a nonzero reflection half (outside R1)")
    if right.rot:
        raise ValueError("right secret has a nonzero rotation half (outside A2)")
    lanes, fld, pows = ctx.lanes, ctx.field, ctx.twist_pows
    refl = list(zip(*[iter(flatten(right)[ctx.m * fld.n :])] * fld.n))  # the s_e
    if any(c != refl[-e] for e, c in enumerate(refl)):
        raise ValueError("right secret differs at x^e y and x^-e y (outside A2)")
    adj = [f_mul(fld, s, pows[-e]) if any(s) else s for e, s in enumerate(refl)]
    k_adj, g = pack(list(chain.from_iterable(adj)), lanes.bits), lanes.u_powers(left.rot)
    return lanes.reduce_halves(lanes.times(k_adj, g), lanes.times(right.refl, g))


def keypair_from_secrets(
    params: TwistedParams, left: RingElement, right: RingElement
) -> KeyPair:
    """left * h * right, by two ring multiplies on packed lanes.

    left must lie in R1 and right in A2 (ValueError otherwise).  The pair
    keeps the checked multipliers for shared_key.
    """
    multipliers = _secret_multipliers(left, right, params.h)
    pair = KeyPair(left, right, _sandwich(params.h, *multipliers))
    object.__setattr__(pair, "multipliers", multipliers)
    return pair


def keygen(params: TwistedParams, rng: Random) -> KeyPair:
    left = sample_r1(params.ctx, rng)
    right = sample_a2(params.ctx, rng)
    return keypair_from_secrets(params, left, right)


def shared_key(own: KeyPair, other_pk: RingElement) -> RingElement:
    """Wrap the peer's public element in our secrets, adjoint on the right.

    own.left * other_pk * own.right.adjoint(), by two ring multiplies on
    packed lanes: the adjoint swaps the two multipliers of own.right.
    The secrets must lie in R1 and A2, and in other_pk's ring (ValueError
    otherwise); a pair from keypair_from_secrets has its multipliers.
    """
    mults = own.multipliers
    if mults is None or own.left.ctx != other_pk.ctx:  # the check raises on a mismatch
        mults = _secret_multipliers(own.left, own.right, other_pk)
    return _sandwich(other_pk, *mults[::-1])


def run_exchange(params: TwistedParams, rng: Random) -> Transcript:
    return exchange.run_exchange(params, rng, keygen, shared_key)


# -- products on packed lanes (twisted_ring.RingLanes) -------------------------


def _sandwich(elem: RingElement, rot_mult: int, refl_mult: int) -> RingElement:
    """B P + (A Q) y for elem = A + B y and multipliers P, Q in R1 = F_q[x]/(x^m - 1).

    For g in R1 and k = sum s_e x^e y, g * elem * k = B (g K') + A (g K) y
    with K = sum s_e x^e and K' = sum s_e tau^e x^{-e}: (c x^j) (s x^e y) =
    c s x^{j+e} y and (c x^j y) (s x^e y) = c s tau^e x^{j-e}, and g adds no
    twist and commutes with R1.  So a sum of such products is elem's halves
    times P = sum g K' and Q = sum g K.  P and Q come as packed halves with
    every lane reduced, as RingLanes.times takes them; each product is one
    RingLanes.times, and the two products are reduced once.
    """
    lanes = elem.ctx.lanes
    return RingElement(elem.ctx, *lanes.reduce_halves(
        lanes.times(rot_mult, lanes.u_powers(elem.refl)),
        lanes.times(refl_mult, lanes.u_powers(elem.rot)),
    ))


# -- key recovery from public data only --------------------------------------


def _h_s(params: TwistedParams) -> int:
    """The n * w elements u^a * h * S_j, a < n and j < w = m//2 + 1, in one int.

    Element (a, j), lanes unreduced, is at ring lane (a * w + j) * 2mn.
    h * S_j is _sandwich's product for g = 1 and k = S_j = sum x^e y over the
    orbit of j: K_j = sum x^e rotates h's rotation half, and K'_j =
    sum tau^e x^{-e} scales h's reflection half by twist_pows[e] and rotates
    it.  The w elements are reduced, and take n - 1 u-steps, all at once.
    """
    ctx = params.ctx
    lanes, pows, n, m = ctx.lanes, ctx.twist_pows, ctx.field.n, ctx.m
    w, half = m // 2 + 1, m * n * lanes.bits
    rot, refl = params.h.rot, lanes.u_powers(params.h.refl)
    acc = 0  # half 2j holds the rotation half of h * S_j, half 2j + 1 its reflection half
    for j in reversed(range(w)):
        exps = orbit(m, j)
        y_rot = sum([lanes.rotate(lanes.scale(refl, pows[e]), -e) for e in exps])
        y_refl = sum([lanes.rotate(rot, e) for e in exps])
        acc = (acc << half | y_refl) << half | y_rot
    ys = lanes.u_powers(lanes.reduce(acc, 2 * w * m * n))
    return sum([y << a * 2 * w * half for a, y in enumerate(ys)])


def check_system_size(n: int, m: int) -> None:
    """Raise SizeCapError (a ValueError) when the attack system over F_{p^n}
    with dihedral m has more than MAX_SYSTEM_CELLS unknowns x equations."""
    unknowns, equations = (n * m) * (n * (m // 2 + 1)), 2 * m * n
    if unknowns * equations > MAX_SYSTEM_CELLS:
        raise SizeCapError(
            f"attack system of {unknowns} unknowns x {equations} equations "
            f"exceeds the cap of {MAX_SYSTEM_CELLS} cells"
        )


def attack_system(
    params: TwistedParams, target_pk: RingElement
) -> Tuple[list, tuple, int, int]:
    """Equations as F_p rows, the right-hand side, and the basis sizes m * n and n * w.

    Unknown (a, i, b, j) is the coefficient of L * h * R for L = t^a x^i
    (a outer, i inner) and R = t^b S_j (b outer, j inner), S_j the j-th
    symmetric orbit sum.  Field scalars are central and x^i acts by a lane
    rotation, so L * h * R = t^{a+b} * rot_i(h * S_j).  The u-powers
    u^a * h * S_j from _h_s are scaled once per t^s, s < 2n - 1, and read;
    column (a, i, b, j) is element j of t^{a+b}'s values with both of its
    halves rotated by i slots, and the rows are the columns transposed.
    Over the size cap it raises ValueError before building anything.
    """
    ctx = params.ctx
    fld, lanes = ctx.field, ctx.lanes
    n, m, w = fld.n, ctx.m, ctx.m // 2 + 1
    check_system_size(n, m)
    size, count = m * n, 2 * w * m * n  # lanes of a half, and of the w elements h * S_j
    span, h_s = count * lanes.bits, _h_s(params)
    ys = [h_s >> a * span & (1 << span) - 1 for a in range(n)]  # u^a * h * S_j
    elems = []  # elems[s][i][j]: t^s * rot_i(h * S_j), flattened
    for tp in powers(fld, fld.t, 2 * n - 1):
        vals = lanes.values(lanes.scale(ys, tp), count)
        # each half twice over, so rot_i, slot k - i to slot k, is one slice
        twice = [vals[k * size : (k + 1) * size] * 2 for k in range(2 * w)]
        elems.append([
            [twice[2 * j][lo : lo + size] + twice[2 * j + 1][lo : lo + size] for j in range(w)]
            for lo in range(size, 0, -n)
        ])
    columns = [col for a in range(n) for i in range(m) for b in range(n) for col in elems[a + b][i]]
    return list(zip(*columns)), flatten(target_pk), m * n, n * w


def recover_shared_key(
    params: TwistedParams,
    solution,
    other_pk: RingElement,
    left_size: int,
    right_size: int,
) -> RingElement:
    """Replay a solved combination against the other party's public element.

    The key is sum z * L * other_pk * R^adj over the solution.  As in
    attack_system each term is t^{a+b} * rot_i(other_pk * S_j^adj), so z
    adds z * t^{a+b}[r] to unknown (i, r, j) of system_rows' solution
    vector, which replay turns into the key.  Raises ValueError unless the
    sizes are attack_system's m * n and n * w and the solution has one plain
    int in 0..p-1 per pair of basis elements.
    """
    fld = params.ctx.field
    n, m, w = fld.n, params.ctx.m, params.ctx.m // 2 + 1
    if (left_size, right_size) != (m * n, n * w):
        raise ValueError(f"basis sizes {left_size} x {right_size} are not {m * n} x {n * w}")
    _check_solution(solution, left_size * right_size, fld.p, "one per basis product")
    t_pows = powers(fld, fld.t, 2 * n - 1)
    acc = [0] * (m * n * w)  # system_rows' solution vector, unreduced
    for idx, z in enumerate(solution):
        if z:
            (a, i), (b, j) = divmod(idx // right_size, m), divmod(idx % right_size, w)
            for r, v in enumerate(t_pows[a + b]):
                acc[(i * n + r) * w + j] += z * v
    return replay(params, [v % fld.p for v in acc], other_pk)


def system_rows(params: TwistedParams) -> PackedRows:
    """The attack system solved by solve, for any target, as packed F_p rows.

    Unknown (i, a, j), lane (i * n + a) * w + j, is the coefficient of
    u^a * rot_i(h * S_j) for i < m, a < n and j < w = m//2 + 1: 2mn equations
    in m * n * w unknowns, n times fewer than attack_system.  Equation
    (l, k, r), row (l * m + k) * n + r, is coordinate r of slot (l, k) of the
    flattened elements.  Since rot_i moves slot (l, k - i) to (l, k), lane
    (i, a, j) of row (l, k, r) is coordinate r of slot (l, k - i) of
    u^a * h * S_j.  The n * w elements u^a * h * S_j from _h_s are reduced
    and read in one pass, element (a, j) at lanes from (a * w + j) * 2mn, so
    row (l, 0, r) is m strided slices of those values, one per i; row
    (l, k, r) is row (l, 0, r) with its m blocks of n * w lanes rotated up by
    k blocks.  Over the size cap of the paper's system it raises ValueError
    before building anything.
    """
    ctx = params.ctx
    fld, lanes = ctx.field, ctx.lanes
    p, n, m, w = fld.p, fld.n, ctx.m, ctx.m // 2 + 1
    check_system_size(n, m)
    size, count, step = 2 * m * n, 2 * m * n * n * w, lanes.bits // 8
    if p == 2:  # the low byte of each masked lane is its 0/1 value
        vals = lanes.reduce(_h_s(params), count).to_bytes(count * step, "little")[::step]
        cat = b"".join
    else:
        vals, cat = lanes.values(_h_s(params), count), chain.from_iterable
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


def _check_solution(solution, size: int, p: int, per: str) -> None:
    """Raise ValueError unless solution is size plain ints in 0..p-1."""
    if len(solution) != size:
        raise ValueError(f"solution has {len(solution)} values, not {per} ({size})")
    if set(map(type, solution)) - {int} or not (0 <= min(solution) and max(solution) < p):
        raise ValueError(f"solution values are not plain ints in 0..{p - 1}")


def solve(params: TwistedParams, system: PackedRows, target_pk: RingElement):
    """The solution vector of system_rows(params) for target_pk, or None.

    Unknown (i, a, j), value (i * n + a) * w + j with w = m//2 + 1, is the
    coefficient of u^a * rot_i(h * S_j); free variables are zero.  None
    means target_pk is outside the span.  For a target g * h * k, such as an
    honest public key, replay then recovers the key recover_shared_key does.
    Raises ValueError when target_pk lives in another ring.
    """
    _check_ring(params, target_pk)
    return gauss_solve_packed(system, flatten(target_pk))


def replay(params: TwistedParams, solution, other_pk: RingElement) -> RingElement:
    """The key sum_j G_j * other_pk * S_j^adj for a solution vector of solve.

    G_j = sum_{i,a} z_(i,a,j) u^a x^i in R1 has as its rotation half the
    slice solution[j::w], slot i and coordinate a, so it is one pack; an
    all-zero slice adds nothing.  The solution must be m * n * w plain ints
    in 0..p-1 (else ValueError, as for an other_pk of another ring).
    S_j^adj = sum tau^{-e} x^e y over the orbit of j, so in _sandwich's
    terms K'_j = sum x^{-e} and K_j = sum tau^{-e} x^e: P is one rotation of
    G_j per exponent e, and Q one scaling by twist_pows[-e] and rotation,
    with no f_mul.  The orbits of j < w partition the exponents: m of each.
    """
    _check_ring(params, other_pk)
    m, fld = params.ctx.m, params.ctx.field
    _check_solution(solution, m * fld.n * (m // 2 + 1), fld.p, "one per unknown of system_rows")
    return _replay(params.ctx, solution, other_pk)


def _replay(ctx: RingCtx, solution, other_pk: RingElement) -> RingElement:
    """replay without its checks, for solve's own vector.

    The summed multipliers, lanes at most m (p - 1)(q - 1), are reduced once.
    """
    lanes, pows, n, m, w = ctx.lanes, ctx.twist_pows, ctx.field.n, ctx.m, ctx.m // 2 + 1
    rot_mult = refl_mult = 0
    for j in range(w):
        flat = solution[j::w]
        if any(flat):
            g = lanes.u_powers(pack(flat, lanes.bits))
            for e in orbit(m, j):
                rot_mult += lanes.rotate(g[0], -e)
                refl_mult += lanes.rotate(lanes.scale(g, pows[-e]), e)
    return _sandwich(other_pk, *lanes.reduce_halves(rot_mult, refl_mult))


def attack(params: TwistedParams, target_pk: RingElement, other_pk: RingElement) -> RingElement:
    """Recover the shared key of the party that published target_pk."""
    _check_ring(params, target_pk, other_pk)  # before the build
    solution = solve(params, system_rows(params), target_pk)
    if solution is None:
        raise AttackError(
            "public element is outside the span of the basis products"
        )
    return _replay(params.ctx, solution, other_pk)


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
