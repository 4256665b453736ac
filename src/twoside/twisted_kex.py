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
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Tuple

from .errors import AttackError, SizeCapError
from .gf import f_add, f_mul, f_pow, gauss_solve, make_field_ctx
from .twisted_ring import (
    RingCtx,
    RingElement,
    SubspaceBasis,
    basis_a2,
    basis_r1,
    element_from_coeffs,
    element_to_json,
    flatten,
    make_ring_ctx,
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


@dataclass(frozen=True)
class TwistedKeyPair:
    left: RingElement
    right: RingElement
    pk: RingElement


@dataclass(frozen=True)
class ExchangeTranscript:
    params: TwistedParams
    alice: TwistedKeyPair
    bob: TwistedKeyPair
    shared_key: RingElement
    keys_agree: bool


def random_params(
    p: int, n: int, m: int, rng: Random, full_support: bool = True
) -> TwistedParams:
    """Fresh ring of the given shape plus a random public element."""
    fld = make_field_ctx(p, n, rng)
    ctx = make_ring_ctx(fld, m)
    h = sample_element(ctx, rng, full_support=full_support)
    return TwistedParams(ctx, h)


def keypair_from_secrets(
    params: TwistedParams, left: RingElement, right: RingElement
) -> TwistedKeyPair:
    pk = (left * params.h) * right
    return TwistedKeyPair(left, right, pk)


def keygen(params: TwistedParams, rng: Random) -> TwistedKeyPair:
    left = sample_r1(params.ctx, rng)
    right = sample_a2(params.ctx, rng)
    return keypair_from_secrets(params, left, right)


def shared_key(own: TwistedKeyPair, other_pk: RingElement) -> RingElement:
    """Wrap the peer's public element in our secrets, adjoint on the right."""
    return (own.left * other_pk) * own.right.adjoint()


def run_exchange(params: TwistedParams, rng: Random) -> ExchangeTranscript:
    alice = keygen(params, rng)
    bob = keygen(params, rng)
    k_a = shared_key(alice, bob.pk)
    k_b = shared_key(bob, alice.pk)
    return ExchangeTranscript(params, alice, bob, k_a, k_a == k_b)


# -- key recovery from public data only --------------------------------------


def _rotated(elem: RingElement, i: int) -> RingElement:
    """x^i * elem: both halves rotated, (k, l) -> ((k + i) mod m, l), no twist."""
    m = elem.ctx.m
    rot, refl = elem.coeffs[:m], elem.coeffs[m:]
    return RingElement(elem.ctx, rot[-i:] + rot[:-i] + refl[-i:] + refl[:-i])


def _times_reflections(elem: RingElement, terms) -> RingElement:
    """elem * sum(s * x^e y for e, s in terms), by index shifts.

    (c x^k) (x^e y) = c x^{k+e} y and (c x^k y) (x^e y) = c tau^e x^{k-e}.
    """
    ctx = elem.ctx
    m, fld = ctx.m, ctx.field
    out = [fld.zero] * (2 * m)
    for e, s in terms:
        refl_s = f_mul(fld, s, ctx.twist_pows[e])
        for k in range(m):
            o = (k + e) % m + m
            out[o] = f_add(fld, out[o], f_mul(fld, elem.coeffs[k], s))
            o = (k - e) % m
            out[o] = f_add(fld, out[o], f_mul(fld, elem.coeffs[k + m], refl_s))
    return RingElement(ctx, tuple(out))


def _orbit(m: int, j: int) -> set:
    """Rotation exponents of the j-th symmetric orbit sum S_j = x^j y + x^{m-j} y."""
    return {j, (m - j) % m}


def _pair_t_powers(fld) -> list:
    """t^0 .. t^{2n-2}: the scalars t^a * t^b of a left times a right basis element."""
    return [f_pow(fld, fld.t, s) for s in range(2 * fld.n - 1)]


def check_system_size(n: int, m: int) -> None:
    """Raise SizeCapError (a ValueError) when the attack system over F_{p^n}
    with dihedral m has more than MAX_SYSTEM_CELLS unknowns x equations."""
    unknowns, equations = (n * m) * (n * (m // 2 + 1)), 2 * m * n
    if unknowns * equations > MAX_SYSTEM_CELLS:
        raise SizeCapError(
            f"attack system of {unknowns} unknowns x {equations} equations "
            f"exceeds the cap of {MAX_SYSTEM_CELLS} cells"
        )


def basis_products(params: TwistedParams) -> Tuple[SubspaceBasis, SubspaceBasis, list]:
    """Products L * h * R for L, R ranging over the secret-space bases.

    L = t^a x^i (a outer, i inner) and R = t^b S_j (b outer, j inner), with
    S_j the j-th symmetric orbit sum.  Field scalars are central and x^i
    acts by an index rotation, so L * h * R = t^{a+b} * rot_i(h * S_j): each
    product is a rotated, t-power-scaled copy of one of the m//2 + 1
    elements h * S_j, and equal products share one object.
    """
    ctx = params.ctx
    fld = ctx.field
    n, m, w = fld.n, ctx.m, ctx.m // 2 + 1
    left_basis = basis_r1(ctx)
    right_basis = basis_a2(ctx)
    h_s = [
        _times_reflections(params.h, [(e, fld.one) for e in _orbit(m, j)])
        for j in range(w)
    ]
    scaled = [[elem.scale(tp) for elem in h_s] for tp in _pair_t_powers(fld)]
    # rotated[i][a + b][j] = t^{a+b} * rot_i(h * S_j)
    rotated = [[[_rotated(e, i) for e in row] for row in scaled] for i in range(m)]
    products = [
        rotated[i][a + b][j]
        for a in range(n)
        for i in range(m)
        for b in range(n)
        for j in range(w)
    ]
    return left_basis, right_basis, products


def attack_system(
    params: TwistedParams, target_pk: RingElement
) -> Tuple[list, tuple, SubspaceBasis, SubspaceBasis]:
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
    left_basis: SubspaceBasis,
    right_basis: SubspaceBasis,
) -> RingElement:
    """Replay a solved combination against the other party's public element.

    The key is sum z * L * other_pk * R^adj over the solution.  As in
    basis_products each term is t^{a+b} * rot_i(other_pk * S_j^adj), so the
    solution folds into F_{p^n} coefficients c_ij = sum_{a,b} z * t^{a+b}
    and the key is sum_{i,j} rot_i(c_ij * other_pk * S_j^adj).
    """
    ctx = params.ctx
    fld = ctx.field
    m, w = ctx.m, ctx.m // 2 + 1
    width = len(right_basis)
    t_pows = _pair_t_powers(fld)
    coeffs = {}
    for idx, z in enumerate(solution):
        if not z:
            continue
        left, right = divmod(idx, width)
        a, i = divmod(left, m)
        b, j = divmod(right, w)
        acc = coeffs.setdefault((i, j), [0] * fld.n)
        for r, v in enumerate(t_pows[a + b]):
            acc[r] += z * v
    adjoint_products = {}  # j -> other_pk * S_j^adj
    key = RingElement.zero(ctx)
    for (i, j), acc in coeffs.items():
        c = tuple(v % fld.p for v in acc)
        if not any(c):
            continue
        if j not in adjoint_products:
            adjoint_products[j] = _times_reflections(
                other_pk, [(e, ctx.twist_inv_pows[e]) for e in _orbit(m, j)]
            )
        key = key + _rotated(adjoint_products[j].scale(c), i)
    return key


def attack(params: TwistedParams, target_pk: RingElement, other_pk: RingElement) -> RingElement:
    """Recover the shared key of the party that published target_pk."""
    rows, rhs, left_basis, right_basis = attack_system(params, target_pk)
    solution = gauss_solve(rows, rhs, params.ctx.field.p)
    if solution is None:
        raise AttackError(
            "public element is outside the span of the basis products"
        )
    return recover_shared_key(params, solution, other_pk, left_basis, right_basis)


# -- serialization ------------------------------------------------------------


def params_to_json(params: TwistedParams) -> dict:
    obj = ring_ctx_to_json(params.ctx)
    obj["h"] = element_to_json(params.h)["coeffs"]
    return obj


def params_from_json(obj: dict) -> TwistedParams:
    ctx = ring_ctx_from_json(obj)
    h = element_from_coeffs(ctx, obj["h"])
    return TwistedParams(ctx, h)


def transcript_to_json(tr: ExchangeTranscript, include_secrets: bool = False) -> dict:
    def elem(e: RingElement) -> list:
        return element_to_json(e)["coeffs"]

    obj = {
        "scheme": "twisted",
        "params": params_to_json(tr.params),
        "alice_public": elem(tr.alice.pk),
        "bob_public": elem(tr.bob.pk),
        "keys_agree": tr.keys_agree,
    }
    if include_secrets:
        obj["secrets"] = {
            "alice_left": elem(tr.alice.left),
            "alice_right": elem(tr.alice.right),
            "bob_left": elem(tr.bob.left),
            "bob_right": elem(tr.bob.right),
            "shared_key": elem(tr.shared_key),
        }
    return obj


def transcript_from_json(obj: dict) -> ExchangeTranscript:
    params = params_from_json(obj["params"])
    ctx = params.ctx
    alice_pk = element_from_coeffs(ctx, obj["alice_public"])
    bob_pk = element_from_coeffs(ctx, obj["bob_public"])
    zero = RingElement.zero(ctx)
    secrets = obj.get("secrets")
    if secrets:
        alice = TwistedKeyPair(
            element_from_coeffs(ctx, secrets["alice_left"]),
            element_from_coeffs(ctx, secrets["alice_right"]),
            alice_pk,
        )
        bob = TwistedKeyPair(
            element_from_coeffs(ctx, secrets["bob_left"]),
            element_from_coeffs(ctx, secrets["bob_right"]),
            bob_pk,
        )
        key = element_from_coeffs(ctx, secrets["shared_key"])
    else:
        alice = TwistedKeyPair(zero, zero, alice_pk)
        bob = TwistedKeyPair(zero, zero, bob_pk)
        key = zero
    return ExchangeTranscript(params, alice, bob, key, bool(obj["keys_agree"]))
