"""Key exchange over the digit-sum semiring, and the attack on it.

Both parties sandwich a public square matrix M between two secret circulant
matrices and publish the result.  Circulants over a commutative semiring
commute, so wrapping the peer's public matrix in one's own secrets lands on
the same shared matrix for both sides.

The attack solves the one-sided-linear system that expresses a public
matrix in the basis C_i M C_j of two-sided circulant products.  Over this
semiring every solvable system has a componentwise-maximal solution, and
replaying it against the other public matrix yields the shared key, no
secrets needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Tuple

from .digital import (
    INF,
    MAX_FINITE,
    W,
    order_key,
    values_from_json,
    value_to_json,
)
from . import exchange
from .errors import AttackError
from .exchange import Codec, KeyPair, Transcript
from .gf import mover, pack, unpack
from .matrices import (
    Circulant,
    SemiringMatrix,
    circulant_from_json,
    circulant_generators,
    circulant_to_json,
    matrix_from_json,
    matrix_to_json,
)

DEFAULT_ENTRY_BOUND = 10**9

# Attack memory and time grow as n^4, so a transcript may not declare more.
MAX_N = 32


@dataclass(frozen=True)
class DigitalParams:
    """Public data: the matrix size and the matrix everyone multiplies around."""

    n: int
    matrix: SemiringMatrix
    entry_bound: int = DEFAULT_ENTRY_BOUND

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}")
        if self.matrix.n != self.n:
            raise ValueError("matrix size must match n")
        if self.matrix.sr is not W:
            raise ValueError("matrix must live over the digit-sum semiring")
        if not 1 <= self.entry_bound <= MAX_FINITE:
            raise ValueError("entry bound out of range")


def sample_value(bound: int, rng: Random, inf_prob: float = 0.0):
    if inf_prob and rng.random() < inf_prob:
        return INF
    return rng.randrange(bound + 1)


def sample_circulant(
    n: int, bound: int, rng: Random, inf_prob: float = 0.0
) -> Circulant:
    col = tuple(sample_value(bound, rng, inf_prob) for _ in range(n))
    return Circulant(W, col)


def sample_matrix(n: int, bound: int, rng: Random, inf_prob: float = 0.0) -> SemiringMatrix:
    rows = tuple(
        tuple(sample_value(bound, rng, inf_prob) for _ in range(n)) for _ in range(n)
    )
    return SemiringMatrix(W, rows)


def random_params(
    n: int, rng: Random, entry_bound: int = DEFAULT_ENTRY_BOUND
) -> DigitalParams:
    return DigitalParams(n, sample_matrix(n, entry_bound, rng), entry_bound)


def keypair_from_circulants(
    params: DigitalParams, left: Circulant, right: Circulant
) -> KeyPair:
    return KeyPair(left, right, _sandwich(left, params.matrix, right))


def keygen(params: DigitalParams, rng: Random) -> KeyPair:
    left = sample_circulant(params.n, params.entry_bound, rng)
    right = sample_circulant(params.n, params.entry_bound, rng)
    return keypair_from_circulants(params, left, right)


def shared_key(own: KeyPair, other_pk: SemiringMatrix) -> SemiringMatrix:
    """Wrap the peer's public matrix in our own circulants."""
    return _sandwich(own.left, other_pk, own.right)


def run_exchange(params: DigitalParams, rng: Random) -> Transcript:
    return exchange.run_exchange(params, rng, keygen, shared_key)


# -- key recovery from public data only --------------------------------------
#
# W is a chain, so once its values are replaced by their ranks in the order
# (digit sum, value), + is max and * is min on plain ints: the attack is a
# max-min linear system.  Its maximal solution is the residuation of the
# target by the columns (Cuninghame-Green, Minimax Algebra, 1979; Butkovic,
# Max-linear Systems, 2010), and the replay is one max-min combination.
#
# The ranks of a flattened n x n matrix are packed into one int by gf.pack,
# entry l in bits 16l .. 16l+15.  A rank fits in 15 bits, so bit 15 of every
# lane is a guard that stays 0 in packed ranks.  ((a | G) - b) & G then has
# the guard bit of each lane set where a >= b, with no borrow across lanes,
# and m - (m >> 15) widens those guard bits to a value mask (after Lamport,
# "Multiple byte processing with full-word instructions", CACM 1975).  Every
# shifted copy of a matrix (gf.mover), and every compare, min and max over
# all n^2 entries, is then a few int operations.  solve's masks hold one bit
# per entry, four copies of each on a doubled grid: a rotation is one shift.

def _lane_constants(n: int) -> Tuple[int, int]:
    """ONES (1 in each of the n*n lanes) and GUARD (bit 15 of each lane)."""
    ones = ((1 << 16 * n * n) - 1) // 0xFFFF
    return ones, ones << 15


def _max_min(zs, copies, consts: Tuple[int, int]) -> int:
    """Packed ranks of sum_k z_k * H_k: lanewise max over k of min(z_k, H_k),
    with consts = _lane_constants(n)."""
    ones, guard = consts
    acc = 0
    for z, h in zip(zs, copies):
        if z:  # rank 0 is the zero: it adds nothing
            zz = z * ones
            m = ((h | guard) - zz) & guard  # h >= z
            t = h ^ ((h ^ zz) & (m - (m >> 15)))  # min(z, h)
            m = ((t | guard) - acc) & guard  # t >= acc
            acc ^= (acc ^ t) & (m - (m >> 15))
    return acc


def _matrix(packed: int, values: list, n: int) -> SemiringMatrix:
    """The n x n matrix over W whose ranks are packed into `packed`."""
    flat = [values[a] for a in unpack(packed, n * n, 16)]
    return SemiringMatrix(W, tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n)))


def attack_columns(params: DigitalParams) -> Tuple[tuple, tuple, tuple]:
    """Flattened products C_i M C_j plus the generators used to build them.

    Over W the unit circulants are permutation matrices: INF * x = x,
    0 * x = 0 and 0 + x = x, so each entry of C_i M C_j is a single entry of
    M, namely (C_i M C_j)[r][c] = M[(r - i) mod n][(c + j) mod n].  The
    columns are read from M by that index shift, with no semiring
    arithmetic, and equal flatten_two_sided(params.matrix, gens, gens)[0].
    pairs holds the (i, j) of each column.  The attack itself builds no
    columns: solve shifts bit masks and replay moves packed lanes instead.
    """
    n = params.n
    flat = params.matrix.flat()
    columns = tuple(
        tuple([flat[(r - i) % n * n + (c + j) % n] for r in range(n) for c in range(n)])
        for i in range(n)
        for j in range(n)
    )
    pairs = tuple((i, j) for i in range(n) for j in range(n))
    return columns, pairs, circulant_generators(W, n)


def _chain(*groups) -> Tuple[list, dict]:
    """The given values plus 0 and INF in W's order, and each value's rank.

    Rank 0 is 0, the bottom; the last rank is INF, the top.  Raises
    ValueError for more than 2^15 values: a rank must fit a 15-bit lane.
    """
    values = sorted({0, INF}.union(*groups), key=order_key)
    if len(values) > 1 << 15:
        raise ValueError(f"{len(values)} distinct values: ranks overflow 15-bit lanes")
    return values, {v: r for r, v in enumerate(values)}


def _sandwich(left: Circulant, x: SemiringMatrix, right: Circulant) -> SemiringMatrix:
    """left.expand() @ x @ right.expand(), computed on packed ranks.

    A circulant with first column l is sum_i l_i * C_i, and C_i X C_j is X
    shifted by index (see attack_columns).  So (L X)[r][c] is the max over i
    of min(l_i, X[r - i][c]): X rotated down by i rows.  (Y R)[r][c] is the
    max over j of min(r_j, Y[r][c + j]): each row of Y rotated left by j.
    Raises the ValueErrors of the @ path: a factor not over W, or a size
    mismatch between the circulants and the matrix.
    """
    if left.sr is not W or x.sr is not W or right.sr is not W:
        raise ValueError("semiring mismatch")
    n = x.n
    if left.n != n:
        raise ValueError(f"dimension mismatch: {left.n} vs {n}")
    if right.n != n:
        raise ValueError(f"dimension mismatch: {n} vs {right.n}")
    flat = x.flat()
    values, rank = _chain(left.col, right.col, flat)
    packed = pack([rank[v] for v in flat], 16)
    move, consts = mover(n, n, 16), _lane_constants(n)
    y = _max_min([rank[v] for v in left.col], [move(packed, i) for i in range(n)], consts)
    acc = _max_min([rank[v] for v in right.col], [move(y, 0, j) for j in range(n)], consts)
    return _matrix(acc, values, n)


@lru_cache(maxsize=MAX_N)
def _grid(n: int) -> tuple:
    """solve's grid: the window bit i * 2n + j of copy (i, j) and the shift
    (-r % n) * 2n + c of position (r, c), row-major; M[r][c] = M'[-r][c] at
    its shift plus 0, n, 2n^2 and 2n^2 + n; and the window's mask."""
    w = 2 * n
    window = ((1 << n) - 1) * (((1 << w * n) - 1) // ((1 << w) - 1))
    return (tuple(a * w + b for a in range(n) for b in range(n)),
            tuple(-r % n * w + c for r in range(n) for c in range(n)),
            (1 | 1 << n) * (1 | 1 << n * w), window)


def solve(params: DigitalParams, target_pk: SemiringMatrix):
    """The maximal solution of the attack system for target_pk, or None.

    Returns what solver.maximal_solution(LinearSystem(attack_columns(params)[0],
    target_pk.flat()), W, w_max_component) returns, computed on W's chain
    ranks: the largest z_k with z_k * H_k <= Y is min{ y_l : H_k[l] > y_l },
    or INF when no component constrains it, and the candidate solves the
    system exactly when any combination does.

    Both steps sweep the target's positions in rank order, on masks that
    hold one bit per copy (i, j).  With M'[a][b] = M[-a][b], H_(i,j)[(r, c)]
    is M'[i - r][j + c], so the copies that H_k[l] > y_l singles out at
    l = (r, c) are the mask "M' > y_l" moved by (r, c): one right shift of a
    2n x 2n grid with M'[a][b] at (a + sn) * 2n + b + tn, s, t in {0, 1}
    (see _grid).  In ascending y_l, each copy takes the first y_l whose mask
    holds it.  Then each min(z_k, H_k[l]) is at most y_l, so the candidate
    hits Y iff every lane l has some k with H_k[l] >= y_l and z_k >= y_l; in
    descending y_l that is the moved "M' >= y_l" meeting the mask of copies
    with z_k >= y_l.  Raises ValueError when target_pk is not n x n.
    """
    n = params.n
    _require_size(n, target_pk.n, "matrix")
    size, target, matrix = n * n, target_pk.flat(), params.matrix.flat()
    values, rank = _chain(target, matrix)
    ys, ms = [rank[v] for v in target], [rank[v] for v in matrix]
    by_y = sorted(range(size), key=ys.__getitem__)
    by_m = sorted(range(size), key=ms.__getitem__)
    strided, shifts, quad, free = _grid(n)

    gt = (1 << 4 * size) - 1  # "M' > y"; free: the copies with no z yet
    steps = []  # (y, the copies whose z is y), y ascending
    p = 0
    for l in by_y:
        y = ys[l]
        while p < size and ms[by_m[p]] <= y:
            gt ^= quad << shifts[by_m[p]]
            p += 1
        if not gt:
            break
        hit = gt >> shifts[l] & free
        if hit:
            steps.append((y, hit))
            free ^= hit
            if not free:
                break

    ge, zge = 0, free  # "M' >= y" and the copies with z >= y
    p, q = size, len(steps)
    for l in reversed(by_y):
        y = ys[l]
        while p and ms[by_m[p - 1]] >= y:
            p -= 1
            ge |= quad << shifts[by_m[p]]
        while q and steps[q - 1][0] >= y:
            q -= 1
            zge |= steps[q][1]
        if not ge >> shifts[l] & zge:
            return None

    zs = [values[-1]] * (2 * size)  # z of copy (i, j) at its window bit
    for y, hit in steps:
        v = values[y]
        while hit:
            b = hit.bit_length() - 1
            zs[b] = v
            hit ^= 1 << b
    return tuple(map(zs.__getitem__, strided))


def replay(
    params: DigitalParams, solution: tuple, other_pk: SemiringMatrix
) -> SemiringMatrix:
    """Replay a solved combination against the other party's public matrix.

    Returns the sum of z_k * C_i other_pk C_j with (i, j) the k-th pair of
    attack_columns, row-major.  By the permutation identity of
    attack_columns (INF * x = x, 0 * x = 0, 0 + x = x), each product is
    other_pk with every row rotated left by j, then rotated down by i rows,
    so no matrix product is formed; the sum runs on packed ranks.  Moving
    lanes commutes with lanewise max and min, so the sum over j is taken on
    the n row-left copies and rotated down once per i: 2n moves, not n^2.
    Raises ValueError when other_pk is not n x n or the solution has not
    n^2 values.
    """
    n = params.n
    _require_size(n, other_pk.n, "matrix")
    if len(solution) != n * n:
        raise ValueError(f"solution has {len(solution)} values, not {n * n}")
    other = other_pk.flat()
    values, rank = _chain(solution, other)
    move, consts = mover(n, n, 16), _lane_constants(n)
    x = pack([rank[v] for v in other], 16)
    by_j = [move(x, 0, j) for j in range(n)]
    zs = [rank[z] for z in solution]
    rows = [move(_max_min(zs[i * n : (i + 1) * n], by_j, consts), i) for i in range(n)]
    return _matrix(_max_min([len(values) - 1] * n, rows, consts), values, n)


def recover_shared_key(
    params: DigitalParams,
    solution: tuple,
    other_pk: SemiringMatrix,
    pairs: tuple,
    gens: tuple,
) -> SemiringMatrix:
    """replay, in the paper's shape: pairs and gens as attack_columns returns them.

    The columns follow pairs in row-major (i, j) order, so neither is read.
    """
    return replay(params, solution, other_pk)


def _require_size(n: int, size: int, what: str) -> None:
    if size != n:
        raise ValueError(f"{what} is {size} x {size}, not {n} x {n}")


def attack(
    params: DigitalParams, target_pk: SemiringMatrix, other_pk: SemiringMatrix
) -> SemiringMatrix:
    """Recover the shared key of the party that published target_pk.

    Raises ValueError when either public matrix is not n x n.
    """
    _require_size(params.n, other_pk.n, "matrix")
    solution = solve(params, target_pk)
    if solution is None:
        raise AttackError(
            "public matrix is outside the span of the two-sided products"
        )
    return replay(params, solution, other_pk)


# -- serialization ------------------------------------------------------------


def params_to_json(params: DigitalParams) -> dict:
    return {
        "n": params.n,
        "entry_bound": params.entry_bound,
        "matrix": matrix_to_json(params.matrix, value_to_json),
    }


def params_from_json(obj: dict) -> DigitalParams:
    """The public parameters; n and the entry bound must be plain ints."""
    n = obj["n"]
    bound = obj.get("entry_bound", DEFAULT_ENTRY_BOUND)
    if type(n) is not int or type(bound) is not int:
        raise ValueError("n and entry_bound must be ints")
    matrix = matrix_from_json(obj["matrix"], W, values_from_json)
    return DigitalParams(n, matrix, bound)


def _matrix_from_json(params: DigitalParams, obj: dict) -> SemiringMatrix:
    mat = matrix_from_json(obj, W, values_from_json)
    _require_size(params.n, mat.n, "matrix")
    return mat


def _circulant_from_json(params: DigitalParams, obj: dict) -> Circulant:
    circ = circulant_from_json(obj, W, values_from_json)
    _require_size(params.n, circ.n, "circulant")
    return circ


# every matrix and circulant in a transcript must be n x n
CODEC = Codec(
    "digital", params_to_json, params_from_json,
    lambda mat: matrix_to_json(mat, value_to_json), _matrix_from_json,
    lambda circ: circulant_to_json(circ, value_to_json), _circulant_from_json,
)


def transcript_to_json(tr: Transcript, include_secrets: bool = False) -> dict:
    return exchange.transcript_to_json(tr, include_secrets, CODEC)


def transcript_from_json(obj: dict) -> Transcript:
    return exchange.transcript_from_json(obj, CODEC)
