"""Square matrices and circulants over a pluggable semiring."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import isqrt

from .semiring import Semiring


@dataclass(frozen=True, init=False)
class SemiringMatrix:
    """Immutable n x n matrix, its n^2 entries stored once as the row-major
    tuple flat() returns; `rows` is a view of them."""

    sr: Semiring
    _flat: tuple
    n: int = field(compare=False)

    def __init__(self, sr: Semiring, rows):
        rows = [tuple(r) for r in rows]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square and non-empty")
        self.__dict__.update(sr=sr, _flat=tuple(chain.from_iterable(rows)), n=len(rows))

    @classmethod
    def from_flat(cls, sr: Semiring, entries) -> "SemiringMatrix":
        """The matrix whose flat() is tuple(entries), read row-major; raises
        ValueError unless their count is a square above 0."""
        entries = tuple(entries)
        n = isqrt(len(entries))
        if n == 0 or n * n != len(entries):
            raise ValueError("matrix must be square and non-empty")
        mat = object.__new__(cls)
        mat.__dict__.update(sr=sr, _flat=entries, n=n)  # frozen: bypass __setattr__
        return mat

    @property
    def rows(self) -> tuple:
        """The n row tuples."""
        return tuple(zip(*[iter(self._flat)] * self.n))

    def flat(self) -> tuple:
        """The stored row-major entry tuple of length n*n, not a copy."""
        return self._flat

    def _check(self, other: "SemiringMatrix") -> None:
        if self.sr != other.sr:
            raise ValueError("semiring mismatch")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "SemiringMatrix") -> "SemiringMatrix":
        self._check(other)
        return SemiringMatrix.from_flat(self.sr, map(self.sr.add, self._flat, other._flat))

    def __matmul__(self, other: "SemiringMatrix") -> "SemiringMatrix":
        self._check(other)
        add, mul, zero = self.sr.add, self.sr.mul, self.sr.zero
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(tuple(out_row))
        return SemiringMatrix(self.sr, tuple(out))

    def scale(self, z) -> "SemiringMatrix":
        """Entrywise multiplication by z; equals (z * identity) @ self."""
        mul = self.sr.mul
        return SemiringMatrix.from_flat(self.sr, [mul(z, a) for a in self._flat])

    def __repr__(self) -> str:
        return f"SemiringMatrix({[list(r) for r in self.rows]!r})"


@dataclass(frozen=True)
class Circulant:
    """Circulant matrix given by its first column c_0..c_{n-1}."""

    sr: Semiring = field(repr=False)
    col: tuple

    def __post_init__(self):
        object.__setattr__(self, "col", tuple(self.col))
        if not self.col:
            raise ValueError("circulant needs at least one entry")

    @property
    def n(self) -> int:
        return len(self.col)

    def expand(self) -> SemiringMatrix:
        """Dense form: entry (i, j) is col[(i - j) mod n]."""
        n, c = self.n, self.col
        return SemiringMatrix.from_flat(self.sr, [c[(i - j) % n] for i in range(n) for j in range(n)])

    def __repr__(self) -> str:
        return f"Circulant({list(self.col)!r})"


def circulant_generators(sr: Semiring, n: int) -> tuple:
    """Expansions of the unit circulants.

    Generator i is the circulant whose first column has the multiplicative
    identity at position i and the additive identity elsewhere; every
    circulant is the sum of its entries acting on these by scale().
    """
    return tuple(
        Circulant(sr, [sr.one if j == i else sr.zero for j in range(n)]).expand() for i in range(n)
    )


def flatten_two_sided(m: SemiringMatrix, gens_left, gens_right):
    """Column vectors flat(L_i @ m @ R_j) for all generator pairs.

    Returns (columns, pairs) with pairs[k] = (i, j) for columns[k], ordered
    row-major by (i, j).
    """
    columns, pairs = [], []
    for i, left in enumerate(gens_left):
        lm = left @ m
        for j, right in enumerate(gens_right):
            columns.append((lm @ right).flat())
            pairs.append((i, j))
    return tuple(columns), tuple(pairs)


def matrix_to_json(mat: SemiringMatrix, encode) -> dict:
    n, flat = mat.n, [encode(v) for v in mat.flat()]
    return {"n": n, "rows": [flat[r * n : (r + 1) * n] for r in range(n)]}


def matrix_from_json(obj: dict, sr: Semiring, decode) -> SemiringMatrix:
    n = obj["n"]
    if type(n) is not int:
        raise ValueError("matrix size must be an int")
    rows = obj["rows"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix JSON shape does not match its declared size")
    return SemiringMatrix.from_flat(sr, decode(tuple(chain.from_iterable(rows))))


def circulant_to_json(circ: Circulant, encode) -> dict:
    return {"n": circ.n, "c": [encode(v) for v in circ.col]}


def circulant_from_json(obj: dict, sr: Semiring, decode) -> Circulant:
    n = obj["n"]
    if type(n) is not int:
        raise ValueError("circulant size must be an int")
    col = obj["c"]
    if len(col) != n:
        raise ValueError("circulant JSON shape does not match its declared size")
    return Circulant(sr, decode(col))
