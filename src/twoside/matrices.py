"""Square matrices and circulants over a pluggable semiring."""

from __future__ import annotations

from dataclasses import dataclass, field

from .semiring import Semiring


@dataclass(frozen=True)
class SemiringMatrix:
    """Immutable n x n matrix; `rows` is a tuple of row tuples."""

    sr: Semiring = field(repr=False)
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")

    @property
    def n(self) -> int:
        return len(self.rows)

    def _check(self, other: "SemiringMatrix") -> None:
        if self.sr != other.sr:
            raise ValueError("semiring mismatch")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "SemiringMatrix") -> "SemiringMatrix":
        self._check(other)
        add = self.sr.add
        return SemiringMatrix(
            self.sr,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

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
        return SemiringMatrix(
            self.sr, tuple(tuple(mul(z, a) for a in row) for row in self.rows)
        )

    def flat(self) -> tuple:
        """Row-major entry tuple of length n*n."""
        return tuple(a for row in self.rows for a in row)

    def __repr__(self) -> str:
        return f"SemiringMatrix({[list(r) for r in self.rows]!r})"


@dataclass(frozen=True)
class Circulant:
    """Circulant matrix given by its first column c_0..c_{n-1}."""

    sr: Semiring = field(repr=False)
    col: tuple

    def __post_init__(self):
        col = tuple(self.col)
        object.__setattr__(self, "col", col)
        if not col:
            raise ValueError("circulant needs at least one entry")

    @property
    def n(self) -> int:
        return len(self.col)

    def expand(self) -> SemiringMatrix:
        """Dense form: entry (i, j) is col[(i - j) mod n]."""
        n, c = self.n, self.col
        return SemiringMatrix(
            self.sr, tuple(tuple(c[(i - j) % n] for j in range(n)) for i in range(n))
        )

    def __repr__(self) -> str:
        return f"Circulant({list(self.col)!r})"


def circulant_generators(sr: Semiring, n: int) -> tuple:
    """Expansions of the unit circulants.

    Generator i is the circulant whose first column has the multiplicative
    identity at position i and the additive identity elsewhere; every
    circulant is the sum of its entries acting on these by scale().
    """
    gens = []
    for i in range(n):
        col = tuple(sr.one if j == i else sr.zero for j in range(n))
        gens.append(Circulant(sr, col).expand())
    return tuple(gens)


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
    return {"n": mat.n, "rows": [[encode(v) for v in row] for row in mat.rows]}


def matrix_from_json(obj: dict, sr: Semiring, decode) -> SemiringMatrix:
    n = obj["n"]
    if type(n) is not int:
        raise ValueError("matrix size must be an int")
    rows = obj["rows"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix JSON shape does not match its declared size")
    flat = decode([v for row in rows for v in row])
    return SemiringMatrix(sr, [flat[r * n : (r + 1) * n] for r in range(n)])


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
