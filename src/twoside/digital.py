"""The digit-dominance semiring on the naturals with a top element.

Values live in W = N ∪ {inf}.  Both operations are selections driven by the
base-10 digit sum: addition keeps the operand with the larger digit sum
(numeric max on ties), multiplication keeps the one with the smaller digit sum
(numeric min on ties).  Under the induced order -- digit sum first, numeric
value to break ties -- addition is exactly max and multiplication exactly min,
so W is a totally ordered chain with 0 at the bottom and infinity on top.

Finite values are plain Python ints; the top element is float("inf").  The mix
is safe because the operations only ever select one of their arguments, so no
int/float arithmetic takes place.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .semiring import Semiring

INF = math.inf

# Ingestion cap for finite values.  Selection never creates new magnitudes, so
# nothing computed downstream can exceed what the parsers let in.
MAX_FINITE = 2**64 - 1


# Maps the ASCII digits b"0".."9" to the byte values 0..9.
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


# Bounded so long attack campaigns do not grow it without limit.  One digital
# attack touches about 3 n^2 distinct values, which fits for n <= 32.  A bool
# never hits an int's entry: the cache keys an exact int by itself, a bool by
# the tuple of its arguments.
@lru_cache(maxsize=4096)
def order_key(v):
    """W's order as one int: v's base-10 digit sum << 64 | v, INF for INF.

    A finite value is below 2^64, so the keys sort exactly as (digit sum,
    value).  This is the one place the order and the digit sum are written;
    every comparison of W goes through it.  Anything but INF or a plain int
    in 0..MAX_FINITE raises ValueError, and is not cached.
    """
    if v == INF:
        return INF
    if type(v) is not int or not 0 <= v <= MAX_FINITE:
        raise ValueError(f"not a value of W: {v!r}")
    return sum(str(v).encode().translate(_DIGITS)) << 64 | v


def digit_sum(a):
    """Base-10 digit sum of a value of W, read from order_key; infinity maps to
    a sentinel above every finite sum, and a value outside W raises ValueError."""
    key = order_key(a)
    return key if key == INF else key >> 64


def w_add(a, b):
    """Keep the operand with the larger digit sum, numeric max on ties."""
    return a if order_key(a) >= order_key(b) else b


def w_mul(a, b):
    """Keep the operand with the smaller digit sum, numeric min on ties."""
    return a if order_key(a) <= order_key(b) else b


def w_leq(a, b) -> bool:
    """Induced order: a <= b iff w_add(a, b) == b."""
    return order_key(a) <= order_key(b)


W = Semiring("digital", add=w_add, mul=w_mul, zero=0, one=INF, leq=w_leq)


def w_max_component(h, y):
    """Largest x with w_add(w_mul(x, h), y) == y: INF when h <= y, else y.

    This is the per-component maximum that the maximal-solution solver folds
    over; it is specific to W's order.
    """
    return INF if w_leq(h, y) else y


def value_to_json(v):
    """JSON form: plain number, or the string "inf" for the top element."""
    return "inf" if v == INF else v


def value_from_json(obj):
    if obj == "inf":
        return INF
    if type(obj) is int and 0 <= obj <= MAX_FINITE:
        return obj
    raise ValueError(f"not a semiring value: {obj!r}")


def values_from_json(flat):
    """[value_from_json(v) for v in flat], in one type and range check when
    all are plain ints (then flat itself), else entry by entry: the error
    names the first bad one."""
    if set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) <= MAX_FINITE:
        return flat
    return [value_from_json(v) for v in flat]
