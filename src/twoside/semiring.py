"""Minimal semiring interface shared by the matrix and solver layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Semiring:
    """Operation bundle for an additively idempotent semiring.

    `leq` is the order induced by addition (a <= b iff add(a, b) == b) for
    semirings that expose it; the solver requires it, the matrix layer does
    not.
    """

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    leq: Optional[Callable[[Any, Any], bool]] = None

    def __repr__(self) -> str:
        return f"Semiring({self.name!r})"
