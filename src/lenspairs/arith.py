"""Exact integer arithmetic shared by every other module.

Everything here works on plain Python ints, so no operation can overflow.
Modular inverses use the built-in ``pow(x, -1, p)``.
"""

from __future__ import annotations

from math import gcd, isqrt

__all__ = [
    "gcd",
    "is_perfect_square",
]


def is_perfect_square(n: int) -> int | None:
    """The nonnegative square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
