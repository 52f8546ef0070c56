"""The exact perfect-square test on plain Python ints."""

from __future__ import annotations

from math import isqrt

__all__ = [
    "is_perfect_square",
]


def is_perfect_square(n: int) -> int | None:
    """The nonnegative square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
