"""Oriented lens spaces L(p, q) and their homeomorphism predicates.

L(p, q) is the result of p/q-surgery on the unknot; reversing the
orientation replaces q by p - q.  Two spaces of the same order p are
orientation-preservingly homeomorphic when the parameters agree or are
inverse mod p, and homeomorphic (orientation ignored) when they agree up
to both sign and inversion.  The predicates decide this with one product
mod p and no modular inverse; ``canonical_form`` names the class as a
dictionary key.  The coincidence search keys its buckets on the same class,
packed into one int with the slope and computed from closed-form inverses
in ``search._shard_records``; it makes a ``LensSpace`` only for a class
that two knots share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

__all__ = [
    "InvalidOrder",
    "LensSpace",
    "NotCoprime",
    "canonical_form",
    "homeomorphic",
    "make_lens",
    "oriented_homeomorphic",
    "reverse_orientation",
]


class InvalidOrder(ValueError):
    """Lens space order p must be a positive integer."""


class NotCoprime(ValueError):
    """Lens space parameters must satisfy gcd(p, q) = 1."""


@dataclass(frozen=True, order=True)
class LensSpace:
    """L(p, q) with q stored reduced mod p; L(1, 0) is the 3-sphere."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidOrder(f"order must be >= 1, got {self.p}")
        if not 0 <= self.q < self.p:
            raise ValueError(f"parameter {self.q} is not reduced mod {self.p}")
        if gcd(self.p, self.q) != 1:
            raise NotCoprime(f"gcd({self.p}, {self.q}) != 1")

    def __str__(self):
        return f"L({self.p},{self.q})"


def make_lens(p: int, q: int) -> LensSpace:
    """Build L(p, q mod p), validating the order and coprimality."""
    if p < 1:
        raise InvalidOrder(f"order must be >= 1, got {p}")
    return LensSpace(p, q % p)


def reverse_orientation(space: LensSpace) -> LensSpace:
    """The same space with reversed orientation: q goes to p - q."""
    return make_lens(space.p, space.p - space.q)


def oriented_homeomorphic(first: LensSpace, second: LensSpace) -> bool:
    """True iff the spaces are homeomorphic preserving orientation.

    Same order p and q2 ≡ q1 or q1*q2 ≡ 1 (mod p).
    """
    if first.p != second.p:
        return False
    p = first.p
    return first.q == second.q or (first.q * second.q - 1) % p == 0


def homeomorphic(first: LensSpace, second: LensSpace) -> bool:
    """True iff the spaces are homeomorphic, orientations ignored.

    Same order p and q2 ≡ ±q1 or q1*q2 ≡ ±1 (mod p).
    """
    if first.p != second.p:
        return False
    p, q1, q2 = first.p, first.q, second.q
    return q1 == q2 or q1 + q2 == p or q1 * q2 % p in (1, p - 1)


def canonical_form(space: LensSpace) -> tuple[int, int]:
    """(p, q_min) with q_min the least parameter in the unoriented class.

    Two lens spaces are homeomorphic exactly when their canonical forms
    are equal, so the pair serves as a dictionary key.
    """
    p, q = space.p, space.q
    inv = pow(q, -1, p)
    return p, min(q, p - q, inv, p - inv)
