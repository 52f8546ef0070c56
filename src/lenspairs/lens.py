"""Oriented lens spaces L(p, q) and their homeomorphism predicates.

L(p, q) is the result of p/q-surgery on the unknot; reversing the
orientation replaces q by p - q.  Two spaces of the same order p are
orientation-preservingly homeomorphic when the parameters agree or are
inverse mod p, and homeomorphic (orientation ignored) when they agree up
to both sign and inversion.  The predicates decide this with one product
mod p and no modular inverse; ``canonical_form`` names the class as a
dictionary key.  The rules also come as functions of plain ints, for
callers that want no object: ``_reduced_q`` validates and reduces a
parameter, ``_same_class`` compares two, ``_class_min`` names the class
from a parameter and its inverse, and ``_lens_text`` writes L(p,q).
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
]


class InvalidOrder(ValueError):
    """Lens space order p must be a positive integer."""


class NotCoprime(ValueError):
    """Lens space parameters must satisfy gcd(p, q) = 1."""


def _check_order(p: int) -> None:
    if p < 1:
        raise InvalidOrder(f"order must be >= 1, got {p}")


def _not_coprime(p: int, q: int) -> NotCoprime:
    # the error names q as given, not as reduced
    return NotCoprime(f"gcd({p}, {q}) != 1")


def _reduced_q(p: int, q: int) -> int:
    """q mod p, once the order p >= 1 and gcd(p, q) = 1 are checked."""
    _check_order(p)
    reduced = q % p
    if gcd(p, reduced) != 1:
        raise _not_coprime(p, q)
    return reduced


def _same_class(p: int, q1: int, q2: int) -> bool:
    """L(p, q1) and L(p, q2), q1 and q2 reduced, are homeomorphic: q2 = ±q1 or q1*q2 = ±1 (mod p)."""
    return q1 == q2 or q1 + q2 == p or q1 * q2 % p in (1, p - 1)


def _class_min(p: int, q: int, q_inv: int) -> int:
    """The least of ±q and ±q_inv mod p, for q*q_inv = 1 (mod p): the
    parameter that names the unoriented class of L(p, q)."""
    q %= p
    q_inv %= p
    return min(q, p - q, q_inv, p - q_inv)


def _lens_text(p: int | str, q: int | str) -> str:
    # given "%s" for p and q, it writes the format of L(p,q) that verify fills in
    return f"L({p},{q})"


@dataclass(frozen=True, order=True)
class LensSpace:
    """L(p, q) with q stored reduced mod p; L(1, 0) is the 3-sphere."""

    p: int
    q: int

    def __post_init__(self):
        if _reduced_q(self.p, self.q) != self.q:
            raise ValueError(f"parameter {self.q} is not reduced mod {self.p}")

    def __str__(self):
        return _lens_text(self.p, self.q)


def make_lens(p: int, q: int) -> LensSpace:
    """Build L(p, q mod p), validating the order and coprimality."""
    _check_order(p)
    try:
        return LensSpace(p, q % p)  # whose own check takes the one gcd
    except NotCoprime:
        raise _not_coprime(p, q) from None


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
    return first.p == second.p and _same_class(first.p, first.q, second.q)


def canonical_form(space: LensSpace) -> tuple[int, int]:
    """(p, q_min) with q_min the least parameter in the unoriented class.

    Two lens spaces are homeomorphic exactly when their canonical forms
    are equal, so the pair serves as a dictionary key.
    """
    p, q = space.p, space.q
    return p, _class_min(p, q, pow(q, -1, p))
