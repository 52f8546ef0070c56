"""Dual knots in lens spaces and the hyperbolicity certificate phi.

After a knot with an order-p lens surgery is filled, the core of the glued
solid torus is a knot in L(p, q) determined by one extra residue k.  In the
residue walk i*q mod p for i = 1 .. p-1, k sits at position h = k/q mod p;
counting the terms smaller/larger than k before and after h gives four
counts (s, ell, s', ell'), and their minimum phi decides hyperbolicity of
the original knot: hyperbolic iff phi >= 2.

The walk is never materialised.  One count is a difference of two floor
sums, computed by a Euclid-like reduction in O(log p) steps on plain ints,
and the other three follow from it exactly.  So phi stays cheap on the
Fibonacci-parameter family, whose orders grow like the golden ratio to the
power 2n and reach hundreds of digits.  The family table of ``knots`` asks
phi of kplus knots that it already holds valid, through
``_kplus_hyperbolic``, which checks nothing and builds no triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lens import _reduced_q

__all__ = [
    "BasicSequenceStats",
    "DualKnotTriple",
    "basic_stats",
    "kplus_dual",
    "kplus_is_hyperbolic",
]


@dataclass(frozen=True)
class DualKnotTriple:
    """(p, q, k): the surgered lens space L(p, q) plus the core parameter k."""

    p: int
    q: int
    k: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"order must be >= 2, got {self.p}")
        # the lens rule: for p >= 2 a coprime reduced q lies in [1, p)
        if _reduced_q(self.p, self.q) != self.q:
            raise ValueError(f"parameter {self.q} invalid mod {self.p}")
        if not 1 <= self.k < self.p:
            raise ValueError(f"core parameter {self.k} must lie in [1, {self.p})")


@dataclass(frozen=True)
class BasicSequenceStats:
    """Counts around the position h of k in the residue walk i*q mod p."""

    h: int
    s: int
    ell: int
    s_prime: int
    ell_prime: int
    phi: int


_KPLUS_RULE = "parameters must be coprime and >= 1"


def _kplus_valid(a: int, b: int) -> bool:
    """True when (a, b) names a kplus knot, as ``_KPLUS_RULE`` states."""
    return a >= 1 and b >= 1 and gcd(a, b) == 1


def _kplus_pqk(a: int, b: int) -> tuple[int, int, int]:
    """(p, q, k) of kplus(a, b) as plain ints, for parameters ``_kplus_valid`` accepts.

    With p = a^2 + ab + b^2 and w = b/(a+b) mod p, the surgery yields
    L(p, w^2) and the core parameter is -w mod p.
    """
    p = a * a + a * b + b * b
    w = b * pow(a + b, -1, p) % p
    return p, w * w % p, -w % p


def kplus_dual(a: int, b: int) -> DualKnotTriple:
    """Dual-knot triple of the doubly primitive knot kplus(a, b)."""
    if not _kplus_valid(a, b):
        raise ValueError(f"kplus {_KPLUS_RULE}, got {(a, b)}")
    return DualKnotTriple(*_kplus_pqk(a, b))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over 0 <= i < n, for n >= 0 and m >= 1.

    The Euclid-like reduction of AtCoder Library's ``floor_sum``: after
    reducing a and b mod m, the sum equals a floor sum with the roles of a
    and m swapped, so the loop runs O(log m) times.
    """
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += n * (n - 1) // 2 * qa + n * qb
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def basic_stats(triple: DualKnotTriple) -> BasicSequenceStats:
    """The four counts around the position h of k, in O(log p) steps.

    h = k/q mod p.  Since [x mod p < k] = x//p - (x-k)//p, the count s of
    residues i*q mod p below k for 1 <= i < h is a difference of two floor
    sums.  The walk i*q mod p over 1 <= i < p is a permutation of 1 .. p-1,
    which takes the value k at i = h, so the other three counts follow:
    ell = h-1-s, s' = k-1-s and ell' = p-1-h-s'.
    """
    return _stats(triple.p, triple.q, triple.k)


def _stats(p: int, q: int, k: int) -> BasicSequenceStats:
    # ``basic_stats`` of the triple (p, q, k) as plain ints, which the caller vouches for
    h = k * pow(q, -1, p) % p
    s = _floor_sum(h - 1, p, q, q) - _floor_sum(h - 1, p, q, q - k)
    s_prime = k - 1 - s
    ell, ell_prime = h - 1 - s, p - 1 - h - s_prime
    return BasicSequenceStats(h, s, ell, s_prime, ell_prime, min(s, ell, s_prime, ell_prime))


def kplus_is_hyperbolic(a: int, b: int) -> bool:
    """True iff kplus(a, b) is hyperbolic, decided by phi >= 2."""
    kplus_dual(a, b)  # for its checks of (a, b) and of the triple
    return _kplus_hyperbolic(a, b)


def _kplus_hyperbolic(a: int, b: int) -> bool:
    # ``kplus_is_hyperbolic`` for parameters that ``_kplus_valid`` accepts, with no check and no triple
    return _stats(*_kplus_pqk(a, b)).phi >= 2

