"""Knot family descriptors and their lens-space Dehn surgeries.

Five families are modelled, each by a small tuple of positive integers:

* ``torus(p, q)``: the (p, q)-torus knot, p, q >= 2 coprime.  m/n-surgery
  yields a lens space exactly when |n*p*q - m| = 1, namely L(m, n*q^2);
  pq-surgery yields a connected sum of two lens spaces.
* ``cable(a, b, eps)``: the (2, 2ab+eps)-cable of the (a, b)-torus knot,
  eps = +1 or -1; its one lens surgery is at slope 4ab+eps and yields
  L(4ab+eps, 4b^2), while the cabling slope 4ab+2eps gives a reducible
  filling with a lens summand.
* ``kplus(a, b)``: the doubly primitive knot on the genus-one fiber of the
  trefoil, a, b >= 1 coprime; (a^2+ab+b^2)-surgery yields
  L(a^2+ab+b^2, (a/b)^2).
* ``tangleHH(n)`` and ``tangleTH(n)``: hyperbolic knots built from two
  tangle families, n >= 1.  They are data-backed: only the designated
  integral slope (27n^2+45n+21 resp. 18n^2+33n+15) has a recorded filling,
  every other slope reports an unknown outcome rather than guessing.

Only right-handed representatives and positive slopes are modelled; mirror
images are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .dualknot import kplus_is_hyperbolic
from .lens import LensSpace, make_lens

__all__ = [
    "FAMILIES",
    "InvalidKnot",
    "KnotDescriptor",
    "Lens",
    "NotLens",
    "ReducibleTwoLens",
    "SurgerySlope",
    "cable",
    "distinct",
    "genus",
    "kplus",
    "lens_surgery",
    "natural_slope",
    "tangle_hh",
    "tangle_th",
    "torus",
]

FAMILIES = ("torus", "cable", "kplus", "tangleHH", "tangleTH")


class InvalidKnot(ValueError):
    """Parameters violate the family's coprimality or range constraints."""


@dataclass(frozen=True, order=True)
class KnotDescriptor:
    """A knot given by its family tag and family-specific parameters."""

    family: str
    params: tuple[int, ...]

    def __str__(self):
        if self.family == "cable":
            a, b, eps = self.params
            return f"cable({a},{b},{'+1' if eps > 0 else '-1'})"
        return f"{self.family}({','.join(str(v) for v in self.params)})"


def torus(p: int, q: int) -> KnotDescriptor:
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise InvalidKnot(f"torus parameters must be coprime and >= 2, got ({p}, {q})")
    return KnotDescriptor("torus", (p, q))


def cable(a: int, b: int, eps: int) -> KnotDescriptor:
    if a < 2 or b < 2 or gcd(a, b) != 1:
        raise InvalidKnot(f"cable companion parameters must be coprime and >= 2, got ({a}, {b})")
    if eps not in (1, -1):
        raise InvalidKnot(f"cable sign must be +1 or -1, got {eps}")
    return KnotDescriptor("cable", (a, b, eps))


def kplus(a: int, b: int) -> KnotDescriptor:
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise InvalidKnot(f"kplus parameters must be coprime and >= 1, got ({a}, {b})")
    return KnotDescriptor("kplus", (a, b))


def tangle_hh(n: int) -> KnotDescriptor:
    if n < 1:
        raise InvalidKnot(f"tangleHH index must be >= 1, got {n}")
    return KnotDescriptor("tangleHH", (n,))


def tangle_th(n: int) -> KnotDescriptor:
    if n < 1:
        raise InvalidKnot(f"tangleTH index must be >= 1, got {n}")
    return KnotDescriptor("tangleTH", (n,))


@dataclass(frozen=True, order=True)
class SurgerySlope:
    """A surgery slope m/n, stored reduced with n >= 1."""

    m: int
    n: int = 1

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("slope denominator must be nonzero")
        m, n = self.m, self.n
        if n < 0:
            m, n = -m, -n
        g = gcd(m, n)
        if g > 1:
            m, n = m // g, n // g
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __str__(self):
        return f"{self.m}/{self.n}"


@dataclass(frozen=True)
class Lens:
    """Surgery outcome: the lens space itself."""

    space: LensSpace


@dataclass(frozen=True)
class ReducibleTwoLens:
    """Surgery outcome: connected sum of two lens spaces, one per torus parameter."""

    p: int
    q: int


@dataclass(frozen=True)
class NotLens:
    """Surgery outcome: not a lens space, or not recorded for this family."""

    reason: str  # "slope-condition-fails" or "unknown-for-family"
    note: str = ""


SurgeryResult = Lens | ReducibleTwoLens | NotLens


def _lens_slopes(family: str, params: tuple[int, ...], den: int = 1) -> list[tuple[int, int]]:
    """The lens slopes m/den of a knot as pairs (m, q): m/den-surgery gives L(m, q).

    q is reduced mod m.  This is the one place that holds each family's
    surgery formulas; ``lens_surgery``, ``natural_slope`` and the coincidence
    search all read them from here.
    """
    if family == "torus":
        p, q = params
        slopes = [(den * p * q - 1, den * q * q), (den * p * q + 1, den * q * q)]
    elif family not in FAMILIES:
        raise InvalidKnot(f"unknown family {family!r}")
    elif den != 1:
        return []
    elif family == "cable":
        a, b, eps = params
        slopes = [(4 * a * b + eps, 4 * b * b)]
    elif family == "kplus":
        a, b = params
        order = a * a + a * b + b * b
        w = a * pow(b, -1, order)
        slopes = [(order, w * w)]
    elif family == "tangleHH":
        (n,) = params
        slopes = [(27 * n * n + 45 * n + 21, -(9 * n * n + 12 * n + 5))]
    else:
        (n,) = params
        slopes = [(18 * n * n + 33 * n + 15, -(18 * n + 19))]
    return [(m, q % m) for m, q in slopes]


def lens_surgery(knot: KnotDescriptor, slope: SurgerySlope) -> SurgeryResult:
    """Evaluate m/n-surgery on the knot into the lens trichotomy."""
    if slope.m <= 0:
        raise ValueError("only positive slopes are modelled")
    for m, q in _lens_slopes(knot.family, knot.params, slope.n):
        if m == slope.m:
            return Lens(make_lens(m, q))
    if knot.family == "torus":
        p, q = knot.params
        if slope.n == 1 and slope.m == p * q:
            return ReducibleTwoLens(p, q)
        return NotLens("slope-condition-fails")
    if knot.family == "cable":
        ((m, _),) = _lens_slopes("cable", knot.params)
        if slope.n == 1 and slope.m == m + knot.params[2]:
            return NotLens(
                "unknown-for-family",
                note="cabling slope: reducible filling with a lens space summand",
            )
        return NotLens("slope-condition-fails")
    return NotLens("unknown-for-family")


def natural_slope(knot: KnotDescriptor) -> SurgerySlope | None:
    """The designated integral lens slope of the family; None for torus knots."""
    if knot.family == "torus":
        return None
    ((m, _),) = _lens_slopes(knot.family, knot.params)
    return SurgerySlope(m)


def genus(knot: KnotDescriptor) -> int | None:
    """Knot genus where a formula is available (torus, kplus, tangleHH)."""
    if knot.family == "torus":
        p, q = knot.params
        return (p - 1) * (q - 1) // 2
    if knot.family == "kplus":
        a, b = knot.params
        return ((a + b - 1) ** 2 - a * b) // 2
    if knot.family == "tangleHH":
        (n,) = knot.params
        return (27 * n * n + 33 * n + 10) // 2
    return None


def _normalized(knot: KnotDescriptor) -> tuple:
    # canonical parameters modulo the family's symmetry
    if knot.family in ("torus", "kplus"):
        return (knot.family, tuple(sorted(knot.params)))
    if knot.family == "cable":
        a, b, eps = knot.params
        return ("cable", (min(a, b), max(a, b), eps))
    return (knot.family, knot.params)


def distinct(first: KnotDescriptor, second: KnotDescriptor) -> str:
    """Decide non-equivalence: returns "equal", "distinct" or "unknown".

    Same family: compare parameters up to the symmetries torus(p,q) =
    torus(q,p), kplus(a,b) = kplus(b,a), cable(a,b,e) = cable(b,a,e).
    Across families the certificates are: torus knots are never cables or
    tangle-family knots; unequal genus; and a kplus knot with phi >= 2 is
    hyperbolic, hence neither a torus knot nor a cable.  Anything the
    certificates cannot separate is reported "unknown", never overclaimed.
    """
    if first.family == second.family:
        return "equal" if _normalized(first) == _normalized(second) else "distinct"
    fams = {first.family, second.family}
    if "torus" in fams and fams & {"cable", "tangleHH", "tangleTH"}:
        return "distinct"
    g1, g2 = genus(first), genus(second)
    if g1 is not None and g2 is not None and g1 != g2:
        return "distinct"
    if "kplus" in fams and fams & {"torus", "cable"}:
        kp = first if first.family == "kplus" else second
        if kplus_is_hyperbolic(*kp.params):
            return "distinct"
    return "unknown"
