"""Independent reference implementations that the library is tested against.

The walks materialise every term, so they are only fit for small inputs.
The family rules at the end restate, one if-chain per question, what the
family table of ``lenspairs.knots`` answers."""

from __future__ import annotations

from lenspairs.dualknot import BasicSequenceStats, DualKnotTriple, kplus_is_hyperbolic
from lenspairs.knots import (
    FAMILIES,
    InvalidKnot,
    KnotDescriptor,
    Lens,
    NotLens,
    ReducibleTwoLens,
    SurgerySlope,
)
from lenspairs.lens import make_lens


def basic_stats_bruteforce(triple: DualKnotTriple) -> BasicSequenceStats:
    """Materialise the whole residue walk i*q mod p and count around k."""
    p, q, k = triple.p, triple.q, triple.k
    walk = [i * q % p for i in range(1, p)]
    h = walk.index(k) + 1
    before = walk[: h - 1]
    after = walk[h:]
    s = sum(1 for v in before if v < k)
    ell = sum(1 for v in before if v > k)
    s_prime = sum(1 for v in after if v < k)
    ell_prime = sum(1 for v in after if v > k)
    return BasicSequenceStats(h, s, ell, s_prime, ell_prime, min(s, ell, s_prime, ell_prime))


def fib_loop(n: int) -> int:
    """F(n) by n additions."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def pell_loop(n: int) -> tuple[int, int]:
    """The pell pair (a_n, b_n) by n-1 steps of the recurrence, n >= 1."""
    a, b = 2, 3
    for _ in range(n - 1):
        a, b = a + b, 2 * a + b
    return a, b


# The per-family rules of lenspairs.knots as one if-chain per question, the
# form they had before the family table, with their logic unchanged.  The
# table must give the same answers on every knot.


def _lens_slopes(family: str, params: tuple[int, ...], den: int = 1) -> list[tuple[int, int]]:
    """The lens slopes m/den of a knot as pairs (m, q): m/den-surgery gives L(m, q)."""
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


def lens_surgery(knot: KnotDescriptor, slope: SurgerySlope):
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
    """Decide non-equivalence: returns "equal", "distinct" or "unknown"."""
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
