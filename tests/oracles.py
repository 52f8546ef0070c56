"""Independent reference implementations that the library is tested against.

The walks and the box scan materialise every term, so they are only fit
for small inputs.  The family rules restate, one if-chain per question,
what the family table of ``lenspairs.knots`` answers, and ``family_pair``
states the knots and the shared slope of each verified construction by the
paper's formulas.  ``surgery_a2`` reads the knot invariant a2 off the
oriented lens space of a surgery, by Dedekind sums.  ``product_rows`` makes
the torus and cable search rows one knot at a time, as the search did
before it probed runs of them.  ``identity_holds`` evaluates a sequence
identity from ``fib`` and ``pair`` at each index on its own, and
``verify_witness`` writes a verify witness text by text, as the library did
before it walked the one and templated the other.  ``record_json`` writes a
search record through a dict and ``json.dumps``, as the library did before
it filled one template."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, isqrt

from lenspairs.bqf import FormSolution, QuadForm, UnitElement
from lenspairs.dualknot import BasicSequenceStats, DualKnotTriple, kplus_is_hyperbolic
from lenspairs.knots import (
    FAMILIES,
    InvalidKnot,
    KnotDescriptor,
    Lens,
    NotLens,
    ReducibleTwoLens,
    SurgerySlope,
    cable,
    kplus,
    tangle_hh,
    tangle_th,
    torus,
)
from lenspairs.knots import _ident_width, _key, _knot_text, _reduced_slope
from lenspairs.lens import LensSpace, _lens_text, make_lens
from lenspairs.sequences import InvalidIndex, fib, pair


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


def fibonacci_kplus_data(n: int) -> DualKnotTriple:
    """Closed-form dual triple of kplus(F(n+2), F(n)), n >= 1.

    p = 4 F(n) F(n+2) + (-1)^n, q ≡ (-1)^(n+1) 4 F(n)^2 and
    k ≡ (-1)^n 4 F(n) (F(n) + F(n+2)), all reduced mod p.
    """
    if n < 1:
        raise InvalidIndex("index must be >= 1")
    fn, fn2 = fib(n), fib(n + 2)
    sign = -1 if n % 2 else 1
    p = 4 * fn * fn2 + sign
    q = -sign * 4 * fn * fn % p
    k = sign * 4 * fn * (fn + fn2) % p
    return DualKnotTriple(p, q, k)


def solutions_in_box(form: QuadForm, m: int, bound: int) -> list[FormSolution]:
    """All solutions with |x|, |y| <= bound, found without the unit machinery.

    Exhausts y and extracts the integer roots in x directly; serves as the
    independent ground truth for the orbit pipeline.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    a, b, c = form.A, form.B, form.C
    found = []
    for y in range(-bound, bound + 1):
        # roots of a x^2 + (b y) x + (c y^2 - m) = 0 via its own discriminant
        disc = (b * y) ** 2 - 4 * a * (c * y * y - m)
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        for sign in (root, -root) if root else (0,):
            num = -b * y + sign
            if num % (2 * a) == 0:
                x = num // (2 * a)
                if abs(x) <= bound:
                    found.append(FormSolution(x, y))
    found.sort(key=lambda sol: (sol.y, sol.x))
    return found


def unit_norm(unit: UnitElement) -> int:
    """The norm of u + v*rho, one formula per parity of the discriminant."""
    u, v, delta = unit.u, unit.v, unit.delta
    if delta % 4 == 0:
        return u * u - (delta // 4) * v * v
    return u * u + u * v - ((delta - 1) // 4) * v * v


def unit_matrix(form: QuadForm, unit: UnitElement) -> tuple[int, int, int, int]:
    """(a11, a12, a21, a22) of the unit action, one formula per parity of the
    discriminant; (x, y) goes to (x a11 + y a21, x a12 + y a22)."""
    u, v = unit.u, unit.v
    if form.delta % 4 == 0:
        a11 = u - form.B // 2 * v
        a22 = u + form.B // 2 * v
    else:
        a11 = u + (1 - form.B) // 2 * v
        a22 = u + (1 + form.B) // 2 * v
    return a11, form.A * v, -form.C * v, a22


def torus_pairs_sharing_a_product(p_max: int) -> tuple:
    """Each pair ((p, q), (r, s)) of coprime parameter pairs with p*q = r*s,
    2 <= q < p <= p_max and 2 <= s < r < p, in order of the product, then of
    (r, s), then of (p, q)."""
    by_product: dict[int, list] = {}
    for p in range(3, p_max + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                by_product.setdefault(p * q, []).append((p, q))
    return tuple(
        (first, second)
        for product in sorted(by_product)
        for second, first in itertools.combinations(sorted(by_product[product]), 2)
    )


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


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k >= 1 and gcd(h, k) = 1, by reciprocity in O(log k) steps:
    s(h, k) depends on h only mod k, s(0, 1) = 0, and for coprime h, k >= 1
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4 (Rademacher and
    Grosswald, *Dedekind Sums*, 1972)."""
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def surgery_a2(m: int, n: int, q: int) -> Fraction:
    """a2 = Delta''(1)/2 of a knot in S^3 whose m/n-surgery, m/n reduced, is
    the oriented L(m, q), by the Casson-Walker invariant: lambda(L(p, q)) =
    -s(q, p)/2 and lambda(S^3_{m/n}(K)) = lambda(L(m, n)) + (n/m)*a2(K)
    (Walker, *An extension of Casson's invariant*, 1992; Boyer and Lines,
    J. reine angew. Math. 405, 1990).  For a knot in S^3 it is an integer."""
    return Fraction(m, n) * (dedekind_sum(n, m) - dedekind_sum(q, m)) / 2


def torus_a2(p: int, q: int) -> Fraction:
    """a2 of the (p, q)-torus knot, in closed form."""
    return Fraction((p * p - 1) * (q * q - 1), 24)


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


def reverse_orientation(space: LensSpace) -> LensSpace:
    """The same space with reversed orientation: q goes to p - q."""
    return make_lens(space.p, space.p - space.q)


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


def family_pair(family: str, n: int):
    """The two knots and their shared slope for instance n of a verified
    family, by the closed-form slope of each construction in the paper."""
    if family == "torus_torus":
        cur, nxt = pair("fibonacci", n), pair("fibonacci", n + 1)
        return torus(nxt.a, cur.b), torus(cur.a, nxt.b), SurgerySlope(nxt.a * cur.b + (-1) ** (n + 1))
    if family == "torus_torus_half":
        cur, nxt = pair("pell", n), pair("pell", n + 1)
        return torus(cur.a, nxt.b), torus(cur.b, nxt.a), SurgerySlope(2 * cur.a * nxt.b + (-1) ** (n + 1), 2)
    if family == "torus_cable":
        return (
            torus(2 * n + 1, 4 * n + 4),
            cable(n + 1, 2 * n + 1, 1),
            SurgerySlope(8 * n * n + 12 * n + 5),
        )
    if family == "cable_kplus":
        fn, fn2 = fib(n), fib(n + 2)
        eps = -1 if n % 2 else 1
        return cable(fn, fn2, eps), kplus(fn2, fn), SurgerySlope(4 * fn * fn2 + eps)
    if family == "tangle_kplus":
        return (
            tangle_hh(n),
            kplus(3 * n + 1, 3 * n + 4),
            SurgerySlope(27 * n * n + 45 * n + 21),
        )
    if family == "torus_tangle":
        return (
            torus(3 * n + 2, 6 * n + 7),
            tangle_th(n),
            SurgerySlope(18 * n * n + 33 * n + 15),
        )
    raise InvalidIndex(f"unknown verification family {family!r}")


def product_rows(config, lo: int, hi: int):
    """The torus and cable rows (key, ident) of ``knots._rows`` with lens
    order lo <= m < min(hi, order_max + 1), each made on its own: for every
    coprime 2 <= a < b <= cap, slope m/den at m = k*a*b + eps gives
    L(m, k*b^2), with k = den for the torus knot (a, b) and k = 4, den = 1
    for the cable (a, b, eps).  x = k*a^2 inverts k*b^2 mod m, and with
    b = t*a + r, k*b^2 = z = k*b*r - t*eps mod m, so the class minimum is
    the least of x, m - x, z and m - z."""
    hi = min(hi, config.order_max + 1)
    width = _ident_width(config.order_max)
    products = []
    if "torus" in config.families:
        products += [("torus", den, den, config.torus_max) for den in config.slope_denominators]
    if "cable" in config.families:
        products.append(("cable", 4, 1, config.cable_max))
    for family, k, den, top in products:
        index = FAMILIES.index(family)
        for a in range(2, top + 1):
            if k * a * (a + 1) - 1 >= hi:  # the least order of this and every larger a
                break
            # every b below the start has k*a*b + 1 < lo
            for b in range(max(a + 1, (lo - 1) // (k * a)), top + 1):
                if k * a * b - 1 >= hi:
                    break
                if gcd(a, b) != 1:
                    continue
                t, r = divmod(b, a)
                x = k * a * a
                for eps in (-1, 1):
                    m = k * a * b + eps
                    if lo <= m < hi:
                        z = k * b * r - t * eps
                        params = (a, b) if family == "torus" else (a, b, eps)
                        ident = index + sum((p + 1) * width ** place for place, p in enumerate(params, 1))
                        yield _key(m, den, min(x, m - x, z, m - z), width), ident


def identity_holds(name: str, n: int) -> bool:
    """Both sides of the named sequence identity at n, each term from ``fib``
    or ``pair`` at its own index, in O(log n) products per term."""
    if name == "cassini":
        return fib(n - 1) * fib(n + 1) - fib(n) ** 2 == (-1) ** n
    if name == "fib_cross":
        cur, nxt = pair("fibonacci", n), pair("fibonacci", n + 1)
        return nxt.a * cur.b + (-1) ** (n + 1) == cur.a * nxt.b + (-1) ** n
    if name == "pell_cross":
        cur, nxt = pair("pell", n), pair("pell", n + 1)
        return 2 * cur.a * nxt.b + (-1) ** (n + 1) == 2 * nxt.a * cur.b + (-1) ** n
    if name == "pell_product":
        cur, nxt, far = pair("pell", n), pair("pell", n + 1), pair("pell", n + 2)
        lhs = 4 * nxt.a ** 2 * nxt.b ** 2 + 1
        rhs = (2 * nxt.a * far.b + (-1) ** (n + 2)) * (2 * cur.a * nxt.b + (-1) ** (n + 1))
        return lhs == rhs
    if name == "fib_quartic":
        fn, fn1, fn2 = fib(n), fib(n + 1), fib(n + 2)
        sign = (-1) ** n
        return 4 * fn ** 4 + sign * fn2 ** 2 == (4 * fn * fn2 + sign) * (fn2 ** 2 - 4 * fn * fn1)
    raise InvalidIndex(f"unknown identity {name!r}")


def verify_witness(first: tuple, second: tuple, den: int, m: int, q1: int, q2: int) -> str:
    """The witness of a verify check whose knots (family, params) share the one
    lens slope m/den, giving L(m, q1) and L(m, q2): each knot, the slope and
    each space written on its own."""
    slope_m, slope_n = _reduced_slope(m, den)
    return (f"{_knot_text(*first)} & {_knot_text(*second)} @ {slope_m}/{slope_n} -> "
            f"{_lens_text(m, q1)} ~ {_lens_text(m, q2)}")


def record_json(record) -> str:
    """The JSON line of a ``search.CoincidenceRecord``, by ``json.dumps`` of its dict."""
    obj = {
        "slope": str(record.slope),
        "lens": {"p": record.lens_class[0], "q_canonical": record.lens_class[1]},
        "members": [
            {"family": knot.family, "params": list(knot.params), "raw_q": space.q}
            for knot, space in record.members
        ],
        "certified_multiplicity": record.certified_multiplicity,
    }
    return json.dumps(obj, sort_keys=True)
