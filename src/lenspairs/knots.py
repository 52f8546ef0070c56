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
  L(a^2+ab+b^2, (a/b)^2), read from ``dualknot._kplus_pqk``.
* ``tangleHH(n)`` and ``tangleTH(n)``: hyperbolic knots built from two
  tangle families, n >= 1.  They are data-backed: only the designated
  integral slope (27n^2+45n+21 resp. 18n^2+33n+15) has a recorded filling,
  every other slope reports an unknown outcome rather than guessing.

``_TABLE`` is the one home of per-family knowledge, for this module, the
search and the command line.  Its ``types`` name the paper's trichotomy
(torus, satellite, hyperbolic); a tangle knot's is trusted, not checked.
Adding a family means adding one entry and one constructor; a family
whose ``cap`` is new also needs that one ``SearchConfig`` field, and the
command line derives its ``--*-max`` flag from the field.

Only this module reads the table's lens slopes and the search rows made
from them.  Its entry points on (family, params) ints, for callers that
make no knot object: ``_check_knot``, ``_knot_text`` and ``_distinct``
validate, write and tell apart knots; ``_shared_lens_slopes`` compares the
lens spaces of two valid knots at the slopes they share, trusting the
table lemma stated above ``_TABLE``; ``_surgeries`` lists every knot and
lens slope of a search, and ``_shared_buckets`` the lens classes that two
or more of them share within a range of orders.

A search row is two ints: a key that packs the slope m/n and q_min, the
least parameter of the unoriented class of its lens space, and an ident
that numbers the knot.  ``_product_rows`` makes the torus and cable rows
with q_min in closed form, most of them as runs of keys linear in b, which
``_shared_buckets`` only probes against the other rows; the kplus and
tangle rows take ``lens._class_min``.

Only right-handed representatives and positive slopes are modelled; mirror
images are out of scope.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd, isqrt

from .dualknot import _KPLUS_RULE, _kplus_hyperbolic, _kplus_pqk, _kplus_valid
from .lens import LensSpace, _class_min, _same_class, make_lens

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
    "tangle_hh",
    "tangle_th",
    "torus",
]


class InvalidKnot(ValueError):
    """Parameters violate the family's coprimality or range constraints."""


@dataclass(frozen=True, order=True)
class KnotDescriptor:
    """A knot given by its family tag and family-specific parameters, checked by ``_TABLE``."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        _check_knot(self.family, self.params)

    def __str__(self):
        return _knot_text(self.family, self.params)


def torus(p: int, q: int) -> KnotDescriptor:
    return KnotDescriptor("torus", (p, q))


def cable(a: int, b: int, eps: int) -> KnotDescriptor:
    return KnotDescriptor("cable", (a, b, eps))


def kplus(a: int, b: int) -> KnotDescriptor:
    return KnotDescriptor("kplus", (a, b))


def tangle_hh(n: int) -> KnotDescriptor:
    return KnotDescriptor("tangleHH", (n,))


def tangle_th(n: int) -> KnotDescriptor:
    return KnotDescriptor("tangleTH", (n,))


def _reduced_slope(m: int, n: int) -> tuple[int, int]:
    """The slope m/n in lowest terms with n >= 1."""
    if n == 0:
        raise ValueError("slope denominator must be nonzero")
    if n < 0:
        m, n = -m, -n
    g = gcd(m, n)
    return m // g, n // g


@dataclass(frozen=True, order=True)
class SurgerySlope:
    """A surgery slope m/n, stored reduced with n >= 1."""

    m: int
    n: int = 1

    def __post_init__(self):
        m, n = _reduced_slope(self.m, self.n)
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

_NO_LENS = NotLens("slope-condition-fails")
_CABLING = NotLens("unknown-for-family", note="cabling slope: reducible filling with a lens space summand")


def _integral(formula):
    # formula(*params) is the one lens slope; a non-torus knot has no other (cyclic surgery theorem)
    return lambda den, *params: (formula(*params),) if den == 1 else ()


def _torus_slopes(den, p, q):
    # L(m, den*q^2) at m = den*p*q -+ 1
    pq, q2 = den * p * q, den * q * q
    return (pq - 1, q2), (pq + 1, q2)


# The bucket key of a search row is one int made from (m, n, q_min): the
# slope m/n and the least parameter q_min < m of the unoriented class of
# L(m, q).  ``_key`` packs it in base ``_ident_width(order_max)`` > m, the
# bound that ``_key_parts`` decodes it with, and n in base _DEN_MAX + 1,
# since _DEN_MAX is the largest slope denominator that a search takes.
_DEN_MAX = 16


def _key(m: int, n: int, q_min: int, width: int) -> int:
    return (q_min * width + m) * (_DEN_MAX + 1) + n


def _key_parts(key: int, width: int) -> tuple[int, int, int]:
    """The (m, n, q_min) that ``_key`` packed into ``key`` in base ``width``."""
    rest, n = divmod(key, _DEN_MAX + 1)
    q_min, m = divmod(rest, width)
    return m, n, q_min


def _product_rows(offset, width, sign, top, lo, hi, products, runs):
    """The rows of the knots with parameters coprime 2 <= a < b <= top whose
    lens slopes are m/den at m = k*a*b + eps, eps = -1 and +1, giving
    L(m, k*b^2), for each (k, den) of ``products``: the torus knot (a, b) at
    k = den, and the cable (a, b, eps) at k = 4, den = 1.  A torus knot has
    one ident for both slopes (``sign`` 0); a cable's differs by eps*``sign``.

    The class minimum comes in closed form.  x = k*a^2 inverts k*b^2 mod m,
    as their product is (k*a*b)^2 = (m - eps)^2, and x < m.  With b = t*a + r,
    1 <= r < a, k*b^2 = t*(m - eps) + k*b*r, which is z = k*b*r - t*eps mod m,
    and 1 <= t < b/2 puts z in (0, m).  So q_min is the least of x, m - x, z
    and m - z.

    A row is regular when t >= 2 and x < z < m - x.  Its q_min is then x, so
    at fixed (k, a, eps) its key x*scale + m*base + den and its ident are
    linear in b.  At each r, z = t*(k*a*r - eps) + k*r^2 and m - z =
    t*(k*a*(a - r) + eps) + k*(a - r)*r + eps grow with t; within the block
    t*a < b < (t + 1)*a, z rises with r and m - z falls.  So the irregular
    rows of a block sit at its two ends, and from the first block where
    z > x at r = 1 and m - z > x at r = a - 1 on, every row is regular.

    This yields the irregular rows, scanning in from both ends of each block
    before that one, and appends to ``runs`` one run (keys, bs, idents, k, a,
    eps) per (k, a, eps) whose slope window reaches past b = 2a: bs is the
    range of b of the window from 2a + 1 on, and keys and idents are the
    parallel ranges that a regular row at each b would have.  A run so spans
    irregular and non-coprime b as well; ``_run_member`` admits only the
    regular rows of coprime (a, b), which are the rows not yielded.
    """
    base = _DEN_MAX + 1
    scale = width * base  # ``_key`` is q_min*scale + m*base + n
    step = width * width  # the weight of b in an ident
    for k, den in products:
        for a in range(2, top):
            ka = k * a
            if ka * (a + 1) - 1 >= hi:  # b = a + 1 gives the least m of this and every larger a
                break
            x = ka * a
            for eps in (-1, 1):
                # the window a < b <= top with lo <= k*a*b + eps < hi
                first = max(a + 1, (lo - eps + ka - 1) // ka)
                last = min(top, (hi - 1 - eps) // ka)
                if first > last:
                    continue
                ident = offset + width * a + eps * sign
                # the first block t whose every row is regular: z > x at r = 1, m - z > x at r = a - 1
                regular = max(2, (x - k) // (ka - eps) + 1, (x - ka + k - eps) // (ka + eps) + 1)
                for t in range(first // a, min(last // a, regular - 1) + 1):
                    ta = t * a
                    low = first if first > ta else ta + 1
                    high = last if last < ta + a else ta + a - 1
                    if t == 1:  # no row is regular, and q_min is the least of all four
                        for s in range(low, high + 1):
                            r = s - a
                            if gcd(a, r) == 1:
                                m = ka * s + eps
                                z = k * s * r - eps
                                u = x if x + x < m else m - x
                                v = z if z + z < m else m - z
                                yield (u if u < v else v) * scale + m * base + den, ident + step * s
                        continue
                    # from t = 2 on, 2x < m; the rows below b have z <= x < m - x <= m - z, so
                    # q_min = z, and the rows above c have m - z <= x < z, so q_min = m - z
                    b, c = low, high
                    while b <= c and k * b * (b - ta) - eps * t <= x:
                        b += 1
                    while c >= b and k * (ta + a - c) * c + eps * (t + 1) <= x:
                        c -= 1
                    for s in range(low, b):
                        r = s - ta
                        if gcd(a, r) == 1:
                            q_min = k * s * r - eps * t  # z
                            yield q_min * scale + (ka * s + eps) * base + den, ident + step * s
                    for s in range(c + 1, high + 1):
                        r = s - ta
                        if gcd(a, r) == 1:
                            q_min = k * s * (a - r) + eps * (t + 1)  # m - z
                            yield q_min * scale + (ka * s + eps) * base + den, ident + step * s
                lowest = max(first, 2 * a + 1)  # t >= 2, and b = 2a shares the factor a
                if lowest <= last:
                    start = x * scale + (ka * lowest + eps) * base + den
                    runs.append((range(start, start + (last - lowest + 1) * ka * base, ka * base),
                                 range(lowest, last + 1), range(ident + step * lowest, ident + step * (last + 1), step),
                                 k, a, eps))


# Two regular rows never share a key, so the members of the runs of
# ``_product_rows`` need no bucketing among themselves, only a probe of the
# other rows' keys.  Two rows with one key share m, den and q_min = k*a^2 =
# k'*c^2, where a torus row has k = den and a cable row k = 4, den = 1.
# - Equal k: then a = c, and k*a*(b - d) = eps' - eps lies in {0, 2, -2}.
#   With k*a > 2 this forces b = d and eps = eps', the same knot; k*a = 2 is
#   a = 2 with b - d = +-1, where one of b and d is even.
# - Torus k = 1 against cable k' = 4 (the only pair of families at one den):
#   a = 2c, and 2c*(b - 2d) = eps' - eps with 2c >= 4 forces b = 2d, so
#   both a and b are even.
# Each exception breaks gcd(a, b) = 1, so it is no row.
def _run_member(run, key):
    """The ident of the row that ``run`` keys by ``key``, a key of the run,
    or None where that b is not coprime to a or its row is not regular."""
    keys, bs, idents, k, a, eps = run
    i = keys.index(key)
    b = bs[i]
    t, r = divmod(b, a)
    x, m, z = k * a * a, k * a * b + eps, k * b * r - eps * t
    return idents[i] if t >= 2 and x < z < m - x and gcd(a, r) == 1 else None


def _run_rows(runs):
    # every member of every run, as (key, ident)
    for run in runs:
        for key in run[0]:
            ident = _run_member(run, key)
            if ident is not None:
                yield key, ident


def _torus_rows(offset, width, slopes, top, lo, hi, dens, runs):
    return _product_rows(offset, width, 0, top, lo, hi, [(n, n) for n in dens], runs)


def _cable_rows(offset, width, slopes, top, lo, hi, dens, runs):
    # eps is the third parameter, so its digit eps + 1 carries weight width^3
    return _product_rows(offset, width, width ** 3, top, lo, hi, [(4, 1)], runs)


def _kplus_rows(offset, width, slopes, top, lo, hi, dens, runs):
    for a in range(1, top + 1):
        if 3 * a * a >= hi:  # kplus(a, a) has the least order of all kplus(a, b >= a)
            break
        # every b below start has order a^2 + ab + b^2 < lo
        start = max(a, (isqrt(max(0, 4 * lo - 3 * a * a)) - a) // 2)
        for b in range(start, top + 1):
            m = a * a + a * b + b * b
            if m >= hi:
                break
            if m >= lo and gcd(a, b) == 1:
                # L(m, w^2) with core parameter k = -w: w^3 = -1 mod m, so k inverts q
                m, q, k = _kplus_pqk(a, b)
                yield _key(m, 1, _class_min(m, q, k), width), offset + width * (a + width * b)


def _index_rows(offset, width, slopes, top, lo, hi, dens, runs):
    # one parameter n >= 1, and the lens order grows with n
    for n in range(1, top + 1):
        ((m, q),) = slopes(1, n)
        if m >= hi:
            break
        if m >= lo:
            yield _key(m, 1, _class_min(m, q, pow(q, -1, m)), width), offset + width * n


@dataclass(frozen=True)
class _Family:
    """What the package knows about one knot family, as functions of its parameters."""

    arity: int
    text: str  # str(knot) is text % params
    valid: Callable  # (*params) -> True when they name a knot of the family
    rule: str  # what ``valid`` asks of the parameters
    # (den, *params) -> lens slopes ((m, q), ...): m/den-surgery gives L(m, q), q not reduced
    slopes: Callable
    # (offset, width, slopes, top, lo, hi, dens, runs) -> the search rows (key, ident) of
    # ``_rows``, each numbering its knot p_1, p_2, ... by ident = offset + p_1*width +
    # p_2*width^2 + ...; a family may append some of its rows to ``runs`` as runs instead
    rows: Callable
    cap: str  # the SearchConfig field that bounds the parameters in ``rows``
    other: Callable = lambda m, n, *params: NotLens("unknown-for-family")  # outcome at other slopes m/n
    genus: Callable = lambda *params: None  # (*params) -> genus, or None where no formula is known
    symmetric: bool = False  # (a, b, ...) and (b, a, ...) are the same knot
    types: frozenset = frozenset({"torus", "satellite", "hyperbolic"})  # the geometric types a knot may have
    hyperbolic: Callable = lambda *params: False  # (*params) -> True when certified hyperbolic


# One entry per family, in FAMILIES order (the key order); each line of an entry is one aspect.
# The table lemma: for a knot that ``valid`` accepts, every slope (m, q) that ``slopes`` lists
# has m >= 1 and gcd(m, q) = 1, so L(m, q) is a lens space.  Each entry proves it in its
# "lemma:" comment; ``_shared_lens_slopes`` relies on it, and tier-1 tests it.
_TABLE = {
    "torus": _Family(
        arity=2, text="torus(%s,%s)", rows=_torus_rows, cap="torus_max",
        valid=lambda p, q: p >= 2 and q >= 2 and gcd(p, q) == 1, rule="parameters must be coprime and >= 2",
        slopes=_torus_slopes,
        # lemma: m = n*p*q -+ 1 = -+1 (mod n*q), so gcd(m, n*q^2) = 1, and m >= 2*3 - 1
        other=lambda m, n, p, q: ReducibleTwoLens(p, q) if (m, n) == (p * q, 1) else _NO_LENS,
        genus=lambda p, q: (p - 1) * (q - 1) // 2, symmetric=True, types=frozenset({"torus"}),
    ),
    "cable": _Family(
        arity=3, text="cable(%s,%s,%+d)", rows=_cable_rows, cap="cable_max",
        valid=lambda a, b, eps: a >= 2 and b >= 2 and gcd(a, b) == 1 and eps in (1, -1),
        rule="companion parameters must be coprime and >= 2 and the sign +1 or -1",
        slopes=_integral(lambda a, b, eps: (4 * a * b + eps, 4 * b * b)),
        # lemma: m = 4ab + eps is odd and = eps (mod b), so gcd(m, 4b^2) = 1
        other=lambda m, n, a, b, eps: _CABLING if (m, n) == (4 * a * b + 2 * eps, 1) else _NO_LENS,
        symmetric=True, types=frozenset({"satellite"}),
    ),
    "kplus": _Family(
        arity=2, text="kplus(%s,%s)", rows=_kplus_rows, cap="kplus_max",
        valid=_kplus_valid, rule=_KPLUS_RULE,
        slopes=_integral(lambda a, b: _kplus_pqk(a, b)[:2]),
        # lemma: gcd(b, m) = gcd(b, a^2) = 1 and a + b is a unit, as m = (a+b)^2 - ab, so w^2 is a unit
        genus=lambda a, b: ((a + b - 1) ** 2 - a * b) // 2, symmetric=True,
        hyperbolic=_kplus_hyperbolic,  # phi >= 2, for the valid knots that the table is given
    ),
    "tangleHH": _Family(
        arity=1, text="tangleHH(%s)", rows=_index_rows, cap="tangle_max",
        valid=lambda n: n >= 1, rule="index must be >= 1",
        slopes=_integral(lambda n: (27 * n * n + 45 * n + 21, -(9 * n * n + 12 * n + 5))),
        # lemma: m = 3q' + 3(3n+2), with q' = (3n+2)^2 + 1 prime to 3(3n+2)
        genus=lambda n: (27 * n * n + 33 * n + 10) // 2,
        types=frozenset({"satellite", "hyperbolic"}),  # hyperbolic by construction, which nothing here checks
    ),
    # Known defect, kept as data: L(m, -(18n+19)) has a non-integral Casson-Walker a2 for every
    # n, so no knot in S^3 gives it by +m surgery; its mirror L(m, 18n+19) gives the a2 of the
    # torus_tangle partner.  Unoriented answers, the search and verify, do not depend on it.
    "tangleTH": _Family(
        arity=1, text="tangleTH(%s)", rows=_index_rows, cap="tangle_max",
        valid=lambda n: n >= 1, rule="index must be >= 1",
        slopes=_integral(lambda n: (18 * n * n + 33 * n + 15, -(18 * n + 19))),
        # lemma: m = 3(n+1)(6n+5), while 18n+19 = 18(n+1) + 1 and 18n+19 - 3(6n+5) = 4, 18n+19 odd
        types=frozenset({"satellite", "hyperbolic"}),  # hyperbolic by construction, which nothing here checks
    ),
}

FAMILIES = tuple(_TABLE)


def _ident_width(order_max: int) -> int:
    # the base of a row's knot number: above every family index, and above
    # p + 1 for every row parameter p, since a knot whose lens order is at
    # most order_max has parameters -1 <= p <= order_max + 1
    return max(len(_TABLE), order_max + 3)


def _row_stream(config, lo: int, hi: int, runs: list):
    """The rows of ``_rows`` but the run members: the runs of
    ``_product_rows`` are appended to ``runs`` as the rows are consumed."""
    hi = min(hi, config.order_max + 1)
    width = _ident_width(config.order_max)
    return itertools.chain.from_iterable(
        # the offset holds the family index and the + 1 of every parameter digit
        entry.rows(index + sum(width ** k for k in range(1, entry.arity + 1)), width, entry.slopes,
                   getattr(config, entry.cap), lo, hi, config.slope_denominators, runs)
        for index, (family, entry) in enumerate(_TABLE.items())
        if family in config.families
    )


def _rows(config, lo: int, hi: int):
    """Yield (key, ident) for each knot of each family in ``config.families``
    up to its ``config`` cap and each lens slope m/n with lo <= m <
    min(hi, ``config.order_max`` + 1), giving L(m, q).  Both are plain ints
    in base ``width`` = ``_ident_width(config.order_max)``: ``key`` packs
    (m, n, q_min), q_min the least of ±q and ±q^-1 mod m, so two rows share
    a key exactly when they share the slope and the unoriented lens class;
    ``ident`` holds the family's index in ``_TABLE`` as its lowest digit and
    each parameter plus one as the next digits.  ``_key_parts`` and
    ``_knot_of`` read them back.  Rows come in no particular order: those of
    ``_row_stream``, then its run members."""
    runs: list = []
    # the member generator reads ``runs`` only once the stream is spent
    return itertools.chain(_row_stream(config, lo, hi, runs), _run_rows(runs))


def _surgeries(config) -> list:
    """(family, params, n, m), sorted, for each row of ``_rows`` over every
    order of ``config``: each knot with each of its lens slopes m/n."""
    width = _ident_width(config.order_max)
    surgeries = []
    for key, ident in _rows(config, 1, config.order_max + 1):
        m, n, _ = _key_parts(key, width)
        surgeries.append((*_knot_of(ident, width), n, m))
    return sorted(surgeries)


def _shared_buckets(config, lo: int, hi: int) -> list:
    """The classes that two or more rows of ``_rows`` of lens order
    lo <= m < hi share, as (m, n, q_min, [(family, params), ...]) with the
    members in (family, params) order.

    ``first`` maps each bucket key to the ident of the first row with that
    key; a list is made only when a second row arrives.  A class with one
    member, nearly every class, so keeps two ints, which the cyclic garbage
    collector does not track.  Run members share no key with each other, so
    each run only probes ``first`` through ``filter`` over its range of
    keys, and only a hit is admitted by ``_run_member``.
    """
    first: dict = {}
    shared: dict = {}
    runs: list = []
    for key, ident in _row_stream(config, lo, hi, runs):
        other = first.setdefault(key, ident)
        if other is not ident:  # setdefault hands back this very int only for a new key
            shared.setdefault(key, [other]).append(ident)
    for run in runs:
        for key in filter(first.__contains__, run[0]):
            ident = _run_member(run, key)
            if ident is not None:
                shared.setdefault(key, [first[key]]).append(ident)
    width = _ident_width(config.order_max)
    return [(*_key_parts(key, width), sorted(_knot_of(ident, width) for ident in idents))
            for key, idents in shared.items()]


def _knot_of(ident: int, width: int) -> tuple[str, tuple[int, ...]]:
    """The (family, params) that a row of ``_rows`` numbers by ``ident`` in base ``width``."""
    ident, index = divmod(ident, width)
    family = FAMILIES[index]
    params = []
    for _ in range(_TABLE[family].arity):
        ident, digit = divmod(ident, width)
        params.append(digit - 1)
    return family, tuple(params)


def _check_knot(family: str, params: tuple) -> None:
    """Raise ``InvalidKnot`` unless (family, params) names a knot of ``_TABLE``."""
    entry = _TABLE.get(family)
    if entry is None:
        raise InvalidKnot(f"unknown family {family!r}")
    if len(params) != entry.arity:
        raise InvalidKnot(f"{family} takes {entry.arity} parameters, got {len(params)}")
    if not entry.valid(*params):
        raise InvalidKnot(f"{family} {entry.rule}, got {params}")


def _knot_text(family: str, params: tuple) -> str:
    return _TABLE[family].text % tuple(params)


def _shared_lens_slopes(family1: str, params1: tuple, family2: str, params2: tuple, dens) -> list:
    """(den, m, q1, q2, same) for each lens slope m/den of both knots, den
    running over ``dens``: the first knot gives L(m, q1) and the second
    L(m, q2), both parameters reduced mod m, and ``same`` tells whether the
    two spaces are homeomorphic.  Within a denominator the slopes come in
    the first knot's order.

    The knots are trusted, not checked: its callers build them valid, and
    each proves so beside its construction (``search._VERIFY`` and
    ``verify_no_nonintegral_pairs``).  The table lemma then makes every
    listed slope a lens space, m >= 1 and gcd(m, q) = 1, so ``q % m`` is
    what ``make_lens`` would reduce it to.  Tier-1 tests both lemmas."""
    slopes1, slopes2 = _TABLE[family1].slopes, _TABLE[family2].slopes
    shared = []
    # a knot's lens slopes of one denominator have distinct orders m; a plain
    # loop, since a comprehension costs one more call per pair of knots
    for den in dens:
        two = slopes2(den, *params2)
        for m, q1 in slopes1(den, *params1):
            for order, q2 in two:
                if order == m:
                    r1, r2 = q1 % m, q2 % m
                    shared.append((den, m, r1, r2, _same_class(m, r1, r2)))
    return shared


def lens_surgery(knot: KnotDescriptor, slope: SurgerySlope) -> SurgeryResult:
    """Evaluate m/n-surgery on the knot into the lens trichotomy."""
    if slope.m <= 0:
        raise ValueError("only positive slopes are modelled")
    for m, q in _TABLE[knot.family].slopes(slope.n, *knot.params):
        if m == slope.m:
            return Lens(make_lens(m, q))
    return _TABLE[knot.family].other(slope.m, slope.n, *knot.params)


def genus(knot: KnotDescriptor) -> int | None:
    """Knot genus where a formula is available (torus, kplus, tangleHH)."""
    return _TABLE[knot.family].genus(*knot.params)


def distinct(first: KnotDescriptor, second: KnotDescriptor) -> str:
    """Decide non-equivalence: returns "equal", "distinct" or "unknown".

    Same family: compare parameters up to the family's symmetry.  Across
    families the certificates, in order: disjoint ``types`` (a torus knot
    against a satellite or a tangle knot); unequal genus; a knot certified
    hyperbolic (kplus with phi >= 2) against a family with no hyperbolic
    knot.  Anything else is reported "unknown", never overclaimed.
    """
    return _distinct(first.family, first.params, second.family, second.params)


def _distinct(family1: str, params1: tuple, family2: str, params2: tuple) -> str:
    """``distinct`` of the knots (family1, params1) and (family2, params2), from
    the ``types``, ``genus`` and ``hyperbolic`` of their ``_TABLE`` entries."""
    one, two = _TABLE[family1], _TABLE[family2]
    if one is two:
        p = params1
        same = p == params2 or (one.symmetric and (p[1], p[0], *p[2:]) == params2)
        return "equal" if same else "distinct"
    if one.types.isdisjoint(two.types):
        return "distinct"
    g1, g2 = one.genus(*params1), two.genus(*params2)
    if g1 is not None and g2 is not None and g1 != g2:
        return "distinct"
    for params, entry, other in ((params1, one, two), (params2, two, one)):
        if "hyperbolic" not in other.types and entry.hyperbolic(*params):
            return "distinct"
    return "unknown"
