"""Exhaustive surgery enumeration, coincidence detection, and family checks.

This module runs the orchestration: shards, the process pool, records and
the verify reports.  ``knots`` owns the search rows, their encoding and
the rules for a pair of knots.

``find_coincidences`` splits the lens orders m into shards that share no
bucket and takes each shard's shared classes from ``knots._shared_buckets``,
already decoded into slopes, classes and (family, params) members; only
those become knot and lens-space objects.  Shards run one at a time in this
process, or over a pool of ``workers`` processes capped at
``os.cpu_count()``, started by the platform's default method, or by spawn
while the caller runs other threads; any worker count gives the same
records.  ``_records`` yields them shard by shard, each shard's sorted, so
that the CLI writes each shard's lines as it finishes and holds one shard's
records at most; ``find_coincidences`` lists what it yields.  Because the
artifact cannot always certify non-equivalence, every record carries both
its raw member count and the size of its largest subset of pairwise
certified-distinct members.  ``enumerate_surgeries`` yields the same
candidates as (knot, slope, lens space) objects in a fixed deterministic
order.

``verify_family`` checks, instance by instance, the six constructions of
knot pairs sharing a surgery slope and a lens space; each names its two
knots as (family, params) ints and the slope denominator, and one that
follows the Fibonacci or Pell numbers takes them from ``sequences._walk``.
Its report is built from ``_checks``, which makes one check at a time, so
that the CLI can write each line as soon as its check is made.
``verify_no_nonintegral_pairs`` confirms at desk scale that two distinct
torus knots never share a lens space under a common slope of denominator
three or more.  Both take from ``knots._shared_lens_slopes`` the slopes
that two knots share and whether their spaces there are homeomorphic, and
make no knot, lens-space or slope object per check.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import NamedTuple

from .knots import (
    FAMILIES,
    KnotDescriptor,
    SurgerySlope,
    _DEN_MAX,
    _TABLE,
    _distinct,
    _knot_text,
    _reduced_slope,
    _shared_buckets,
    _shared_lens_slopes,
    _surgeries,
    distinct,
    lens_surgery,
)
from .lens import LensSpace, _lens_text
from .sequences import InvalidIndex, _check_index, _walk

__all__ = [
    "CoincidenceRecord",
    "FamilyCheck",
    "FamilyReport",
    "NonintegralReport",
    "SearchConfig",
    "VERIFY_FAMILIES",
    "enumerate_surgeries",
    "find_coincidences",
    "verify_family",
    "verify_no_nonintegral_pairs",
]

@dataclass(frozen=True)
class SearchConfig:
    """Bounds and options for one enumeration run."""

    families: frozenset = frozenset(FAMILIES)
    torus_max: int = 500
    cable_max: int = 500
    kplus_max: int = 60
    tangle_max: int = 20
    order_max: int = 500
    slope_denominators: frozenset = frozenset({1, 2})
    workers: int = 1

    # the integer bounds, in the order of the search flags: the lens order,
    # then each cap that the family table names
    BOUNDS = ("order_max", *dict.fromkeys(entry.cap for entry in _TABLE.values()))

    def __post_init__(self):
        object.__setattr__(self, "families", frozenset(self.families))
        object.__setattr__(self, "slope_denominators", frozenset(self.slope_denominators))
        if not self.families <= set(FAMILIES):
            raise ValueError(f"unknown families {sorted(self.families - set(FAMILIES))}")
        for name in (*self.BOUNDS, "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.slope_denominators <= frozenset(range(1, _DEN_MAX + 1)):
            raise ValueError(f"slope denominators must lie in [1, {_DEN_MAX}]")


def enumerate_surgeries(config: SearchConfig):
    """Yield (knot, slope, lens space) in deterministic (family, params, slope) order."""
    for family, params, n, m in _surgeries(config):
        knot, slope = KnotDescriptor(family, params), SurgerySlope(m, n)
        yield knot, slope, lens_surgery(knot, slope).space


def _largest_distinct_subset(members: tuple) -> tuple:
    # largest pairwise certified-distinct subset; each pair is decided once
    knots = [knot for knot, _ in members]
    indices = range(len(knots))
    apart = {
        (i, j) for i, j in itertools.combinations(indices, 2) if distinct(knots[i], knots[j]) == "distinct"
    }
    for size in range(len(knots), 0, -1):
        for combo in itertools.combinations(indices, size):
            if all(pair in apart for pair in itertools.combinations(combo, 2)):
                return tuple(members[i] for i in combo)
    return ()


@dataclass(frozen=True)
class CoincidenceRecord:
    """Knots sharing one reduced slope and one unoriented lens class.

    ``certified_members``, the largest member subset that is pairwise
    certified distinct, is computed once when the record is made.
    """

    slope: SurgerySlope
    lens_class: tuple[int, int]
    members: tuple[tuple[KnotDescriptor, LensSpace], ...]
    certified_members: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "certified_members", _largest_distinct_subset(self.members))

    @property
    def multiplicity(self) -> int:
        return len(self.members)

    @property
    def certified_multiplicity(self) -> int:
        return len(self.certified_members)

    def to_json(self) -> str:
        """The record as ``json.dumps(obj, sort_keys=True)`` writes the object
        {"slope", "lens": {"p", "q_canonical"}, "members": [{"family",
        "params", "raw_q"}, ...], "certified_multiplicity"}, filled into one
        template: json writes an int by ``repr``, and a family name, plain
        ASCII with nothing to escape, as it stands between quotes."""
        members = ", ".join(_MEMBER_JSON % (knot.family, ", ".join(map(str, knot.params)), space.q)
                            for knot, space in self.members)
        slope = self.slope
        return _RECORD_JSON % (self.certified_multiplicity, *self.lens_class, members, slope.m, slope.n)


# the layout of ``CoincidenceRecord.to_json``: its keys sorted, ", " and ": " between items
_MEMBER_JSON = '{"family": "%s", "params": [%s], "raw_q": %d}'
_RECORD_JSON = '{"certified_multiplicity": %d, "lens": {"p": %d, "q_canonical": %d}, "members": [%s], "slope": "%d/%d"}'


# Each shard sets up the slope window of every (k, a, eps) of
# ``knots._product_rows`` with k*a^2 below its top order, whatever its width.
# So a shard spans up to _SHARD_ROOTS * isqrt(order_max) orders, and at least
# _SHARD_WIDTH: its setups, O(sqrt(order_max)), stay below its rows.  The cap
# also bounds the rows a shard holds at once: at order 10^6, 16000 orders
# and about 28k streamed rows.  A sequential search cuts its shards that
# wide; a pool gets at least _SHARDS, so that it has work to share at any
# order_max.
_SHARDS = 16
_SHARD_WIDTH = 4096
_SHARD_ROOTS = 16


def _shard_records(task) -> list[CoincidenceRecord]:
    """The finished records of one shard (config, lo, hi) of lens orders,
    each member's lens space its ``lens_surgery`` at the record's slope."""
    records = []
    for m, n, q_min, members in _shared_buckets(*task):
        # a row's m and n are coprime, so the slope is the one that made the row
        slope = SurgerySlope(m, n)
        knots = [KnotDescriptor(family, params) for family, params in members]
        records.append(CoincidenceRecord(slope, (m, q_min), tuple((k, lens_surgery(k, slope).space) for k in knots)))
    return records


def _shards(config: SearchConfig, workers: int) -> list[tuple]:
    # the tasks (config, lo, hi) of ``_shard_records``, which cover the orders 1..order_max
    width = max(_SHARD_WIDTH, _SHARD_ROOTS * isqrt(config.order_max))
    if workers > 1:
        width = min(width, max(1, config.order_max // _SHARDS))
    return [(config, lo, lo + width) for lo in range(1, config.order_max + 1, width)]


def _record_key(record: CoincidenceRecord) -> tuple:
    return record.slope.m, record.slope.n, record.lens_class[1]


def _records(config: SearchConfig):
    """The records of ``find_coincidences``, in its order, shard by shard.

    Each shard's records are sorted on their own and yielded before the next
    shard runs (in this process) or is taken from the pool, whose ``map``
    yields in task order; as shards are increasing ranges of m, that is the
    global order.  Closed early, the generator cancels the shards that the
    pool has not started, so that a closed reader stops the work."""
    workers = min(config.workers, os.cpu_count() or 1)
    tasks = _shards(config, workers)
    workers = min(workers, len(tasks))
    if workers == 1:
        for task in tasks:
            yield from sorted(_shard_records(task), key=_record_key)
        return
    # imported here, so that a sequential search or any other query never loads them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked child inherits only the forking thread, so with others alive fork may deadlock
    context = multiprocessing.get_context("spawn") if threading.active_count() > 1 else None
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        parts = pool.map(_shard_records, tasks)  # every task is queued here
        for part in parts:
            yield from sorted(part, key=_record_key)
    finally:
        # closed early, cancel the shards not yet started, since shutdown waits for every queued
        # one; ``parts`` would cancel them only when it is collected, after this
        pool.shutdown(cancel_futures=True)


def find_coincidences(config: SearchConfig) -> list[CoincidenceRecord]:
    """Group the candidates by (slope, lens class); keep groups of >= 2 knots.

    A lens order is the slope numerator m, so no group spans two values of
    m: the search runs in shards of m that share nothing, in this process or
    over a pool of at most ``os.cpu_count()`` workers.  The worker count is
    capped first, and then sets the layout: in this process each shard is
    max(4096, 16 * isqrt(order_max)) orders wide, the last one cut at
    order_max; a pool gets at least 16 shards, none wider.  The records come
    sorted by (m, n, q_min) of their slope m/n and class L(m, q_min), one
    shard after another.  The enumeration lists each knot once, in canonical
    parameters, so no group holds one knot twice.  Pairs whose
    non-equivalence cannot be certified stay in the record and are accounted
    for by ``certified_multiplicity``.

    The pool starts its workers by the platform's default method while
    the caller runs one thread, and by spawn while it runs more, since a
    forked child holds only the forking thread and may deadlock on a lock
    that another held.  Forked workers (Linux, through Python 3.13) begin
    with the caller's modules loaded.  A spawned worker (the default on
    macOS and Windows) is a fresh interpreter that imports the caller's
    main module, so a script that may spawn its workers makes the call
    under ``if __name__ == "__main__":``.
    """
    return list(_records(config))


def _fibonacci_tori(n, fib):
    # fib is (F(n), F(n+1)); the knots are torus(a_{n+1}, b_n) and torus(a_n, b_{n+1})
    # for the pairs (a_n, b_n) = (F(n+2), F(n+1) + F(n+3)) of pair("fibonacci", n)
    f, f1 = fib
    f2 = f + f1
    f3 = f1 + f2
    return ("torus", (f3, f1 + f3)), ("torus", (f2, f2 + f2 + f3))


def _pell_tori(n, pell):
    # pell is pair("pell", n) = (a, b), and pair("pell", n + 1) is (a + b, 2a + b)
    a, b = pell
    return ("torus", (a, a + a + b)), ("torus", (b, a + b))


def _fibonacci_cable_kplus(n, fib):
    # fib is (F(n), F(n+1))
    fn, fn1 = fib
    fn2 = fn + fn1
    return ("cable", (fn, fn2, -1 if n % 2 else 1)), ("kplus", (fn2, fn))


# Each verified construction: its first n, its slope denominator, the sequence
# that ``sequences._walk`` walks for it (or None), and the two knots of instance
# n as (family, params), from n and, for a walked construction, the walk's pair
# at n.  ``knots._shared_lens_slopes`` trusts these knots, so each entry proves
# in its "valid:" comment that both are valid for every n from the first on;
# tier-1 tests it.
_VERIFY = {
    # valid: gcd(F(n+3), F(n+1)) = F(gcd(n+3, n+1)) = 1, and F(n+2), F(n+3) are consecutive
    "torus_torus": (1, 1, "fibonacci", _fibonacci_tori),
    # valid: gcd(a, 2a + b) = gcd(b, a + b) = gcd(a, b) = 1, as b^2 - 2a^2 = +-1
    "torus_torus_half": (1, 2, "pell", _pell_tori),
    # valid: 2(2n+1) - (4n+4) = -2 with 2n+1 odd, and 2(n+1) - (2n+1) = 1
    "torus_cable": (1, 1, None, lambda n: (("torus", (2 * n + 1, 4 * n + 4)), ("cable", (n + 1, 2 * n + 1, 1)))),
    # valid: gcd(F(n), F(n+2)) = F(gcd(n, n+2)) = 1, and F(n) >= 2 from n = 3
    "cable_kplus": (3, 1, "fibonacci", _fibonacci_cable_kplus),
    # valid: gcd(3n+1, 3n+4) = gcd(3n+1, 3) = 1
    "tangle_kplus": (1, 1, None, lambda n: (("tangleHH", (n,)), ("kplus", (3 * n + 1, 3 * n + 4)))),
    # valid: 6n+7 - 2(3n+2) = 3, which does not divide 3n+2
    "torus_tangle": (1, 1, None, lambda n: (("torus", (3 * n + 2, 6 * n + 7)), ("tangleTH", (n,)))),
}

VERIFY_FAMILIES = tuple(_VERIFY)


class FamilyCheck(NamedTuple):
    family: str
    n: int
    passed: bool
    witness: str

    def line(self) -> str:
        """The check as plain ``verify`` output prints it."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.family} n={self.n} witness={self.witness}"


def _summary(family: str, good: int, total: int) -> str:
    # the last line of plain verify output
    return f"{family}: {good}/{total} instances verified"


@dataclass(frozen=True)
class FamilyReport:
    family: str
    checks: tuple[FamilyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        out = [check.line() for check in self.checks]
        out.append(_summary(self.family, sum(c.passed for c in self.checks), len(self.checks)))
        return out


def _instances(family: str, ns):
    """The two knots of each instance n of ns, in turn, as (family, params)
    pairs; ns are ints from the construction's first n on."""
    _, _, walk, knots_of = _VERIFY[family]
    return map(knots_of, ns, _walk(walk, ns)) if walk else map(knots_of, ns)


def _checks(family: str, n_range):
    # The checks of ``verify_family``, made and yielded one instance at a time in
    # increasing n, so that a caller keeps only those it wants.  A range is walked
    # as it is, reversed if its step is negative, and never listed.
    if family not in _VERIFY:
        raise InvalidIndex(f"unknown verification family {family!r}")
    low, den, _, _ = _VERIFY[family]
    if isinstance(n_range, range):
        ns = n_range if n_range.step > 0 else n_range[::-1]
    else:
        ns = list(n_range)
        for n in ns:
            _check_index(n)
        ns = sorted(set(ns))
    if not ns:
        raise InvalidIndex("empty index range")
    if ns[0] < low:
        raise InvalidIndex(f"{family} needs n >= {low}, got {ns[0]}")
    # one witness format per pair of knot families, from their knot texts and the layout
    # "@ m/n -> L(m,q1) ~ L(m,q2)", so that each line takes one str(m) and one % format
    lens = _lens_text("%s", "%s")
    templates = {}
    for n, ((family1, params1), (family2, params2)) in zip(ns, _instances(family, ns)):
        shared = _shared_lens_slopes(family1, params1, family2, params2, (den,))
        if len(shared) != 1:
            knots = f"{_knot_text(family1, params1)} & {_knot_text(family2, params2)}"
            yield FamilyCheck(family, n, False, f"{knots} share {len(shared)} lens slopes m/{den}, not one")
            continue
        ((_, m, q1, q2, same),) = shared
        ok = same and _distinct(family1, params1, family2, params2) == "distinct"
        template = templates.get((family1, family2))
        if template is None:
            texts = f"{_TABLE[family1].text} & {_TABLE[family2].text}"
            template = templates[family1, family2] = f"{texts} @ %s/%s -> {lens} ~ {lens}"
        slope_m, slope_n = _reduced_slope(m, den) if den > 1 else (m, 1)  # m/1 is reduced
        # m is written once, for the slope when it is the slope's numerator and for both lens spaces
        text = str(m)
        witness = template % (*params1, *params2, text if slope_m == m else slope_m, slope_n, text, q1, text, q2)
        yield FamilyCheck(family, n, ok, witness)


def verify_family(family: str, n_range) -> FamilyReport:
    """Check every instance n: the two knots share exactly one lens slope
    m/den in the family table, their lens spaces there are homeomorphic,
    and the two knots are certified distinct.  The witness writes the
    knots, the slope and the two lens spaces as ``KnotDescriptor``,
    ``SurgerySlope`` and ``LensSpace`` print them."""
    return FamilyReport(family, tuple(_checks(family, n_range)))


@dataclass(frozen=True)
class NonintegralReport:
    """Outcome of the no-shared-lens-space scan for slope denominators >= 3."""

    pairs: tuple
    checked: int
    violations: tuple

    @property
    def clean(self) -> bool:
        return not self.violations


def verify_no_nonintegral_pairs(p_max: int, n_min: int, n_max: int) -> NonintegralReport:
    """Confirm distinct torus knots sharing p*q never share the lens space.

    For every pair of coprime parameter pairs (p, q), (r, s) with equal
    products and 2 <= q < p <= p_max, 2 <= s < r < p, and every denominator
    n in [n_min, n_max], the lens spaces of the two torus knots at each of
    their shared lens slopes m/n are compared; any homeomorphic pair is a
    violation.  Each compared slope counts as checked.  p_max is at least
    10, the least bound with two such pairs (6*5 = 10*3).
    """
    if p_max < 10:
        raise InvalidIndex(f"no two torus knots share a product below p_max = 10, got {p_max}")
    if n_min < 3:
        raise InvalidIndex("meaningful only for slope denominators >= 3")
    if n_max < n_min:
        raise InvalidIndex(f"empty denominator range {n_min}..{n_max}")
    by_product: dict[int, list] = {}
    for p in range(3, p_max + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:  # so torus(p, q) is valid, as ``_shared_lens_slopes`` trusts
                by_product.setdefault(p * q, []).append((p, q))
    dens = range(n_min, n_max + 1)
    pairs = []
    checked = 0
    violations = []
    for product in sorted(by_product):
        group = by_product[product]
        for (r, s), (p, q) in itertools.combinations(sorted(group), 2):
            # sorted puts the smaller first coordinate first, so r < p
            pairs.append(((p, q), (r, s)))
            for n, m, _, _, same in _shared_lens_slopes("torus", (p, q), "torus", (r, s), dens):
                checked += 1
                if same:
                    violations.append((p, q, r, s, n, m))
    return NonintegralReport(tuple(pairs), checked, tuple(violations))
