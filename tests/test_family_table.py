"""The family table of lenspairs.knots against the per-family if-chains it
replaced (``tests/oracles.py``), on every small knot of all five families,
the closed-form class minima of the search rows against ``pow``, and the
verified constructions against the paper's slope formulas and against a
report built instance by instance from the public objects.  The two facts
that ``knots._shared_lens_slopes`` trusts, proved beside ``_TABLE`` and
``search._VERIFY``, are tested here: the table lemma, and the validity of
both knots of every construction."""

from math import gcd

import pytest

import oracles
from lenspairs import search
from lenspairs.knots import (
    FAMILIES,
    SurgerySlope,
    _TABLE,
    _check_knot,
    _ident_width,
    _key_parts,
    _knot_of,
    _row_stream,
    _rows,
    _run_rows,
    _shared_lens_slopes,
    cable,
    distinct,
    genus,
    kplus,
    lens_surgery,
    tangle_hh,
    tangle_th,
    torus,
)
from lenspairs.lens import homeomorphic, make_lens
from lenspairs.search import VERIFY_FAMILIES, FamilyCheck, FamilyReport, SearchConfig, verify_family

DENOMINATORS = (1, 2, 3)

KNOTS = (
    [torus(p, q) for q in range(2, 13) for p in range(2, q) if gcd(p, q) == 1]
    + [cable(a, b, eps) for b in range(2, 8) for a in range(2, b) if gcd(a, b) == 1 for eps in (-1, 1)]
    + [kplus(a, b) for a in range(1, 13) for b in range(1, 13) if gcd(a, b) == 1]
    + [tangle_hh(n) for n in range(1, 7)]
    + [tangle_th(n) for n in range(1, 7)]
)


def test_every_family_is_covered():
    assert {knot.family for knot in KNOTS} == {"torus", "cable", "kplus", "tangleHH", "tangleTH"}


def test_lens_surgery_matches_rules():
    for knot in KNOTS:
        # two past the knot's largest lens slope at any of the denominators
        slopes = [oracles._lens_slopes(knot.family, knot.params, den) for den in DENOMINATORS]
        top = 2 + max(m for found in slopes for m, _ in found)
        for den in DENOMINATORS:
            for m in range(1, top + 1):
                slope = SurgerySlope(m, den)
                assert lens_surgery(knot, slope) == oracles.lens_surgery(knot, slope), (knot, slope)


def test_natural_slope_and_genus_match_rules():
    for knot in KNOTS:
        # the table's one integral lens slope, where a knot has one; a torus knot has two
        integral = [SurgerySlope(m) for m, _ in _TABLE[knot.family].slopes(1, *knot.params)]
        assert (integral[0] if len(integral) == 1 else None) == oracles.natural_slope(knot), knot
        assert genus(knot) == oracles.genus(knot), knot


def test_distinct_matches_rules_on_every_ordered_pair():
    for first in KNOTS:
        for second in KNOTS:
            assert distinct(first, second) == oracles.distinct(first, second), (first, second)


def _class_min_by_pow(m, q):
    q %= m
    inv = pow(q, -1, m)
    return min(q, m - q, inv, m - inv)


def test_product_rows_class_minimum_matches_pow():
    # every torus row at denominators 1..16 and every cable row, both signs, for coprime 2 <= a < b <= 60
    top = 60
    order_max = 16 * top * top + 1
    width = _ident_width(order_max)
    seen = set()
    for family in ("torus", "cable"):
        config = SearchConfig(families={family}, order_max=order_max, torus_max=top, cable_max=top,
                              slope_denominators=range(1, 17))
        for key, ident in _rows(config, 1, order_max + 1):
            found, params = _knot_of(ident, width)
            m, n, q_min = _key_parts(key, width)
            a, b = params[:2]
            k = n if found == "torus" else 4
            eps = m - k * a * b
            assert found == family and params[2:] in ((), (eps,)), (found, params, m, n)
            assert q_min == _class_min_by_pow(m, k * b * b), (found, params, m, n)
            seen.add((found, params[:2], k, eps))
    pairs = [(a, b) for b in range(3, top + 1) for a in range(2, b) if gcd(a, b) == 1]
    products = [("torus", k) for k in range(1, 17)] + [("cable", 4)]
    assert seen == {(family, pair, k, eps) for family, k in products for pair in pairs for eps in (-1, 1)}


def test_run_members_are_regular_rows_that_share_no_key():
    # the runs of every torus row at denominators 1..16 and every cable row, for 2 <= a < b <= 60
    top = 60
    order_max = 16 * top * top + 1
    width = _ident_width(order_max)
    config = SearchConfig(families={"torus", "cable"}, order_max=order_max, torus_max=top, cable_max=top,
                          slope_denominators=range(1, 17))
    runs = []
    rows = list(_row_stream(config, 1, order_max + 1, runs))
    members = list(_run_rows(runs))
    assert members and len({key for key, _ in members}) == len(members)
    for key, ident in members:
        family, params = _knot_of(ident, width)
        m, n, q_min = _key_parts(key, width)
        k = n if family == "torus" else 4
        a, b = params[:2]
        assert q_min == k * a * a == _class_min_by_pow(m, k * b * b), (family, params, m, n)
    # the yielded rows and the run members are the rows made one by one, each once
    assert sorted(rows + members) == sorted(oracles.product_rows(config, 1, order_max + 1))
    # a run spans b that share a factor with a; planted alone, one whose row would
    # otherwise be regular is no member
    planted = []
    for keys, bs, idents, k, a, eps in runs:
        for i, b in enumerate(bs):
            t, r = divmod(b, a)
            m, z = k * a * b + eps, k * b * r - eps * t
            if gcd(a, b) > 1 and t >= 2 and k * a * a < z < m - k * a * a:
                planted.append((keys[i:i + 1], bs[i:i + 1], idents[i:i + 1], k, a, eps))
    assert planted
    assert list(_run_rows(planted)) == []


def _assert_row_classes(knot, den):
    # each lens slope m/den of the knot is one search row, keyed by the class that pow names
    family, params = knot.family, knot.params
    if _TABLE[family].symmetric:  # the rows list the first two parameters in ascending order
        params = (*sorted(params[:2]), *params[2:])
    for m, q in _TABLE[family].slopes(den, *params):
        config = SearchConfig(families={family}, order_max=m, slope_denominators={den},
                              **{_TABLE[family].cap: max(params)})
        width = _ident_width(m)
        keys = [key for key, ident in _rows(config, m, m + 1) if _knot_of(ident, width) == (family, params)]
        assert [_key_parts(key, width) for key in keys] == [(m, den, _class_min_by_pow(m, q))], (knot, den, m)


def _coprime(st, lo, hi):
    # a hypothesis strategy of coprime pairs in [lo, hi]
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).filter(lambda pair: gcd(*pair) == 1)


def test_closed_form_inverses_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # (knot, slope denominator); only torus knots have lens slopes off denominator 1
    cases = st.one_of(
        st.builds(lambda pq, den: (torus(*pq), den), _coprime(st, 2, 10**4), st.integers(1, 16)),
        st.builds(lambda ab, eps: (cable(*ab, eps), 1), _coprime(st, 2, 10**4), st.sampled_from((-1, 1))),
        _coprime(st, 1, 10**3).map(lambda ab: (kplus(*ab), 1)),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases)
    def check(case):
        _assert_row_classes(*case)

    check()


def _first_n(family):
    return 3 if family == "cable_kplus" else 1


def test_verify_slopes_match_paper_formulas():
    # the witness reads "<knot> & <knot> @ <m/n> -> ..."
    for family in VERIFY_FAMILIES:
        report = verify_family(family, range(_first_n(family), 200))
        assert report.passed, family
        for check in report.checks:
            first, second, slope = oracles.family_pair(family, check.n)
            assert check.witness.startswith(f"{first} & {second} @ {slope} -> "), (family, check.n)


def test_verify_pairs_share_exactly_one_lens_slope():
    for family in VERIFY_FAMILIES:
        for n in range(_first_n(family), 200):
            first, second, slope = oracles.family_pair(family, n)
            ms = [{m for m, *_ in _TABLE[knot.family].slopes(slope.n, *knot.params)} for knot in (first, second)]
            assert ms[0] & ms[1] == {slope.m}, (family, n)


def _certified_types(knot):
    # the types that the table allows the knot: its family's ``types``, narrowed to
    # hyperbolic where the knot's ``hyperbolic`` certificate (kplus: phi >= 2) holds
    entry = _TABLE[knot.family]
    return {"hyperbolic"} if entry.hyperbolic(*knot.params) else entry.types


def test_verified_constructions_pair_the_papers_knot_types():
    # certificates give (torus, torus), (torus, satellite) and (satellite, hyperbolic); the
    # tangles' type, not torus, is trusted from the paper's construction and gives (torus,
    # hyperbolic) and (hyperbolic, hyperbolic).  No construction pairs two satellites.
    torus_type, satellite, hyperbolic, tangle = {"torus"}, {"satellite"}, {"hyperbolic"}, {"satellite", "hyperbolic"}
    assert _TABLE["tangleHH"].types == _TABLE["tangleTH"].types == tangle
    expected = {
        "torus_torus": (range(1, 30), torus_type, torus_type),
        "torus_torus_half": (range(1, 30), torus_type, torus_type),
        "torus_cable": (range(1, 30), torus_type, satellite),
        "cable_kplus": (range(3, 41), satellite, hyperbolic),
        "torus_tangle": (range(1, 30), torus_type, tangle),
        "tangle_kplus": (range(1, 30), tangle, hyperbolic),
    }
    assert set(expected) == set(VERIFY_FAMILIES)
    for family, (ns, first_types, second_types) in expected.items():
        assert (first_types, second_types) != (satellite, satellite)
        for n in ns:
            first, second, _ = oracles.family_pair(family, n)
            assert (_certified_types(first), _certified_types(second)) == (first_types, second_types), (family, n)


def _oracle_report(family, ns):
    # each instance from the paper's formulas, evaluated on KnotDescriptor,
    # SurgerySlope and LensSpace objects by the oracle's if-chains
    checks = []
    for n in sorted(set(ns)):
        first, second, slope = oracles.family_pair(family, n)
        one = oracles.lens_surgery(first, slope).space
        two = oracles.lens_surgery(second, slope).space
        passed = homeomorphic(one, two) and oracles.distinct(first, second) == "distinct"
        checks.append(FamilyCheck(family, n, passed, f"{first} & {second} @ {slope} -> {one} ~ {two}"))
    return FamilyReport(family, tuple(checks))


@pytest.mark.parametrize("family", VERIFY_FAMILIES)
def test_verify_family_matches_the_oracle_report(family):
    # every n below 2000 (cable_kplus to 300, where each instance runs a phi scan),
    # then an unsorted list with a duplicate and gaps, so that the walk restarts
    ns = range(_first_n(family), 301 if family == "cable_kplus" else 2000)
    report = verify_family(family, ns)
    assert report.passed
    assert report == _oracle_report(family, ns)
    gapped = [7, 3, 3, 100, 101, 102, 500]
    assert verify_family(family, gapped) == _oracle_report(family, gapped)


def _coprime_pairs(lo, hi):
    return [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1) if gcd(a, b) == 1]


# a box of valid parameters for each family, and the slope denominators it is tested at
LEMMA_BOX = {
    "torus": (_coprime_pairs(2, 40), range(1, 17)),
    "cable": ([(a, b, eps) for a, b in _coprime_pairs(2, 30) for eps in (-1, 1)], (1,)),
    "kplus": (_coprime_pairs(1, 60), (1,)),
    "tangleHH": ([(n,) for n in range(1, 2001)], (1,)),
    "tangleTH": ([(n,) for n in range(1, 2001)], (1,)),
}


def assert_table_lemma(family, params_list=None, dens=None):
    """Every slope (m, q) that the table lists for each knot of ``family``
    with parameters in ``params_list`` at each denominator of ``dens`` (by
    default its ``LEMMA_BOX``) is a lens space: ``make_lens(m, q)`` raises
    nothing, so m >= 1 and gcd(m, q) = 1, and it raises what make_lens
    raises where the lemma fails."""
    box_params, box_dens = LEMMA_BOX[family]
    for params in box_params if params_list is None else params_list:
        _check_knot(family, params)
        for den in box_dens if dens is None else dens:
            for m, q in _TABLE[family].slopes(den, *params):
                make_lens(m, q)


def test_every_family_has_a_lemma_box():
    assert set(LEMMA_BOX) == set(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_table_lemma(family):
    assert_table_lemma(family)


def test_table_lemma_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # (family, params, denominators); only torus knots have lens slopes off denominator 1
    cases = st.one_of(
        st.tuples(st.just("torus"), _coprime(st, 2, 10**12), st.just(range(1, 17))),
        st.tuples(st.just("cable"),
                  st.builds(lambda ab, eps: (*ab, eps), _coprime(st, 2, 10**12), st.sampled_from((-1, 1))),
                  st.just((1,))),
        st.tuples(st.just("kplus"), _coprime(st, 1, 10**12), st.just((1,))),
        st.tuples(st.sampled_from(("tangleHH", "tangleTH")), st.integers(1, 10**12).map(lambda n: (n,)),
                  st.just((1,))),
    )

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(cases)
    def check(case):
        family, params, dens = case
        assert_table_lemma(family, [params], dens)

    check()


def assert_constructions_valid(family, ns=None):
    """Both knots of each instance n of ``ns``, by default every n from the
    construction's first to 3000, pass ``_check_knot``; the first knot is
    checked first."""
    low, _, _, first, second, _ = search._VERIFY[family]
    if ns is None:
        ns = range(low, 3001)
    for params1, params2 in search._instances(family, ns):
        _check_knot(first, params1)
        _check_knot(second, params2)


@pytest.mark.parametrize("family", VERIFY_FAMILIES)
def test_verified_constructions_are_valid_knots(family):
    assert_constructions_valid(family)


def test_verified_constructions_are_valid_knots_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = st.sampled_from(VERIFY_FAMILIES).flatmap(
        lambda family: st.tuples(st.just(family), st.integers(search._VERIFY[family][0], 10**4)))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(cases)
    def check(case):
        family, n = case
        assert_constructions_valid(family, [n])

    check()


def _shared_by_objects(first, second, dens):
    # the slopes m/den that the oracle's rules give both knots, each space from lens_surgery
    shared = []
    for den in dens:
        orders = {m for m, _ in oracles._lens_slopes(second.family, second.params, den)}
        for m, _ in oracles._lens_slopes(first.family, first.params, den):
            if m in orders:
                slope = SurgerySlope(m, den)
                assert slope.n == den  # a lens slope m/den is reduced: m = -+1 (mod den) for a torus knot
                one, two = lens_surgery(first, slope).space, lens_surgery(second, slope).space
                shared.append((den, m, one.q, two.q, homeomorphic(one, two)))
    return shared


def test_shared_lens_slopes_match_lens_surgery():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    knot = st.one_of(
        _coprime(st, 2, 200).map(lambda pq: torus(*pq)),
        st.builds(lambda ab, eps: cable(*ab, eps), _coprime(st, 2, 200), st.sampled_from((-1, 1))),
        _coprime(st, 1, 200).map(lambda ab: kplus(*ab)),
        st.integers(1, 200).map(tangle_hh),
        st.integers(1, 200).map(tangle_th),
    )
    sharing = st.sampled_from(oracles.torus_pairs_sharing_a_product(60)).map(
        lambda pair: (torus(*pair[0]), torus(*pair[1])))
    instance = st.sampled_from(VERIFY_FAMILIES).flatmap(
        lambda family: st.integers(_first_n(family), 60).map(lambda n: oracles.family_pair(family, n)[:2]))
    # random pairs, which seldom share a slope, and pairs that share slopes: one knot twice,
    # torus knots of equal product, and the verified constructions
    pairs = st.one_of(st.tuples(knot, knot), knot.map(lambda k: (k, k)), sharing, instance)

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(pairs, st.booleans())
    def check(pair, swap):
        first, second = reversed(pair) if swap else pair
        dens = range(1, 17)
        found = _shared_lens_slopes(first.family, first.params, second.family, second.params, dens)
        assert found == _shared_by_objects(first, second, dens), (first, second)

    check()
