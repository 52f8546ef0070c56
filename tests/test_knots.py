from math import gcd

import pytest

from lenspairs.knots import (
    InvalidKnot,
    Lens,
    NotLens,
    ReducibleTwoLens,
    SurgerySlope,
    cable,
    distinct,
    genus,
    kplus,
    lens_surgery,
    tangle_hh,
    tangle_th,
    torus,
)
from lenspairs.lens import homeomorphic, make_lens, oriented_homeomorphic
from oracles import natural_slope


def test_descriptor_text_forms():
    assert str(torus(3, 4)) == "torus(3,4)"
    assert str(cable(2, 3, 1)) == "cable(2,3,+1)"
    assert str(cable(2, 3, -1)) == "cable(2,3,-1)"
    assert str(kplus(4, 7)) == "kplus(4,7)"
    assert str(tangle_hh(1)) == "tangleHH(1)"
    assert str(tangle_th(2)) == "tangleTH(2)"


def test_descriptor_validation():
    with pytest.raises(InvalidKnot):
        torus(2, 4)
    with pytest.raises(InvalidKnot):
        torus(1, 5)
    with pytest.raises(InvalidKnot):
        cable(2, 3, 0)
    with pytest.raises(InvalidKnot):
        cable(1, 3, 1)
    with pytest.raises(InvalidKnot):
        kplus(2, 4)
    with pytest.raises(InvalidKnot):
        tangle_hh(0)
    with pytest.raises(InvalidKnot):
        tangle_th(-1)


def test_slope_normalization():
    assert (SurgerySlope(26, 2).m, SurgerySlope(26, 2).n) == (13, 1)
    assert (SurgerySlope(-13, -1).m, SurgerySlope(-13, -1).n) == (13, 1)
    assert str(SurgerySlope(13)) == "13/1"
    with pytest.raises(ValueError):
        SurgerySlope(5, 0)


def test_torus_surgery():
    assert lens_surgery(torus(2, 3), SurgerySlope(5)) == Lens(make_lens(5, 4))
    result = lens_surgery(torus(3, 4), SurgerySlope(13))
    assert result == Lens(make_lens(13, 3))
    assert oriented_homeomorphic(result.space, make_lens(13, 9))
    # |2*15 - 29| = 1, parameter 2*25 mod 29
    assert lens_surgery(torus(3, 5), SurgerySlope(29, 2)) == Lens(make_lens(29, 21))
    # |2*10 - 29| = 9, so the slope condition fails
    assert lens_surgery(torus(2, 5), SurgerySlope(29, 2)) == NotLens("slope-condition-fails")
    assert lens_surgery(torus(2, 3), SurgerySlope(6)) == ReducibleTwoLens(2, 3)
    assert lens_surgery(torus(2, 3), SurgerySlope(8)) == NotLens("slope-condition-fails")


def test_cable_surgery():
    assert lens_surgery(cable(2, 3, 1), SurgerySlope(25)) == Lens(make_lens(25, 11))
    assert oriented_homeomorphic(make_lens(25, 11), make_lens(25, 16))
    cabling = lens_surgery(cable(2, 3, 1), SurgerySlope(26))
    assert isinstance(cabling, NotLens) and cabling.reason == "unknown-for-family"
    assert cabling.note
    assert lens_surgery(cable(2, 3, 1), SurgerySlope(23)) == NotLens("slope-condition-fails")


def test_kplus_surgery():
    result = lens_surgery(kplus(2, 3), SurgerySlope(19))
    assert result == Lens(make_lens(19, 11))
    assert oriented_homeomorphic(result.space, make_lens(19, 7))
    assert lens_surgery(kplus(2, 3), SurgerySlope(18)) == NotLens("unknown-for-family")


def test_tangle_surgeries():
    assert lens_surgery(tangle_hh(1), SurgerySlope(93)) == Lens(make_lens(93, 67))
    assert lens_surgery(tangle_th(1), SurgerySlope(66)) == Lens(make_lens(66, 29))
    assert lens_surgery(tangle_hh(1), SurgerySlope(92)) == NotLens("unknown-for-family")
    assert lens_surgery(tangle_th(1), SurgerySlope(66, 2)) == NotLens("unknown-for-family")


def test_surgery_rejects_nonpositive_slope():
    with pytest.raises(ValueError):
        lens_surgery(torus(2, 3), SurgerySlope(-5))


def test_natural_slope():
    assert natural_slope(kplus(4, 7)) == SurgerySlope(93)
    assert natural_slope(cable(2, 5, -1)) == SurgerySlope(39)
    assert natural_slope(torus(3, 4)) is None
    assert natural_slope(tangle_hh(2)) == SurgerySlope(27 * 4 + 45 * 2 + 21)
    assert natural_slope(tangle_th(2)) == SurgerySlope(18 * 4 + 33 * 2 + 15)


def test_natural_slope_surgery_is_lens():
    for knot in (cable(3, 4, 1), kplus(3, 5), tangle_hh(3), tangle_th(4)):
        result = lens_surgery(knot, natural_slope(knot))
        assert isinstance(result, Lens)


def test_genus():
    assert genus(kplus(1, 3)) == 3
    assert genus(kplus(1, 3)) == genus(torus(3, 4))
    assert genus(kplus(4, 7)) == 36
    assert genus(tangle_hh(1)) == 35
    assert genus(torus(2, 7)) == 3
    assert genus(cable(2, 3, 1)) is None
    assert genus(tangle_th(1)) is None


def test_distinct():
    assert distinct(torus(3, 4), torus(4, 3)) == "equal"
    assert distinct(kplus(2, 3), kplus(3, 2)) == "equal"
    assert distinct(cable(2, 3, 1), cable(3, 2, 1)) == "equal"
    assert distinct(cable(2, 3, 1), cable(2, 3, -1)) == "distinct"
    assert distinct(torus(3, 4), torus(2, 7)) == "distinct"
    assert distinct(kplus(4, 7), tangle_hh(1)) == "distinct"  # genus 36 vs 35
    assert distinct(cable(2, 3, 1), tangle_th(1)) == "unknown"
    assert distinct(torus(2, 3), cable(2, 3, 1)) == "distinct"
    assert distinct(torus(5, 13), tangle_th(1)) == "distinct"


def test_distinct_kplus_hyperbolicity_certificate():
    # kplus(5, 2) is hyperbolic, so it is neither a cable nor a torus knot
    assert distinct(cable(2, 5, -1), kplus(5, 2)) == "distinct"
    assert distinct(torus(4, 23), kplus(5, 6)) == "distinct"  # genus 33 vs 35
    # kplus(1, 3) is the (3,4)-torus knot: same genus, phi < 2, honestly unknown
    assert distinct(torus(3, 4), kplus(1, 3)) == "unknown"
    assert distinct(torus(2, 3), kplus(1, 2)) == "unknown"


def test_torus_symmetry_surgeries_oriented_homeomorphic():
    for p in range(2, 13):
        for q in range(p + 1, 13):
            if gcd(p, q) != 1:
                continue
            for n in (1, 2):
                for eps in (-1, 1):
                    m = n * p * q + eps
                    one = lens_surgery(torus(p, q), SurgerySlope(m, n))
                    two = lens_surgery(torus(q, p), SurgerySlope(m, n))
                    assert isinstance(one, Lens) and isinstance(two, Lens)
                    assert oriented_homeomorphic(one.space, two.space)


def test_both_integral_slopes_give_coprime_parameters():
    for p in range(2, 16):
        for q in range(p + 1, 16):
            if gcd(p, q) != 1:
                continue
            for m in (p * q - 1, p * q + 1):
                result = lens_surgery(torus(p, q), SurgerySlope(m))
                assert isinstance(result, Lens)
                assert result.space.p == m
                assert gcd(result.space.p, result.space.q) == 1


def test_kplus_parameter_identity():
    # (a/b)^2 and (b/(a+b))^2 agree mod a^2+ab+b^2
    for a in range(1, 101):
        for b in range(1, 101):
            if gcd(a, b) != 1:
                continue
            p = a * a + a * b + b * b
            lhs = (a * pow(b, -1, p)) ** 2 % p
            rhs = (b * pow(a + b, -1, p)) ** 2 % p
            assert lhs == rhs


def test_kplus_swap_oriented_homeomorphic():
    for a in range(1, 20):
        for b in range(a + 1, 20):
            if gcd(a, b) != 1:
                continue
            slope = natural_slope(kplus(a, b))
            one = lens_surgery(kplus(a, b), slope)
            two = lens_surgery(kplus(b, a), slope)
            assert oriented_homeomorphic(one.space, two.space)


def test_torus_cable_pair_instances():
    # torus(2n+1, 4n+4) and cable(n+1, 2n+1, +1) agree at slope 8n^2+12n+5
    for n in range(1, 31):
        slope = SurgerySlope(8 * n * n + 12 * n + 5)
        one = lens_surgery(torus(2 * n + 1, 4 * n + 4), slope)
        two = lens_surgery(cable(n + 1, 2 * n + 1, 1), slope)
        assert isinstance(one, Lens) and isinstance(two, Lens)
        assert homeomorphic(one.space, two.space)


def test_row_ident_names_the_knot_that_made_the_row():
    # a search row numbers its knot by one int and keys its bucket by another;
    # decoding them must give that knot back, the row's slope and the least
    # parameter of the knot's lens space there, up to orientation
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from lenspairs.knots import FAMILIES, KnotDescriptor, _TABLE, _ident_width, _key_parts, _knot_of, _rows
    from lenspairs.lens import canonical_form
    from lenspairs.search import SearchConfig

    def pair(low, top):
        # the rows list each knot once, with its parameters in ascending order; a small first
        # parameter keeps the enumeration of one lens order short while the second grows large
        return st.tuples(st.integers(low, 40), st.integers(low, top)).map(sorted).map(tuple).filter(
            lambda t: gcd(*t) == 1)

    params = {
        "torus": pair(2, 10 ** 6),
        "cable": st.tuples(pair(2, 10 ** 5), st.sampled_from((-1, 1))).map(lambda t: (*t[0], t[1])),
        "kplus": pair(1, 10 ** 4),
        "tangleHH": st.tuples(st.integers(1, 10 ** 4)),
        "tangleTH": st.tuples(st.integers(1, 10 ** 4)),
    }

    @st.composite
    def rows_case(draw):
        family = draw(st.sampled_from(FAMILIES))
        knot = draw(params[family])
        den = draw(st.integers(1, 16)) if family == "torus" else 1
        m = draw(st.sampled_from([m for m, _ in _TABLE[family].slopes(den, *knot)]))
        return family, knot, den, m, draw(st.integers(m, 10 ** 12))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.example(("cable", (2, 3, -1), 1, 23, 23))
    @hypothesis.example(("cable", (2, 3, 1), 1, 25, 10 ** 6))
    @hypothesis.example(("cable", (299, 300, -1), 1, 358799, 358799))
    @hypothesis.example(("torus", (2, 3), 16, 97, 10 ** 12))
    @hypothesis.example(("torus", (5, 7), 16, 561, 561))
    @hypothesis.given(rows_case())
    def check(case):
        family, knot, den, m, order_max = case
        config = SearchConfig(families={family}, order_max=order_max, slope_denominators={den},
                              **{_TABLE[family].cap: max(knot)})
        width = _ident_width(order_max)
        rows = list(_rows(config, m, m + 1))
        assert (family, knot) in {_knot_of(ident, width) for _, ident in rows}
        for key, ident in rows:
            found = KnotDescriptor(*_knot_of(ident, width))
            slope = SurgerySlope(m, den)
            assert _key_parts(key, width) == (m, den, canonical_form(lens_surgery(found, slope).space)[1])

    check()
