import random
from math import gcd

import pytest

from lenspairs import lens
from lenspairs.lens import (
    InvalidOrder,
    LensSpace,
    NotCoprime,
    canonical_form,
    homeomorphic,
    make_lens,
    oriented_homeomorphic,
)
from oracles import reverse_orientation


def random_lens(rng, p_max):
    while True:
        p = rng.randrange(1, p_max + 1)
        q = rng.randrange(p)
        if gcd(p, q) == 1 and (q != 0 or p == 1):
            return make_lens(p, q)


def test_make_lens():
    assert make_lens(5, 9) == make_lens(5, 4)
    assert make_lens(5, 9).q == 4
    assert make_lens(1, 17) == make_lens(1, 0)
    assert str(make_lens(13, 3)) == "L(13,3)"


def test_make_lens_errors():
    with pytest.raises(NotCoprime):
        make_lens(6, 2)
    # the message names the parameter as given, not as reduced
    with pytest.raises(NotCoprime, match=r"^gcd\(5, 10\) != 1$"):
        make_lens(5, 10)
    with pytest.raises(NotCoprime, match=r"^gcd\(6, -2\) != 1$"):
        make_lens(6, -2)
    with pytest.raises(InvalidOrder):
        make_lens(0, 1)
    with pytest.raises(InvalidOrder):
        make_lens(-5, 1)
    # the constructor takes q as make_lens gives it, reduced
    with pytest.raises(ValueError, match=r"^parameter 7 is not reduced mod 5$"):
        LensSpace(5, 7)


def test_reverse_orientation():
    assert reverse_orientation(make_lens(5, 1)) == make_lens(5, 4)
    assert reverse_orientation(make_lens(13, 3)) == make_lens(13, 10)
    assert reverse_orientation(make_lens(1, 0)) == make_lens(1, 0)


def test_oriented_homeomorphic():
    assert oriented_homeomorphic(make_lens(25, 11), make_lens(25, 16))  # 11*16 = 176 = 7*25 + 1
    assert not oriented_homeomorphic(make_lens(5, 1), make_lens(5, 4))
    assert oriented_homeomorphic(make_lens(13, 9), make_lens(13, 3))  # 27 = 2*13 + 1


def test_homeomorphic():
    assert homeomorphic(make_lens(5, 1), make_lens(5, 4))
    assert homeomorphic(make_lens(13, 3), make_lens(13, 10))
    assert not homeomorphic(make_lens(91, 12), make_lens(91, 27))
    assert not homeomorphic(make_lens(5, 1), make_lens(7, 1))


def test_canonical_form():
    assert canonical_form(make_lens(13, 9)) == (13, 3)  # orbit {9, 4, 3, 10}
    assert canonical_form(make_lens(1, 0)) == (1, 0)
    assert canonical_form(make_lens(66, 37)) == (66, 25)  # orbit {37, 29, 25, 41}


def test_canonical_form_idempotent():
    rng = random.Random(3)
    for _ in range(300):
        space = random_lens(rng, 400)
        p, q_min = canonical_form(space)
        assert canonical_form(make_lens(p, q_min)) == (p, q_min)


def test_homeomorphic_iff_same_canonical_form():
    rng = random.Random(5)
    for _ in range(500):
        first = random_lens(rng, 300)
        second = random_lens(rng, 300)
        assert homeomorphic(first, second) == (canonical_form(first) == canonical_form(second))


def test_homeomorphic_iff_same_canonical_form_on_large_orders():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = 10 ** 80

    # the second parameter is drawn from the first one's class {q, -q, q^-1,
    # -q^-1} (pick 0-3) or at random (pick 4), since random pairs of a large
    # order are almost never homeomorphic
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.example(1, 0, 0, 4)
    @hypothesis.example(2, 1, 1, 0)
    @hypothesis.example(2, 1, 1, 4)
    @hypothesis.given(st.integers(1, big), st.integers(0, big), st.integers(0, big), st.integers(0, 4))
    def check(p, q, r, pick):
        hypothesis.assume(gcd(p, q) == 1 and gcd(p, r) == 1)
        q %= p
        if pick < 4 and p > 1:
            inv = pow(q, -1, p)
            r = (q, p - q, inv, p - inv)[pick]
        first, second = make_lens(p, q), make_lens(p, r)
        assert homeomorphic(first, second) == (canonical_form(first) == canonical_form(second))
        assert homeomorphic(second, first) == homeomorphic(first, second)

    check()


def test_equivalence_relation_laws():
    rng = random.Random(17)
    for _ in range(1000):
        first = random_lens(rng, 500)
        second = random_lens(rng, 500)
        third = random_lens(rng, 500)
        assert homeomorphic(first, first)
        assert homeomorphic(first, second) == homeomorphic(second, first)
        if homeomorphic(first, second) and homeomorphic(second, third):
            assert homeomorphic(first, third)


def test_transitivity_on_constructed_chains():
    # random triples are rarely related, so exercise genuinely related ones
    rng = random.Random(19)
    for _ in range(300):
        first = random_lens(rng, 500)
        if first.p < 3:
            continue
        p, q = first.p, first.q
        second = make_lens(p, pow(q, -1, p))
        third = make_lens(p, p - q)
        assert homeomorphic(first, second) and homeomorphic(second, third)
        assert homeomorphic(first, third)


def test_oriented_implies_unoriented():
    rng = random.Random(23)
    for _ in range(400):
        first = random_lens(rng, 300)
        second = random_lens(rng, 300)
        if oriented_homeomorphic(first, second):
            assert homeomorphic(first, second)


def test_orientation_reversal_is_unoriented_homeomorphic():
    rng = random.Random(29)
    for _ in range(400):
        space = random_lens(rng, 500)
        assert homeomorphic(space, reverse_orientation(space))


def test_same_class_matches_canonical_form_equality():
    for p in range(1, 121):
        units = [q for q in range(p) if gcd(p, q) == 1]
        form = {q: canonical_form(make_lens(p, q)) for q in units}
        for q1 in units:
            for q2 in units:
                assert lens._same_class(p, q1, q2) == (form[q1] == form[q2]), (p, q1, q2)
