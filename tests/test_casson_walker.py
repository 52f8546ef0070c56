"""The oriented lens space of every table surgery against the knot invariant a2.

A knot K in S^3 has an integral a2 = Delta''_K(1)/2, and ``oracles.surgery_a2``
reads it off the oriented lens space that m/n-surgery on K gives.  So each
table row checks its orientation against an independent closed form.  The
unoriented search and verify answers do not depend on it.
"""

from fractions import Fraction
from math import gcd

from lenspairs.cli import run
from lenspairs.knots import _TABLE, SurgerySlope, cable, genus, kplus, lens_surgery, tangle_hh, torus
from oracles import dedekind_sum, natural_slope, surgery_a2, torus_a2


def knot_a2(knot, slope=None):
    # a2 read off the knot's lens surgery at slope, by default its one integral lens slope
    slope = slope or natural_slope(knot)
    return surgery_a2(slope.m, slope.n, lens_surgery(knot, slope).space.q)


def test_dedekind_sum_matches_the_defining_sum():
    # s(h, k) = sum of ((i/k))((hi/k)) over 0 < i < k, where ((x)) = x - floor(x) - 1/2
    # off the integers; with gcd(h, k) = 1 no hi/k is an integer, so the sum is over ints
    for k in range(1, 201):
        for h in range(-k, k):
            if gcd(h, k) == 1:
                defined = Fraction(sum((2 * i - k) * (2 * (h * i % k) - k) for i in range(1, k)), 4 * k * k)
                assert dedekind_sum(h, k) == defined, (h, k)


def test_torus_rows_give_the_torus_a2_at_every_denominator():
    checked = 0
    for den in range(1, 17):
        for p in range(2, 25):
            for q in range(p + 1, 25):
                if gcd(p, q) == 1:
                    for m in (den * p * q - 1, den * p * q + 1):
                        assert knot_a2(torus(p, q), SurgerySlope(m, den)) == torus_a2(p, q), (p, q, m, den)
                        checked += 1
    assert checked == 4992


def test_cable_rows_give_the_cable_a2():
    # the (2, 2ab+eps)-cable of T(a, b) has Delta(t) = Delta_{T(a,b)}(t^2) * Delta_{T(2,2ab+eps)}(t),
    # and Delta''(1)/2 of the product adds up, the t^2 factor weighted by 4
    for a in range(2, 30):
        for b in range(2, 30):
            if a != b and gcd(a, b) == 1:
                for eps in (1, -1):
                    assert knot_a2(cable(a, b, eps)) == 4 * torus_a2(a, b) + torus_a2(2, 2 * a * b + eps), (a, b, eps)


def test_kplus_one_b_has_the_a2_of_its_torus_alias():
    # kplus(1, b) and torus(b, b+1) give L(b^2+b+1, (b+1)^2) at one slope
    for b in range(2, 200):
        assert knot_a2(kplus(1, b)) == torus_a2(b, b + 1), b


def test_tangle_hh_has_the_a2_of_its_tangle_kplus_partner():
    for n in range(1, 150):
        assert knot_a2(tangle_hh(n)) == knot_a2(kplus(3 * n + 1, 3 * n + 4)), n


def test_lens_surgery_knots_meet_the_l_space_bounds_on_their_genus():
    # A knot with a positive lens surgery is an L-space knot: the nonzero coefficients of its
    # Alexander polynomial are +-1 and alternate from +1 at t^g (Ozsvath and Szabo, Topology 44,
    # 2005).  So its torsion coefficients t_s fall by 0 or 1 per step from s = 0 to t_{g-1} = 1,
    # t_g = 0, and a2 = t_0 + 2(t_1 + ... + t_{g-1}) lies in [2g - 1, g^2].  tangleTH has no genus,
    # and kplus(1,1), of genus 0, is the unknot.
    knots = ([torus(p, q) for q in range(3, 25) for p in range(2, q) if gcd(p, q) == 1]
             + [kplus(a, b) for b in range(2, 40) for a in range(1, b) if gcd(a, b) == 1]
             + [tangle_hh(n) for n in range(1, 150)])
    assert len(knots) == 778
    for knot in knots:
        m, q = _TABLE[knot.family].slopes(1, *knot.params)[0]  # the table row of a positive lens slope
        g, a2 = genus(knot), surgery_a2(m, 1, q)
        assert 2 * g - 1 <= a2 <= g * g, (knot, g, a2)


def test_tangle_th_rows_are_the_mirrors_of_knot_surgeries(capsys):
    # The known defect of the tangleTH data: the table prints L(66,29) at 66/1, whose a2 is
    # not an integer, so no knot in S^3 gives it by +66 surgery.  Its mirror L(66,37) gives
    # 168, the a2 of the torus_tangle partner torus(5,13).  Mending the table's sign flips
    # the first assertion to L(66,37).
    assert run(["surgery", "tangleTH", "1", "--slope", "66/1"]) == 0 and "L(66,29)" in capsys.readouterr().out
    assert surgery_a2(66, 1, 29) == Fraction(536, 3)
    assert surgery_a2(66, 1, 37) == 168 == torus_a2(5, 13)
    # so for every n: L(m, 18n+19) has the a2 of torus(3n+2,6n+7), and the tabulated L(m, -(18n+19)) none
    for n in range(1, 200):
        m, q = 18 * n * n + 33 * n + 15, 18 * n + 19
        assert surgery_a2(m, 1, q) == torus_a2(3 * n + 2, 6 * n + 7), n
        assert surgery_a2(m, 1, -q).denominator != 1, n
