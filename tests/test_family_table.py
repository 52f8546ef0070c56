"""The family table of lenspairs.knots against the per-family if-chains it
replaced (``tests/oracles.py``), on every small knot of all five families."""

from math import gcd

import oracles
from lenspairs.knots import (
    SurgerySlope,
    cable,
    distinct,
    genus,
    kplus,
    lens_surgery,
    natural_slope,
    tangle_hh,
    tangle_th,
    torus,
)

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
        assert natural_slope(knot) == oracles.natural_slope(knot), knot
        assert genus(knot) == oracles.genus(knot), knot


def test_distinct_matches_rules_on_every_ordered_pair():
    for first in KNOTS:
        for second in KNOTS:
            assert distinct(first, second) == oracles.distinct(first, second), (first, second)
