"""find_coincidences against a brute-force oracle built from the public objects.

The oracle knows no family formula: it tries every slope m/n with
m <= order_max on every knot, in both parameter orders, evaluates each with
``lens_surgery``, buckets by ``canonical_form`` and merges knots that
``distinct`` calls equal.
"""

import itertools
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lenspairs.knots import FAMILIES, Lens, SurgerySlope, cable, distinct, kplus, lens_surgery, tangle_hh, tangle_th, torus
from lenspairs.lens import canonical_form
from lenspairs.search import SearchConfig, find_coincidences


def oracle_knots(config):
    knots = []
    if "torus" in config.families:
        top = config.torus_max
        knots += [torus(p, q) for p in range(2, top + 1) for q in range(2, top + 1) if p != q and gcd(p, q) == 1]
    if "cable" in config.families:
        top = config.cable_max
        knots += [cable(a, b, eps) for a in range(2, top + 1) for b in range(2, top + 1)
                  for eps in (-1, 1) if a != b and gcd(a, b) == 1]
    if "kplus" in config.families:
        top = config.kplus_max
        knots += [kplus(a, b) for a in range(1, top + 1) for b in range(1, top + 1) if gcd(a, b) == 1]
    if "tangleHH" in config.families:
        knots += [tangle_hh(n) for n in range(1, config.tangle_max + 1)]
    if "tangleTH" in config.families:
        knots += [tangle_th(n) for n in range(1, config.tangle_max + 1)]
    return sorted(knots)


def oracle_records(config):
    buckets = {}
    for knot in oracle_knots(config):
        # the search takes torus slopes at the configured denominators, the others integral
        dens = sorted(config.slope_denominators) if knot.family == "torus" else [1]
        for n in dens:
            for m in range(1, config.order_max + 1):
                if gcd(m, n) != 1:
                    continue
                slope = SurgerySlope(m, n)
                result = lens_surgery(knot, slope)
                if isinstance(result, Lens):
                    key = (m, n, canonical_form(result.space))
                    kept = buckets.setdefault(key, [])
                    if all(distinct(knot, prev) != "equal" for prev, _ in kept):
                        kept.append((knot, result.space))
    out = []
    for (m, n, lens_class), members in sorted(buckets.items()):  # by (order, slope, class)
        if len(members) >= 2:
            knots = [knot for knot, _ in members]
            certified = max(
                size
                for size in range(1, len(knots) + 1)
                for combo in itertools.combinations(knots, size)
                if all(distinct(x, y) == "distinct" for x, y in itertools.combinations(combo, 2))
            )
            out.append((SurgerySlope(m, n), lens_class, tuple(members), certified))
    return out


configs = st.builds(
    SearchConfig,
    families=st.sets(st.sampled_from(sorted(FAMILIES)), min_size=1),
    torus_max=st.integers(2, 10),
    cable_max=st.integers(2, 6),
    kplus_max=st.integers(1, 8),
    tangle_max=st.integers(1, 3),
    order_max=st.integers(1, 250),
    slope_denominators=st.sets(st.integers(1, 3), min_size=1),
    workers=st.sampled_from([1, 2, 3]),
)


@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(configs)
def test_find_coincidences_matches_oracle(config):
    got = [(r.slope, r.lens_class, r.members, r.certified_multiplicity) for r in find_coincidences(config)]
    assert got == oracle_records(config)


def test_find_coincidences_matches_oracle_on_a_fixed_config():
    # reaches the two three-member buckets (13/1 and 21/1) and a third denominator, whatever hypothesis draws
    config = SearchConfig(order_max=250, torus_max=12, cable_max=16, kplus_max=8, slope_denominators={1, 2, 3})
    got = [(r.slope, r.lens_class, r.members, r.certified_multiplicity) for r in find_coincidences(config)]
    assert got == oracle_records(config)
    assert sorted(len(members) for _, _, members, _ in got)[-2:] == [3, 3]


def test_find_coincidences_matches_oracle_at_the_largest_denominators():
    # 16 is the largest denominator that the int bucket key of a search shard packs
    config = SearchConfig(order_max=250, torus_max=12, cable_max=16, kplus_max=8,
                          slope_denominators={1, 2, 15, 16})
    got = [(r.slope, r.lens_class, r.members, r.certified_multiplicity) for r in find_coincidences(config)]
    assert got == oracle_records(config)
