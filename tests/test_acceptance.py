"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from math import gcd

from lenspairs.bqf import QuadForm, divisibility_scan, fundamental_unit, generate_solutions
from lenspairs.dualknot import (
    DualKnotTriple,
    basic_stats,
    kplus_dual,
    kplus_is_hyperbolic,
)
from lenspairs.knots import Lens, SurgerySlope, lens_surgery, torus
from lenspairs.lens import homeomorphic, make_lens, oriented_homeomorphic
from lenspairs.search import SearchConfig, find_coincidences, verify_family, verify_no_nonintegral_pairs
from lenspairs.sequences import check_identity, fib
from oracles import basic_stats_bruteforce, solutions_in_box


def report(name, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS {name}{suffix}")


def test_criterion_01_identity_sweep():
    start = time.time()
    for k in range(1, 201):
        assert check_identity("cassini", k)
    for n in range(1, 201):
        assert check_identity("fib_cross", n)
        assert check_identity("pell_cross", n)
        assert check_identity("pell_product", n)
    for n in range(0, 101):
        assert check_identity("fib_quartic", n)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("criterion 1: identity sweep, exact equality", elapsed)


def test_criterion_02_trefoil_anchor():
    assert homeomorphic(make_lens(5, 4), make_lens(5, 5 - 1))
    assert lens_surgery(torus(2, 3), SurgerySlope(5)) == Lens(make_lens(5, 4))
    report("criterion 2: 5-surgery on the right-handed trefoil gives L(5,4)")


def test_criterion_03_integral_torus_pairs():
    start = time.time()
    rep = verify_family("torus_torus", range(1, 21))
    assert rep.passed
    first = rep.checks[0].witness
    assert "torus(3,4)" in first and "torus(2,7)" in first and "13/1" in first
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("criterion 3: integral torus pairs n=1..20", elapsed)


def test_criterion_04_half_integral_torus_pairs():
    rep = verify_family("torus_torus_half", range(1, 16))
    assert rep.passed
    assert "29/2" in rep.checks[0].witness
    one = lens_surgery(torus(2, 7), SurgerySlope(29, 2))
    two = lens_surgery(torus(3, 5), SurgerySlope(29, 2))
    assert one == Lens(make_lens(29, 11)) and two == Lens(make_lens(29, 21))
    assert homeomorphic(one.space, two.space)
    report("criterion 4: half-integral torus pairs n=1..15")


def test_criterion_05_no_nonintegral_coincidences():
    start = time.time()
    rep = verify_no_nonintegral_pairs(40, 3, 6)
    assert rep.clean
    assert ((15, 2), (10, 3)) in rep.pairs
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("criterion 5: no shared lens spaces at denominators 3..6, p_max=40", elapsed)


def test_criterion_06_divisibility_scan():
    start = time.time()
    rep = divisibility_scan(range(2, 9), range(1, 31), range(1, 31), range(3, 6))
    assert rep.clean
    boundary = divisibility_scan(range(1, 9), range(1, 31), range(1, 31), range(3, 6))
    assert any(
        (hit.a, hit.b, hit.c, hit.n, hit.value, hit.modulus) == (1, 3, 8, 3, 73, 73)
        for hit in boundary.counterexamples
    )
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("criterion 6: divisibility scan clean for a>=2, a=1 boundary flagged", elapsed)


def test_criterion_07_quadratic_form_pipeline():
    form = QuadForm(1, -6, 1)
    sols = generate_solutions(form, 1, 5)
    assert len(sols) == 5
    for sol in sols:
        assert form(sol.x, sol.y) == 1
    box = set(solutions_in_box(form, 1, 10 ** 4))
    for sol in sols:
        if abs(sol.x) <= 10 ** 4 and abs(sol.y) <= 10 ** 4:
            assert sol in box
    # sign-orbit match: the box is exactly the walked orbits and their negatives
    tau = fundamental_unit(32)
    from lenspairs.bqf import apply_unit, orbit_representatives

    walked = set()
    for rep in orbit_representatives(form, 1):
        for inverse in (False, True):
            cur = rep
            while abs(cur.x) <= 10 ** 4 and abs(cur.y) <= 10 ** 4:
                walked.add(cur)
                cur = apply_unit(form, cur, tau, inverse=inverse)
    assert box == walked | {type(s)(-s.x, -s.y) for s in walked}
    # closed-form fundamental units in both discriminant families
    for t in (6, 8, 10, 12):
        low = fundamental_unit(t * t - 4)
        assert (low.u, low.v) == (t // 2, 1)
        high = fundamental_unit(t * t + 4)
        assert (high.u, high.v) == (t * t // 2 + 1, t)
    report("criterion 7: quadratic-form pipeline against the box oracle")


def test_criterion_08_phi_hyperbolicity():
    assert not kplus_is_hyperbolic(1, 3)
    assert kplus_is_hyperbolic(2, 3)
    for n in range(1, 41):
        assert kplus_is_hyperbolic(3 * n + 1, 3 * n + 4)
    worst = 0.0
    for n in range(3, 16):
        start = time.time()
        assert kplus_is_hyperbolic(fib(n + 2), fib(n))
        worst = max(worst, time.time() - start)
    assert worst < 10.0
    report(f"criterion 8: phi >= 2 on both families, largest case {worst:.2f}s")


def test_criterion_09_core_parameter_relations():
    for a in range(1, 61):
        for b in range(1, 61):
            if gcd(a, b) != 1:
                continue
            triple = kplus_dual(a, b)
            p, q, k = triple.p, triple.q, triple.k
            assert (k + q + 1) % p == 0
            assert (k - q * q) % p == 0
            assert (k * q - 1) % p == 0
    report("criterion 9: k+q+1, k-q^2, kq-1 all vanish mod p for a,b <= 60")


def test_criterion_10_mixed_class_pairs():
    assert verify_family("tangle_kplus", range(1, 13)).passed
    assert verify_family("torus_cable", range(1, 31)).passed
    assert verify_family("cable_kplus", range(3, 13)).passed
    assert verify_family("torus_tangle", range(1, 13)).passed
    # the n=1 witnesses pin the certificates down
    from lenspairs.knots import genus, kplus, tangle_hh

    assert genus(kplus(4, 7)) == 36 and genus(tangle_hh(1)) == 35
    assert 25 * 37 % 66 == 1
    report("criterion 10: mixed-class pairs (tangle/kplus, torus/cable, cable/kplus, torus/tangle)")


def test_criterion_11_conjecture_probe():
    start = time.time()
    sequential = find_coincidences(SearchConfig(order_max=500, workers=1))
    parallel = find_coincidences(SearchConfig(order_max=500, workers=8))
    assert [r.to_json() for r in sequential] == [r.to_json() for r in parallel]
    top = max(record.certified_multiplicity for record in sequential)
    assert top == 2
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        f"criterion 11: probe to order 500 finds {len(sequential)} records, "
        f"largest certified-distinct group {top}",
        elapsed,
    )


def test_criterion_12_property_suites():
    rng = random.Random(97)

    def random_lens(p_max):
        while True:
            p = rng.randrange(1, p_max + 1)
            q = rng.randrange(p)
            if gcd(p, q) == 1 and (q != 0 or p == 1):
                return make_lens(p, q)

    for _ in range(1000):
        one, two, three = random_lens(500), random_lens(500), random_lens(500)
        assert homeomorphic(one, one)
        assert homeomorphic(one, two) == homeomorphic(two, one)
        if homeomorphic(one, two) and homeomorphic(two, three):
            assert homeomorphic(one, three)

    for _ in range(500):
        while True:
            p = rng.randrange(3, 5001)
            q = rng.randrange(1, p)
            if gcd(p, q) == 1:
                break
        triple = DualKnotTriple(p, q, rng.randrange(1, p))
        assert basic_stats(triple) == basic_stats_bruteforce(triple)

    for p in range(2, 31):
        for q in range(p + 1, 31):
            if gcd(p, q) != 1:
                continue
            for n in (1, 2):
                for eps in (-1, 1):
                    slope = SurgerySlope(n * p * q + eps, n)
                    one = lens_surgery(torus(p, q), slope)
                    two = lens_surgery(torus(q, p), slope)
                    assert oriented_homeomorphic(one.space, two.space)
    report("criterion 12: property suites (equivalence laws, streaming oracle, torus symmetry)")
