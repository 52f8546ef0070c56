import random
import time
from math import gcd

import pytest

from lenspairs.dualknot import (
    BasicSequenceStats,
    DualKnotTriple,
    _floor_sum,
    basic_stats,
    kplus_dual,
    kplus_is_hyperbolic,
)
from lenspairs.knots import InvalidKnot, KnotDescriptor
from lenspairs.lens import NotCoprime
from lenspairs.sequences import fib
from oracles import basic_stats_bruteforce, fibonacci_kplus_data


def random_triple(rng, p_max):
    while True:
        p = rng.randrange(3, p_max + 1)
        q = rng.randrange(1, p)
        if gcd(p, q) != 1:
            continue
        k = rng.randrange(1, p)
        return DualKnotTriple(p, q, k)


def test_triple_validation():
    with pytest.raises(ValueError):
        DualKnotTriple(10, 5, 1)
    with pytest.raises(ValueError):
        DualKnotTriple(10, 3, 0)
    with pytest.raises(ValueError):
        DualKnotTriple(10, 3, 10)


def test_triple_checks_its_parameter_by_the_lens_rule():
    # the coprime-parameter rule and its message are those of make_lens
    with pytest.raises(NotCoprime, match=r"^gcd\(10, 5\) != 1$"):
        DualKnotTriple(10, 5, 1)
    with pytest.raises(ValueError, match="parameter 13 invalid mod 10"):
        DualKnotTriple(10, 13, 1)
    with pytest.raises(ValueError, match="order must be >= 2"):
        DualKnotTriple(1, 0, 0)


def test_kplus_dual_values():
    assert kplus_dual(1, 3) == DualKnotTriple(13, 3, 9)
    assert kplus_dual(2, 3) == DualKnotTriple(19, 11, 7)
    assert kplus_dual(4, 7) == DualKnotTriple(93, 25, 67)
    with pytest.raises(ValueError):
        kplus_dual(2, 4)


@pytest.mark.parametrize("params", [(2, 4), (0, 1), (3, -1)])
def test_kplus_rule_is_the_table_rule(params):
    # kplus_dual and the family table reject a bad pair with one message
    with pytest.raises(ValueError) as from_dual:
        kplus_dual(*params)
    with pytest.raises(InvalidKnot) as from_table:
        KnotDescriptor("kplus", params)
    assert str(from_dual.value) == str(from_table.value) == f"kplus parameters must be coprime and >= 1, got {params}"


def test_basic_stats_small_cases():
    # walk for (13, 3): 3 6 9 12 2 5 8 11 1 4 7 10; k = 9 sits at h = 3
    assert basic_stats(DualKnotTriple(13, 3, 9)) == BasicSequenceStats(3, 2, 0, 6, 3, 0)
    assert basic_stats(DualKnotTriple(19, 11, 7)) == BasicSequenceStats(11, 4, 6, 2, 5, 2)
    big = basic_stats(kplus_dual(4, 7))
    assert big.phi >= 2
    assert big == basic_stats_bruteforce(kplus_dual(4, 7))


def test_count_identities():
    rng = random.Random(41)
    for _ in range(200):
        triple = random_triple(rng, 800)
        stats = basic_stats(triple)
        assert stats.s + stats.ell == stats.h - 1
        assert stats.s_prime + stats.ell_prime == triple.p - 1 - stats.h
        assert stats.phi == min(stats.s, stats.ell, stats.s_prime, stats.ell_prime)


def test_walk_is_permutation():
    for p, q in ((9973, 314), (10000, 7919), (4096, 315)):
        if gcd(p, q) != 1:
            continue
        assert sorted(i * q % p for i in range(1, p)) == list(range(1, p))


def test_streaming_equals_bruteforce():
    rng = random.Random(43)
    for _ in range(500):
        triple = random_triple(rng, 5000)
        assert basic_stats(triple) == basic_stats_bruteforce(triple)


def test_floor_sum_matches_direct_sum():
    rng = random.Random(53)
    for _ in range(2000):
        n, m = rng.randrange(0, 60), rng.randrange(1, 60)
        a, b = rng.randrange(-200, 200), rng.randrange(-200, 200)
        assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_basic_stats_edge_triples():
    triples = [DualKnotTriple(2, 1, 1)]
    for p in (3, 4, 5, 12, 97, 100):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            # k = 1, k = p-1, h = 1 (k = q) and h = p-1 (k = -q)
            triples += [DualKnotTriple(p, q, k) for k in {1, p - 1, q, p - q}]
    for triple in triples:
        assert basic_stats(triple) == basic_stats_bruteforce(triple)


def test_basic_stats_matches_bruteforce_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def triples(draw):
        p = draw(st.integers(2, 3000))
        q = draw(st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1))
        return DualKnotTriple(p, q, draw(st.integers(1, p - 1)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(triples())
    def check(triple):
        assert basic_stats(triple) == basic_stats_bruteforce(triple)

    check()


def test_fibonacci_phi_at_n_1000():
    start = time.perf_counter()
    triple = fibonacci_kplus_data(1000)
    stats = basic_stats(triple)
    elapsed = time.perf_counter() - start
    assert len(str(triple.p)) == 419
    assert stats.phi >= 2
    assert stats.s + stats.ell == stats.h - 1
    assert stats.s_prime + stats.ell_prime == triple.p - 1 - stats.h
    assert stats.phi == min(stats.s, stats.ell, stats.s_prime, stats.ell_prime)
    # the flip k -> p - k runs two other floor sums and must permute the counts
    flipped = basic_stats(DualKnotTriple(triple.p, triple.q, triple.p - triple.k))
    assert (flipped.s, flipped.ell, flipped.s_prime, flipped.ell_prime) == (
        stats.ell_prime,
        stats.s_prime,
        stats.ell,
        stats.s,
    )
    assert elapsed < 1.0


def test_hyperbolicity_examples():
    assert not kplus_is_hyperbolic(1, 3)  # the (3,4)-torus knot
    assert kplus_is_hyperbolic(2, 3)  # the (-2,3,7)-pretzel knot
    assert kplus_is_hyperbolic(5, 2)


def test_kq_relation():
    # k + q + 1, k - q^2 and k*q - 1 all vanish mod p
    for a in range(1, 61):
        for b in range(1, 61):
            if gcd(a, b) != 1:
                continue
            triple = kplus_dual(a, b)
            p, q, k = triple.p, triple.q, triple.k
            assert (k + q + 1) % p == 0
            assert (k - q * q) % p == 0
            assert (k * q - 1) % p == 0


def test_fibonacci_closed_forms():
    assert fibonacci_kplus_data(3) == DualKnotTriple(39, 16, 22)
    assert fibonacci_kplus_data(4) == DualKnotTriple(97, 61, 35)
    assert fibonacci_kplus_data(1) == kplus_dual(2, 1)
    for n in range(1, 16):
        assert fibonacci_kplus_data(n) == kplus_dual(fib(n + 2), fib(n))


def test_hyperbolic_families():
    for n in range(1, 16):
        assert kplus_is_hyperbolic(3 * n + 1, 3 * n + 4)
    for n in range(3, 10):
        assert kplus_is_hyperbolic(fib(n + 2), fib(n))


def test_phi_under_core_parameter_flip():
    # k -> p - k permutes the four counts to (ell', s', ell, s); phi is unchanged
    rng = random.Random(47)
    for _ in range(200):
        triple = random_triple(rng, 1500)
        if triple.k == triple.p - triple.k:
            continue
        flipped = DualKnotTriple(triple.p, triple.q, triple.p - triple.k)
        one, two = basic_stats(triple), basic_stats(flipped)
        assert (two.s, two.ell, two.s_prime, two.ell_prime) == (
            one.ell_prime,
            one.s_prime,
            one.ell,
            one.s,
        )
        assert two.phi == one.phi


def test_phi_under_reversing_transformation():
    # (p, q, k) -> (p, q0, k0) with q0*q = -1 and k0 = -q mod p swaps the
    # before/after count pairs for the duals that arise from kplus knots
    for a in range(1, 25):
        for b in range(1, 25):
            if gcd(a, b) != 1 or (a, b) == (1, 1):
                continue
            triple = kplus_dual(a, b)
            p = triple.p
            q0 = -pow(triple.q, -1, p) % p
            k0 = -triple.q % p
            if q0 == 0 or k0 == 0:
                continue
            other = DualKnotTriple(p, q0, k0)
            one, two = basic_stats(triple), basic_stats(other)
            assert two.phi == one.phi
            assert {two.s, two.ell, two.s_prime, two.ell_prime} == {
                one.s,
                one.ell,
                one.s_prime,
                one.ell_prime,
            }
