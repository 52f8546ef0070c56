import re
from math import gcd

import hypothesis
import hypothesis.strategies as st
import pytest

from lenspairs.sequences import IDENTITIES, InvalidIndex, _failures, _fib_pair, _walk, check_identity, fib, pair
from oracles import fib_loop, identity_holds, pell_loop


def test_fib_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55
    with pytest.raises(InvalidIndex):
        fib(-1)


def test_fib_matches_loop():
    for n in range(3000):
        assert fib(n) == fib_loop(n)


def test_pell_matches_loop():
    for n in range(1, 3000):
        cur = pair("pell", n)
        assert (cur.a, cur.b) == pell_loop(n)


def test_fibonacci_pair_matches_loop():
    # a_n = F(n+2), b_n = F(n+3) + F(n+1)
    fibs = [0, 1]
    while len(fibs) < 1005:
        fibs.append(fibs[-1] + fibs[-2])
    for n in range(1, 1000):
        cur = pair("fibonacci", n)
        assert (cur.a, cur.b) == (fibs[n + 2], fibs[n + 3] + fibs[n + 1])


@pytest.mark.parametrize("ns", [range(1, 3001), [1, 2, 3, 7, 8, 50, 50, 49, 51, 2000, 2001, 5]])
def test_walk_matches_pair_and_fib_pair(ns):
    # the walk steps while n follows the last n, and restarts at a gap, a repeat or a step back
    for n, (f, f1), (a, b) in zip(ns, _walk("fibonacci", ns), _walk("pell", ns), strict=True):
        assert (f, f1) == _fib_pair(n)
        # a_n = F(n+2) = f + f1 and b_n = F(n+1) + F(n+3) = f1 + (f + 2 f1)
        assert (f + f1, f + 3 * f1) == (pair("fibonacci", n).a, pair("fibonacci", n).b)
        assert (a, b) == (pair("pell", n).a, pair("pell", n).b)


def test_walk_starts_where_its_sequence_does():
    assert list(_walk("fibonacci", [0, 1, 2])) == [(0, 1), (1, 1), (1, 2)]
    with pytest.raises(InvalidIndex):
        list(_walk("pell", [0]))


def test_pair_values():
    assert (pair("pell", 1).a, pair("pell", 1).b) == (2, 3)
    assert (pair("pell", 3).a, pair("pell", 3).b) == (12, 17)
    assert (pair("fibonacci", 1).a, pair("fibonacci", 1).b) == (2, 4)
    assert (pair("fibonacci", 2).a, pair("fibonacci", 2).b) == (3, 7)


def test_pair_errors():
    with pytest.raises(InvalidIndex):
        pair("pell", 0)
    with pytest.raises(InvalidIndex):
        pair("lucas", 1)


def test_check_identity_spot_values():
    # fib_cross at n = 2: 5*7 - 1 = 3*11 + 1 = 34
    cur, nxt = pair("fibonacci", 2), pair("fibonacci", 3)
    assert nxt.a * cur.b - 1 == cur.a * nxt.b + 1 == 34
    assert check_identity("fib_cross", 2)
    # pell_product at n = 1: 4*25*49 + 1 = 4901 = 169 * 29
    assert 4 * 25 * 49 + 1 == 169 * 29 == 4901
    assert check_identity("pell_product", 1)
    # fib_quartic at n = 3: 4*16 - 25 = 39 = (40 - 1)(25 - 24)
    assert 4 * fib(3) ** 4 - fib(5) ** 2 == 39 == (40 - 1) * (25 - 24)
    assert check_identity("fib_quartic", 3)


def test_identity_sweeps():
    for k in range(1, 201):
        assert check_identity("cassini", k)
    for n in range(1, 201):
        assert check_identity("fib_cross", n)
        assert check_identity("pell_cross", n)
        assert check_identity("pell_product", n)
    for n in range(0, 101):
        assert check_identity("fib_quartic", n)


def test_identity_range_errors():
    with pytest.raises(InvalidIndex):
        check_identity("cassini", 0)
    with pytest.raises(InvalidIndex):
        check_identity("fib_cross", 0)
    with pytest.raises(InvalidIndex):
        check_identity("fib_quartic", -1)
    with pytest.raises(InvalidIndex):
        check_identity("nope", 3)


def test_each_identity_starts_at_its_first_index():
    for name, first in IDENTITIES.items():
        assert check_identity(name, first)
        with pytest.raises(InvalidIndex, match=f"{name} needs n >= {first}"):
            check_identity(name, first - 1)


def test_identities_tuple_is_exhaustive():
    for name in IDENTITIES:
        assert check_identity(name, 1)


def test_cross_coprimality():
    for family in ("fibonacci", "pell"):
        for n in range(1, 51):
            cur, nxt = pair(family, n), pair(family, n + 1)
            assert gcd(nxt.a, cur.b) == 1
            assert gcd(cur.a, nxt.b) == 1


def test_pell_ordering_chain():
    for n in range(1, 51):
        cur, nxt = pair("pell", n), pair("pell", n + 1)
        assert cur.a < cur.b < nxt.a < nxt.b


def test_fibonacci_ordering_chain():
    for n in range(1, 51):
        cur, nxt = pair("fibonacci", n), pair("fibonacci", n + 1)
        assert cur.a < nxt.a < cur.b < nxt.b


def test_fibonacci_cross_is_sum_of_squares():
    for n in range(1, 51):
        cur, nxt = pair("fibonacci", n), pair("fibonacci", n + 1)
        assert nxt.a * cur.b + (-1) ** (n + 1) == fib(n + 2) ** 2 + fib(n + 3) ** 2


@pytest.mark.parametrize("index", [True, 1.5, "3"])
@pytest.mark.parametrize("call", [fib, lambda n: pair("pell", n), lambda n: check_identity("cassini", n)],
                         ids=["fib", "pair", "check_identity"])
def test_sequences_take_only_int_indices(call, index):
    with pytest.raises(InvalidIndex, match=f"^index must be an int, got {re.escape(repr(index))}$"):
        call(index)


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_walked_identities_match_the_oracle(name):
    # each range from the identity's first index, and ranges and lists that start or jump
    # mid-sequence, where the walk restarts
    first = IDENTITIES[name]
    for ns in (range(first, 401), range(137, 161), range(first + 1, first + 3), [5, 6, 40, 41, 41, 3, 1000]):
        assert _failures(name, ns) == [n for n in ns if not identity_holds(name, n)], (name, ns)


@hypothesis.given(name=st.sampled_from(list(IDENTITIES)), n=st.integers(0, 10**4))
def test_check_identity_matches_the_oracle(name, n):
    hypothesis.assume(n >= IDENTITIES[name])
    assert check_identity(name, n) == identity_holds(name, n)
