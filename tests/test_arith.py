import random

from lenspairs.arith import gcd, is_perfect_square


def test_is_perfect_square():
    assert is_perfect_square(169) == 13
    assert is_perfect_square(32) is None
    assert is_perfect_square(0) == 0
    assert is_perfect_square(-4) is None
    assert is_perfect_square(-1) is None


def test_is_perfect_square_random():
    rng = random.Random(11)
    for _ in range(2000):
        r = rng.randrange(0, 10 ** 6)
        assert is_perfect_square(r * r) == r
        assert is_perfect_square(r * r + 1) in (None, 1)  # only r = 0 gives 1


def test_gcd_values():
    assert gcd(27, 45) == 9
    assert gcd(3, 13) == 1
    assert gcd(0, 7) == 7
    assert gcd(0, 0) == 0


def test_gcd_properties():
    rng = random.Random(13)
    for _ in range(500):
        a = rng.randrange(0, 10 ** 9)
        b = rng.randrange(0, 10 ** 9)
        g = gcd(a, b)
        assert g == gcd(b, a)
        if g:
            assert a % g == 0 and b % g == 0

