import random

from lenspairs.arith import is_perfect_square


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

