"""Fibonacci numbers, two auxiliary pair sequences, and exact identity checks.

Two families of integer pairs (a_n, b_n) drive the torus-knot pair
constructions:

* ``fibonacci``: a_n = F(n+2) and b_n = F(n+3) + F(n+1), so the b_n are
  Lucas numbers.  Starts (2, 4), (3, 7), (5, 11), ...
* ``pell``: a_1 = 2, b_1 = 3 with a_{n+1} = a_n + b_n and
  b_{n+1} = a_{n+1} + a_n.  Starts (2, 3), (5, 7), (12, 17), ...

``_walk`` gives the Fibonacci pair (F(n), F(n+1)) or the pell pair at each
n of a list, one addition step apart while n runs consecutively, for the
verified constructions of ``search``.

``check_identity`` evaluates both sides of the closed-form identities these
sequences satisfy and reports equality, exactly and with no tolerance; the
checks return booleans instead of asserting so that callers can aggregate
failures into reports.  ``_failures`` checks one identity over a range of
indices from the pairs that ``_walk`` steps, so each consecutive index costs
O(1) big-int products; ``check_identity`` is the same check at one index.
An index is an int, and a bool is none.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "IDENTITIES",
    "InvalidIndex",
    "SequencePair",
    "check_identity",
    "fib",
    "pair",
]

# each identity with the first index at which it holds
IDENTITIES = {"cassini": 1, "fib_cross": 1, "pell_cross": 1, "pell_product": 1, "fib_quartic": 0}
# the sequence whose walked pair ``_holds`` reads for each identity
_SEQUENCE = {"cassini": "fibonacci", "fib_cross": "fibonacci", "pell_cross": "pell", "pell_product": "pell",
             "fib_quartic": "fibonacci"}


class InvalidIndex(ValueError):
    """Index outside the valid range of a sequence or identity."""


def _check_index(n) -> None:
    if type(n) is not int:  # a bool is no index either
        raise InvalidIndex(f"index must be an int, got {n!r}")


def fib(n: int) -> int:
    """The n-th Fibonacci number, F(0) = 0 and F(1) = 1.

    Fast doubling over the bits of n, O(log n) steps: with (a, b) =
    (F(k), F(k+1)), F(2k) = a (2b - a) and F(2k+1) = a^2 + b^2.
    """
    _check_index(n)
    if n < 0:
        raise InvalidIndex("Fibonacci index must be >= 0")
    return _fib_pair(n)[0]


def _fib_pair(n: int) -> tuple[int, int]:
    # (F(n), F(n+1)) for n >= 0 in one fast-doubling pass
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


@dataclass(frozen=True)
class SequencePair:
    """The n-th pair (a, b) of one of the two families."""

    family: str
    n: int
    a: int
    b: int


def pair(family: str, n: int) -> SequencePair:
    """The pair (a_n, b_n) of the requested family, n >= 1."""
    _check_index(n)
    if n < 1:
        raise InvalidIndex("pair index must be >= 1")
    if family == "fibonacci":
        # a_n = F(n+2) and b_n = F(n+1) + F(n+3) = 2 F(n+1) + F(n+2)
        f1, f2 = _fib_pair(n + 1)
        return SequencePair(family, n, f2, 2 * f1 + f2)
    if family == "pell":
        # b_n + a_n sqrt(2) = (1 + sqrt(2))^(n+1), by squaring in Z[sqrt(2)]
        x, y = 1, 0
        for bit in bin(n + 1)[2:]:
            x, y = x * x + 2 * y * y, 2 * x * y
            if bit == "1":
                x, y = x + 2 * y, x + y
        return SequencePair(family, n, y, x)
    raise InvalidIndex(f"unknown family {family!r}")


def _walk(family: str, ns):
    """For each n of ns in turn, the pair of ``family`` at n as two ints:
    ``_fib_pair(n)``, that is (F(n), F(n+1)), for "fibonacci", and (a_n,
    b_n) of ``pair("pell", n)`` for "pell".  While each n is one more than
    the last, the pair steps by additions; any other n restarts the walk
    from ``_fib_pair`` or ``pair``."""
    last = None
    for n in ns:
        if n - 1 != last:
            if family == "fibonacci":
                a, b = _fib_pair(n)
            else:
                start = pair(family, n)
                a, b = start.a, start.b
        elif family == "fibonacci":
            a, b = b, a + b
        else:
            a, b = a + b, a + a + b
        last = n
        yield a, b


def _holds(name: str, n: int, walked: tuple[int, int]) -> bool:
    """Both sides of the named identity at n, from the pair that ``_walk`` gives
    at n: (F(n), F(n+1)) for the Fibonacci identities and (a_n, b_n) for the
    pell ones.  Every other term comes by the recurrences' additions."""
    sign = -1 if n % 2 else 1  # (-1)^n
    if name == "cassini":
        f, f1 = walked
        return (f1 - f) * f1 - f * f == sign
    if name == "fib_cross":
        # a(n) = F(n+2), b(n) = F(n+1) + F(n+3), a(n+1) = F(n+3), b(n+1) = F(n+2) + F(n+4)
        f, f1 = walked
        f2 = f + f1
        f3 = f1 + f2
        return f3 * (f1 + f3) - sign == f2 * (f2 + f2 + f3) + sign
    if name == "pell_cross":
        # pair("pell", n + 1) is (a + b, 2a + b)
        a, b = walked
        return 2 * a * (a + a + b) - sign == 2 * (a + b) * b + sign
    if name == "pell_product":
        a, b = walked
        a1, b1 = a + b, a + a + b
        ab = 2 * a1 * b1  # 4 a(n+1)^2 b(n+1)^2 is its square
        return ab * ab + 1 == (2 * a1 * (a1 + a1 + b1) + sign) * (2 * a * b1 - sign)
    # fib_quartic
    f, f1 = walked
    f2 = f + f1
    ff, f2f2 = f * f, f2 * f2
    return 4 * ff * ff + sign * f2f2 == (4 * f * f2 + sign) * (f2f2 - 4 * f * f1)


def _failures(name: str, ns) -> list[int]:
    """The n of ns, in turn, at which the named identity fails: ``_holds`` on
    the pair that ``_walk`` gives at each n, so consecutive n cost O(1) big-int
    products each."""
    return [n for n, walked in zip(ns, _walk(_SEQUENCE[name], ns)) if not _holds(name, n, walked)]


def check_identity(name: str, n: int) -> bool:
    """Evaluate both sides of the named identity at index n; True iff equal.

    cassini       F(n-1) F(n+1) - F(n)^2 = (-1)^n
    fib_cross     a(n+1) b(n) + (-1)^(n+1) = a(n) b(n+1) + (-1)^n    fibonacci
    pell_cross    2 a(n) b(n+1) + (-1)^(n+1) = 2 a(n+1) b(n) + (-1)^n    pell
    pell_product  4 a(n+1)^2 b(n+1)^2 + 1 =
                  (2 a(n+1) b(n+2) + (-1)^(n+2)) (2 a(n) b(n+1) + (-1)^(n+1))    pell
    fib_quartic   4 F(n)^4 + (-1)^n F(n+2)^2 =
                  (4 F(n) F(n+2) + (-1)^n) (F(n+2)^2 - 4 F(n) F(n+1))

    n must be an int at least the identity's first index in ``IDENTITIES``.
    """
    if name not in IDENTITIES:
        raise InvalidIndex(f"unknown identity {name!r}")
    _check_index(n)
    if n < IDENTITIES[name]:
        raise InvalidIndex(f"{name} needs n >= {IDENTITIES[name]}")
    return not _failures(name, (n,))
