"""Independent reference implementations that the fast library paths are
tested against.  They walk every term, so they are only fit for small
inputs."""

from lenspairs.dualknot import BasicSequenceStats, DualKnotTriple


def basic_stats_bruteforce(triple: DualKnotTriple) -> BasicSequenceStats:
    """Materialise the whole residue walk i*q mod p and count around k."""
    p, q, k = triple.p, triple.q, triple.k
    walk = [i * q % p for i in range(1, p)]
    h = walk.index(k) + 1
    before = walk[: h - 1]
    after = walk[h:]
    s = sum(1 for v in before if v < k)
    ell = sum(1 for v in before if v > k)
    s_prime = sum(1 for v in after if v < k)
    ell_prime = sum(1 for v in after if v > k)
    return BasicSequenceStats(h, s, ell, s_prime, ell_prime, min(s, ell, s_prime, ell_prime))


def fib_loop(n: int) -> int:
    """F(n) by n additions."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
